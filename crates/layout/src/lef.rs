//! LEF (Library Exchange Format) export of the modified standard-cell
//! library, and DEF (Design Exchange Format) export of the placement.
//!
//! These are the exact artifact kinds the paper's Fig. 9/10 lists as the
//! APR inputs: *"files describing the modified standard cell library (e.g.
//! LEF and GDSII files)"*. The writers emit the standard textual formats
//! (subset): LEF `MACRO` records with `SIZE`/`CLASS`/`PIN` entries, and a
//! DEF `COMPONENTS` section with placed locations.

use crate::physlib::PhysicalLibrary;
use crate::place::Placement;
use std::fmt::Write as _;
use tdsigma_netlist::LeafPins;

/// Serialises the physical library as LEF text.
///
/// Units: LEF microns with a 1000 database. Pins carry their logical
/// direction; resistor cells emit `CLASS CORE ANTENNACELL`-free plain CORE
/// macros with their two passive terminals.
pub fn to_lef(lib: &PhysicalLibrary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "BUSBITCHARS \"[]\" ;");
    let _ = writeln!(out, "DIVIDERCHAR \"/\" ;");
    let _ = writeln!(out, "UNITS\n  DATABASE MICRONS 1000 ;\nEND UNITS");
    let site_um = lib.site_width_nm() as f64 / 1000.0;
    let row_um = lib.row_height_nm() as f64 / 1000.0;
    let _ = writeln!(
        out,
        "SITE core\n  CLASS CORE ;\n  SIZE {site_um:.3} BY {row_um:.3} ;\nEND core"
    );
    for cell in lib.iter() {
        let w_um = cell.width_nm as f64 / 1000.0;
        let _ = writeln!(out, "MACRO {}", cell.name);
        let _ = writeln!(out, "  CLASS CORE ;");
        let _ = writeln!(out, "  ORIGIN 0 0 ;");
        let _ = writeln!(out, "  SIZE {w_um:.3} BY {row_um:.3} ;");
        let _ = writeln!(out, "  SITE core ;");
        if let Ok(pins) = LeafPins::for_cell(&cell.name) {
            for (i, (pin, role)) in pins.pins().iter().enumerate() {
                let direction = match role {
                    tdsigma_netlist::PinRole::Input => "INPUT",
                    tdsigma_netlist::PinRole::Output => "OUTPUT",
                    _ => "INOUT",
                };
                let use_kind = match role {
                    tdsigma_netlist::PinRole::Power => "POWER",
                    tdsigma_netlist::PinRole::Ground => "GROUND",
                    _ => "SIGNAL",
                };
                // Pins on a uniform grid along the cell.
                let x = w_um * (i as f64 + 0.5) / pins.pins().len() as f64;
                let _ = writeln!(out, "  PIN {pin}");
                let _ = writeln!(out, "    DIRECTION {direction} ;");
                let _ = writeln!(out, "    USE {use_kind} ;");
                let _ = writeln!(
                    out,
                    "    PORT\n      LAYER M1 ;\n        RECT {:.3} {:.3} {:.3} {:.3} ;\n    END",
                    x - 0.02,
                    row_um * 0.4,
                    x + 0.02,
                    row_um * 0.6
                );
                let _ = writeln!(out, "  END {pin}");
            }
        }
        let _ = writeln!(out, "END {}", cell.name);
    }
    let _ = writeln!(out, "END LIBRARY");
    out
}

/// Serialises a placement as DEF text (COMPONENTS section with `+ PLACED`
/// locations in database units of 1000/µm = nm).
pub fn to_def(placement: &Placement, design_name: &str, die_w_nm: i64, die_h_nm: i64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {design_name} ;");
    let _ = writeln!(out, "UNITS DISTANCE MICRONS 1000 ;");
    let _ = writeln!(out, "DIEAREA ( 0 0 ) ( {die_w_nm} {die_h_nm} ) ;");
    let _ = writeln!(out, "COMPONENTS {} ;", placement.len());
    for cell in &placement.cells {
        let name = cell.path.replace('/', "__");
        let _ = writeln!(
            out,
            "- {name} {} + PLACED ( {} {} ) N ;",
            cell.cell, cell.x_nm, cell.y_nm
        );
    }
    let _ = writeln!(out, "END COMPONENTS");
    let _ = writeln!(out, "END DESIGN");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::place::place;
    use std::collections::BTreeMap;
    use tdsigma_netlist::{Design, Module, PortDirection, PowerPlan};
    use tdsigma_tech::{NodeId, Technology};

    fn small() -> (PhysicalLibrary, Placement, Floorplan) {
        let mut m = Module::new("s");
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let a = m.add_net("a");
        let b = m.add_net("b");
        m.add_leaf(
            "I0",
            "INVX1",
            [("A", a), ("Y", b), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        m.add_leaf("R0", "RESLO", [("T1", a), ("T2", b)]).unwrap();
        let flat = Design::new(m).unwrap().flatten();
        let plan = PowerPlan::infer(&flat).unwrap();
        let lib = PhysicalLibrary::for_technology(&Technology::for_node(NodeId::N40).unwrap());
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.7).unwrap();
        let assignments: BTreeMap<String, String> = flat
            .cells
            .iter()
            .map(|c| {
                (
                    c.path.clone(),
                    plan.region_of(&c.path).unwrap().name.clone(),
                )
            })
            .collect();
        let p = place(&flat, &assignments, &fp, &lib, 1).unwrap();
        (lib, p, fp)
    }

    #[test]
    fn lef_structure() {
        let (lib, _, _) = small();
        let lef = to_lef(&lib);
        assert!(lef.starts_with("VERSION 5.8 ;"));
        assert!(lef.trim_end().ends_with("END LIBRARY"));
        // Every library cell has a MACRO, balanced with END.
        assert_eq!(lef.matches("MACRO ").count(), lib.iter().count());
        assert!(lef.contains("MACRO NOR3X4"));
        assert!(lef.contains("MACRO RESLO"));
        // P/G pins are marked.
        assert!(lef.contains("USE POWER ;"));
        assert!(lef.contains("USE GROUND ;"));
        // Resistor terminals are plain signals.
        let reslo = &lef[lef.find("MACRO RESLO").unwrap()..];
        let reslo = &reslo[..reslo.find("END RESLO").unwrap()];
        assert!(reslo.contains("PIN T1"));
        assert!(!reslo.contains("USE POWER"));
    }

    #[test]
    fn lef_sizes_match_library() {
        let (lib, _, _) = small();
        let lef = to_lef(&lib);
        let inv = lib.cell("INVX1").unwrap();
        let expect = format!(
            "SIZE {:.3} BY {:.3} ;",
            inv.width_nm as f64 / 1000.0,
            inv.height_nm as f64 / 1000.0
        );
        let section = &lef[lef.find("MACRO INVX1").unwrap()..];
        assert!(section[..200].contains(&expect), "expected {expect}");
    }

    #[test]
    fn def_structure() {
        let (_, p, fp) = small();
        let def = to_def(&p, "adc_top", fp.die.width(), fp.die.height());
        assert!(def.contains("DESIGN adc_top ;"));
        assert!(def.contains(&format!("COMPONENTS {} ;", p.len())));
        assert!(def.contains("+ PLACED ("));
        assert!(def.trim_end().ends_with("END DESIGN"));
        // Every placed cell appears.
        for cell in &p.cells {
            assert!(def.contains(&format!("{} + PLACED", cell.cell)));
        }
    }
}
