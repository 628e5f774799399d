//! Artifact-consistency integration tests: the LEF / DEF / GDS / .fp /
//! Verilog / VCD outputs of one flow must agree with each other.

use std::collections::BTreeSet;
use tdsigma::core::{netgen, AdcSpec};
use tdsigma::layout::{gds, lef, synthesize, AprOptions, PhysicalLibrary};
use tdsigma::netlist::PowerPlan;

fn build() -> (
    AdcSpec,
    tdsigma::netlist::FlatNetlist,
    PhysicalLibrary,
    tdsigma::layout::LayoutResult,
) {
    let spec = AdcSpec::paper_40nm().expect("spec");
    let flat = netgen::generate(&spec).expect("netlist").flatten();
    let plan = PowerPlan::infer(&flat).expect("plan");
    let lib = PhysicalLibrary::for_technology(&spec.tech);
    let layout = synthesize(&flat, &plan, &spec.tech, &AprOptions::default()).expect("APR");
    (spec, flat, lib, layout)
}

#[test]
fn def_lists_every_cell_with_a_lef_macro() {
    let (_, flat, lib, layout) = build();
    let lef_text = lef::to_lef(&lib);
    let def_text = lef::to_def(
        &layout.placement,
        "adc_top",
        layout.floorplan.die.width(),
        layout.floorplan.die.height(),
    );
    // Every distinct library cell used in the DEF has a LEF MACRO.
    let used: BTreeSet<&str> = flat.cells.iter().map(|c| c.cell.as_str()).collect();
    for cell in &used {
        assert!(
            lef_text.contains(&format!("MACRO {cell}")),
            "LEF missing {cell}"
        );
    }
    // DEF component count equals the flat netlist size.
    assert!(def_text.contains(&format!("COMPONENTS {} ;", flat.len())));
    // Placements stay inside the die.
    for cell in &layout.placement.cells {
        assert!(cell.x_nm >= 0 && cell.x_nm < layout.floorplan.die.width());
        assert!(cell.y_nm >= 0 && cell.y_nm < layout.floorplan.die.height());
    }
}

#[test]
fn gds_references_every_used_macro() {
    let (_, flat, lib, layout) = build();
    let gds_text = gds::to_gds_text(&layout.placement, &lib, "adc_top");
    let used: BTreeSet<&str> = flat.cells.iter().map(|c| c.cell.as_str()).collect();
    for cell in &used {
        assert!(
            gds_text.contains(&format!("BGNSTR {cell}")),
            "GDS missing {cell}"
        );
    }
    // One SREF per placed cell.
    assert_eq!(gds_text.matches("SREF ").count(), flat.len());
}

#[test]
fn fp_regions_tile_the_die_and_match_the_power_plan() {
    let (_, flat, _, layout) = build();
    let plan = PowerPlan::infer(&flat).expect("plan");
    let fp = layout.floorplan.to_fp_text();
    for region in plan.regions() {
        assert!(fp.contains(&region.name), ".fp missing {}", region.name);
    }
    // Region rectangles tile the die without overlap (already asserted in
    // unit tests; here: their total area equals the die area).
    let total: i128 = layout.floorplan.regions.iter().map(|r| r.rect.area()).sum();
    assert_eq!(total, layout.floorplan.die.area());
}

#[test]
fn verilog_and_flat_netlist_agree_on_cell_census() {
    let spec = AdcSpec::paper_40nm().expect("spec");
    let design = netgen::generate(&spec).expect("netlist");
    let flat = design.flatten();
    let text = tdsigma::netlist::verilog::write_design(&design).expect("verilog");
    // Count leaf instantiations per cell type in the flat netlist and make
    // sure each type appears in the Verilog.
    let mut census: std::collections::BTreeMap<&str, usize> = Default::default();
    for cell in &flat.cells {
        *census.entry(cell.cell.as_str()).or_default() += 1;
    }
    for (cell, count) in census {
        assert!(count > 0);
        assert!(text.contains(cell), "verilog missing {cell}");
    }
}

#[test]
fn vcd_of_a_capture_is_wellformed() {
    use tdsigma::netlist::VcdWriter;
    let mut spec = AdcSpec::paper_40nm().expect("spec");
    spec.steps_per_cycle = 8;
    let mut sim = tdsigma::core::AdcSimulator::new(spec.clone()).expect("sim");
    let cap = sim.run(|_| 0.0, 64);
    let mut vcd = VcdWriter::new("1ps", "adc");
    vcd.declare("sum", 6);
    let period_ps = (1e12 / spec.fs_hz) as u64;
    for (n, &w) in cap.output.iter().enumerate() {
        vcd.change_vector(n as u64 * period_ps, "sum", w as u64);
    }
    let text = vcd.finish();
    assert!(text.contains("$enddefinitions $end"));
    assert!(text.contains("$var wire 6"));
    assert!(
        text.matches('#').count() > 10,
        "multiple timestamps recorded"
    );
}
