//! Floorplan generation (paper §3.3, Fig. 10b, Fig. 12/14).
//!
//! Each power domain / component group of the [`tdsigma_netlist::PowerPlan`]
//! becomes a horizontal band of complete placement rows. Because a region
//! boundary always coincides with a row boundary, every row belongs to
//! exactly one supply — the MSV discipline that prevents the P/G rail
//! shorts a conventional single-domain APR would create.

use crate::error::LayoutError;
use crate::geom::Rect;
use crate::physlib::PhysicalLibrary;
use std::fmt;
use tdsigma_netlist::{FlatNetlist, GroupKind, PowerPlan};

/// One placement row inside a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Row bottom edge, nm.
    pub y_nm: i64,
    /// Leftmost site x, nm.
    pub x0_nm: i64,
    /// Number of placement sites in the row.
    pub sites: usize,
}

/// A floorplan region: the physical footprint of one power domain or
/// component group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPlan {
    /// Region name (e.g. `"PD_VCTRLP"`).
    pub name: String,
    /// Supply net for power domains; `None` for component groups.
    pub supply_net: Option<String>,
    /// Bounding rectangle.
    pub rect: Rect,
    /// The region's placement rows, bottom to top.
    pub rows: Vec<Row>,
}

/// The generated floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Die outline.
    pub die: Rect,
    /// Regions, bottom to top.
    pub regions: Vec<RegionPlan>,
    /// Target row utilisation used during generation.
    pub utilization: f64,
    site_width_nm: i64,
    row_height_nm: i64,
}

impl Floorplan {
    /// Generates a floorplan for the flat netlist under the power plan.
    ///
    /// Regions are stacked as full-width horizontal bands; each band gets
    /// enough rows to hold its cells at the target `utilization` (0–1).
    /// Region order follows the power plan's creation order, which for the
    /// inferred plan groups each slice's domains together — mirroring the
    /// paper's Fig. 14 arrangement.
    ///
    /// # Errors
    ///
    /// * [`LayoutError::UnknownCell`] for cells missing from the library.
    /// * [`LayoutError::DoesNotFit`] if `utilization` > 1 silliness makes a
    ///   region overflow.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not in `(0, 1]`.
    pub fn generate(
        flat: &FlatNetlist,
        plan: &PowerPlan,
        lib: &PhysicalLibrary,
        utilization: f64,
    ) -> Result<Self, LayoutError> {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        let site = lib.site_width_nm();
        let row_h = lib.row_height_nm();

        // Sites needed per region.
        let mut region_sites: Vec<(String, Option<String>, usize)> = plan
            .regions()
            .iter()
            .map(|r| {
                let supply = match &r.kind {
                    GroupKind::PowerDomain { supply_net } => Some(supply_net.clone()),
                    GroupKind::ComponentGroup => None,
                };
                (r.name.clone(), supply, 0usize)
            })
            .collect();
        for cell in &flat.cells {
            let phys = lib.cell(&cell.cell)?;
            let region = plan
                .region_of(&cell.path)
                .ok_or_else(|| LayoutError::DoesNotFit {
                    region: format!("<unassigned cell {}>", cell.path),
                    required_sites: phys.width_sites,
                    available_sites: 0,
                })?;
            let entry = region_sites
                .iter_mut()
                .find(|(name, _, _)| *name == region.name)
                .expect("plan regions cover all assignments");
            entry.2 += phys.width_sites;
        }

        let total_sites: usize = region_sites.iter().map(|(_, _, s)| s).sum();
        let effective: f64 = total_sites as f64 / utilization;
        // Choose a die width that makes the die roughly square:
        // W_sites · site = rows · row_h and W · rows = effective.
        let width_sites = ((effective * row_h as f64 / site as f64).sqrt().ceil() as usize).max(8);

        let mut regions = Vec::new();
        let mut y = 0i64;
        for (name, supply_net, sites) in &region_sites {
            let rows_needed = if *sites == 0 {
                1
            } else {
                ((*sites as f64 / utilization) / width_sites as f64).ceil() as usize
            };
            let capacity = rows_needed * width_sites;
            if capacity < *sites {
                return Err(LayoutError::DoesNotFit {
                    region: name.clone(),
                    required_sites: *sites,
                    available_sites: capacity,
                });
            }
            let rows: Vec<Row> = (0..rows_needed)
                .map(|i| Row {
                    y_nm: y + i as i64 * row_h,
                    x0_nm: 0,
                    sites: width_sites,
                })
                .collect();
            let rect = Rect::new(
                0,
                y,
                width_sites as i64 * site,
                y + rows_needed as i64 * row_h,
            );
            y = rect.y1;
            regions.push(RegionPlan {
                name: name.clone(),
                supply_net: supply_net.clone(),
                rect,
                rows,
            });
        }

        let die = Rect::new(0, 0, width_sites as i64 * site, y.max(row_h));
        Ok(Floorplan {
            die,
            regions,
            utilization,
            site_width_nm: site,
            row_height_nm: row_h,
        })
    }

    /// Generates a single-region floorplan ignoring power domains — the
    /// "naive APR" baseline whose rail conflicts motivate the methodology.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Floorplan::generate`].
    pub(crate) fn generate_naive(
        flat: &FlatNetlist,
        lib: &PhysicalLibrary,
        utilization: f64,
    ) -> Result<Self, LayoutError> {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        let site = lib.site_width_nm();
        let row_h = lib.row_height_nm();
        let mut sites = 0usize;
        for cell in &flat.cells {
            sites += lib.cell(&cell.cell)?.width_sites;
        }
        let effective = sites as f64 / utilization;
        let width_sites = ((effective * row_h as f64 / site as f64).sqrt().ceil() as usize).max(8);
        let rows_needed = ((sites as f64 / utilization) / width_sites as f64).ceil() as usize;
        let rows: Vec<Row> = (0..rows_needed)
            .map(|i| Row {
                y_nm: i as i64 * row_h,
                x0_nm: 0,
                sites: width_sites,
            })
            .collect();
        let rect = Rect::new(0, 0, width_sites as i64 * site, rows_needed as i64 * row_h);
        Ok(Floorplan {
            die: rect,
            regions: vec![RegionPlan {
                name: "CORE".to_string(),
                supply_net: Some("VDD".to_string()),
                rect,
                rows,
            }],
            utilization,
            site_width_nm: site,
            row_height_nm: row_h,
        })
    }

    /// Placement site width, nm.
    pub(crate) fn site_width_nm(&self) -> i64 {
        self.site_width_nm
    }

    /// Row height, nm.
    pub(crate) fn row_height_nm(&self) -> i64 {
        self.row_height_nm
    }

    /// The region a name refers to.
    pub fn region(&self, name: &str) -> Option<&RegionPlan> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Die area in mm².
    pub(crate) fn die_area_mm2(&self) -> f64 {
        self.die.area_mm2()
    }

    /// Serialises the floorplan as an Encounter-style `.fp` specification —
    /// the exact artifact the paper's Fig. 9 feeds to APR ("the floorplan
    /// specification (e.g. files with the .fp extension used in Cadence
    /// Encounter)").
    pub fn to_fp_text(&self) -> String {
        use std::fmt::Write as _;
        let um = |nm: i64| nm as f64 / 1000.0;
        let mut out = String::new();
        let _ = writeln!(out, "# tdsigma floorplan specification");
        let _ = writeln!(
            out,
            "Head Box: 0.0000 0.0000 {:.4} {:.4}",
            um(self.die.width()),
            um(self.die.height())
        );
        let _ = writeln!(out, "PlacementDensity: {:.2}", self.utilization);
        for region in &self.regions {
            let kind = if region.supply_net.is_some() {
                "PowerDomain"
            } else {
                "Group"
            };
            let _ = writeln!(
                out,
                "{kind}: {} Box: {:.4} {:.4} {:.4} {:.4}{}",
                region.name,
                um(region.rect.x0),
                um(region.rect.y0),
                um(region.rect.x1),
                um(region.rect.y1),
                region
                    .supply_net
                    .as_deref()
                    .map(|n| format!(" Supply: {n}"))
                    .unwrap_or_default()
            );
        }
        out
    }
}

impl fmt::Display for Floorplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "floorplan {:.1} x {:.1} µm ({} regions, {:.4} mm²)",
            self.die.width() as f64 / 1e3,
            self.die.height() as f64 / 1e3,
            self.regions.len(),
            self.die_area_mm2()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsigma_netlist::{Design, Module, PortDirection};
    use tdsigma_tech::{NodeId, Technology};

    fn mini() -> (FlatNetlist, PowerPlan, PhysicalLibrary) {
        let mut m = Module::new("mini");
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vctrlp = m.add_port("VCTRLP", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let nets: Vec<_> = (0..8).map(|i| m.add_net(format!("n{i}"))).collect();
        for i in 0..4 {
            m.add_leaf(
                format!("VCO{i}"),
                "INVX1",
                [
                    ("A", nets[i]),
                    ("Y", nets[i + 1]),
                    ("VDD", vctrlp),
                    ("VSS", vss),
                ],
            )
            .unwrap();
        }
        for i in 0..3 {
            m.add_leaf(
                format!("LOG{i}"),
                "NOR2X1",
                [
                    ("A", nets[i]),
                    ("B", nets[i + 1]),
                    ("Y", nets[i + 4]),
                    ("VDD", vdd),
                    ("VSS", vss),
                ],
            )
            .unwrap();
        }
        m.add_leaf("R0", "RESLO", [("T1", nets[0]), ("T2", vctrlp)])
            .unwrap();
        let flat = Design::new(m).unwrap().flatten();
        let plan = PowerPlan::infer(&flat).unwrap();
        let lib = PhysicalLibrary::for_technology(&Technology::for_node(NodeId::N40).unwrap());
        (flat, plan, lib)
    }

    #[test]
    fn regions_are_disjoint_bands_inside_die() {
        let (flat, plan, lib) = mini();
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.7).unwrap();
        assert_eq!(fp.regions.len(), 3); // PD_VCTRLP, PD_VDD, GROUP_RESLO
        for (i, a) in fp.regions.iter().enumerate() {
            assert!(fp.die.contains_rect(&a.rect), "{} outside die", a.name);
            for b in fp.regions.iter().skip(i + 1) {
                assert!(!a.rect.overlaps(&b.rect), "{} overlaps {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn capacity_fits_demand() {
        let (flat, plan, lib) = mini();
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.7).unwrap();
        for region in &fp.regions {
            let demand: usize = flat
                .cells
                .iter()
                .filter(|c| {
                    plan.region_of(&c.path).map(|r| r.name.as_str()) == Some(region.name.as_str())
                })
                .map(|c| lib.cell(&c.cell).unwrap().width_sites)
                .sum();
            let capacity: usize = region.rows.iter().map(|r| r.sites).sum();
            assert!(
                capacity >= demand,
                "{}: capacity {capacity} < demand {demand}",
                region.name
            );
        }
    }

    #[test]
    fn rows_tile_each_region() {
        let (flat, plan, lib) = mini();
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.7).unwrap();
        for region in &fp.regions {
            assert!(!region.rows.is_empty());
            for (i, row) in region.rows.iter().enumerate() {
                assert_eq!(row.y_nm, region.rect.y0 + i as i64 * fp.row_height_nm());
            }
        }
    }

    #[test]
    fn naive_floorplan_is_one_region() {
        let (flat, _, lib) = mini();
        let fp = Floorplan::generate_naive(&flat, &lib, 0.7).unwrap();
        assert_eq!(fp.regions.len(), 1);
        assert_eq!(fp.regions[0].name, "CORE");
    }

    #[test]
    fn lower_utilization_means_bigger_die() {
        let (flat, plan, lib) = mini();
        let tight = Floorplan::generate(&flat, &plan, &lib, 0.95).unwrap();
        let loose = Floorplan::generate(&flat, &plan, &lib, 0.3).unwrap();
        assert!(loose.die_area_mm2() > tight.die_area_mm2());
    }

    #[test]
    #[should_panic(expected = "utilization must be in")]
    fn zero_utilization_panics() {
        let (flat, plan, lib) = mini();
        let _ = Floorplan::generate(&flat, &plan, &lib, 0.0);
    }

    #[test]
    fn fp_text_lists_every_region() {
        let (flat, plan, lib) = mini();
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.7).unwrap();
        let text = fp.to_fp_text();
        assert!(text.contains("Head Box:"));
        assert!(text.contains("PlacementDensity: 0.70"));
        for region in &fp.regions {
            assert!(text.contains(&region.name), "{}", region.name);
        }
        assert!(text.contains("PowerDomain: PD_VCTRLP"));
        assert!(text.contains("Supply: VCTRLP"));
        assert!(text.contains("Group: GROUP_RESLO"));
    }

    #[test]
    fn region_lookup_and_display() {
        let (flat, plan, lib) = mini();
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.7).unwrap();
        assert!(fp.region("PD_VDD").is_some());
        assert!(fp.region("NOPE").is_none());
        assert!(fp.to_string().contains("regions"));
        assert_eq!(
            fp.region("PD_VCTRLP").unwrap().supply_net.as_deref(),
            Some("VCTRLP")
        );
        assert!(fp.region("GROUP_RESLO").unwrap().supply_net.is_none());
    }
}
