//! The complete APR flow (paper Fig. 9): library modification → floorplan
//! generation → placement → routing → extraction → checks.
//!
//! Each stage runs under a `tdsigma-obs` span (`apr.floorplan`,
//! `apr.placement`, `apr.routing`, `apr.extraction`, `apr.checks`), so a
//! trace splits the flow's APR time by stage. Spans only time; they never
//! touch the layout.

use crate::checks::{check_placement, CheckReport};
use crate::error::LayoutError;
use crate::extract::Parasitics;
use crate::floorplan::Floorplan;
use crate::physlib::PhysicalLibrary;
use crate::place::{place, Placement};
use crate::route::{route, Routing};
use std::collections::BTreeMap;
use std::fmt;
use tdsigma_netlist::{FlatNetlist, PowerPlan};
use tdsigma_obs as obs;
use tdsigma_tech::Technology;

/// Options of the APR run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AprOptions {
    /// Target row utilisation (0, 1]. The paper floorplans both nodes to a
    /// similar placement density; 0.7 is the default.
    pub utilization: f64,
    /// Placement annealing seed (runs are deterministic per seed).
    pub seed: u64,
    /// Gcell edge length in row heights for global routing.
    pub gcell_rows: usize,
    /// Fail the flow if sign-off checks report violations.
    pub enforce_checks: bool,
}

impl Default for AprOptions {
    fn default() -> Self {
        AprOptions {
            utilization: 0.7,
            seed: 42,
            gcell_rows: 4,
            enforce_checks: true,
        }
    }
}

/// The full output of a layout-synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutResult {
    /// The generated floorplan.
    pub floorplan: Floorplan,
    /// The legal placement.
    pub placement: Placement,
    /// The global routing.
    pub routing: Routing,
    /// Extracted wire parasitics.
    pub parasitics: Parasitics,
    /// Sign-off report.
    pub checks: CheckReport,
    /// Die area, mm².
    pub area_mm2: f64,
}

impl fmt::Display for LayoutResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layout: {:.4} mm², {} cells, {:.1} µm wire, {}",
            self.area_mm2,
            self.placement.len(),
            self.routing.total_wirelength_nm as f64 / 1e3,
            if self.checks.is_clean() {
                "clean"
            } else {
                "VIOLATIONS"
            }
        )
    }
}

/// Runs the proposed PD-aware flow: the power plan's domains and groups
/// become placement regions, guaranteeing rail consistency by
/// construction.
///
/// # Errors
///
/// Propagates floorplan/placement/routing errors; if
/// `options.enforce_checks` is set and sign-off finds violations, returns
/// [`LayoutError::ChecksFailed`] (cannot happen for the PD-aware flow on a
/// valid power plan — that is the methodology's guarantee, and it is
/// asserted in tests).
pub fn synthesize(
    flat: &FlatNetlist,
    plan: &PowerPlan,
    tech: &Technology,
    options: &AprOptions,
) -> Result<LayoutResult, LayoutError> {
    let lib = PhysicalLibrary::for_technology(tech);
    let (floorplan, assignments) = {
        let _span = obs::span("apr.floorplan");
        let floorplan = Floorplan::generate(flat, plan, &lib, options.utilization)?;
        let assignments: BTreeMap<String, String> = flat
            .cells
            .iter()
            .map(|c| {
                let region = plan
                    .region_of(&c.path)
                    .map(|r| r.name.clone())
                    .unwrap_or_else(|| "CORE".to_string());
                (c.path.clone(), region)
            })
            .collect();
        (floorplan, assignments)
    };
    finish(flat, floorplan, assignments, &lib, tech, options)
}

/// Runs the naive single-domain flow (no PD regions) — the baseline whose
/// rail conflicts the paper's methodology exists to fix. Checks are
/// reported but never enforced, so the failure can be inspected.
///
/// # Errors
///
/// Propagates floorplan/placement/routing errors.
pub fn synthesize_naive(
    flat: &FlatNetlist,
    tech: &Technology,
    options: &AprOptions,
) -> Result<LayoutResult, LayoutError> {
    let lib = PhysicalLibrary::for_technology(tech);
    let (floorplan, assignments) = {
        let _span = obs::span("apr.floorplan");
        let floorplan = Floorplan::generate_naive(flat, &lib, options.utilization)?;
        let assignments: BTreeMap<String, String> = flat
            .cells
            .iter()
            .map(|c| (c.path.clone(), "CORE".to_string()))
            .collect();
        (floorplan, assignments)
    };
    let mut opts = *options;
    opts.enforce_checks = false;
    finish(flat, floorplan, assignments, &lib, tech, &opts)
}

fn finish(
    flat: &FlatNetlist,
    floorplan: Floorplan,
    assignments: BTreeMap<String, String>,
    lib: &PhysicalLibrary,
    tech: &Technology,
    options: &AprOptions,
) -> Result<LayoutResult, LayoutError> {
    let placement = {
        let _span = obs::span("apr.placement");
        place(flat, &assignments, &floorplan, lib, options.seed)?
    };
    let routing = {
        let _span = obs::span("apr.routing");
        route(
            flat,
            &placement,
            floorplan.die.width(),
            floorplan.die.height(),
            floorplan.row_height_nm(),
            options.gcell_rows,
        )?
    };
    let parasitics = {
        let _span = obs::span("apr.extraction");
        Parasitics::extract(&routing, tech)
    };
    let checks = {
        let _span = obs::span("apr.checks");
        check_placement(flat, &placement)
    };
    if options.enforce_checks && !checks.is_clean() {
        return Err(LayoutError::ChecksFailed {
            violations: checks.violations.len(),
        });
    }
    let area_mm2 = floorplan.die_area_mm2();
    Ok(LayoutResult {
        floorplan,
        placement,
        routing,
        parasitics,
        checks,
        area_mm2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsigma_netlist::{Design, Module, PortDirection};
    use tdsigma_tech::NodeId;

    /// A multi-domain netlist that *must* rail-conflict in the naive flow:
    /// many VCO inverters on VCTRLP interleaved with logic on VDD.
    fn multi_domain(n: usize) -> FlatNetlist {
        let mut m = Module::new("md");
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vctrlp = m.add_port("VCTRLP", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let mut nets = Vec::new();
        for i in 0..=n {
            nets.push(m.add_net(format!("n{i}")));
        }
        for i in 0..n {
            let supply = if i % 2 == 0 { vctrlp } else { vdd };
            m.add_leaf(
                format!("I{i}"),
                "INVX1",
                [
                    ("A", nets[i]),
                    ("Y", nets[i + 1]),
                    ("VDD", supply),
                    ("VSS", vss),
                ],
            )
            .unwrap();
        }
        m.add_leaf("R0", "RESLO", [("T1", nets[0]), ("T2", vctrlp)])
            .unwrap();
        Design::new(m).unwrap().flatten()
    }

    #[test]
    fn pd_aware_flow_is_clean_by_construction() {
        let flat = multi_domain(30);
        let plan = PowerPlan::infer(&flat).unwrap();
        let tech = Technology::for_node(NodeId::N40).unwrap();
        let result = synthesize(&flat, &plan, &tech, &AprOptions::default()).unwrap();
        assert!(result.checks.is_clean());
        assert_eq!(result.placement.len(), 31);
        assert!(result.area_mm2 > 0.0);
        assert!(result.routing.total_wirelength_nm > 0);
        assert!(result.to_string().contains("clean"));
    }

    #[test]
    fn naive_flow_rail_conflicts() {
        let flat = multi_domain(30);
        let tech = Technology::for_node(NodeId::N40).unwrap();
        let result = synthesize_naive(&flat, &tech, &AprOptions::default()).unwrap();
        assert!(
            result.checks.rail_conflicts() > 0,
            "interleaved supplies in one region must short rails"
        );
    }

    #[test]
    fn area_scales_with_node() {
        let flat = multi_domain(30);
        let plan = PowerPlan::infer(&flat).unwrap();
        let a40 = synthesize(
            &flat,
            &plan,
            &Technology::for_node(NodeId::N40).unwrap(),
            &AprOptions::default(),
        )
        .unwrap()
        .area_mm2;
        let a180 = synthesize(
            &flat,
            &plan,
            &Technology::for_node(NodeId::N180).unwrap(),
            &AprOptions::default(),
        )
        .unwrap()
        .area_mm2;
        assert!(
            a180 > 6.0 * a40,
            "180 nm layout should be much larger: {a180} vs {a40}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let flat = multi_domain(16);
        let plan = PowerPlan::infer(&flat).unwrap();
        let tech = Technology::for_node(NodeId::N40).unwrap();
        let r1 = synthesize(&flat, &plan, &tech, &AprOptions::default()).unwrap();
        let r2 = synthesize(&flat, &plan, &tech, &AprOptions::default()).unwrap();
        assert_eq!(r1.placement, r2.placement);
        assert_eq!(r1.routing, r2.routing);
    }

    #[test]
    fn parasitics_cover_signal_nets() {
        let flat = multi_domain(10);
        let plan = PowerPlan::infer(&flat).unwrap();
        let tech = Technology::for_node(NodeId::N40).unwrap();
        let result = synthesize(&flat, &plan, &tech, &AprOptions::default()).unwrap();
        let cap = |net: &str| result.parasitics.total_capacitance_where(|n| n == net);
        assert!(cap("n1") > 0.0);
        // Supplies are not extracted (rail-distributed).
        assert_eq!(cap("VDD"), 0.0);
    }
}
