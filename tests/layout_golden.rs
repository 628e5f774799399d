//! Layout golden fixtures: the APR output for the paper's 40 nm and 180 nm
//! specs, PD-aware and naive, with `AprOptions::default()`.
//!
//! Placement and routing are deterministic per seed, so any change to the
//! annealing move set, the cost evaluation order, the RNG draw sequence or
//! the router's search shows up here as a changed number. A change that is
//! meant to be bit-identical (a faster cost update, a cheaper A* scratch)
//! must pass these unchanged.

use tdsigma::core::{netgen, AdcSpec};
use tdsigma::layout::{synthesize, synthesize_naive, AprOptions, LayoutResult};
use tdsigma::netlist::PowerPlan;
use tdsigma::tech::{fnv1a64, FNV1A64_BASIS};

/// The pinned numbers of one layout run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    hpwl_nm: i64,
    total_wirelength_nm: i64,
    rail_conflicts: usize,
    /// FNV-1a over the `path x y` lines of the placement, in flat order.
    placement_digest: u64,
    /// FNV-1a over every routed net's name, wirelength, overflow count and
    /// segment end points, in routing order.
    routing_digest: u64,
}

fn golden(layout: &LayoutResult) -> Golden {
    let mut placement = String::new();
    for c in &layout.placement.cells {
        placement.push_str(&format!("{} {} {}\n", c.path, c.x_nm, c.y_nm));
    }
    let mut routing = String::new();
    for n in &layout.routing.nets {
        routing.push_str(&format!(
            "{} {} {}",
            n.name, n.wirelength_nm, n.overflow_edges
        ));
        for (a, b) in &n.segments {
            routing.push_str(&format!(" {},{}-{},{}", a.x, a.y, b.x, b.y));
        }
        routing.push('\n');
    }
    Golden {
        hpwl_nm: layout.placement.hpwl_nm,
        total_wirelength_nm: layout.routing.total_wirelength_nm,
        rail_conflicts: layout.checks.rail_conflicts(),
        placement_digest: fnv1a64(placement.as_bytes(), FNV1A64_BASIS),
        routing_digest: fnv1a64(routing.as_bytes(), FNV1A64_BASIS),
    }
}

fn check(spec: AdcSpec, pd_aware: Golden, naive: Golden) {
    let flat = netgen::generate(&spec).expect("netlist").flatten();
    let plan = PowerPlan::infer(&flat).expect("power plan");
    let options = AprOptions::default();
    let actual_pd = synthesize(&flat, &plan, &spec.tech, &options).expect("PD-aware APR");
    let actual_naive = synthesize_naive(&flat, &spec.tech, &options).expect("naive APR");
    assert_eq!(
        (golden(&actual_pd), golden(&actual_naive)),
        (pd_aware, naive),
        "(PD-aware, naive)"
    );
}

#[test]
fn paper_40nm_layouts_match_the_golden_fixture() {
    check(
        AdcSpec::paper_40nm().expect("spec"),
        Golden {
            hpwl_nm: 15_463_620,
            total_wirelength_nm: 24_118_560,
            rail_conflicts: 0,
            placement_digest: 0xc5e2_4f47_f429_d1c8,
            routing_digest: 0x9286_8770_35f1_2344,
        },
        Golden {
            hpwl_nm: 8_539_440,
            total_wirelength_nm: 17_858_880,
            rail_conflicts: 725,
            placement_digest: 0xb8a9_b5d8_bfef_eca8,
            routing_digest: 0x0ab0_8238_6f85_a3a6,
        },
    );
}

#[test]
fn paper_180nm_layouts_match_the_golden_fixture() {
    check(
        AdcSpec::paper_180nm().expect("spec"),
        Golden {
            hpwl_nm: 66_489_090,
            total_wirelength_nm: 105_915_920,
            rail_conflicts: 0,
            placement_digest: 0x5c18_6df7_579d_cb9e,
            routing_digest: 0x0018_9cf6_1c99_6c29,
        },
        Golden {
            hpwl_nm: 34_778_070,
            total_wirelength_nm: 76_820_920,
            rail_conflicts: 865,
            placement_digest: 0xba1b_de2e_9a53_4382,
            routing_digest: 0xfd2e_c130_1b1d_1658,
        },
    );
}
