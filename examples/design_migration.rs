//! Design migration — the scaling-compatibility story of §4.
//!
//! The *same* gate-level design is re-targeted across five technology
//! nodes ("transforming the standard cells into their closest-size
//! counterparts"), re-synthesised, and re-simulated. Watch power, area
//! and FOM improve monotonically as the node shrinks — the opposite of
//! what a voltage-domain design would do.
//!
//! ```text
//! cargo run --release --example design_migration
//! ```

use tdsigma::core::{AdcReport, AdcSpec, DesignFlow};
use tdsigma::tech::{migrate_cell, NodeId, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Migration mechanics first: every catalog cell maps to its
    // closest-size counterpart in the target node.
    let source = Technology::for_node(NodeId::N180)?;
    let target = Technology::for_node(NodeId::N40)?;
    let nor3 = source.catalog().cell("NOR3X4")?;
    let migrated = migrate_cell(nor3, &target)?;
    println!(
        "cell migration example: {} @180 nm ({} nm wide) → {} @40 nm ({} nm wide)\n",
        nor3.name(),
        nor3.width_sites() as f64 * source.site_width_nm(),
        migrated.name(),
        migrated.width_sites() as f64 * target.site_width_nm(),
    );

    // Same architecture, five nodes. Clock scales with the node's FO4 so
    // the digital timing margin stays constant; bandwidth follows.
    println!("{}", AdcReport::table_header());
    let mut reports: Vec<AdcReport> = Vec::new();
    for node in [
        NodeId::N180,
        NodeId::N130,
        NodeId::N90,
        NodeId::N65,
        NodeId::N40,
    ] {
        let tech = Technology::for_node(node)?;
        // fs ∝ 1/FO4, anchored to the paper's 40 nm point (750 MHz @ 11 ps).
        let fs = (750e6 * 11.0 / tech.fo4_delay_ps() / 1e6).round() * 1e6;
        let bw = fs / 150.0; // constant OSR of 75
        let spec = AdcSpec::for_technology(tech, fs, bw)?;
        let outcome = DesignFlow::new(spec).with_samples(8192).run()?;
        println!("{}", outcome.report.table_row());
        reports.push(outcome.report);
    }

    println!("\nscaling verdict:");
    let first = reports.first().expect("non-empty");
    let last = reports.last().expect("non-empty");
    println!(
        "  180 nm → 40 nm: bandwidth ×{:.1}, power ×{:.2}, area ×{:.2}, FOM ×{:.2}",
        last.bw_mhz / first.bw_mhz,
        last.power_mw / first.power_mw,
        last.area_mm2 / first.area_mm2,
        last.fom_fj / first.fom_fj,
    );
    println!("  — same netlist, better in every metric at the newer node.");
    Ok(())
}
