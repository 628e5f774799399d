//! **ABL3** — §3.3 ablation: what happens when the ADC netlist is pushed
//! through a conventional single-domain APR flow (the flow prior
//! synthesis-friendly works used) instead of the proposed MSV power-domain
//! flow.

use tdsigma_core::{netgen, AdcSpec};
use tdsigma_layout::{synthesize, synthesize_naive, AprOptions};
use tdsigma_netlist::PowerPlan;

fn main() {
    println!("=== §3.3 ablation: naive APR vs the proposed PD-aware flow ===\n");
    let spec = AdcSpec::paper_40nm().expect("spec");
    let flat = netgen::generate(&spec).expect("netlist").flatten();
    let plan = PowerPlan::infer(&flat).expect("power plan");
    let options = AprOptions::default();

    println!(
        "netlist: {} cells across {} supply nets\n",
        flat.len(),
        plan.domain_count()
    );

    let naive = synthesize_naive(&flat, &spec.tech, &options).expect("naive APR");
    println!("--- conventional flow (one placement region, like [15]-[19]) ---");
    println!(
        "  area {:.4} mm², HPWL {:.1} µm",
        naive.area_mm2,
        naive.placement.hpwl_nm as f64 / 1e3
    );
    println!(
        "  sign-off: {} violations, of which {} are P/G RAIL SHORTS",
        naive.checks.violations.len(),
        naive.checks.rail_conflicts()
    );
    for v in naive.checks.violations.iter().take(5) {
        println!("    e.g. {v}");
    }
    println!();

    let proposed = synthesize(&flat, &plan, &spec.tech, &options).expect("PD-aware APR");
    println!("--- proposed flow (power domains + component groups) ---");
    println!(
        "  area {:.4} mm², HPWL {:.1} µm",
        proposed.area_mm2,
        proposed.placement.hpwl_nm as f64 / 1e3
    );
    println!(
        "  sign-off: {} violations, {} rail conflicts → CLEAN BY CONSTRUCTION",
        proposed.checks.violations.len(),
        proposed.checks.rail_conflicts()
    );
    println!();
    let overhead = proposed.area_mm2 / naive.area_mm2;
    println!("area cost of the MSV discipline: {overhead:.2}x the (broken) naive layout — the",);
    println!("price of regions that cannot mix supplies. This is the gap in previous");
    println!("synthesis-friendly flows that §3 exists to close: their circuits only had");
    println!("one supply, this ADC powers its VCOs from the integrating control nodes.");
    assert!(naive.checks.rail_conflicts() > 0, "naive flow must fail");
    assert!(proposed.checks.is_clean(), "proposed flow must be clean");
}
