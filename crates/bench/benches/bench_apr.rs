//! Micro-bench: layout-synthesis throughput — netlist generation,
//! floorplan + place + route of the full ADC (PD-aware and naive), and
//! signoff.

use std::hint::black_box;
use tdsigma_bench::harness::BenchRunner;
use tdsigma_core::{netgen, AdcSpec};
use tdsigma_layout::{analyze_timing, synthesize, synthesize_naive, AprOptions};
use tdsigma_netlist::{GateSimulator, PowerPlan};

fn main() {
    let runner = BenchRunner::from_args();

    let spec = AdcSpec::paper_40nm().expect("spec");
    runner.bench("netgen_full_adc", || {
        black_box(netgen::generate(&spec).expect("netlist"))
    });
    let design = netgen::generate(&spec).expect("netlist");
    runner.bench("flatten_full_adc", || black_box(design.flatten()));

    for (label, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        let flat = netgen::generate(&spec).expect("netlist").flatten();
        let plan = PowerPlan::infer(&flat).expect("plan");
        runner.bench(&format!("apr_synthesize_{label}"), || {
            black_box(
                synthesize(&flat, &plan, &spec.tech, &AprOptions::default()).expect("APR clean"),
            )
        });
    }

    // The naive single-domain flow (`reproduce_all`'s largest call): one
    // region, so any two cells may swap and most swaps cross rows.
    let flat = netgen::generate(&spec).expect("netlist").flatten();
    runner.bench("apr_synthesize_naive_40nm", || {
        black_box(synthesize_naive(&flat, &spec.tech, &AprOptions::default()).expect("naive APR"))
    });

    let plan = PowerPlan::infer(&flat).expect("plan");
    let layout = synthesize(&flat, &plan, &spec.tech, &AprOptions::default()).expect("APR");

    runner.bench("sta_full_adc", || {
        black_box(analyze_timing(&flat, &layout.parasitics, &spec.tech, spec.fs_hz).expect("STA"))
    });
    runner.bench("gatesim_build_full_adc", || {
        black_box(GateSimulator::new(&flat).expect("gate sim"))
    });

    let mut sim = GateSimulator::new(&flat).expect("gate sim");
    runner.bench("gatesim_clock_cycle", || {
        sim.drive("CLK", true);
        sim.drive("CLK", false);
        black_box(sim.last_settle_steps())
    });
    runner.finish();
}
