//! Micro-bench: one case per paper table/figure, timing a reduced
//! regeneration of each experiment (the full-resolution versions live in
//! `src/bin/`). Each case also sanity-asserts the experiment's headline
//! property so a regression cannot silently pass.

use std::hint::black_box;
use tdsigma_baselines::prior::PriorAdc;
use tdsigma_bench::harness::BenchRunner;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::spec::AdcSpec;
use tdsigma_tech::ScalingTrend;

fn main() {
    let runner = BenchRunner::from_args();

    runner.bench("fig1_trend_extraction", || {
        let fo4 = ScalingTrend::Fo4Delay.series();
        assert_eq!(fo4.len(), 11);
        black_box(fo4)
    });

    let spec = AdcSpec::paper_40nm().expect("spec");
    runner.bench("table3_sndr_point_2048", || {
        let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
        let cap = sim.run_tone(1e6, 0.79 * spec.full_scale_v(), 2_048);
        let sndr = cap.analyze(spec.bw_hz).sndr_db;
        assert!(sndr > 40.0, "short capture still resolves the tone: {sndr}");
        black_box(sndr)
    });

    for adc in PriorAdc::table4_entries() {
        let name = adc.label.replace([' ', '[', ']'], "_");
        runner.bench(&format!("table4_{name}"), || {
            let a = adc.simulate(2_048, 1);
            black_box(a.sndr_db)
        });
    }
    runner.finish();
}
