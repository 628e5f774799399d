//! The flow's physical half is keyed by exactly what it reads, and
//! `DesignFlow::evaluate` (the memoised path every flow job takes) returns
//! bit for bit what `DesignFlow::run` reports.
//!
//! Only `evaluate_is_run_bit_for_bit_cold_and_warm` touches the
//! process-wide memo, so its hit and miss counts are exact.

use tdsigma_core::netgen;
use tdsigma_core::{AdcReport, AdcSpec, DesignFlow, PhysicalKey, PhysicalSummary};
use tdsigma_layout::AprOptions;
use tdsigma_netlist::verilog;
use tdsigma_tech::{NodeId, Technology};

fn counter(name: &str) -> u64 {
    tdsigma_obs::counter(name).get()
}

fn summary_bits(p: &PhysicalSummary) -> [u64; 5] {
    [
        p.vctrl_cap_f,
        p.wire_cap_f,
        p.leakage_nw,
        p.area_mm2,
        p.slack_ps,
    ]
    .map(f64::to_bits)
}

fn report_bits(r: &AdcReport) -> (String, [u64; 8]) {
    (
        r.node.to_string(),
        [
            r.fs_mhz,
            r.bw_mhz,
            r.sndr_db,
            r.enob,
            r.power_mw,
            r.digital_fraction,
            r.area_mm2,
            r.fom_fj,
        ]
        .map(f64::to_bits),
    )
}

/// A debug-build-sized flow at one design point.
fn flow(
    base: AdcSpec,
    slices: usize,
    stages: usize,
    gain: f64,
    rdac_ohm: f64,
    apr_seed: u64,
) -> DesignFlow {
    let mut spec = base.with_slices(slices).unwrap();
    spec.rdac_ohm = rdac_ohm;
    spec.vco_stages = stages;
    spec.kvco_hz_per_v *= gain;
    spec.steps_per_cycle = 4;
    let apr = AprOptions {
        seed: apr_seed,
        ..AprOptions::default()
    };
    DesignFlow::new(spec.validated().unwrap())
        .with_samples(2048)
        .with_apr(apr)
}

fn assert_matches_run(flow: &DesignFlow, evaluated: &(AdcReport, PhysicalSummary)) {
    let run = flow.run().unwrap();
    assert_eq!(report_bits(&evaluated.0), report_bits(&run.report));
    assert_eq!(summary_bits(&evaluated.1), summary_bits(&run.physical));
    assert_eq!(
        evaluated.1.slack_ps.to_bits(),
        run.timing.slack_ps().to_bits()
    );
}

#[test]
fn evaluate_is_run_bit_for_bit_cold_and_warm() {
    let n40 = AdcSpec::paper_40nm().unwrap();
    let n180 = AdcSpec::paper_180nm().unwrap();
    // (spec, slices, stages, gain, rdac): both nodes, several structures,
    // and electrical knobs off their defaults. Each point gets an APR seed
    // of its own, so its first evaluation is a miss.
    let points = [
        (n40.clone(), 2, 4, 1.0, 22_000.0),
        (n40, 3, 3, 1.4, 15_000.0),
        (n180.clone(), 2, 5, 0.7, 30_000.0),
        (n180, 1, 4, 1.0, 22_000.0),
    ];
    for (i, (base, slices, stages, gain, rdac)) in points.into_iter().enumerate() {
        let seed = 9_000 + i as u64;
        let f = flow(base.clone(), slices, stages, gain, rdac, seed);

        let misses = counter("flow.physical.misses");
        let cold = f.evaluate().unwrap();
        assert_eq!(
            counter("flow.physical.misses"),
            misses + 1,
            "point {i}: cold"
        );
        assert_matches_run(&f, &cold);

        let hits = counter("flow.physical.hits");
        let warm = f.evaluate().unwrap();
        assert_eq!(counter("flow.physical.hits"), hits + 1, "point {i}: warm");
        assert_eq!(report_bits(&warm.0), report_bits(&cold.0));
        assert_eq!(summary_bits(&warm.1), summary_bits(&cold.1));

        // Another gain and DAC on the same structure: a hit, and still
        // exactly that spec's fresh run.
        let variant = flow(base, slices, stages, gain * 1.3, rdac * 0.8, seed);
        let misses = counter("flow.physical.misses");
        let shared = variant.evaluate().unwrap();
        assert_eq!(
            counter("flow.physical.misses"),
            misses,
            "point {i}: variant"
        );
        assert_matches_run(&variant, &shared);
        assert_ne!(
            shared.0.sndr_db, cold.0.sndr_db,
            "point {i}: the transient reran"
        );
    }
}

fn hdl(spec: &AdcSpec) -> String {
    verilog::write_design(&netgen::generate(spec).unwrap()).unwrap()
}

#[test]
fn the_key_holds_exactly_what_the_layout_depends_on() {
    let base = AdcSpec::paper_40nm().unwrap().with_slices(2).unwrap();
    let key = |spec: &AdcSpec| PhysicalKey::new(spec, AprOptions::default());

    // The electrical fields `SearchSpace` and `Job` decode leave the HDL
    // and the key unchanged.
    let mut electrical = base.clone();
    electrical.rdac_ohm = 33_000.0;
    electrical.kvco_hz_per_v *= 1.7;
    electrical.seed = 4_242;
    electrical.steps_per_cycle = 64;
    assert_eq!(hdl(&electrical), hdl(&base));
    assert_eq!(key(&electrical), key(&base));

    // The structural ones change both.
    let mut stages = base.clone();
    stages.vco_stages = 5;
    let mut adder = base.clone();
    adder.include_output_adder = false;
    for (what, other) in [
        ("slices", base.clone().with_slices(3).unwrap()),
        ("stages", stages),
        ("adder", adder),
    ] {
        assert_ne!(hdl(&other), hdl(&base), "{what}");
        assert_ne!(key(&other), key(&base), "{what}");
    }

    // An interpolated 42 nm technology reports the N40 id but is its own
    // process: its own key, and a different layout.
    let n42 = Technology::interpolated(42.0).unwrap();
    assert_eq!(n42.id(), NodeId::N40);
    let spec42 = AdcSpec::for_technology(n42, 750e6, 5e6)
        .unwrap()
        .with_slices(2)
        .unwrap();
    assert_eq!(hdl(&spec42), hdl(&base), "same netlist");
    assert_ne!(key(&spec42), key(&base));
    let area = |spec: &AdcSpec| {
        tdsigma_core::physical::implement(&key(spec))
            .unwrap()
            .summary
            .area_mm2
    };
    assert_ne!(area(&spec42), area(&base));
}
