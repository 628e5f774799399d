//! End-to-end integration: the complete Fig.-9 flow, spanning every crate
//! (tech → netlist → layout → circuit/sim → dsp → core).

use tdsigma::core::{netgen, AdcSpec, DesignFlow};
use tdsigma::layout::{synthesize_naive, AprOptions};
use tdsigma::netlist::verilog;

fn quick_spec() -> AdcSpec {
    let mut spec = AdcSpec::paper_40nm().expect("paper spec");
    spec.steps_per_cycle = 8;
    spec
}

#[test]
fn full_flow_end_to_end() {
    let outcome = DesignFlow::new(quick_spec())
        .with_samples(4096)
        .run()
        .expect("flow succeeds");

    // (1) HDL generation produced the paper's module set.
    for module in [
        "comparator",
        "VCO_cell",
        "buf_cell",
        "pd_VDD",
        "pd_VREFP",
        "ADC_slice",
        "adc_top",
    ] {
        assert!(
            outcome.verilog.contains(&format!("module {module}")),
            "missing {module}"
        );
    }
    // (2) The Verilog is machine-readable (round trip).
    let reparsed = verilog::read_design(&outcome.verilog).expect("parse");
    assert_eq!(reparsed.top_name(), "adc_top");

    // (3) The MSV layout is clean and non-trivial.
    assert!(outcome.layout.checks.is_clean());
    assert!(outcome.layout.placement.len() > 1000);
    assert!(outcome.layout.area_mm2 > 0.0);
    assert!(outcome.layout.routing.total_wirelength_nm > 0);

    // (4) Post-layout simulation converts.
    assert!(
        outcome.analysis.sndr_db > 45.0,
        "quick-look post-layout SNDR: {}",
        outcome.analysis.sndr_db
    );

    // (5) The report is self-consistent.
    let r = &outcome.report;
    assert!((r.enob - (r.sndr_db - 1.76) / 6.02).abs() < 1e-9);
    assert!(r.fom_fj > 0.0);
    assert!(r.power_mw > 0.1 && r.power_mw < 20.0);
}

#[test]
fn post_layout_parasitics_degrade_gracefully() {
    // Post-layout (extracted wire C on the control nodes) must not break
    // the loop — the robustness claim of §2.2.
    let spec = quick_spec();
    let outcome = DesignFlow::new(spec.clone())
        .with_samples(4096)
        .run()
        .expect("flow");
    let mut schematic = tdsigma::core::sim::AdcSimulator::new(spec.clone()).expect("sim");
    let fin = DesignFlow::new(spec.clone())
        .with_samples(4096)
        .input_frequency_hz();
    let cap = schematic.run_tone(fin, 0.79 * spec.full_scale_v(), 4096);
    let schematic_sndr = cap.analyze(spec.bw_hz).sndr_db;
    assert!(
        (outcome.analysis.sndr_db - schematic_sndr).abs() < 8.0,
        "post-layout {} vs schematic {} dB",
        outcome.analysis.sndr_db,
        schematic_sndr
    );
}

#[test]
fn naive_apr_fails_where_msv_flow_succeeds() {
    let spec = quick_spec();
    let flat = netgen::generate(&spec).expect("netlist").flatten();
    let naive = synthesize_naive(&flat, &spec.tech, &AprOptions::default()).expect("naive APR");
    assert!(
        naive.checks.rail_conflicts() > 100,
        "the single-domain flow must short the VCO supplies ({} conflicts)",
        naive.checks.rail_conflicts()
    );
}

#[test]
fn flow_is_deterministic() {
    let a = DesignFlow::new(quick_spec())
        .with_samples(1024)
        .run()
        .expect("flow");
    let b = DesignFlow::new(quick_spec())
        .with_samples(1024)
        .run()
        .expect("flow");
    assert_eq!(a.capture.output, b.capture.output);
    assert_eq!(a.layout.area_mm2, b.layout.area_mm2);
    assert_eq!(a.verilog, b.verilog);
}
