//! Cross-node integration: the scaling-compatibility claims of Table 3 /
//! Fig. 15, verified end-to-end across crates.

use tdsigma::core::{AdcSpec, DesignFlow};

fn run(spec: AdcSpec) -> tdsigma::core::FlowOutcome {
    let mut spec = spec;
    spec.steps_per_cycle = 8;
    DesignFlow::new(spec)
        .with_samples(4096)
        .run()
        .expect("flow")
}

#[test]
fn table3_shape_holds() {
    let o40 = run(AdcSpec::paper_40nm().expect("spec"));
    let o180 = run(AdcSpec::paper_180nm().expect("spec"));

    // SNDR: both in the 69.5-dB class (quick-look captures are a few dB
    // pessimistic; 16k-sample runs in the bench binaries land 67-69).
    assert!(
        o40.report.sndr_db > 55.0,
        "40 nm SNDR {}",
        o40.report.sndr_db
    );
    assert!(
        o180.report.sndr_db > 55.0,
        "180 nm SNDR {}",
        o180.report.sndr_db
    );
    assert!(
        (o40.report.sndr_db - o180.report.sndr_db).abs() < 8.0,
        "nodes should be within a few dB ({} vs {})",
        o40.report.sndr_db,
        o180.report.sndr_db
    );

    // Power: paper ratio 4.0x; accept 2-8x in the same direction.
    let power_ratio = o180.report.power_mw / o40.report.power_mw;
    assert!(
        (2.0..8.0).contains(&power_ratio),
        "power ratio 180/40 = {power_ratio}"
    );

    // Area: paper ratio 12.6x; accept 8-20x.
    let area_ratio = o180.report.area_mm2 / o40.report.area_mm2;
    assert!(
        (8.0..20.0).contains(&area_ratio),
        "area ratio 180/40 = {area_ratio}"
    );

    // FOM: paper ratio 14.2x; accept >= 5x, newer node wins.
    let fom_ratio = o180.report.fom_fj / o40.report.fom_fj;
    assert!(fom_ratio > 5.0, "FOM ratio 180/40 = {fom_ratio}");
    assert!(o40.report.fom_fj < 200.0, "40 nm FOM {}", o40.report.fom_fj);
}

#[test]
fn fig15_digital_share_rises_at_older_node() {
    let o40 = run(AdcSpec::paper_40nm().expect("spec"));
    let o180 = run(AdcSpec::paper_180nm().expect("spec"));
    let f40 = o40.power.digital_fraction();
    let f180 = o180.power.digital_fraction();
    assert!(
        f180 > f40,
        "digital share must rise with the older node: {f180} vs {f40}"
    );
    for (label, f) in [("40 nm", f40), ("180 nm", f180)] {
        assert!((0.5..0.95).contains(&f), "{label} digital share {f}");
    }
}

#[test]
fn identical_netlist_both_nodes() {
    // §4: "the design migration ... is done automatically" — structurally,
    // the netlist is node-independent.
    let d40 = tdsigma::core::netgen::generate(&AdcSpec::paper_40nm().expect("spec"))
        .expect("netlist")
        .flatten();
    let d180 = tdsigma::core::netgen::generate(&AdcSpec::paper_180nm().expect("spec"))
        .expect("netlist")
        .flatten();
    assert_eq!(d40.len(), d180.len());
    for (a, b) in d40.cells.iter().zip(&d180.cells) {
        assert_eq!(a.path, b.path);
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.connections, b.connections);
    }
}
