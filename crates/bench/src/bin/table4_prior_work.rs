//! **TAB4** — reproduces Table 4: comparison with previously published
//! synthesizable ADCs. Prior architectures are simulated behaviorally at
//! their own nodes (published power/area are datasheet anchors); this work
//! comes from the full post-layout flow.

use tdsigma_baselines::prior::{PriorAdc, Table4Row};
use tdsigma_core::{AdcSpec, DesignFlow};

fn main() {
    println!("=== Table 4: comparison with previous synthesizable ADCs ===\n");
    let spec = AdcSpec::paper_40nm().expect("spec");
    let supply = spec.tech.vdd().value();
    let outcome = DesignFlow::new(spec)
        .with_samples(16_384)
        .run()
        .expect("flow");
    let this_work = Table4Row {
        label: "This work (sim)".to_string(),
        supply_v: supply,
        node_nm: 40.0,
        fs_mhz: outcome.report.fs_mhz,
        bw_mhz: outcome.report.bw_mhz,
        sndr_db: outcome.report.sndr_db,
        power_mw: outcome.report.power_mw,
        area_mm2: outcome.report.area_mm2,
        fom_fj: outcome.report.fom_fj,
    };

    let mut rows = vec![this_work];
    for prior in PriorAdc::table4_entries() {
        rows.push(prior.table4_row(16_384, 2017));
    }

    println!("{}", Table4Row::header());
    for row in &rows {
        println!("{row}");
    }

    let best_sndr = rows
        .iter()
        .max_by(|a, b| a.sndr_db.partial_cmp(&b.sndr_db).expect("finite"))
        .expect("rows non-empty");
    let best_fom = rows
        .iter()
        .min_by(|a, b| a.fom_fj.partial_cmp(&b.fom_fj).expect("finite"))
        .expect("rows non-empty");
    println!();
    println!("highest SNDR: {}", best_sndr.label);
    println!("best (lowest) Walden FOM: {}", best_fom.label);
    let margin = rows[0].sndr_db
        - rows[1..]
            .iter()
            .map(|r| r.sndr_db)
            .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "SNDR margin over the best prior work: {margin:.1} dB (paper: 13 dB over the second best)"
    );
    println!("\npaper's own Table 4 row for this work: 69.5 dB, 1.37 mW, 0.012 mm², 56.2 fJ/conv.");
    println!("Prior-work power/area columns are published measurements (anchors), their SNDR");
    println!("columns are re-simulated from our behavioral architecture models.");
}
