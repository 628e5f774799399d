//! **ALL** — one-command reproduction: runs the paper's full evaluation
//! (Table 3 at both nodes, Table 4, the Fig. 15/17/18 checks and the §2/§3
//! ablations), grades every result against the acceptance bands of
//! DESIGN.md §7, and writes `results/REPRODUCTION.md`.
//!
//! ```text
//! cargo run --release -p tdsigma-bench --bin reproduce_all
//! ```
//!
//! The evaluations run in two lanes, the main thread being one of them:
//!
//! - lane A: the 40 nm flow, its Fig. 17 slope, then the Fig. 18 capture;
//! - lane B: the 180 nm flow, the Table 4 rows, the comparator and DAC
//!   ablations, then the naive APR.
//!
//! Fig. 18 reuses the 40 nm layout's physical summary through
//! [`DesignFlow::simulate`] instead of running netlist generation, APR and
//! timing a second time for the same spec; the capture is bit-identical to
//! a fresh flow's. Each lane returns only what the gates and the report
//! read, and the report and the gate lines are built after both lanes
//! finish, in a fixed order, so the output does not depend on which lane
//! finishes first.

use std::fmt::Write as _;
use tdsigma_baselines::comparators::accuracy_at_buffer_cm;
use tdsigma_baselines::dacs::{DacArchitecture, DacMonteCarlo};
use tdsigma_baselines::prior::{PriorAdc, Table4Row};
use tdsigma_bench::write_artifact;
use tdsigma_core::power::PowerBreakdown;
use tdsigma_core::sim::ComparatorFlavor;
use tdsigma_core::{netgen, spec::AdcSpec, AdcReport, DesignFlow, FlowOutcome};
use tdsigma_dsp::shaping::{fit_noise_slope, idle_tone_report, IdleToneReport, SlopeFit};
use tdsigma_dsp::window::Window;
use tdsigma_layout::{synthesize_naive, AprOptions, CheckReport, TimingReport};

struct Gate {
    name: &'static str,
    detail: String,
    pass: bool,
}

/// What the gates and the report read of one node's flow.
struct Node {
    report: AdcReport,
    timing: TimingReport,
    checks: CheckReport,
    power: PowerBreakdown,
}

impl Node {
    /// Keeps what the gates read of a flow and drops the rest.
    fn of(outcome: FlowOutcome) -> Node {
        Node {
            report: outcome.report,
            timing: outcome.timing,
            checks: outcome.layout.checks,
            power: outcome.power,
        }
    }
}

/// Lane A's results.
struct Lane40 {
    node: Node,
    /// `None` if the band held too few log buckets to fit a slope.
    slope: Option<SlopeFit>,
    /// `None` if the band held too few noise bins to judge idle tones.
    tones: Option<IdleToneReport>,
}

/// Lane B's results.
struct Lane180 {
    node: Node,
    table4: Vec<Table4Row>,
    nor3: f64,
    nand3: f64,
    res: DacMonteCarlo,
    cur: DacMonteCarlo,
    rail_conflicts: usize,
}

fn paper_flow(spec: AdcSpec) -> DesignFlow {
    DesignFlow::new(spec).with_samples(16_384)
}

/// Lane A: the 40 nm flow, the Fig. 17 slope of its capture, then the
/// Fig. 18 capture at 10 mV on the same layout.
fn lane_40nm() -> Lane40 {
    let spec40 = AdcSpec::paper_40nm().expect("lane A: spec");
    let FlowOutcome {
        layout,
        timing,
        physical,
        capture,
        power,
        report,
        ..
    } = paper_flow(spec40.clone()).run().expect("lane A: flow 40nm");
    let slope = fit_noise_slope(&capture.spectrum(Window::Hann), 5e6, 750e6 / 4.0);
    // Out of the heap before the Fig. 18 transient allocates its own.
    drop(capture);
    let (low, _) = paper_flow(spec40.clone())
        .with_amplitude(0.010 / spec40.full_scale_v())
        .simulate(&physical)
        .expect("lane A: Fig. 18 capture");
    let tones = idle_tone_report(&low.spectrum(Window::Hann), 5e6, 25.0);
    Lane40 {
        node: Node {
            report,
            timing,
            checks: layout.checks,
            power,
        },
        slope,
        tones,
    }
}

/// Lane B: the 180 nm flow, the Table 4 rows, the comparator and DAC
/// ablations, then the naive APR of the 40 nm netlist.
fn lane_180nm() -> Lane180 {
    let node = Node::of(
        paper_flow(AdcSpec::paper_180nm().expect("lane B: spec"))
            .run()
            .expect("lane B: flow 180nm"),
    );
    let table4 = PriorAdc::table4_entries()
        .iter()
        .map(|prior| prior.table4_row(8_192, 2017))
        .collect();
    let nor3 = accuracy_at_buffer_cm(ComparatorFlavor::Nor3, 1.1, 7);
    let nand3 = accuracy_at_buffer_cm(ComparatorFlavor::Nand3, 1.1, 7);
    let res = DacMonteCarlo::run(DacArchitecture::Resistor, 8, 500, 42);
    let cur = DacMonteCarlo::run(DacArchitecture::CurrentSteering, 8, 500, 42);
    let spec40 = AdcSpec::paper_40nm().expect("lane B: spec");
    let flat = netgen::generate(&spec40)
        .expect("lane B: netlist")
        .flatten();
    let naive =
        synthesize_naive(&flat, &spec40.tech, &AprOptions::default()).expect("lane B: naive APR");
    Lane180 {
        node,
        table4,
        nor3,
        nand3,
        res,
        cur,
        rail_conflicts: naive.checks.rail_conflicts(),
    }
}

fn main() {
    let mut gates: Vec<Gate> = Vec::new();
    let mut md = String::from("# Reproduction report\n\nGenerated by `reproduce_all`.\n\n");

    println!("[1/6] Table 3 (full flow, both nodes) ...");
    let (a, b) = std::thread::scope(|s| {
        let b = std::thread::Builder::new()
            .name("lane B".into())
            .spawn_scoped(s, lane_180nm)
            .expect("spawn lane B");
        let a = lane_40nm();
        let b = b.join().unwrap_or_else(|_| {
            panic!("lane B (180 nm flow, Table 4, ablations, naive APR) panicked")
        });
        (a, b)
    });
    let (o40, o180) = (&a.node, &b.node);

    // ---- Table 3: both nodes through the full flow ----
    let _ = writeln!(md, "## Table 3\n");
    let _ = writeln!(md, "```");
    let _ = writeln!(md, "{}", AdcReport::table_header());
    let _ = writeln!(md, "{}", o40.report.table_row());
    let _ = writeln!(md, "{}", o180.report.table_row());
    let _ = writeln!(md, "```");
    gates.push(Gate {
        name: "SNDR ≥ 65 dB at both nodes (paper 69.5)",
        detail: format!("{:.1} / {:.1} dB", o40.report.sndr_db, o180.report.sndr_db),
        pass: o40.report.sndr_db >= 65.0 && o180.report.sndr_db >= 65.0,
    });
    gates.push(Gate {
        name: "SNDR spread between nodes < 3 dB (paper 0)",
        detail: format!("{:.1} dB", (o40.report.sndr_db - o180.report.sndr_db).abs()),
        pass: (o40.report.sndr_db - o180.report.sndr_db).abs() < 3.0,
    });
    let power_ratio = o180.report.power_mw / o40.report.power_mw;
    gates.push(Gate {
        name: "power ratio 180/40 in 2–8x (paper 4.0x)",
        detail: format!("{power_ratio:.2}x"),
        pass: (2.0..8.0).contains(&power_ratio),
    });
    let area_ratio = o180.report.area_mm2 / o40.report.area_mm2;
    gates.push(Gate {
        name: "area ratio 180/40 in 8–20x (paper 12.6x)",
        detail: format!("{area_ratio:.2}x"),
        pass: (8.0..20.0).contains(&area_ratio),
    });
    let fom_ratio = o180.report.fom_fj / o40.report.fom_fj;
    gates.push(Gate {
        name: "FOM ratio 180/40 ≥ 5x, 40nm < 200 fJ (paper 14.2x, 56.2 fJ)",
        detail: format!("{fom_ratio:.2}x, {:.1} fJ", o40.report.fom_fj),
        pass: fom_ratio >= 5.0 && o40.report.fom_fj < 200.0,
    });
    gates.push(Gate {
        name: "timing met at both nodes",
        detail: format!(
            "slack {:+.0} / {:+.0} ps",
            o40.timing.slack_ps(),
            o180.timing.slack_ps()
        ),
        pass: o40.timing.met() && o180.timing.met(),
    });
    gates.push(Gate {
        name: "layouts clean (0 rail conflicts)",
        detail: format!(
            "{} / {} violations",
            o40.checks.violations.len(),
            o180.checks.violations.len()
        ),
        pass: o40.checks.is_clean() && o180.checks.is_clean(),
    });

    // ---- Fig. 15: power breakdown ----
    println!("[2/6] Fig. 15 (power split) ...");
    let f40 = o40.power.digital_fraction();
    let f180 = o180.power.digital_fraction();
    gates.push(Gate {
        name: "digital share rises at older node (paper 73% → 88%)",
        detail: format!("{:.0}% → {:.0}%", 100.0 * f40, 100.0 * f180),
        pass: f180 > f40 && (0.5..0.95).contains(&f40),
    });

    // ---- Fig. 17: shaping slope + mismatch out of band ----
    println!("[3/6] Fig. 17 (noise shaping) ...");
    gates.push(Gate {
        name: "noise-shaping slope 15–25 dB/dec (paper 20)",
        detail: a.slope.map_or("no fit: too few log buckets".into(), |s| {
            format!("{:.1} dB/dec", s.slope_db_per_decade)
        }),
        pass: a
            .slope
            .is_some_and(|s| (15.0..25.0).contains(&s.slope_db_per_decade)),
    });

    // ---- Fig. 18: idle tones at 10 mV ----
    println!("[4/6] Fig. 18 (low amplitude) ...");
    gates.push(Gate {
        name: "no idle tones at 10 mV input (paper: none observed)",
        detail: a.tones.map_or("no check: too few noise bins".into(), |t| {
            format!(
                "worst spur {:+.1} dB over median",
                t.worst_spur_over_median_db
            )
        }),
        pass: a.tones.is_some_and(|t| t.clean),
    });

    // ---- Table 4: ordering ----
    println!("[5/6] Table 4 (prior work) ...");
    let mut best_prior_sndr = f64::NEG_INFINITY;
    let mut best_prior_fom = f64::INFINITY;
    let _ = writeln!(md, "\n## Table 4\n\n```");
    let _ = writeln!(md, "{}", tdsigma_baselines::prior::Table4Row::header());
    for row in &b.table4 {
        best_prior_sndr = best_prior_sndr.max(row.sndr_db);
        best_prior_fom = best_prior_fom.min(row.fom_fj);
        let _ = writeln!(md, "{row}");
    }
    let _ = writeln!(md, "```");
    gates.push(Gate {
        name: "highest SNDR and best FOM vs priors (paper: +13 dB margin)",
        detail: format!(
            "+{:.1} dB margin, FOM {:.0} vs best prior {:.0} fJ",
            o40.report.sndr_db - best_prior_sndr,
            o40.report.fom_fj,
            best_prior_fom
        ),
        pass: o40.report.sndr_db > best_prior_sndr && o40.report.fom_fj < best_prior_fom,
    });

    // ---- Ablations ----
    println!("[6/6] ablations ...");
    let (nor3, nand3) = (b.nor3, b.nand3);
    gates.push(Gate {
        name: "§2.2.1 NOR3 works at 0.25 V CM, NAND3 does not",
        detail: format!("{:.1}% vs {:.1}% accuracy", 100.0 * nor3, 100.0 * nand3),
        pass: nor3 > 0.99 && nand3 < 0.6,
    });
    let (res, cur) = (&b.res, &b.cur);
    gates.push(Gate {
        name: "§2.2.2 resistor DAC matches ≥4x better",
        detail: format!("INL {:.4} vs {:.4} LSB", res.mean_inl_lsb, cur.mean_inl_lsb),
        pass: cur.mean_inl_lsb > 4.0 * res.mean_inl_lsb,
    });
    gates.push(Gate {
        name: "§3.3 naive APR shorts rails, MSV flow is clean",
        detail: format!("{} rail shorts in the naive flow", b.rail_conflicts),
        pass: b.rail_conflicts > 100,
    });

    // ---- Verdict ----
    let _ = writeln!(md, "\n## Acceptance gates\n");
    let _ = writeln!(md, "| Gate | Measured | Verdict |");
    let _ = writeln!(md, "|---|---|---|");
    let mut all_pass = true;
    println!();
    for gate in &gates {
        let verdict = if gate.pass { "PASS" } else { "FAIL" };
        all_pass &= gate.pass;
        println!("  [{verdict}] {:<58} {}", gate.name, gate.detail);
        let _ = writeln!(md, "| {} | {} | {verdict} |", gate.name, gate.detail);
    }
    let _ = writeln!(
        md,
        "\n**{}** — {} of {} gates passed.",
        if all_pass { "REPRODUCED" } else { "PARTIAL" },
        gates.iter().filter(|g| g.pass).count(),
        gates.len()
    );
    let path = write_artifact("REPRODUCTION.md", &md);
    println!(
        "\n{}: {} of {} gates passed → {}",
        if all_pass { "REPRODUCED" } else { "PARTIAL" },
        gates.iter().filter(|g| g.pass).count(),
        gates.len(),
        path.display()
    );
    assert!(all_pass, "reproduction gates failed");
}
