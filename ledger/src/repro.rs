//! `repro` — one `reproduce_all` pass: the paper's headline command.
//! Serial, dominated by the APR stage, with the transient second and the
//! baseline models third. It takes no seed: the paper command is fixed.
//!
//! `reproduce_all` has no `--trace`, so a traced op makes its top-level
//! calls in-process instead, in the same order with the same arguments,
//! with the program's spans written to memory. The stages inside
//! `DesignFlow::run` are the program's own spans; the calls outside it
//! get spans of the ledger's (`dsp.shaping`, `baselines`,
//! `layout.naive_apr`). The copy covers only that list of top-level
//! calls, and nothing checks that it still matches `reproduce_all`'s,
//! except that the Table 3 and Table 4 rows it computes must appear
//! verbatim in the untraced passes' `REPRODUCTION.md`.

use crate::spans::{self, Profile};
use crate::{proc, read_artifact, Env, OpRecord};
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tdsigma_baselines::comparators::accuracy_at_buffer_cm;
use tdsigma_baselines::dacs::{DacArchitecture, DacMonteCarlo};
use tdsigma_baselines::prior::PriorAdc;
use tdsigma_core::sim::ComparatorFlavor;
use tdsigma_core::{netgen, AdcSpec, DesignFlow};
use tdsigma_dsp::{fit_noise_slope, idle_tone_report, Window};
use tdsigma_layout::{synthesize_naive, AprOptions};
use tdsigma_obs as obs;

/// The verdict line of a pass in which every gate held.
const ALL_PASSED: &str = "REPRODUCED: 14 of 14 gates passed";

fn reproduce_all(env: &Env, dir: &Path) -> Command {
    // The pass writes results/REPRODUCTION.md under its working
    // directory, so the repository's own copy stays untouched.
    let mut cmd = Command::new(env.bin("reproduce_all"));
    cmd.current_dir(dir);
    cmd
}

pub fn setup(env: &Env, dir: &Path) -> Result<Duration, String> {
    proc::first_line(&mut reproduce_all(env, dir))
}

pub fn op(env: &Env, dir: &Path) -> Result<OpRecord, String> {
    let run = proc::run(&mut reproduce_all(env, dir)).map_err(|e| e.to_string())?;
    run.check("reproduce_all")?;
    if !run.stdout.contains(ALL_PASSED) {
        return Err(format!("reproduce_all did not print \"{ALL_PASSED}\""));
    }
    Ok(OpRecord {
        ms: run.elapsed.as_secs_f64() * 1e3,
        parts: Vec::new(),
        peak_rss_kb: run.peak_rss_kb,
        output: Some(read_artifact(&dir.join("results/REPRODUCTION.md"))?),
    })
}

/// One pass in-process with the program's spans on. `reference` is the
/// untraced passes' `REPRODUCTION.md`.
pub fn traced_op(reference: &[u8], profile: &mut Profile) -> Result<f64, String> {
    let sink = Sink::default();
    obs::set_trace_writer(Box::new(sink.clone()));
    let started = Instant::now();
    let rows = top_level_calls();
    let wall = started.elapsed();
    obs::disable_tracing();
    let spans = spans::parse(&sink.text())?;
    let reference = String::from_utf8_lossy(reference);
    for row in rows? {
        if !reference.lines().any(|line| line == row) {
            return Err(format!(
                "traced row missing from REPRODUCTION.md: {}",
                row.trim()
            ));
        }
    }
    profile.add_process(&spans, Some(wall.as_micros() as u64));
    Ok(wall.as_secs_f64() * 1e3)
}

/// `reproduce_all`'s calls; returns the Table 3 and Table 4 rows.
fn top_level_calls() -> Result<Vec<String>, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let spec40 = AdcSpec::paper_40nm().map_err(|x| e(&x))?;
    let spec180 = AdcSpec::paper_180nm().map_err(|x| e(&x))?;
    let flow = |spec: &AdcSpec| DesignFlow::new(spec.clone()).with_samples(16_384);
    let o40 = flow(&spec40).run().map_err(|x| e(&x))?;
    let o180 = flow(&spec180).run().map_err(|x| e(&x))?;
    let mut rows = vec![o40.report.table_row(), o180.report.table_row()];
    {
        let _span = obs::span("dsp.shaping");
        let spectrum = o40.capture.spectrum(Window::Hann);
        black_box(fit_noise_slope(&spectrum, 5e6, 750e6 / 4.0));
    }
    let low = flow(&spec40)
        .with_amplitude(0.010 / spec40.full_scale_v())
        .run()
        .map_err(|x| e(&x))?;
    {
        let _span = obs::span("dsp.shaping");
        black_box(idle_tone_report(
            &low.capture.spectrum(Window::Hann),
            5e6,
            25.0,
        ));
    }
    {
        let _span = obs::span("baselines");
        for prior in PriorAdc::table4_entries() {
            rows.push(prior.table4_row(8_192, 2017).to_string());
        }
        black_box(accuracy_at_buffer_cm(ComparatorFlavor::Nor3, 1.1, 7));
        black_box(accuracy_at_buffer_cm(ComparatorFlavor::Nand3, 1.1, 7));
        black_box(DacMonteCarlo::run(DacArchitecture::Resistor, 8, 500, 42));
        black_box(DacMonteCarlo::run(
            DacArchitecture::CurrentSteering,
            8,
            500,
            42,
        ));
    }
    {
        let _span = obs::span("layout.naive_apr");
        let flat = netgen::generate(&spec40).map_err(|x| e(&x))?.flatten();
        let naive =
            synthesize_naive(&flat, &spec40.tech, &AprOptions::default()).map_err(|x| e(&x))?;
        black_box(naive);
    }
    Ok(rows)
}

/// An in-memory trace sink.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Sink {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("trace buffer lock")).into_owned()
    }
}

impl Write for Sink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
