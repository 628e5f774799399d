//! The two `tdsigma` batch workloads, run as a user runs them.
//!
//! * `optimize_flow` — a 16-evaluation CMA search (two generations of 8)
//!   over full flows in the default design space: exploration through
//!   opt → jobs → the whole Fig.-9 flow, where the APR stage dominates
//!   and each generation of uneven candidates waits on its slowest. The
//!   search seed is fixed: it picks the candidates, so it sets the op's
//!   cost, and a seed-dependent cost would read as noise. The budget is
//!   small so a run holds several searches: 24 evaluations took 7–12 s
//!   on two cores, two or three to a run.
//! * `sim_sweep` — a 16-job transient grid with 4× spread in per-job
//!   cost (4–16 slices), run cold and then warm from the same disk
//!   cache. The transient is nearly all of it and layout is absent, so
//!   a layout change must not move it.

use crate::spans::{self, Profile};
use crate::{proc, read_artifact, Env, OpRecord, WORKERS};
use std::path::Path;
use std::process::Command;
use std::time::Duration;
use tdsigma_jobs::Json;

/// Fixed run ids: `optimize.json` and `sweep.json` embed the run id,
/// so a varying one would make every op's output differ.
const OPTIMIZE_RUN_ID: &str = "ledger-optimize";
const SWEEP_RUN_ID: &str = "ledger-sweep";

/// The search seed of `optimize_flow` (the CLI's default).
const OPTIMIZE_SEED: &str = "2017";

/// `tdsigma optimize` flags.
const OPTIMIZE_ARGS: [&str; 12] = [
    "--kind",
    "flow",
    "--nodes",
    "40,180",
    "--budget",
    "16",
    "--samples",
    "4096",
    "--seed",
    OPTIMIZE_SEED,
    "--run-id",
    OPTIMIZE_RUN_ID,
];

/// The `sim_sweep` grid.
const SWEEP_GRID: [&str; 12] = [
    "--kind",
    "sim",
    "--nodes",
    "40,180",
    "--slices",
    "4,8,12,16",
    "--amps",
    "0.5,0.79",
    "--samples",
    "16384",
    "--run-id",
    SWEEP_RUN_ID,
];

/// One `tdsigma` process of an op in `dir`: `args`, the cache directory
/// `cache`, and journal, output and (when `trace`) trace files of its
/// own, named after `tag`.
pub fn tdsigma(
    env: &Env,
    dir: &Path,
    args: &[&str],
    cache: &str,
    tag: &str,
    trace: bool,
) -> Command {
    let mut cmd = Command::new(env.bin("tdsigma"));
    cmd.current_dir(dir)
        .args(args)
        .arg("--cache-dir")
        .arg(dir.join(cache))
        .arg("--journal-dir")
        .arg(dir.join(format!("journal-{tag}")))
        .arg("--out")
        .arg(dir.join(format!("out-{tag}")));
    if trace {
        cmd.arg("--trace").arg(trace_file(dir, tag));
    }
    cmd
}

pub fn trace_file(dir: &Path, tag: &str) -> std::path::PathBuf {
    dir.join(format!("trace-{tag}.jsonl"))
}

fn optimize(env: &Env, dir: &Path, tag: &str, trace: bool) -> Command {
    let mut cmd = tdsigma(env, dir, &["optimize"], "cache", tag, trace);
    cmd.args(OPTIMIZE_ARGS)
        .args(["--workers", &WORKERS.to_string()]);
    cmd
}

/// A `tdsigma sweep` of a grid.
pub struct Sweep<'a> {
    /// The grid's flags, `--run-id` included.
    pub grid: &'a [&'a str],
    pub seed: u64,
    /// A thread count or a server address.
    pub workers: &'a str,
}

impl Sweep<'_> {
    pub fn command(&self, env: &Env, dir: &Path, cache: &str, tag: &str, trace: bool) -> Command {
        let mut cmd = tdsigma(env, dir, &["sweep"], cache, tag, trace);
        cmd.args(self.grid)
            .args(["--seed", &self.seed.to_string(), "--workers", self.workers]);
        cmd
    }
}

fn sim_sweep(seed: u64, workers: &str) -> Sweep<'_> {
    Sweep {
        grid: &SWEEP_GRID,
        seed,
        workers,
    }
}

pub fn optimize_setup(env: &Env, dir: &Path) -> Result<Duration, String> {
    proc::first_line(&mut optimize(env, dir, "setup", false))
}

pub fn sweep_setup(env: &Env, dir: &Path, seed: u64) -> Result<Duration, String> {
    let workers = WORKERS.to_string();
    proc::first_line(&mut sim_sweep(seed, &workers).command(env, dir, "cache", "setup", false))
}

/// Adds a traced CLI process's spans to `profile`.
pub fn add_trace(
    profile: Option<&mut Profile>,
    dir: &Path,
    tag: &str,
    run: &proc::Run,
) -> Result<(), String> {
    if let Some(p) = profile {
        let spans = spans::read(&trace_file(dir, tag))?;
        p.add_process(&spans, Some(run.elapsed.as_micros() as u64));
    }
    Ok(())
}

pub fn optimize_op(
    env: &Env,
    dir: &Path,
    profile: Option<&mut Profile>,
) -> Result<OpRecord, String> {
    let run =
        proc::run(&mut optimize(env, dir, "op", profile.is_some())).map_err(|e| e.to_string())?;
    run.check("tdsigma optimize")?;
    let output = read_artifact(&dir.join("out-op/optimize.json"))?;
    let text = std::str::from_utf8(&output).map_err(|e| e.to_string())?;
    let json = Json::parse(text).map_err(|e| format!("optimize.json: {e}"))?;
    match json.get("evals").and_then(Json::as_u64) {
        Some(16) => {}
        other => {
            return Err(format!(
                "optimize.json reports {other:?} evaluations, not 16"
            ))
        }
    }
    add_trace(profile, dir, "op", &run)?;
    Ok(OpRecord {
        ms: run.elapsed.as_secs_f64() * 1e3,
        parts: Vec::new(),
        peak_rss_kb: run.peak_rss_kb,
        output: Some(output),
    })
}

/// Checks the sweep's batch line reports `counts`.
pub fn expect_batch(run: &proc::Run, counts: &str) -> Result<(), String> {
    if run
        .stdout
        .lines()
        .any(|l| l.starts_with("batch:") && l.contains(counts))
    {
        Ok(())
    } else {
        Err(format!("sweep did not report \"{counts}\""))
    }
}

pub fn sweep_op(
    env: &Env,
    dir: &Path,
    seed: u64,
    mut profile: Option<&mut Profile>,
) -> Result<OpRecord, String> {
    let trace = profile.is_some();
    let workers = WORKERS.to_string();
    let mut runs = Vec::new();
    for (tag, counts) in [
        ("cold", "16 executed, 0 cache hits"),
        ("warm", "0 executed, 16 cache hits"),
    ] {
        let run = proc::run(&mut sim_sweep(seed, &workers).command(env, dir, "cache", tag, trace))
            .map_err(|e| e.to_string())?;
        run.check(&format!("{tag} sweep"))?;
        expect_batch(&run, counts)?;
        add_trace(profile.as_deref_mut(), dir, tag, &run)?;
        runs.push(run);
    }
    let output = read_artifact(&dir.join("out-cold/sweep.json"))?;
    if read_artifact(&dir.join("out-warm/sweep.json"))? != output {
        return Err("warm sweep.json differs from the cold one".into());
    }
    let ms: Vec<f64> = runs.iter().map(|r| r.elapsed.as_secs_f64() * 1e3).collect();
    Ok(OpRecord {
        ms: ms.iter().sum(),
        parts: vec![("cold_ms", ms[0]), ("warm_ms", ms[1])],
        peak_rss_kb: runs.iter().map(|r| r.peak_rss_kb).max().unwrap_or(0),
        output: Some(output),
    })
}
