//! `tdsigma` — command-line front end for the ADC design & synthesis flow.
//!
//! ```text
//! tdsigma design [--node 40] [--fs-mhz 750] [--bw-mhz 5] [--slices 8]
//!                [--samples 16384] [--out results]
//! tdsigma sweep  [--nodes 40,180] [--slices 4,8] [--fs-mhz 750] [--amps 0.79]
//!                [--bw-mhz 5] [--kind sim] [--samples 8192] [--seed 2017]
//!                [--workers N | host:port,host:port[,local]]
//!                [--retries 1] [--cache-dir results/cache]
//!                [--no-cache] [--trace results/trace/sweep.jsonl] [--out results]
//!                [--run-id ID] [--journal-dir results/journal] [--no-journal]
//!                [--resume ID] [--resume-force]
//! tdsigma optimize [--space FILE] [--strategy cma|halving] [--kind flow|sim]
//!                [--budget 32] [--seed 2017] [--sndr-floor 70] [--samples K]
//!                [--population L] [--nodes 40,180] [--slices-range 2,16]
//!                [--stages-range 3,5] [--gain-range 0.5,2.0]
//!                [--rdac-range 11000,44000] [--fs-mhz F] [--bw-mhz B]
//!                [--workers ...] [--retries 1] [--cache-dir results/cache]
//!                [--no-cache] [--trace FILE] [--out results] [--run-id ID]
//!                [--journal-dir results/journal] [--no-journal]
//!                [--resume ID] [--dry-run]
//! tdsigma serve  [--addr 127.0.0.1:4017] [--workers N] [--retries 1]
//!                [--cache-dir results/cache] [--no-cache] [--trace FILE]
//!                [--max-connections 64] [--allow-remote-shutdown]
//!                [--max-queue Q]
//! tdsigma cache  stats|scrub [--cache-dir results/cache]
//! tdsigma nodes
//! tdsigma help
//! ```
//!
//! `design` runs the complete Fig.-9 flow and writes every artifact
//! (Verilog, LEF, DEF, .fp, GDS-text, layout SVG, spectrum CSV, JSON
//! report) into the output directory.
//!
//! `sweep` runs a grid of configurations (node × slices × fs × amplitude)
//! through the parallel job engine: results are cached under
//! `results/cache/` and bit-identical regardless of `--workers`. Every
//! sweep also writes a crash-recovery journal (`results/journal/<run-id>.jsonl`
//! unless `--no-journal`); a killed sweep is finished by
//! `tdsigma sweep --resume <run-id>`, which re-executes only the jobs the
//! journal does not record as complete and writes a `sweep.json`
//! bit-identical to an uninterrupted run.
//!
//! `sweep --workers` also accepts a comma-separated backend list
//! (`host:port,host:port[,local]`): jobs then dispatch over the serve
//! protocol to those `tdsigma serve` peers with per-backend circuit
//! breakers, failover and a guaranteed local fallback — results land
//! in the same content-addressed cache, so distributed and local runs
//! are byte-interchangeable and equally `--resume`-able.
//!
//! `optimize` runs a closed-loop design-space search (CMA-ES-like
//! evolution or successive-halving racing, see `crates/opt`) over slice
//! count, VCO sizing, DAC resistance and technology node. Candidates are
//! evaluated through the same job engine as `sweep` — cache, journal,
//! `--workers` fleet dispatch and `--resume` all apply — and the full
//! generation history lands in `optimize.json`. `--dry-run` (both sweep
//! and optimize) prints the planned jobs and predicted cache hits
//! without executing anything.
//!
//! `serve` exposes the same engine over TCP — one JSON command per line
//! in, one JSON response per line out; a job arrives as
//! `{"cmd":"run","job":…}` in the Hz-units form sweeps journal (see
//! `crates/jobs/src/server.rs` or README for the protocol). The
//! protocol `shutdown` command is refused unless the server was started
//! with `--allow-remote-shutdown`.
//! Admission control is two gates: `--max-connections` bounds threads,
//! and `--max-queue` sheds job requests once the in-flight backlog
//! outgrows the live workers, with a structured rejection carrying a
//! computed `retry_after_ms` that sweep clients honour as a cooldown.
//!
//! `sweep --journal-gc` prunes journals of provably-finished runs (a
//! bounded `results/journal/`, like the cache's `rejected/` prune);
//! successful sweeps also auto-prune, keeping the newest 32.
//!
//! Every cache artifact is checksummed and stamped with the **engine
//! fingerprint** (see `tdsigma_core::engine_fingerprint`): an artifact
//! that is corrupt or written by a different binary is moved to the
//! cache's `rejected/` directory, tagged `corrupt` or `foreign`, instead
//! of replayed, `--resume` refuses a journal planned by a different
//! engine unless `--resume-force` re-executes everything, serve
//! advertises the fingerprint in `health`/`ready`/`stats`, sweeps
//! exclude mismatched-fingerprint backends from dispatch (degrading to
//! matching backends plus local fallback).
//! `tdsigma cache stats` counts fresh, foreign, corrupt and rejected
//! artifacts; `tdsigma cache scrub` removes all but the fresh ones.
//!
//! `--trace FILE` (sweep and serve) turns on the observability layer's
//! JSON-lines trace sink: one line per flow stage span, job attempt and
//! engine event. Both commands also print a per-stage wall-time
//! breakdown at the end, with or without `--trace` (the span histograms
//! are always on — they cost only atomic adds).

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use tdsigma::core::DesignFlow;
use tdsigma::jobs::{
    default_workers, execute, gc_finished, validate_run_id, BatchReport, DispatchConfig,
    Dispatcher, Engine, EngineConfig, FaultPlan, Job, JobError, JobKind, Journal, JournalRecord,
    JournalReplay, Json, PlanPreview, PoolConfig, ResultCache, Runner, Server, ServerConfig,
};
use tdsigma::layout::{gds, lef, render, PhysicalLibrary};
use tdsigma::opt::{initial_jobs, optimize, OptConfig, SearchSpace, Strategy};
use tdsigma::tech::{NodeId, Technology};

/// What a command returns: how many of its jobs failed (any failure
/// exits 1, as does a fatal error).
type Outcome = Result<usize, Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dispatch = |args: &[String], known: &[&str], run: fn(&Flags) -> Outcome| {
        let flags = parse_flags(args, known).map_err(Into::into);
        match flags.and_then(|flags| run(&flags)) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    };
    let command = args.first().map_or("help", String::as_str);
    // `--help` anywhere, `tdsigma sweep --help` included, asks for usage.
    if command == "help" || args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return ExitCode::SUCCESS;
    }
    match command {
        "design" => dispatch(&args[1..], DESIGN_FLAGS, run_design),
        "sweep" => dispatch(&args[1..], SWEEP_FLAGS, run_sweep),
        "optimize" => dispatch(&args[1..], OPTIMIZE_FLAGS, run_optimize),
        "serve" => dispatch(&args[1..], SERVE_FLAGS, run_serve),
        "cache" => run_cache(&args[1..]),
        "nodes" => {
            println!("supported technology nodes:");
            for id in NodeId::ALL {
                let t = Technology::for_node(id).expect("built-in node");
                println!("  {t}");
            }
            ExitCode::SUCCESS
        }
        "version" | "--version" | "-V" => {
            println!("tdsigma {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("tdsigma — scaling-compatible, synthesis-friendly VCO-based ΔΣ ADC flow");
    println!();
    println!("USAGE:");
    println!("  tdsigma design [--node N] [--fs-mhz F] [--bw-mhz B] [--slices S]");
    println!("                 [--samples K] [--out DIR]     run the full flow");
    println!("  tdsigma sweep  [--nodes 40,180] [--slices 4,8] [--fs-mhz 750]");
    println!("                 [--amps 0.79] [--bw-mhz B] [--kind sim|flow]");
    println!("                 [--samples K] [--seed S] [--retries R]");
    println!("                 [--workers N | host:port,host:port[,local]]");
    println!("                 [--cache-dir DIR] [--no-cache] [--trace FILE] [--out DIR]");
    println!("                 [--run-id ID] [--journal-dir DIR] [--no-journal]");
    println!("                 [--resume ID] [--resume-force] [--dry-run]");
    println!("                 [--verify-sample P] [--verify-all]");
    println!("                                                run a cached parallel grid");
    println!("  tdsigma optimize [--space FILE] [--strategy cma|halving]");
    println!("                 [--kind flow|sim] [--budget N] [--seed S]");
    println!("                 [--sndr-floor DB] [--samples K] [--population L]");
    println!("                 [--nodes 40,180] [--slices-range LO,HI]");
    println!("                 [--stages-range LO,HI] [--gain-range LO,HI]");
    println!("                 [--rdac-range LO,HI] [--fs-mhz F] [--bw-mhz B]");
    println!("                 [engine flags as sweep] [--resume ID] [--dry-run]");
    println!("                                                closed-loop design search");
    println!("  tdsigma serve  [--addr HOST:PORT] [--workers W] [--retries R]");
    println!("                 [--cache-dir DIR] [--no-cache] [--trace FILE]");
    println!("                 [--max-connections N] [--allow-remote-shutdown]");
    println!("                 [--max-queue Q]");
    println!("                                                JSON-lines job server");
    println!("  tdsigma cache  stats|scrub [--cache-dir DIR]  inspect / prune the cache");
    println!("  tdsigma nodes                                 list technology nodes");
    println!("  tdsigma help | --help | -h                    this message");
    println!("  tdsigma version | --version | -V              print the version");
    println!();
    println!("DEFAULTS: --node 40 --fs-mhz 750 --bw-mhz 5 --slices 8 --samples 16384");
    println!("          --out results --cache-dir results/cache --addr 127.0.0.1:4017");
    println!("          --journal-dir results/journal --max-connections 64");
    println!();
    println!("CRASH RECOVERY: every sweep writes a write-ahead journal; after a crash,");
    println!("  `tdsigma sweep --resume ID` finishes the run without redoing completed");
    println!("  jobs and writes a bit-identical sweep.json.");
    println!("DISTRIBUTED SWEEPS: `--workers host:port,host:port[,local]` dispatches jobs");
    println!("  to `tdsigma serve` backends with per-backend circuit breakers, failover");
    println!("  and a guaranteed local fallback; results are byte-identical to a");
    println!("  local run.");
    println!("EXIT CODES (sweep): 0 = every job succeeded; 1 = degraded (some jobs");
    println!("  failed — sweep.json carries their structured failure records) or a");
    println!("  fatal setup/journal error.");
    println!("DESIGN-SPACE SEARCH: `tdsigma optimize` explores slices × VCO sizing ×");
    println!("  DAC resistance × node with a CMA-ES-like strategy or successive-halving");
    println!("  racing; same seed → byte-identical optimize.json, and a killed run is");
    println!("  finished by `tdsigma optimize --resume ID` through the result cache.");
    println!("DRY RUN: `--dry-run` (sweep and optimize) prints the planned jobs and");
    println!("  predicted cache hits vs misses, then exits without executing anything.");
    println!("SERVE PROTOCOL: one JSON command per line. {{\"cmd\":\"run\",\"job\":JOB}} runs");
    println!("  a job given in the Hz-units form `sweep` journals (the `example:` line");
    println!("  serve prints); ping, stats, health, ready and shutdown take no job.");
    println!("OVERLOAD: serve caps connections (`--max-connections`) and sheds job");
    println!("  requests beyond `--max-queue` per live worker with structured busy");
    println!("  rejections carrying retry_after_ms, which sweep clients honour as a");
    println!("  per-backend cooldown. `sweep --journal-gc` prunes journals of");
    println!("  finished runs; successful sweeps keep the newest 32.");
    println!("RESULT INTEGRITY: serve attests each report with a checksum the client");
    println!("  re-verifies (a missing or wrong one fails over to another backend);");
    println!("  `--verify-sample P` re-runs a deterministic fraction P of remote");
    println!("  results on a second backend or locally and byte-compares them");
    println!("  (`--verify-all` checks every result). A backend whose bytes disagree");
    println!("  with redundant recomputation is integrity-quarantined for the run and");
    println!("  the verified bytes win, so sweep.json matches a local run exactly.");
    println!("CACHE INTEGRITY: artifacts are checksummed and stamped with the engine");
    println!("  fingerprint; a corrupt artifact or one written by a different binary");
    println!("  moves to <cache-dir>/rejected/ (tagged corrupt or foreign), is never");
    println!("  replayed, and `--resume` refuses a journal planned by a different");
    println!("  engine unless --resume-force re-executes everything. `tdsigma cache");
    println!("  stats` counts fresh/foreign/corrupt/rejected; `cache scrub` keeps fresh.");
}

/// Parsed command line: `--key value` pairs plus bare `--switch` flags.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 7] = [
    "no-cache",
    "no-journal",
    "allow-remote-shutdown",
    "dry-run",
    "journal-gc",
    "resume-force",
    "verify-all",
];

/// The flags each subcommand accepts (anything else is an error).
const DESIGN_FLAGS: &[&str] = &["node", "fs-mhz", "bw-mhz", "slices", "samples", "out"];
const SWEEP_FLAGS: &[&str] = &[
    "nodes",
    "slices",
    "fs-mhz",
    "amps",
    "bw-mhz",
    "kind",
    "samples",
    "seed",
    "workers",
    "retries",
    "cache-dir",
    "no-cache",
    "trace",
    "out",
    // Crash recovery: the write-ahead journal and resume-on-restart.
    "run-id",
    "journal-dir",
    "resume",
    // Resume across an engine change: re-execute everything instead of
    // failing on the journal's fingerprint mismatch.
    "resume-force",
    "no-journal",
    // Result integrity: sampled redundant verification of remote
    // results (a fraction 0..=1, or --verify-all for every result).
    "verify-sample",
    "verify-all",
    // Journal GC: prune journals of provably-finished runs.
    "journal-gc",
    // Plan preview: print the grid and predicted cache hits, run nothing.
    "dry-run",
    // Hidden: deterministic fault injection for resilience testing.
    // Not listed in `tdsigma help` on purpose.
    "chaos-seed",
];
const OPTIMIZE_FLAGS: &[&str] = &[
    // Search definition: a space file, or inline range flags on top.
    "space",
    "strategy",
    "kind",
    "budget",
    "seed",
    "sndr-floor",
    "samples",
    "population",
    "nodes",
    "slices-range",
    "stages-range",
    "gain-range",
    "rdac-range",
    "fs-mhz",
    "bw-mhz",
    // Execution: same engine knobs as sweep.
    "workers",
    "retries",
    "cache-dir",
    "no-cache",
    "trace",
    "out",
    "run-id",
    "journal-dir",
    "resume",
    "resume-force",
    "no-journal",
    "verify-sample",
    "verify-all",
    "dry-run",
    "chaos-seed",
];
const CACHE_FLAGS: &[&str] = &["cache-dir"];
const SERVE_FLAGS: &[&str] = &[
    "addr",
    "workers",
    "retries",
    "cache-dir",
    "no-cache",
    "trace",
    "max-connections",
    "allow-remote-shutdown",
    // Admission control: queue-depth shedding.
    "max-queue",
    "chaos-seed",
];

fn parse_flags(args: &[String], known: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags {
        values: BTreeMap::new(),
        switches: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {}", args[i]))?;
        if !known.contains(&key) {
            return Err(format!(
                "unknown flag --{key} (supported: {})",
                known
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        if SWITCHES.contains(&key) {
            flags.switches.push(key.to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.values.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

impl Flags {
    fn f64(&self, key: &str, default: f64) -> Result<f64, String> {
        self.values
            .get(key)
            .map(|v| v.parse::<f64>().map_err(|e| format!("--{key}: {e}")))
            .unwrap_or(Ok(default))
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.values
            .get(key)
            .map(|v| v.parse::<usize>().map_err(|e| format!("--{key}: {e}")))
            .unwrap_or(Ok(default))
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// A comma-separated list of numbers, e.g. `--nodes 40,180`.
    fn f64_list(&self, key: &str, default: &[f64]) -> Result<Vec<f64>, String> {
        match self.values.get(key) {
            None => Ok(default.to_vec()),
            Some(text) => text
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<f64>()
                        .map_err(|e| format!("--{key}: {s:?}: {e}"))
                })
                .collect(),
        }
    }
}

fn run_design(flags: &Flags) -> Outcome {
    let node_nm = flags.f64("node", 40.0)?;
    let fs_hz = flags.f64("fs-mhz", 750.0)? * 1e6;
    let bw_hz = flags.f64("bw-mhz", 5.0)? * 1e6;
    let slices = flags.usize("slices", 8)?;
    let samples = flags.usize("samples", 16_384)?;
    let spec = Job {
        slices,
        samples,
        ..Job::flow(node_nm, fs_hz, bw_hz)
    }
    .to_spec()?;
    let out = flags.str("out", "results");
    let out = Path::new(&out);
    fs::create_dir_all(out)?;

    println!(
        "designing {} slices at {} — fs {:.0} MHz, BW {:.2} MHz, OSR {:.0}",
        spec.n_slices,
        spec.tech,
        spec.fs_hz / 1e6,
        spec.bw_hz / 1e6,
        spec.oversampling_ratio()
    );

    let outcome = DesignFlow::new(spec.clone()).with_samples(samples).run()?;
    println!("{outcome}");

    // Artifacts.
    fs::write(out.join("adc_top.v"), &outcome.verilog)?;
    let lib = PhysicalLibrary::for_technology(&spec.tech);
    fs::write(out.join("library.lef"), lef::to_lef(&lib))?;
    fs::write(
        out.join("adc_top.fp"),
        outcome.layout.floorplan.to_fp_text(),
    )?;
    fs::write(
        out.join("adc_top.def"),
        lef::to_def(
            &outcome.layout.placement,
            "adc_top",
            outcome.layout.floorplan.die.width(),
            outcome.layout.floorplan.die.height(),
        ),
    )?;
    fs::write(
        out.join("adc_top.gds.txt"),
        gds::to_gds_text(&outcome.layout.placement, &lib, "adc_top"),
    )?;
    fs::write(
        out.join("layout.svg"),
        render::to_svg_with_routes(
            &outcome.layout.floorplan,
            &outcome.layout.placement,
            &outcome.layout.routing,
        ),
    )?;
    let spectrum = outcome.capture.spectrum(tdsigma::dsp::Window::Hann);
    let mut csv = String::from("freq_hz,dbfs\n");
    for bin in 1..spectrum.len() {
        csv.push_str(&format!(
            "{},{}\n",
            spectrum.bin_frequency_hz(bin),
            spectrum.dbfs(bin)
        ));
    }
    fs::write(out.join("spectrum.csv"), csv)?;
    fs::write(out.join("report.json"), report_json(&outcome))?;
    println!(
        "wrote adc_top.{{v,fp,def,gds.txt}}, library.lef, layout.svg, spectrum.csv, report.json → {}",
        out.display()
    );
    Ok(0)
}

/// `tdsigma cache stats|scrub`: inventory or prune the on-disk result
/// cache against the current engine fingerprint. `stats` only reads;
/// `scrub` removes every artifact the current engine would not replay
/// (foreign and corrupt root artifacts, leftover temp files, and
/// everything in `rejected/`) and keeps the fresh ones.
fn run_cache(args: &[String]) -> ExitCode {
    let Some(action) = args.first().map(String::as_str) else {
        eprintln!("usage: tdsigma cache <stats|scrub> [--cache-dir DIR]");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..], CACHE_FLAGS) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = flags.str("cache-dir", "results/cache");
    let fingerprint = tdsigma::core::engine_fingerprint();
    let result = match action {
        "stats" => ResultCache::inspect(Path::new(&dir), fingerprint).map(|stats| {
            println!("cache {dir} (engine {fingerprint}):");
            println!("{stats}");
        }),
        "scrub" => ResultCache::scrub(Path::new(&dir), fingerprint).map(|scrub| {
            println!("cache {dir} (engine {fingerprint}): {scrub}");
        }),
        other => {
            eprintln!("unknown cache action {other:?} (expected stats or scrub)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Fails a `--resume` loudly when the journal was planned by a
/// different engine: its "finished" claims are backed by cache
/// artifacts this binary will demote rather than replay, so silently
/// reconciling against them would mix engines in one artifact.
/// `--resume-force` downgrades the mismatch to a warning and
/// re-executes every job under the current engine.
fn verify_resume_fingerprint(run_id: &str, planned: &str, force: bool) -> Result<(), String> {
    let ours = tdsigma::core::engine_fingerprint();
    if planned == ours {
        return Ok(());
    }
    if force {
        eprintln!(
            "warning: resuming {run_id} across an engine change \
             ({planned} → {ours}); completed jobs re-execute from scratch"
        );
        return Ok(());
    }
    Err(format!(
        "journal for {run_id} was planned by engine {planned}, but this binary \
         is {ours}: its cached results are not comparable. Start a fresh run, \
         or pass --resume-force to re-execute every job under the current engine"
    ))
}

/// What `--workers` asked for: a local thread count, or a fleet of
/// serve backends (with `local` optionally joining the rotation).
enum WorkerSpec {
    Local(usize),
    Fleet { backends: Vec<String>, local: bool },
}

fn parse_workers(flags: &Flags) -> Result<WorkerSpec, String> {
    let Some(text) = flags.values.get("workers") else {
        return Ok(WorkerSpec::Local(default_workers()));
    };
    if let Ok(n) = text.parse::<usize>() {
        if n == 0 {
            return Err("--workers: need at least 1 worker".into());
        }
        return Ok(WorkerSpec::Local(n));
    }
    let mut backends = Vec::new();
    let mut local = false;
    for part in text.split(',') {
        let part = part.trim();
        if part == "local" {
            local = true;
        } else if part.contains(':') {
            backends.push(part.to_string());
        } else {
            return Err(format!(
                "--workers: {part:?} is neither a thread count, \"local\", nor host:port"
            ));
        }
    }
    if backends.is_empty() {
        return Err("--workers: a backend list needs at least one host:port".into());
    }
    Ok(WorkerSpec::Fleet { backends, local })
}

/// The hidden `--chaos-seed N`: a fault plan for whichever runner the
/// engine gets, announced once.
fn fault_plan(flags: &Flags) -> Result<FaultPlan, String> {
    let Some(text) = flags.values.get("chaos-seed") else {
        return Ok(FaultPlan::none());
    };
    let seed = text
        .parse::<u64>()
        .map_err(|e| format!("--chaos-seed: {e}"))?;
    eprintln!("warning: chaos mode on (seed {seed}) — faults will be injected");
    Ok(FaultPlan::chaos(seed))
}

/// The `--verify-sample` / `--verify-all` pair as a permille rate for
/// [`DispatchConfig::verify_permille`]. `--verify-sample` takes a
/// fraction in `0..=1`; `--verify-all` pins it to every result.
fn verify_permille(flags: &Flags) -> Result<u16, String> {
    if flags.switch("verify-all") {
        return Ok(1000);
    }
    let fraction = flags.f64("verify-sample", 0.0)?;
    if !(0.0..=1.0).contains(&fraction) {
        return Err(format!(
            "--verify-sample must be a fraction in 0..=1, got {fraction}"
        ));
    }
    Ok((fraction * 1000.0).round() as u16)
}

fn engine_config(flags: &Flags, workers: usize) -> Result<EngineConfig, String> {
    let retries = flags.usize("retries", 1)? as u32;
    let cache_dir = if flags.switch("no-cache") {
        None
    } else {
        Some(flags.str("cache-dir", "results/cache").into())
    };
    Ok(EngineConfig {
        pool: PoolConfig {
            workers,
            retries,
            ..PoolConfig::default()
        },
        cache_dir,
    })
}

/// Builds the engine `--workers` asked for. With a thread count this is
/// the classic in-process pool; with a backend list the engine's runner
/// becomes a [`Dispatcher`] over the fleet (returned alongside, for the
/// end-of-sweep summary) — journal, cache, resume and metrics machinery
/// are identical either way.
type EngineSetup = (Engine, Option<Arc<Dispatcher>>);

fn engine_from_flags(flags: &Flags) -> Result<EngineSetup, Box<dyn std::error::Error>> {
    let workers = parse_workers(flags)?;
    let faults = fault_plan(flags)?;
    match workers {
        WorkerSpec::Local(workers) => {
            let engine = Engine::with_runner(
                engine_config(flags, workers)?,
                faults.wrap(Arc::new(execute)),
            )?;
            Ok((engine, None))
        }
        WorkerSpec::Fleet { backends, local } => {
            let config = DispatchConfig {
                backends,
                local_in_rotation: local,
                verify_permille: verify_permille(flags)?,
                ..DispatchConfig::default()
            };
            let local_runner: Arc<Runner> = Arc::new(execute);
            let dispatcher = Dispatcher::new(&config, local_runner);
            // Startup probe: report each backend, seed the standings, and
            // size the dispatch pool from the fleet's actual capacity
            // (each pool thread just blocks on one remote call).
            let mut remote_workers = 0usize;
            // The probe warned about every backend it does not trust
            // (unreachable or skewed); those must not size the pool.
            for (addr, health) in dispatcher.probe() {
                if let Some(h) = health {
                    println!(
                        "backend {addr}: {} workers, status {}, up {:.0} s, {} jobs served",
                        h.workers,
                        h.status,
                        h.uptime_ms as f64 / 1e3,
                        h.served_jobs
                    );
                    remote_workers += h.workers;
                }
            }
            let workers = if local {
                remote_workers + default_workers()
            } else {
                remote_workers
            };
            let engine = Engine::with_runner(
                engine_config(flags, workers.clamp(1, 64))?,
                faults.wrap(dispatcher.into_runner()),
            )?;
            Ok((engine, Some(dispatcher)))
        }
    }
}

/// Turns on the JSON-lines trace sink if `--trace FILE` was given;
/// returns the path when tracing is active.
fn enable_trace(flags: &Flags) -> Result<Option<String>, Box<dyn std::error::Error>> {
    match flags.values.get("trace") {
        None => Ok(None),
        Some(path) => {
            tdsigma::obs::trace_to_file(path)?;
            Ok(Some(path.clone()))
        }
    }
}

/// Prints the per-stage wall-time table accumulated by the span
/// histograms — the only record of where a run's time went — with the
/// retry backoff sleeps when any retry slept, the effective parallelism
/// (`job.attempt` total over `engine.batch` total) when a batch ran, and
/// the physical memo's hits and misses when flow jobs ran. Histograms
/// are always on (atomic adds only), so this works with or without
/// `--trace`.
fn print_stage_breakdown() {
    let snap = tdsigma::obs::registry().snapshot();
    let mut rows: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(name, h)| {
            h.count > 0
                && (name.starts_with("flow.")
                    || ["job.attempt", "engine.batch", "jobs.backoff"].contains(&name.as_str()))
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_by_key(|(_, h)| std::cmp::Reverse(h.sum_us));
    println!("stage breakdown (wall time summed across workers):");
    println!(
        "  {:<18} {:>7} {:>12} {:>10} {:>10}",
        "stage", "count", "total ms", "mean ms", "max ms"
    );
    for (name, h) in rows {
        println!(
            "  {:<18} {:>7} {:>12.1} {:>10.2} {:>10.1}",
            name,
            h.count,
            h.total_ms(),
            h.mean_ms(),
            h.max_ms()
        );
    }
    let total_ms = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.total_ms());
    let batch_ms = total_ms("engine.batch");
    if batch_ms > 0.0 {
        println!(
            "  effective parallelism {:.2}x (job.attempt total / engine.batch total)",
            total_ms("job.attempt") / batch_ms
        );
    }
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let (hits, misses) = (count("flow.physical.hits"), count("flow.physical.misses"));
    if hits + misses > 0 {
        println!("  physical memo: {hits} hit(s), {misses} miss(es) (a hit skips netgen, APR and timing)");
    }
}

/// A fresh run id: unique enough for a journal filename, and valid under
/// the journal's run-id rules.
fn generate_run_id(prefix: &str) -> String {
    let millis = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    format!("{prefix}-{millis}-{}", std::process::id())
}

/// Classifies `jobs` against the cache the run would use (none under
/// `--no-cache`) without executing anything: the dry-run table, and what
/// a resume banner counts as done.
fn preview(flags: &Flags, jobs: &[Job]) -> Result<PlanPreview, Box<dyn std::error::Error>> {
    let cache = if flags.switch("no-cache") {
        None
    } else {
        // `contains` checks each artifact as the run would, but never
        // moves, counts or promotes one.
        Some(ResultCache::with_disk(
            flags.str("cache-dir", "results/cache"),
        )?)
    };
    Ok(PlanPreview::of(jobs, cache.as_ref()))
}

/// The `N of M <what> cached` clause of a resume banner.
fn cached_of(preview: &PlanPreview, what: &str) -> String {
    let cached = preview.rows.iter().filter(|r| r.cached).count();
    format!("{cached} of {} {what} cached", preview.jobs)
}

/// Prints the dry-run plan: what the batch would submit, and what the
/// current cache already answers. Runs nothing, writes nothing.
fn print_dry_run(flags: &Flags, jobs: &[Job]) -> Result<(), Box<dyn std::error::Error>> {
    let preview = preview(flags, jobs)?;
    print!("{}", preview.table());
    println!("{}", preview.summary());
    println!("dry run: nothing executed, nothing written");
    Ok(())
}

fn journal_dir(flags: &Flags) -> String {
    flags.str("journal-dir", "results/journal")
}

/// What `sweep` and `optimize` share: the run id and its journal, the
/// engine `--workers` asked for (with its dispatcher for a fleet), the
/// trace sink and the artifact write. Each command adds only its own
/// plan, header line and report.
struct RunContext {
    id: String,
    journal: Option<Journal>,
    engine: Engine,
    dispatcher: Option<Arc<Dispatcher>>,
    trace: Option<String>,
    out: String,
}

impl RunContext {
    /// The first step of every run: turns on `--trace`, then replays the
    /// journal `--resume ID` names (`None` for a fresh run). Reads only,
    /// so a dry run may stop after it.
    fn begin(flags: &Flags) -> Result<Option<JournalReplay>, Box<dyn std::error::Error>> {
        enable_trace(flags)?;
        let Some(run_id) = flags.values.get("resume") else {
            return Ok(None);
        };
        validate_run_id(run_id)?;
        let replay = Journal::replay(journal_dir(flags), run_id)?;
        if replay.torn_tail {
            eprintln!(
                "warning: journal for {run_id} ends in a torn record \
                 (crash mid-append) — replaying the intact prefix"
            );
        }
        Ok(Some(replay))
    }

    /// A fresh run: `--run-id` or a new id with `prefix`, and a new
    /// journal unless `--no-journal`.
    fn fresh(flags: &Flags, prefix: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let id = flags.str("run-id", &generate_run_id(prefix));
        validate_run_id(&id)?;
        let journal = if flags.switch("no-journal") {
            None
        } else {
            Some(Journal::create(journal_dir(flags), &id)?)
        };
        Self::start(flags, id, journal, Default::default())
    }

    /// Continues a replayed run in its own journal. `work` names what
    /// re-executes when `--no-cache` leaves no cache to absorb it.
    fn resume(
        flags: &Flags,
        replay: JournalReplay,
        work: &str,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        verify_resume_fingerprint(
            &replay.run_id,
            &replay.fingerprint,
            flags.switch("resume-force"),
        )?;
        // The cache is the only record of completion, so without it
        // everything re-executes.
        if flags.switch("no-cache") {
            println!("cache disabled: re-executing {work}");
        }
        let mut journal = Journal::open_existing(journal_dir(flags), &replay.run_id)?;
        journal.append(&JournalRecord::Resumed)?;
        Self::start(flags, replay.run_id, Some(journal), replay.verified)
    }

    fn start(
        flags: &Flags,
        id: String,
        journal: Option<Journal>,
        verified: HashSet<String>,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let (engine, dispatcher) = engine_from_flags(flags)?;
        if let Some(dispatcher) = &dispatcher {
            // Journaled verification outcomes survive a crash: a resumed
            // run never re-verifies what an earlier attempt already proved.
            dispatcher.seed_verified(verified);
        }
        Ok(RunContext {
            id,
            journal,
            engine,
            dispatcher,
            trace: flags.values.get("trace").cloned(),
            out: flags.str("out", "results"),
        })
    }

    /// The journal path for a command's header line, or `off`.
    fn journal_label(&self) -> String {
        self.journal
            .as_ref()
            .map_or("off".to_string(), |j| j.path().display().to_string())
    }

    /// Runs one batch: journals its plan durably before anything is
    /// submitted, runs it, then journals the keys the dispatcher
    /// verified during it. Which jobs finished is the cache's to say.
    fn run_batch(&mut self, jobs: &[Job]) -> Result<BatchReport, JobError> {
        if let Some(journal) = self.journal.as_mut() {
            journal.append(&JournalRecord::BatchPlanned {
                run_id: self.id.clone(),
                fingerprint: tdsigma::core::engine_fingerprint().to_string(),
                jobs: jobs.to_vec(),
            })?;
        }
        let batch = self.engine.run_batch(jobs);
        if let (Some(dispatcher), Some(journal)) = (&self.dispatcher, self.journal.as_mut()) {
            let verified: Vec<_> = dispatcher
                .drain_verified()
                .into_iter()
                .map(|key| JournalRecord::JobVerified { key })
                .collect();
            journal.append_all(&verified)?;
        }
        Ok(batch)
    }

    /// Ends the run: dispatch summary, stage breakdown, trace; then
    /// writes `artifact`, with the run id as its first field, to
    /// `<out>/<name>` and returns that path.
    fn finish(&self, name: &str, artifact: Json) -> Result<PathBuf, Box<dyn std::error::Error>> {
        if let Some(dispatcher) = &self.dispatcher {
            let summary = dispatcher.summary();
            println!("{summary}");
            if summary.degraded() {
                eprintln!(
                    "degraded: {} job(s) ran via local fallback because every backend was unavailable",
                    summary.local_fallbacks
                );
            }
        }
        print_stage_breakdown();
        if let Some(path) = &self.trace {
            tdsigma::obs::disable_tracing();
            println!("wrote trace → {path}");
        }

        // The artifact is a pure function of (run id, per-job results),
        // so a resumed run writes bytes identical to an uninterrupted one.
        let artifact = match artifact {
            Json::Obj(mut fields) => {
                fields.insert(0, ("run_id".into(), Json::Str(self.id.clone())));
                Json::Obj(fields)
            }
            other => other,
        };
        let out = Path::new(&self.out);
        fs::create_dir_all(out)?;
        let path = out.join(name);
        fs::write(&path, artifact.to_text() + "\n")?;
        Ok(path)
    }
}

fn run_sweep(flags: &Flags) -> Outcome {
    let nodes = flags.f64_list("nodes", &[40.0, 180.0])?;
    let slices = flags.f64_list("slices", &[4.0, 8.0])?;
    let fs_list = flags.f64_list("fs-mhz", &[750.0])?;
    let amps = flags.f64_list("amps", &[0.79])?;
    let bw_mhz = flags.f64("bw-mhz", 5.0)?;
    let kind = match flags.str("kind", "sim").as_str() {
        "sim" => JobKind::SimTone,
        "flow" => JobKind::FullFlow,
        other => return Err(format!("--kind must be sim or flow, got {other:?}").into()),
    };
    let samples = flags.usize("samples", 8_192)?;
    let seed = flags.usize("seed", 2017)? as u64;

    // Resume replaces the grid with the journaled plan; a fresh run
    // builds the grid. A dry run never touches the journal — it
    // previews the exact job list the real invocation would submit.
    let dry_run = flags.switch("dry-run");
    let (jobs, mut run) = match RunContext::begin(flags)? {
        Some(mut replay) => {
            let run_id = &replay.run_id;
            if replay.jobs.is_empty() {
                return Err(format!(
                    "journal for {run_id} holds no batch plan — nothing to resume"
                )
                .into());
            }
            println!(
                "resuming run {run_id}: {}, resume #{}",
                cached_of(&preview(flags, &replay.jobs)?, "jobs"),
                replay.resumes + 1
            );
            if dry_run {
                print_dry_run(flags, &replay.jobs)?;
                return Ok(0);
            }
            let jobs = std::mem::take(&mut replay.jobs);
            let work = format!("all {} jobs", jobs.len());
            (jobs, RunContext::resume(flags, replay, &work)?)
        }
        None => {
            let mut jobs = Vec::new();
            for &node in &nodes {
                for &n_slices in &slices {
                    for &fs_mhz in &fs_list {
                        for &amp in &amps {
                            let mut job = match kind {
                                JobKind::SimTone => Job::sim(node, fs_mhz * 1e6, bw_mhz * 1e6),
                                JobKind::FullFlow => Job::flow(node, fs_mhz * 1e6, bw_mhz * 1e6),
                            };
                            job.slices = n_slices as usize;
                            job.amplitude_rel = amp;
                            job.samples = samples;
                            job.seed = seed;
                            job.to_spec()?;
                            jobs.push(job);
                        }
                    }
                }
            }
            if dry_run {
                print_dry_run(flags, &jobs)?;
                return Ok(0);
            }
            (jobs, RunContext::fresh(flags, "sweep")?)
        }
    };

    println!(
        "sweep {}: {} jobs on {} workers (journal: {})",
        run.id,
        jobs.len(),
        run.engine.workers(),
        run.journal_label(),
    );
    let batch = run.run_batch(&jobs)?;

    println!("{}", tdsigma::jobs::JobReport::table_header());
    let mut failed = 0usize;
    let mut reports = Vec::new();
    let mut failures = Vec::new();
    for (job, result) in jobs.iter().zip(&batch.results) {
        match result {
            Ok(report) => {
                println!("{}", report.table_row());
                reports.push(report.to_json());
            }
            Err(e) => {
                failed += 1;
                eprintln!(
                    "  FAILED {:.0} nm / {} slices / {:.0} MHz: {e}",
                    job.node_nm,
                    job.slices,
                    job.fs_hz / 1e6
                );
                failures.push(Json::Obj(vec![
                    ("job".into(), job.to_json()),
                    ("error".into(), Json::Str(e.to_string())),
                    ("retryable".into(), Json::Bool(e.is_retryable())),
                ]));
            }
        }
    }
    println!("{}", batch.metrics);
    let path = run.finish(
        "sweep.json",
        Json::Obj(vec![
            ("jobs".into(), Json::Num(jobs.len() as f64)),
            ("failed".into(), Json::Num(failed as f64)),
            ("reports".into(), Json::Arr(reports)),
            ("failures".into(), Json::Arr(failures)),
        ]),
    )?;
    println!(
        "wrote {} reports → {}",
        batch.results.len() - failed,
        path.display()
    );
    let journal_dir = journal_dir(flags);
    if failed > 0 {
        let next = match run.journal {
            Some(_) => format!(
                "resume with: tdsigma sweep --resume {} --journal-dir {journal_dir}",
                run.id
            ),
            None => "no journal was written (--no-journal); rerun the sweep".to_string(),
        };
        eprintln!("degraded: {failed} of {} jobs failed — {next}", jobs.len());
    }

    // Journal GC: an explicit --journal-gc prunes every journal whose
    // plan the cache holds in full; a clean sweep quietly prunes old
    // finished runs but keeps a recent window so `--resume` stays useful.
    // The current run is always protected (it may still be referenced by
    // the degraded hint above). Under --no-cache there is no disk cache
    // to prove a run finished, so nothing is pruned.
    let gc_requested = flags.switch("journal-gc");
    if !flags.switch("no-journal") && (gc_requested || failed == 0) {
        let keep = if gc_requested { 0 } else { 32 };
        let cache = run.engine.cache();
        match gc_finished(Path::new(&journal_dir), cache, keep, &[run.id.as_str()]) {
            Ok(gc) if !gc.pruned.is_empty() => println!(
                "journal gc: pruned {} finished journal(s), {} kept",
                gc.pruned.len(),
                gc.kept
            ),
            Ok(_) => {
                if gc_requested {
                    println!("journal gc: nothing to prune");
                }
            }
            Err(e) => eprintln!("warning: journal gc failed: {e}"),
        }
    }
    Ok(failed)
}

/// Builds the optimizer config from `--space FILE` (if given) plus the
/// inline range flags, which override the file.
fn optimize_config(flags: &Flags) -> Result<OptConfig, Box<dyn std::error::Error>> {
    let mut space = match flags.values.get("space") {
        None => SearchSpace::default(),
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("--space {path}: {e}"))?;
            SearchSpace::from_json(&Json::parse(&text).map_err(|e| format!("--space {path}: {e}"))?)
                .map_err(|e| format!("--space {path}: {e}"))?
        }
    };
    if flags.values.contains_key("nodes") {
        space.nodes = flags.f64_list("nodes", &[])?;
    }
    let range_u = |key: &str, current: (usize, usize)| -> Result<(usize, usize), String> {
        match flags.f64_list(key, &[])?.as_slice() {
            [] => Ok(current),
            [lo, hi] => Ok((*lo as usize, *hi as usize)),
            other => Err(format!(
                "--{key} needs exactly LO,HI (got {} values)",
                other.len()
            )),
        }
    };
    let range_f = |key: &str, current: (f64, f64)| -> Result<(f64, f64), String> {
        match flags.f64_list(key, &[])?.as_slice() {
            [] => Ok(current),
            [lo, hi] => Ok((*lo, *hi)),
            other => Err(format!(
                "--{key} needs exactly LO,HI (got {} values)",
                other.len()
            )),
        }
    };
    space.slices = range_u("slices-range", space.slices)?;
    space.vco_stages = range_u("stages-range", space.vco_stages)?;
    space.loop_gain = range_f("gain-range", space.loop_gain)?;
    space.rdac_ohm = range_f("rdac-range", space.rdac_ohm)?;
    match (
        flags.values.contains_key("fs-mhz"),
        flags.values.contains_key("bw-mhz"),
    ) {
        (true, true) => {
            space.fs_bw_hz = Some((
                flags.f64("fs-mhz", 0.0)? * 1e6,
                flags.f64("bw-mhz", 0.0)? * 1e6,
            ));
        }
        (false, false) => {}
        _ => return Err("--fs-mhz and --bw-mhz must be given together".into()),
    }

    let kind = match flags.str("kind", "flow").as_str() {
        "sim" => JobKind::SimTone,
        "flow" => JobKind::FullFlow,
        other => return Err(format!("--kind must be sim or flow, got {other:?}").into()),
    };
    let defaults = OptConfig::flow(SearchSpace::default());
    let config = OptConfig {
        space,
        strategy: Strategy::parse(&flags.str("strategy", "cma"))?,
        kind,
        budget: flags.usize("budget", defaults.budget)?,
        seed: flags.usize("seed", defaults.seed as usize)? as u64,
        sndr_floor_db: flags.f64("sndr-floor", defaults.sndr_floor_db)?,
        samples: flags.usize(
            "samples",
            match kind {
                JobKind::SimTone => 8_192,
                JobKind::FullFlow => defaults.samples,
            },
        )?,
        population: flags.usize("population", 0)?,
    };
    Ok(config.validated()?)
}

/// Where an optimize run's resume token lives: the config, persisted
/// next to the journal so `--resume ID` can re-run it verbatim.
fn opt_config_path(journal_dir: &str, run_id: &str) -> std::path::PathBuf {
    Path::new(journal_dir).join(format!("{run_id}.opt.json"))
}

fn run_optimize(flags: &Flags) -> Outcome {
    // Resume re-runs the persisted config; determinism + the result
    // cache make the re-run skip everything that already finished. A
    // fresh run builds the config from flags and persists it.
    let dry_run = flags.switch("dry-run");
    let (config, mut run) = match RunContext::begin(flags)? {
        Some(replay) => {
            let run_id = &replay.run_id;
            let path = opt_config_path(&journal_dir(flags), run_id);
            let text = fs::read_to_string(&path).map_err(|e| {
                format!("no optimize config for {run_id} at {}: {e}", path.display())
            })?;
            let config = OptConfig::from_json(&Json::parse(&text)?)?;
            if dry_run {
                print_dry_run(flags, &initial_jobs(&config)?)?;
                return Ok(0);
            }
            println!(
                "resuming optimize {run_id}: {} in its last planned generation, resume #{}",
                cached_of(&preview(flags, &replay.jobs)?, "evaluation(s)"),
                replay.resumes + 1
            );
            let run = RunContext::resume(flags, replay, "every evaluation")?;
            (config, run)
        }
        None => {
            let config = optimize_config(flags)?;
            if dry_run {
                let first = initial_jobs(&config)?;
                println!(
                    "optimize plan: strategy {}, budget {} evaluation(s); generation 0 below \
                     (later generations adapt to results)",
                    config.strategy.as_str(),
                    config.budget
                );
                print_dry_run(flags, &first)?;
                return Ok(0);
            }
            let run = RunContext::fresh(flags, "opt")?;
            if run.journal.is_some() {
                fs::write(
                    opt_config_path(&journal_dir(flags), &run.id),
                    config.to_json().to_text() + "\n",
                )?;
            }
            (config, run)
        }
    };

    println!(
        "optimize {}: strategy {}, kind {}, budget {} on {} workers (journal: {})",
        run.id,
        config.strategy.as_str(),
        config.kind.as_str(),
        config.budget,
        run.engine.workers(),
        run.journal_label(),
    );

    // The evaluation closure IS the jobs engine: every generation is an
    // ordinary journaled batch, so caching, dedup, fleet dispatch and
    // crash recovery apply to optimizer traffic unchanged.
    let report = optimize(&config, &mut |jobs: &[Job]| {
        let batch = run.run_batch(jobs)?;
        tdsigma::obs::counter("opt.cache_hits").add(batch.metrics.cache_hits as u64);
        println!(
            "  generation: {} job(s), {} cache hit(s), {} executed, {} failed",
            jobs.len(),
            batch.metrics.cache_hits,
            batch.metrics.executed,
            batch.metrics.failed
        );
        Ok(batch.results)
    })?;

    let best = &report.best;
    println!(
        "best after {} evaluation(s) ({} improvement(s)):",
        report.evals, report.improvements
    );
    println!(
        "  {:.0} nm, {} slices, {} stages, gain {:.3}, rdac {:.0} Ω",
        best.candidate.node_nm,
        best.candidate.slices,
        best.candidate.vco_stages,
        best.candidate.loop_gain,
        best.candidate.rdac_ohm
    );
    println!("{}", tdsigma::jobs::JobReport::table_header());
    println!("{}", best.report.table_row());
    let path = run.finish("optimize.json", report.to_json())?;
    println!("wrote optimization history → {}", path.display());
    Ok(0)
}

fn run_serve(flags: &Flags) -> Outcome {
    let addr = flags.str("addr", "127.0.0.1:4017");
    let trace = enable_trace(flags)?;
    let (engine, dispatcher) = engine_from_flags(flags)?;
    if dispatcher.is_some() {
        return Err("serve takes a numeric --workers (a backend cannot itself dispatch)".into());
    }
    let engine = Arc::new(engine);
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        max_connections: flags.usize("max-connections", defaults.max_connections)?,
        allow_remote_shutdown: flags.switch("allow-remote-shutdown"),
        max_queue_per_worker: flags.usize("max-queue", defaults.max_queue_per_worker)?,
        ..ServerConfig::default()
    };
    let server = Server::bind_with(addr.as_str(), Arc::clone(&engine), config.clone())?;
    println!(
        "tdsigma serve: listening on {} ({} workers, cache: {}, max {} connections)",
        server.local_addr()?,
        engine.workers(),
        engine
            .cache()
            .disk_dir()
            .map_or("memory only".to_string(), |d| d.display().to_string()),
        config.max_connections,
    );
    println!("protocol: one JSON command per line, one JSON response per line back");
    println!(
        "example: {}",
        Json::Obj(vec![
            ("cmd".into(), Json::Str("run".into())),
            ("job".into(), Job::sim(40.0, 750e6, 5e6).to_json()),
        ])
        .to_text()
    );
    println!(r#"supervision: {{"cmd":"health"}} and {{"cmd":"ready"}} report liveness"#);
    match config.max_queue_per_worker {
        0 => println!("admission: open (no queue cap)"),
        cap => println!("admission: queue cap {cap} per worker"),
    }
    if config.allow_remote_shutdown {
        println!("remote shutdown: ENABLED (any client can stop this server)");
    } else {
        println!("remote shutdown: disabled (start with --allow-remote-shutdown to enable)");
    }
    server.run()?;
    // Graceful drain: in-flight jobs finish, queued work is cancelled,
    // worker threads are joined before we report totals.
    engine.shutdown();
    let totals = engine.totals();
    println!(
        "served {} jobs ({} cache hits, {} executed, {} failed)",
        totals.jobs, totals.cache_hits, totals.executed, totals.failed
    );
    print_stage_breakdown();
    if let Some(path) = trace {
        tdsigma::obs::disable_tracing();
        println!("wrote trace → {path}");
    }
    Ok(totals.failed)
}

/// Hand-rolled JSON (flat object, numeric fields) — no serialization
/// dependency needed for a report this small.
fn report_json(outcome: &tdsigma::core::FlowOutcome) -> String {
    let r = &outcome.report;
    let fields: Vec<(&str, f64)> = vec![
        ("node_nm", r.node.gate_length().value()),
        ("fs_mhz", r.fs_mhz),
        ("bw_mhz", r.bw_mhz),
        ("sndr_db", r.sndr_db),
        ("enob", r.enob),
        ("power_mw", r.power_mw),
        ("digital_fraction", r.digital_fraction),
        ("area_mm2", r.area_mm2),
        ("fom_fj_per_conv", r.fom_fj),
        ("timing_slack_ps", outcome.timing.slack_ps()),
        (
            "wirelength_um",
            outcome.layout.routing.total_wirelength_nm as f64 / 1e3,
        ),
        ("cells", outcome.layout.placement.len() as f64),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}
