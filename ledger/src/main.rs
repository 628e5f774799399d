//! `ledger` — end-to-end and per-layer performance of the tdsigma
//! binaries. See `README.md` for the workloads and metrics.
//!
//! ```text
//! bash ledger/run.sh --workload <repro|optimize_flow|sim_sweep|remote_sweep> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `run.sh` builds the repository's binaries and the ledger into one
//! target directory. The ledger times the `tdsigma` and `reproduce_all`
//! beside its own executable, as a user runs them, back to back for
//! `--seconds`. With `--trace 0` it prints the end-to-end metrics. With
//! `--trace 1` every second op also records the program's own spans
//! (`--trace FILE`), and the ledger prints each layer's self time. The
//! last line of standard output is a JSON summary; the exit code is 0
//! only if every correctness check passed.

mod cli;
mod proc;
mod remote;
mod report;
mod repro;
mod spans;
mod stats;

use report::Metric;
use spans::Profile;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics and their units, printed for every workload.
pub const E2E_METRICS: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms", "ms"), ("peak_rss_mb", "MB")];

/// Where the time of spans with a name not in [`LAYERS`] goes.
const OTHER: &str = "other";

/// The layers traced ops attribute time to: the program's own span
/// names, the ledger's spans around the calls `reproduce_all` makes
/// outside `DesignFlow::run`, remote calls, time outside every span,
/// and any other span name.
pub const LAYERS: [&str; 19] = [
    "flow.netgen",
    "flow.power_plan",
    "flow.apr",
    "flow.timing",
    "flow.build",
    "flow.transient",
    "flow.spectrum",
    "flow.tone_metrics",
    "flow.power_report",
    "job.attempt",
    "engine.batch",
    "opt.generation",
    "journal.fsync",
    spans::REMOTE_CALL,
    "dsp.shaping",
    "baselines",
    "layout.naive_apr",
    spans::UNSPANNED,
    OTHER,
];

/// Per-layer metrics beyond each layer's calls and self time.
const LAYER_EXTRAS: [(&str, &str); 3] = [
    ("trace.busy_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Every per-layer metric name and unit, in output order.
pub fn layer_metric_units() -> Vec<(String, &'static str)> {
    LAYERS
        .iter()
        .flat_map(|l| {
            [
                (format!("{l}.calls"), "count"),
                (format!("{l}.self_ms"), "ms"),
            ]
        })
        .chain(LAYER_EXTRAS.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect()
}

/// Worker threads of every engine the ledger runs: as many as the
/// 2-core machine it was calibrated on has cores.
pub const WORKERS: usize = 2;

/// Set-up probes before each op.
const SETUP_PROBES_PER_OP: usize = 5;

/// The most of a traced op's busy time that may lie outside every span
/// before its per-layer numbers stop accounting for the op.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// Ops every run makes at least, so a median, a reference output and,
/// with `--trace 1`, a traced op exist however long an op takes.
const MIN_OPS: usize = 2;

/// Failure messages kept per run; the count goes on past them.
const MAX_MESSAGES: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Repro,
    OptimizeFlow,
    SimSweep,
    RemoteSweep,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Repro,
        Workload::OptimizeFlow,
        Workload::SimSweep,
        Workload::RemoteSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::OptimizeFlow => "optimize_flow",
            Workload::SimSweep => "sim_sweep",
            Workload::RemoteSweep => "remote_sweep",
        }
    }

    fn parse(name: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload {name:?} (repro, optimize_flow, sim_sweep, remote_sweep)")
            })
    }

    /// One set-up probe.
    fn setup(self, env: &Env, dir: &Path, seed: u64) -> Result<Duration, String> {
        match self {
            Workload::Repro => repro::setup(env, dir),
            Workload::OptimizeFlow => cli::optimize_setup(env, dir),
            Workload::SimSweep => cli::sweep_setup(env, dir, seed),
            Workload::RemoteSweep => remote::setup(env, dir),
        }
    }

    /// One op; traced when given a profile to add its spans to.
    /// `reference` is the run's first output.
    fn op(
        self,
        env: &Env,
        dir: &Path,
        seed: u64,
        profile: Option<&mut Profile>,
        reference: Option<&[u8]>,
    ) -> Result<OpRecord, String> {
        match (self, profile) {
            (Workload::Repro, Some(p)) => {
                let reference = reference.ok_or("no untraced pass to compare with")?;
                let ms = repro::traced_op(reference, p)?;
                Ok(OpRecord {
                    ms,
                    parts: Vec::new(),
                    peak_rss_kb: 0,
                    output: None,
                })
            }
            (Workload::Repro, None) => repro::op(env, dir),
            (Workload::OptimizeFlow, p) => cli::optimize_op(env, dir, p),
            (Workload::SimSweep, p) => cli::sweep_op(env, dir, seed, p),
            (Workload::RemoteSweep, p) => remote::op(env, dir, seed, p),
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The binaries the ledger times, found beside its own executable, and
/// a work directory beside them.
pub struct Env {
    bin_dir: PathBuf,
    work: PathBuf,
    next_op: std::cell::Cell<usize>,
}

impl Env {
    fn new(workload: Workload) -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin_dir = exe
            .parent()
            .ok_or("executable has no directory")?
            .to_path_buf();
        for name in ["tdsigma", "reproduce_all"] {
            if !bin_dir.join(name).is_file() {
                return Err(format!(
                    "{name} is not beside the ledger in {}: build with ledger/run.sh",
                    bin_dir.display()
                ));
            }
        }
        let work =
            bin_dir
                .join("ledger-work")
                .join(format!("{}-{}", workload.name(), std::process::id()));
        fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Env {
            bin_dir,
            work,
            next_op: std::cell::Cell::new(0),
        })
    }

    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// A fresh empty directory for one op; removed by [`OpDir`]'s drop.
    fn op_dir(&self) -> Result<OpDir, String> {
        let n = self.next_op.get();
        self.next_op.set(n + 1);
        let dir = self.work.join(format!("op{n}"));
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(OpDir(dir))
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.work);
    }
}

/// A work directory that is deleted when the op is done with it.
struct OpDir(PathBuf);

impl Drop for OpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One op, as the run records it.
pub struct OpRecord {
    /// Wall time of the op's timed commands, ms.
    pub ms: f64,
    /// Named parts of `ms`, for the text report.
    pub parts: Vec<(&'static str, f64)>,
    pub peak_rss_kb: u64,
    /// The artifact every op of a set must repeat byte for byte; `None`
    /// for an op that checks its output itself.
    pub output: Option<Vec<u8>>,
}

/// Reads an artifact an op wrote.
pub fn read_artifact(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Ops and checks attempted and failed, with the first few messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one failed op or check.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message.into());
        }
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_BASIS, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether a run that started at `started` and has taken ops of
/// `op_ms` should start another: always until [`MIN_OPS`], then only
/// if one more op of median length still fits in `seconds`, so a run
/// ends near `seconds` whatever the op length.
fn another_op(started: Instant, op_ms: &[f64], seconds: f64) -> bool {
    op_ms.len() < MIN_OPS || started.elapsed().as_secs_f64() + stats::median(op_ms) / 1e3 < seconds
}

/// What a run measured.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Untraced and traced op times, ms.
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    parts: BTreeMap<&'static str, Vec<f64>>,
    peak_rss_kb: u64,
    /// The first op's output, which every later op must repeat.
    reference: Option<Vec<u8>>,
    profile: Profile,
    checks: Checks,
}

fn measure(env: &Env, args: &Args) -> Measured {
    let w = args.workload;
    let started = Instant::now();
    let mut m = Measured::default();
    let mut op_ms = Vec::new();
    let mut ops_started = 0;
    while another_op(started, &op_ms, args.seconds) {
        // Set-up probes go between the ops, so they see the same spread
        // of machine states the ops do.
        for _ in 0..SETUP_PROBES_PER_OP {
            m.checks.attempted += 1;
            match env.op_dir().and_then(|d| w.setup(env, &d.0, args.seed)) {
                Ok(t) => m.setup_s.push(t.as_secs_f64()),
                Err(e) => m.checks.fail(format!("set-up probe: {e}")),
            }
        }
        let n = ops_started;
        ops_started += 1;
        m.checks.attempted += 1;
        // With --trace 1 every second op is traced; the first is not,
        // so its output is the reference a traced op is held to.
        let traced = args.trace && op_ms.len() % 2 == 1;
        let profile = traced.then_some(&mut m.profile);
        let reference = m.reference.as_deref();
        match env
            .op_dir()
            .and_then(|d| w.op(env, &d.0, args.seed, profile, reference))
        {
            Ok(r) => {
                op_ms.push(r.ms);
                if traced {
                    m.profile.ops += 1;
                    m.traced_ms.push(r.ms);
                } else {
                    m.untraced_ms.push(r.ms);
                    m.peak_rss_kb = m.peak_rss_kb.max(r.peak_rss_kb);
                    for (name, ms) in r.parts {
                        m.parts.entry(name).or_default().push(ms);
                    }
                }
                match (&m.reference, r.output) {
                    (None, Some(output)) => m.reference = Some(output),
                    (Some(first), Some(output)) if *first != output => m.checks.fail(format!(
                        "op {n} output differs from the first op's (digest {:016x} vs {:016x})",
                        fnv1a(&output),
                        fnv1a(first)
                    )),
                    _ => {}
                }
            }
            Err(e) => m.checks.fail(format!("op {n}: {e}")),
        }
        if ops_started >= MIN_OPS && op_ms.is_empty() {
            break; // every op fails: stop instead of spinning
        }
    }
    if let (Workload::RemoteSweep, Some(served)) = (w, &m.reference) {
        m.checks.attempted += 1;
        let local = env
            .op_dir()
            .and_then(|d| remote::compare_local(env, &d.0, args.seed, served));
        if let Err(e) = local {
            m.checks.fail(e);
        }
    }
    m
}

fn e2e_metrics(m: &Measured) -> Vec<Metric> {
    let values = [
        stats::median(&m.setup_s),
        stats::median(&m.untraced_ms),
        m.peak_rss_kb as f64 / 1024.0,
    ];
    E2E_METRICS
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric::new(*name, value, unit))
        .collect()
}

/// Sample counts, quartiles and parts of the op and set-up times.
fn spread_notes(m: &Measured) -> Vec<Metric> {
    let (q1, q3) = stats::quartiles(&m.untraced_ms);
    let (s1, s3) = stats::quartiles(&m.setup_s);
    let mut notes = vec![
        Metric::new("op_count", m.untraced_ms.len() as f64, "count"),
        Metric::new("op_p25_ms", q1, "ms"),
        Metric::new("op_p75_ms", q3, "ms"),
        Metric::new("op_mad_ms", stats::mad(&m.untraced_ms), "ms"),
        Metric::new("setup_count", m.setup_s.len() as f64, "count"),
        Metric::new("setup_p25_s", s1, "s"),
        Metric::new("setup_p75_s", s3, "s"),
    ];
    for (name, ms) in &m.parts {
        notes.push(Metric::new(format!("{name}_p50"), stats::median(ms), "ms"));
    }
    notes
}

/// Per-layer metrics, per traced op, and the shares as text notes.
fn layer_metrics(m: &Measured) -> (Vec<Metric>, Vec<Metric>) {
    let p = &m.profile;
    let ops = p.ops.max(1) as f64;
    let mut totals: BTreeMap<&str, spans::Layer> = BTreeMap::new();
    for (name, layer) in &p.layers {
        let key = LAYERS
            .into_iter()
            .find(|l| *l == name.as_str())
            .unwrap_or(OTHER);
        let t = totals.entry(key).or_default();
        t.calls += layer.calls;
        t.self_us += layer.self_us;
    }
    let busy_us = p.busy_us().max(1) as f64;
    let mut metrics = Vec::new();
    let mut notes = vec![Metric::new("trace.ops", p.ops as f64, "count")];
    for name in LAYERS {
        let layer = totals.get(name).copied().unwrap_or_default();
        metrics.push(Metric::new(
            format!("{name}.calls"),
            layer.calls as f64 / ops,
            "count",
        ));
        metrics.push(Metric::new(
            format!("{name}.self_ms"),
            layer.self_us as f64 / 1e3 / ops,
            "ms",
        ));
        notes.push(Metric::new(
            format!("{name}.share"),
            layer.self_us as f64 / busy_us,
            "ratio",
        ));
    }
    for name in p.layers.keys().filter(|n| !LAYERS.contains(&n.as_str())) {
        notes.push(Metric::new(
            format!("other.{name}.self_ms"),
            p.layers[name].self_us as f64 / 1e3 / ops,
            "ms",
        ));
    }
    let unspanned = totals.get(spans::UNSPANNED).map_or(0, |l| l.self_us);
    let overhead = stats::median(&m.traced_ms) / stats::median(&m.untraced_ms) - 1.0;
    let extras = [busy_us / 1e3 / ops, unspanned as f64 / busy_us, overhead];
    for ((name, unit), value) in LAYER_EXTRAS.iter().zip(extras) {
        metrics.push(Metric::new(*name, value, unit));
    }
    (metrics, notes)
}

fn run(args: &Args) -> Result<bool, String> {
    let env = Env::new(args.workload)?;
    let mut m = measure(&env, args);
    let mut notes = spread_notes(&m);
    let metrics = if args.trace {
        let (metrics, layer_notes) = layer_metrics(&m);
        notes.extend(layer_notes);
        if m.profile.ops == 0 {
            m.checks.fail("no traced op completed");
        }
        let unattributed = metrics
            .iter()
            .find(|x| x.name == "trace.unattributed_share")
            .map_or(0.0, |x| x.value);
        if unattributed > MAX_UNATTRIBUTED {
            m.checks.fail(format!(
                "traced ops leave {:.1}% of their busy time outside every span (limit {:.0}%)",
                100.0 * unattributed,
                100.0 * MAX_UNATTRIBUTED
            ));
        }
        metrics
    } else {
        e2e_metrics(&m)
    };
    for x in notes.iter().chain(&metrics) {
        println!("{}", report::line(x));
    }
    println!(
        "output_digest {:016x} fnv1a64",
        fnv1a(m.reference.as_deref().unwrap_or_default())
    );
    for x in metrics
        .iter()
        .filter(|x| !x.value.is_finite() || !report::valid_name(&x.name))
    {
        m.checks
            .fail(format!("metric {} = {} is not reportable", x.name, x.value));
    }
    for f in &m.checks.messages {
        eprintln!("ledger: FAILED {f}");
    }
    let attempted = m.checks.attempted.max(1);
    let correct = m.checks.failed == 0;
    println!(
        "{}",
        report::summary(correct, attempted, m.checks.failed.min(attempted), &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "remote_sweep",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::RemoteSweep,
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "repro", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "repro", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "repro", "--bogus", "1"]).is_err());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn unlisted_spans_count_as_other() {
        let mut m = Measured::default();
        m.profile.ops = 2;
        m.profile.layers.insert(
            "flow.apr".into(),
            spans::Layer {
                calls: 4,
                self_us: 6_000,
            },
        );
        m.profile.layers.insert(
            "flow.new_stage".into(),
            spans::Layer {
                calls: 2,
                self_us: 2_000,
            },
        );
        m.untraced_ms = vec![4.0];
        m.traced_ms = vec![5.0];
        let (metrics, notes) = layer_metrics(&m);
        let value = |name: &str| metrics.iter().find(|x| x.name == name).map(|x| x.value);
        assert_eq!(value("flow.apr.calls"), Some(2.0));
        assert_eq!(value("flow.apr.self_ms"), Some(3.0));
        assert_eq!(value("other.self_ms"), Some(1.0));
        assert_eq!(value("trace.busy_ms"), Some(4.0));
        assert_eq!(value("trace.overhead_share"), Some(0.25));
        assert!(notes
            .iter()
            .any(|x| x.name == "flow.apr.share" && x.value == 0.75));
        assert_eq!(metrics.len(), layer_metric_units().len());
    }
}
