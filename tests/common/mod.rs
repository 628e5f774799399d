//! Process-driving helpers shared by the crash-resume and failover
//! integration tests: spawning the real `tdsigma` binary, watching its
//! cache for progress, and parsing its metrics line.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tdsigma")
}

/// Large enough that each job of the standard 2x2 grid runs for over a
/// second in an unoptimized build, so a poll loop always catches a
/// sweep mid-flight.
pub const SLOW_SAMPLES: &str = "262144";

/// Small enough that a 2x2 grid finishes in well under a second — for
/// tests that only care about the final artifact, not mid-run timing.
pub const FAST_SAMPLES: &str = "8192";

/// Common sweep arguments rooted at `base`: a 2x2 grid with all state
/// (cache, journal, artifact) confined to that directory. `workers`
/// takes anything the CLI accepts — a thread count or a backend list.
pub fn sweep_args(base: &Path, workers: &str, run_id: &str, samples: &str) -> Vec<String> {
    [
        "sweep",
        "--nodes",
        "40,180",
        "--slices",
        "1,2",
        "--samples",
        samples,
        "--workers",
        workers,
        "--run-id",
        run_id,
    ]
    .iter()
    .map(ToString::to_string)
    .chain([
        "--journal-dir".into(),
        base.join("journal").to_string_lossy().into_owned(),
        "--cache-dir".into(),
        base.join("cache").to_string_lossy().into_owned(),
        "--out".into(),
        base.to_string_lossy().into_owned(),
    ])
    .collect()
}

/// Common optimize arguments rooted at `base`: a small sim-kind CMA run
/// (fast, deterministic) with all state confined to that directory.
pub fn optimize_args(base: &Path, run_id: &str, samples: &str) -> Vec<String> {
    [
        "optimize",
        "--kind",
        "sim",
        "--nodes",
        "40",
        "--budget",
        "16",
        "--samples",
        samples,
        "--seed",
        "7",
        "--run-id",
        run_id,
    ]
    .iter()
    .map(ToString::to_string)
    .chain([
        "--journal-dir".into(),
        base.join("journal").to_string_lossy().into_owned(),
        "--cache-dir".into(),
        base.join("cache").to_string_lossy().into_owned(),
        "--out".into(),
        base.to_string_lossy().into_owned(),
    ])
    .collect()
}

pub fn journal_path(base: &Path, run_id: &str) -> PathBuf {
    base.join("journal").join(format!("{run_id}.jsonl"))
}

/// Results filed in the cache at `base` (by [`sweep_args`] or
/// [`optimize_args`]): its `<hex key>.json` artifacts. The cache is the
/// only record of which jobs finished.
pub fn cached_artifacts(base: &Path) -> usize {
    std::fs::read_dir(base.join("cache"))
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    e.file_name().to_str().is_some_and(|name| {
                        name.strip_suffix(".json").is_some_and(|key| {
                            !key.is_empty() && key.chars().all(|c| c.is_ascii_hexdigit())
                        })
                    })
                })
                .count()
        })
        .unwrap_or(0)
}

/// Pulls the count preceding `marker` out of the metrics line, e.g.
/// `2` from `"... — 2 executed, 2 cache hits ..."`.
pub fn metric(stdout: &str, marker: &str) -> usize {
    let tokens: Vec<&str> = stdout.split_whitespace().collect();
    for i in 1..tokens.len() {
        if tokens[i].trim_end_matches(',') == marker {
            if let Ok(n) = tokens[i - 1].parse() {
                return n;
            }
        }
    }
    panic!("no {marker:?} metric in output:\n{stdout}");
}

/// Spawns a real `tdsigma serve` backend on an OS-assigned port and
/// returns the child plus the `host:port` it announced. Stdout keeps
/// draining on a background thread so the child can never block on a
/// full pipe.
pub fn spawn_serve(cache_dir: &Path, workers: usize) -> (Child, String) {
    spawn_serve_with_env(cache_dir, workers, &[])
}

/// [`spawn_serve`] with extra environment variables — used by the
/// version-skew tests to fake a mismatched engine via
/// `TDSIGMA_FINGERPRINT`.
pub fn spawn_serve_with_env(
    cache_dir: &Path,
    workers: usize,
    envs: &[(&str, &str)],
) -> (Child, String) {
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--cache-dir",
            &cache_dir.to_string_lossy(),
        ])
        .envs(envs.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("serve stdout readable");
        assert!(n > 0, "serve exited before announcing its address");
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token after \"listening on\"")
                .to_string();
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    (child, addr)
}

/// Blocks until the backend at `addr` answers `{"cmd":"ready"}` with
/// `"ready":true`, or panics at the deadline.
pub fn wait_for_ready(addr: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            if stream.write_all(b"{\"cmd\":\"ready\"}\n").is_ok() {
                let mut response = String::new();
                if reader.read_line(&mut response).is_ok() && response.contains("\"ready\":true") {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "backend {addr} not ready within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
