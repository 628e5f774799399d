//! `remote_sweep` — a sweep of small sim jobs dispatched by `tdsigma
//! sweep --workers ADDR` to a loopback `tdsigma serve`, the way the
//! repository's own client uses a server. One op starts a server with an
//! empty cache, runs the sweep (every job executes on the server), runs
//! it again with an empty client cache (every job is a hit in the
//! server's cache: the wire, JSON and cache path alone) and shuts the
//! server down. The jobs are small (2048 samples, 1–2 slices), so the
//! per-job cost of the distributed path is a visible share of the op.

use crate::cli::{self, expect_batch, Sweep};
use crate::proc::{self, Reaped};
use crate::spans::{self, Profile};
use crate::{read_artifact, Env, OpRecord, WORKERS};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};
use tdsigma_jobs::Json;

/// The grid: 2 nodes × 2 slice counts × 8 amplitudes.
const GRID: [&str; 12] = [
    "--kind",
    "sim",
    "--nodes",
    "40,180",
    "--slices",
    "1,2",
    "--amps",
    "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8",
    "--samples",
    "2048",
    "--run-id",
    "ledger-remote",
];

/// Jobs in [`GRID`].
const JOBS: u64 = 32;

/// How long a server may take to answer `ready`.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// A `tdsigma serve` child on a kernel-picked loopback port.
struct Server {
    child: Reaped,
    addr: String,
    stdout: thread::JoinHandle<String>,
    stderr: thread::JoinHandle<String>,
}

impl Server {
    /// Spawns the server and waits until it answers `ready`; returns it
    /// with the time that took.
    fn start(env: &Env, dir: &Path, trace: bool) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut cmd = Command::new(env.bin("tdsigma"));
        cmd.current_dir(dir)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .arg("--cache-dir")
            .arg(dir.join("cache-serve"))
            .arg("--allow-remote-shutdown");
        if trace {
            cmd.arg("--trace").arg(cli::trace_file(dir, "serve"));
        }
        let mut child = Reaped(
            cmd.stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn tdsigma serve: {e}"))?,
        );
        let stderr = proc::drain(child.0.stderr.take().expect("stderr is piped"));
        let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("tdsigma serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let server = Server {
            child,
            addr,
            stdout: proc::drain(stdout),
            stderr,
        };
        loop {
            let ready = server.ask("ready")?;
            if ready.get("ready").and_then(Json::as_bool) == Some(true) {
                return Ok((server, started.elapsed()));
            }
            if started.elapsed() > READY_TIMEOUT {
                server.kill();
                return Err("tdsigma serve never became ready".into());
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends one control command and returns the reply.
    fn ask(&self, cmd: &str) -> Result<Json, String> {
        let mut conn = TcpStream::connect(&self.addr).map_err(|e| format!("{}: {e}", self.addr))?;
        conn.write_all(format!("{{\"cmd\":\"{cmd}\"}}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(conn)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        Json::parse(line.trim()).map_err(|e| format!("{cmd} reply: {e}"))
    }

    /// The executions and cache hits the server counted.
    fn counts(&self) -> Result<(u64, u64), String> {
        let reply = self.ask("stats")?;
        let count = |k: &str| {
            reply
                .get("stats")
                .and_then(|s| s.get(k))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats reply has no {k}"))
        };
        Ok((count("executed")?, count("cache_hits")?))
    }

    /// Kills the server and waits for it and its pipe readers.
    fn kill(self) {
        let Server {
            child,
            stdout,
            stderr,
            ..
        } = self;
        drop(child);
        let _ = stdout.join();
        let _ = stderr.join();
    }

    /// Asks the server to shut down over the wire and waits for it.
    fn stop(mut self) -> Result<(), String> {
        if let Err(e) = self.ask("shutdown") {
            self.kill();
            return Err(e);
        }
        let status = self.child.0.wait().map_err(|e| e.to_string())?;
        let _ = self.stdout.join();
        let stderr = self.stderr.join().unwrap_or_default();
        if status.success() {
            Ok(())
        } else {
            Err(format!("tdsigma serve exited {status}: {}", stderr.trim()))
        }
    }
}

pub fn setup(env: &Env, dir: &Path) -> Result<Duration, String> {
    let (server, setup) = Server::start(env, dir, false)?;
    server.kill();
    Ok(setup)
}

pub fn op(
    env: &Env,
    dir: &Path,
    seed: u64,
    profile: Option<&mut Profile>,
) -> Result<OpRecord, String> {
    let trace = profile.is_some();
    let (server, _) = Server::start(env, dir, trace)?;
    let swept = sweeps(env, dir, seed, &server, trace);
    let peak_server_kb = proc::peak_rss_kib(server.child.0.id()).unwrap_or(0);
    // The server writes its trace as it shuts down.
    let stopped = server.stop();
    let (record, runs) = swept?;
    stopped?;
    if let Some(p) = profile {
        let server = spans::read(&cli::trace_file(dir, "serve"))?;
        let clients = ["cold", "hit"]
            .iter()
            .zip(&runs)
            .map(|(tag, run)| {
                let spans = spans::read(&cli::trace_file(dir, tag))?;
                Ok((spans, run.elapsed.as_micros() as u64))
            })
            .collect::<Result<Vec<_>, String>>()?;
        p.add_remote(&server, &clients);
    }
    Ok(OpRecord {
        peak_rss_kb: record.peak_rss_kb.max(peak_server_kb),
        ..record
    })
}

/// The cold sweep and the all-hit sweep, with the server's counts
/// checked after each.
fn sweeps(
    env: &Env,
    dir: &Path,
    seed: u64,
    server: &Server,
    trace: bool,
) -> Result<(OpRecord, Vec<proc::Run>), String> {
    let sweep = Sweep {
        grid: &GRID,
        seed,
        workers: &server.addr,
    };
    let mut runs = Vec::new();
    for (tag, expected) in [("cold", (JOBS, 0)), ("hit", (JOBS, JOBS))] {
        let run = proc::run(&mut sweep.command(env, dir, &format!("cache-{tag}"), tag, trace))
            .map_err(|e| e.to_string())?;
        run.check(&format!("{tag} remote sweep"))?;
        // The client counts a job the server answered as executed.
        expect_batch(&run, &format!("{JOBS} executed, 0 cache hits"))?;
        if run.stdout.contains("DEGRADED") {
            return Err(format!("{tag} remote sweep fell back to local execution"));
        }
        let counts = server.counts()?;
        if counts != expected {
            return Err(format!(
                "after the {tag} sweep the server counted {} executions and {} cache hits, not {} and {}",
                counts.0, counts.1, expected.0, expected.1
            ));
        }
        runs.push(run);
    }
    let output = read_artifact(&dir.join("out-cold/sweep.json"))?;
    if read_artifact(&dir.join("out-hit/sweep.json"))? != output {
        return Err("the all-hit sweep.json differs from the cold one".into());
    }
    let ms: Vec<f64> = runs.iter().map(|r| r.elapsed.as_secs_f64() * 1e3).collect();
    let record = OpRecord {
        ms: ms.iter().sum(),
        parts: vec![("cold_ms", ms[0]), ("hit_ms", ms[1])],
        peak_rss_kb: runs.iter().map(|r| r.peak_rss_kb).max().unwrap_or(0),
        output: Some(output),
    };
    Ok((record, runs))
}

/// Runs the grid on local workers and checks the served `sweep.json`
/// is byte-identical to the local one.
pub fn compare_local(env: &Env, dir: &Path, seed: u64, served: &[u8]) -> Result<(), String> {
    let workers = WORKERS.to_string();
    let sweep = Sweep {
        grid: &GRID,
        seed,
        workers: &workers,
    };
    let run = proc::run(&mut sweep.command(env, dir, "cache", "local", false))
        .map_err(|e| e.to_string())?;
    run.check("local sweep")?;
    if read_artifact(&dir.join("out-local/sweep.json"))? == served {
        Ok(())
    } else {
        Err("the served sweep.json differs from a local run's".into())
    }
}
