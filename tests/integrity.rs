//! Untrusted-fleet result integrity, against real processes.
//!
//! The contract under test (see DESIGN.md §16): a same-version backend
//! returning plausible-but-wrong report values — intact key, intact
//! frame, self-consistent attestation — is caught by sampled redundant
//! verification, integrity-quarantined for the rest of the run, and the
//! final `sweep.json` is byte-identical to a purely local run:
//!
//!   1. a fleet of one honest serve child and one lying backend — a
//!      [`Server`] in this test process over `execute` with every report
//!      value perturbed, which serve attests like any other — completes
//!      under `--verify-all`; the liar is quarantined (stderr warning,
//!      `DEGRADED: integrity` on the dispatch summary), the verification
//!      outcomes are journaled, and the artifact matches the local
//!      control bytes;
//!   2. with verification off (`--verify-sample 0`, the default) the
//!      sweep makes zero extra remote calls — counter-asserted from
//!      both sides of the wire (dispatch summary and serve health).
//!
//! Every sweep and the honest backend are the real binary; the liar
//! links the same crates, so it carries the same engine fingerprint.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;
use tdsigma::jobs::{execute, Engine, EngineConfig, Job, PoolConfig, Runner, Server, ServerConfig};

mod common;
use common::{bin, journal_path, metric, spawn_serve, sweep_args, wait_for_ready, FAST_SAMPLES};

/// A real `serve` in this process whose runner computes each job, then
/// adds 3.5 dB to its SNDR: the key stays intact and serve attests the
/// lie, so nothing at the wire level can tell it from an honest peer.
fn spawn_liar() -> (String, std::thread::JoinHandle<()>) {
    let lying: Arc<Runner> = Arc::new(|job: &Job| {
        let mut report = execute(job)?;
        report.sndr_db += 3.5;
        Ok(report)
    });
    let pool = PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    };
    let engine = Engine::with_runner(
        EngineConfig {
            pool,
            cache_dir: None,
        },
        lying,
    )
    .expect("liar engine");
    let config = ServerConfig {
        allow_remote_shutdown: true,
        ..ServerConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", Arc::new(engine), config).expect("bind liar");
    let addr = server.local_addr().expect("liar addr").to_string();
    (
        addr,
        std::thread::spawn(move || server.run().expect("liar serves")),
    )
}

/// One `{"cmd":"health"}` round trip against a live backend.
fn health_line(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect for health");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    stream
        .write_all(b"{\"cmd\":\"health\"}\n")
        .expect("send health");
    let mut response = String::new();
    reader.read_line(&mut response).expect("health response");
    response
}

#[test]
fn lying_backend_is_caught_quarantined_and_bytes_match_local() {
    let run_id = "integrity-liar-it";
    let root = std::env::temp_dir().join(format!("tdsigma_integrity_liar_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control = root.join("control");
    let dist = root.join("dist");
    std::fs::create_dir_all(&control).expect("mkdir control");
    std::fs::create_dir_all(&dist).expect("mkdir dist");

    // Control: the grid computed locally — these bytes are the truth.
    let out = Command::new(bin())
        .args(sweep_args(&control, "2", run_id, FAST_SAMPLES))
        .output()
        .expect("control run spawns");
    assert!(out.status.success(), "control run failed");
    let expected = std::fs::read(control.join("sweep.json")).expect("control artifact");

    // One honest backend, one that silently perturbs every report value
    // after compute. Same fingerprint, valid attestation: nothing at the
    // wire level can tell them apart.
    let (mut good, addr_good) = spawn_serve(&root.join("serve_good"), 1);
    let (addr_bad, bad) = spawn_liar();
    wait_for_ready(&addr_good, Duration::from_secs(30));
    wait_for_ready(&addr_bad, Duration::from_secs(30));

    let mut args = sweep_args(
        &dist,
        &format!("{addr_good},{addr_bad}"),
        run_id,
        FAST_SAMPLES,
    );
    args.push("--verify-all".into());
    let out = Command::new(bin())
        .args(&args)
        .output()
        .expect("verified fleet sweep spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "a sweep must survive a lying backend:\n{stderr}"
    );
    assert!(
        stderr.contains(&format!("backend {addr_bad} integrity-quarantined")),
        "the quarantine must be warned about on stderr: {stderr}"
    );
    assert!(
        stdout.contains("DEGRADED: integrity"),
        "the dispatch summary must flag the lying backend: {stdout}"
    );
    assert!(
        !stderr.contains(&format!("backend {addr_good} integrity-quarantined")),
        "the honest backend must keep its standing: {stderr}"
    );

    // The verified bytes won every disagreement: the artifact matches
    // the local control run exactly.
    let produced = std::fs::read(dist.join("sweep.json")).expect("verified fleet artifact");
    assert_eq!(
        produced,
        expected,
        "verified-fleet sweep.json differs from the local run:\n{}",
        String::from_utf8_lossy(&produced)
    );

    // Verification outcomes are journaled, so a --resume of this run
    // would not re-verify what this attempt already proved.
    let journal = std::fs::read_to_string(journal_path(&dist, run_id)).expect("journal readable");
    assert!(
        journal.contains("\"t\":\"job_verified\""),
        "verification outcomes must be journaled:\n{journal}"
    );

    good.kill().expect("stop good backend");
    let _ = good.wait();
    let mut stream = TcpStream::connect(&addr_bad).expect("connect to the liar");
    stream
        .write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("stop the liar");
    bad.join().expect("liar thread");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn verify_sample_zero_makes_no_extra_remote_calls() {
    let run_id = "integrity-off-it";
    let root = std::env::temp_dir().join(format!("tdsigma_integrity_off_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control = root.join("control");
    let dist = root.join("dist");
    std::fs::create_dir_all(&control).expect("mkdir control");
    std::fs::create_dir_all(&dist).expect("mkdir dist");

    let out = Command::new(bin())
        .args(sweep_args(&control, "2", run_id, FAST_SAMPLES))
        .output()
        .expect("control run spawns");
    assert!(out.status.success(), "control run failed");
    let expected = std::fs::read(control.join("sweep.json")).expect("control artifact");

    let (mut serve, addr) = spawn_serve(&root.join("serve"), 2);
    wait_for_ready(&addr, Duration::from_secs(30));

    let mut args = sweep_args(&dist, &addr, run_id, FAST_SAMPLES);
    args.extend(["--verify-sample".into(), "0".into()]);
    let out = Command::new(bin())
        .args(&args)
        .output()
        .expect("unverified sweep spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Counter-asserted from the dispatching side: exactly one dispatch
    // per grid job, nothing re-sent for verification.
    assert_eq!(
        metric(&stdout, "dispatched"),
        4,
        "verification off must add zero dispatches: {stdout}"
    );
    assert!(
        !stdout.contains("DEGRADED"),
        "an honest fleet with verification off is not degraded: {stdout}"
    );

    // And from the serving side: the backend saw exactly the grid.
    let health = health_line(&addr);
    assert!(
        health.contains("\"served_jobs\":4"),
        "the backend must have served exactly 4 jobs: {health}"
    );

    let produced = std::fs::read(dist.join("sweep.json")).expect("unverified artifact");
    assert_eq!(
        produced, expected,
        "remote sweep.json differs from the local run"
    );

    serve.kill().expect("stop backend");
    let _ = serve.wait();
    let _ = std::fs::remove_dir_all(&root);
}
