//! Distributed-sweep failover, against real processes.
//!
//! The fault-tolerance contract under test (see DESIGN.md §11):
//!   1. a two-backend sweep with one backend SIGKILLed mid-run completes
//!      without operator intervention, and its `sweep.json` is
//!      byte-identical to a single-machine run of the same grid at the
//!      same seed — failover changes where work runs, never what it
//!      produces;
//!   2. with every backend down, the sweep still completes via local
//!      in-process fallback, and the degradation is reported on stderr
//!      and in the dispatch summary.
//!
//! Both tests drive the real binary: real `tdsigma serve` backends over
//! TCP, a real `tdsigma sweep --workers host:port,…` client, and a real
//! `kill -9`.

use std::process::Command;
use std::time::{Duration, Instant};

mod common;
use common::{
    bin, cached_artifacts, spawn_serve, sweep_args, wait_for_ready, FAST_SAMPLES, SLOW_SAMPLES,
};

#[test]
fn kill9_one_backend_mid_sweep_still_matches_local_bytes() {
    let run_id = "failover-kill-it";
    let root = std::env::temp_dir().join(format!("tdsigma_failover_kill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control = root.join("control");
    let dist = root.join("dist");
    std::fs::create_dir_all(&control).expect("mkdir control");
    std::fs::create_dir_all(&dist).expect("mkdir dist");

    // Control: the same grid on the local pool. sweep.json embeds the
    // run id, so both runs share it (with separate journal/cache dirs).
    let out = Command::new(bin())
        .args(sweep_args(&control, "2", run_id, SLOW_SAMPLES))
        .output()
        .expect("control run spawns");
    assert!(
        out.status.success(),
        "control run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read(control.join("sweep.json")).expect("control artifact");

    // Two real single-worker backends; the sweep round-robins across
    // them, so killing one mid-run strands in-flight work on it.
    let (mut backend_a, addr_a) = spawn_serve(&root.join("serve_a"), 1);
    let (mut backend_b, addr_b) = spawn_serve(&root.join("serve_b"), 1);
    wait_for_ready(&addr_a, Duration::from_secs(30));
    wait_for_ready(&addr_b, Duration::from_secs(30));

    let mut sweep = Command::new(bin())
        .args(sweep_args(
            &dist,
            &format!("{addr_a},{addr_b}"),
            run_id,
            SLOW_SAMPLES,
        ))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("distributed sweep spawns");

    // SIGKILL backend A once the client's cache shows progress but
    // before the grid is done — later jobs routed to A must fail over
    // to B.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done = cached_artifacts(&dist);
        if done >= 1 {
            assert!(
                done < 4,
                "all 4 jobs finished before the kill; raise SLOW_SAMPLES"
            );
            break;
        }
        if let Some(status) = sweep.try_wait().expect("try_wait") {
            panic!("sweep exited ({status:?}) before the test could kill a backend");
        }
        assert!(Instant::now() < deadline, "no cache progress within 120 s");
        std::thread::sleep(Duration::from_millis(20));
    }
    backend_a.kill().expect("SIGKILL backend A");
    let _ = backend_a.wait();

    // The sweep must finish on its own — backend B and, if B's breaker
    // ever rejects, the local fallback absorb the rest.
    let status = sweep.wait().expect("sweep reaped");
    assert!(
        status.success(),
        "sweep must survive a backend SIGKILL, got {status:?}"
    );
    let produced = std::fs::read(dist.join("sweep.json")).expect("distributed artifact");
    assert_eq!(
        produced,
        expected,
        "failover run's sweep.json differs from the local run:\n{}",
        String::from_utf8_lossy(&produced)
    );

    backend_b.kill().expect("stop backend B");
    let _ = backend_b.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn all_backends_down_completes_via_local_fallback_and_reports_it() {
    let run_id = "failover-down-it";
    let root = std::env::temp_dir().join(format!("tdsigma_failover_down_{}", std::process::id()));
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

    // Ports 1 and 2 are privileged and unbound: every connect is
    // refused, so the whole fleet is down from the first job.
    let out = Command::new(bin())
        .args(sweep_args(
            &dist,
            "127.0.0.1:1,127.0.0.1:2",
            run_id,
            FAST_SAMPLES,
        ))
        .output()
        .expect("degraded sweep spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "a sweep must never fail solely because the fleet did:\n{stderr}"
    );
    assert!(
        stderr.contains("degrading to local execution"),
        "stderr must warn about the degradation: {stderr}"
    );
    assert!(
        stderr.contains("via local fallback"),
        "stderr must summarize the fallback count: {stderr}"
    );
    assert!(
        stdout.contains("DEGRADED"),
        "dispatch summary must flag the degradation: {stdout}"
    );

    let produced = std::fs::read(dist.join("sweep.json")).expect("degraded artifact");
    assert_eq!(
        produced,
        expected,
        "local-fallback sweep.json differs from the local run:\n{}",
        String::from_utf8_lossy(&produced)
    );
    let _ = std::fs::remove_dir_all(&root);
}
