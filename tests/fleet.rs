//! Fleet supervision, against real processes.
//!
//! The self-healing contract under test (see DESIGN.md §13): `tdsigma
//! fleet` spawns N real serve children on stable addresses, and
//!
//!   1. a child SIGKILLed mid-sweep is restarted on its old address
//!      without operator intervention, the distributed sweep completes,
//!      and its `sweep.json` is byte-identical to a single-machine run
//!      of the same grid — supervision changes who serves, never what
//!      is served;
//!   2. SIGTERM to the supervisor performs a graceful rolling drain:
//!      every child is asked over the wire, stragglers are killed, and
//!      the supervisor exits 0.
//!
//! The whole scenario drives the real binary: a real `tdsigma fleet`
//! parent, real serve children over TCP, a real `tdsigma sweep
//! --workers addr,addr` client, and real signals.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::{
    bin, finished_records, journal_path, sweep_args, wait_for_ready, FAST_SAMPLES, SLOW_SAMPLES,
};

/// A supervised fleet process: the parsed child roster plus a live
/// transcript of everything the supervisor (and its children) printed.
struct FleetUnderTest {
    child: std::process::Child,
    /// (pid, addr) per slot, from the initial spawn announcements.
    roster: Vec<(u32, String)>,
    transcript: Arc<Mutex<String>>,
}

impl FleetUnderTest {
    /// Spawns `tdsigma fleet` and blocks until all `children` slots have
    /// announced `fleet: child I pid P serving on ADDR`.
    fn spawn(children: usize, cache_dir: &std::path::Path, extra: &[&str]) -> FleetUnderTest {
        let mut child = Command::new(bin())
            .args([
                "fleet",
                "--children",
                &children.to_string(),
                "--workers",
                "1",
                "--health-interval-ms",
                "100",
                "--cache-dir",
                &cache_dir.to_string_lossy(),
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("fleet spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let transcript = Arc::new(Mutex::new(String::new()));
        let mut roster = vec![None; children];
        let mut line = String::new();
        while roster.iter().any(Option::is_none) {
            line.clear();
            let n = reader.read_line(&mut line).expect("fleet stdout readable");
            assert!(n > 0, "fleet exited before announcing all children");
            transcript.lock().unwrap().push_str(&line);
            if let Some((slot, pid, addr)) = parse_announcement(&line) {
                roster[slot] = Some((pid, addr));
            }
        }
        // Keep draining in the background so the fleet never blocks on a
        // full pipe; later announcements (restarts) land in the
        // transcript for the assertions below.
        let sink = Arc::clone(&transcript);
        std::thread::spawn(move || {
            let mut line = String::new();
            while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                sink.lock().unwrap().push_str(&line);
                line.clear();
            }
        });
        FleetUnderTest {
            child,
            roster: roster.into_iter().map(Option::unwrap).collect(),
            transcript,
        }
    }

    fn addrs(&self) -> Vec<String> {
        self.roster.iter().map(|(_, addr)| addr.clone()).collect()
    }

    fn transcript(&self) -> String {
        self.transcript.lock().unwrap().clone()
    }

    /// Blocks until the transcript satisfies `pred`, or panics.
    fn wait_for(&self, what: &str, timeout: Duration, pred: impl Fn(&str) -> bool) {
        let deadline = Instant::now() + timeout;
        while !pred(&self.transcript()) {
            assert!(
                Instant::now() < deadline,
                "fleet never printed {what:?} within {timeout:?}; transcript:\n{}",
                self.transcript()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Parses `fleet: child I pid P serving on ADDR` announcements.
fn parse_announcement(line: &str) -> Option<(usize, u32, String)> {
    let rest = line.trim().strip_prefix("fleet: child ")?;
    let mut tokens = rest.split_whitespace();
    let slot = tokens.next()?.parse().ok()?;
    if tokens.next()? != "pid" {
        return None;
    }
    let pid = tokens.next()?.parse().ok()?;
    if (tokens.next()?, tokens.next()?) != ("serving", "on") {
        return None;
    }
    Some((slot, pid, tokens.next()?.to_string()))
}

fn signal(pid: u32, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("kill spawns");
    assert!(status.success(), "kill {sig} {pid} failed");
}

#[test]
fn kill9ed_fleet_child_is_restarted_and_sweep_bytes_match_local() {
    let run_id = "fleet-kill-it";
    let root = std::env::temp_dir().join(format!("tdsigma_fleet_kill_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control = root.join("control");
    let dist = root.join("dist");
    std::fs::create_dir_all(&control).expect("mkdir control");
    std::fs::create_dir_all(&dist).expect("mkdir dist");

    // Control: the same grid on the local pool, same run id.
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

    // A two-child fleet; the sweep round-robins across its addresses.
    let mut fleet = FleetUnderTest::spawn(2, &root.join("fleet_cache"), &[]);
    let addrs = fleet.addrs();
    for addr in &addrs {
        wait_for_ready(addr, Duration::from_secs(30));
    }

    let mut sweep = Command::new(bin())
        .args(sweep_args(&dist, &addrs.join(","), run_id, SLOW_SAMPLES))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("distributed sweep spawns");

    // SIGKILL child 0 once the journal shows progress but before the
    // grid is done — the supervisor must notice and respawn it on the
    // same address while the sweep fails pending work over.
    let journal = journal_path(&dist, run_id);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done = finished_records(&journal);
        if done >= 1 {
            assert!(
                done < 4,
                "all 4 jobs finished before the kill; raise SLOW_SAMPLES"
            );
            break;
        }
        if let Some(status) = sweep.try_wait().expect("try_wait") {
            panic!("sweep exited ({status:?}) before the test could kill a child");
        }
        assert!(
            Instant::now() < deadline,
            "no journal progress within 120 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (victim_pid, victim_addr) = fleet.roster[0].clone();
    signal(victim_pid, "-9");

    // The supervisor announces the restart and respawns the slot on its
    // old address with a fresh pid.
    fleet.wait_for("a restart announcement", Duration::from_secs(30), |t| {
        t.contains("fleet: restarting child 0")
    });
    fleet.wait_for("the respawn", Duration::from_secs(30), |t| {
        t.lines()
            .filter_map(parse_announcement)
            .any(|(slot, pid, addr)| slot == 0 && pid != victim_pid && addr == victim_addr)
    });
    wait_for_ready(&victim_addr, Duration::from_secs(30));

    // The sweep finishes on its own, bytes identical to the local run.
    let status = sweep.wait().expect("sweep reaped");
    assert!(
        status.success(),
        "sweep must survive a child SIGKILL under supervision, got {status:?}"
    );
    let produced = std::fs::read(dist.join("sweep.json")).expect("distributed artifact");
    assert_eq!(
        produced,
        expected,
        "supervised run's sweep.json differs from the local run:\n{}",
        String::from_utf8_lossy(&produced)
    );

    // SIGTERM the supervisor: graceful rolling drain, exit 0.
    signal(fleet.child.id(), "-TERM");
    let status = fleet.child.wait().expect("fleet reaped");
    assert!(
        status.success(),
        "fleet must drain cleanly on SIGTERM, got {status:?}; transcript:\n{}",
        fleet.transcript()
    );
    // The fleet has exited, but the reader thread may still be draining
    // its last lines from the pipe.
    fleet.wait_for("the drain announcement", Duration::from_secs(10), |t| {
        t.contains("fleet: drained")
    });
    for addr in &addrs {
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "child on {addr} must be gone after the drain"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_serves_a_sweep_and_drains_on_sigterm() {
    let run_id = "fleet-drain-it";
    let root = std::env::temp_dir().join(format!("tdsigma_fleet_drain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dist = root.join("dist");
    std::fs::create_dir_all(&dist).expect("mkdir dist");

    let fleet = FleetUnderTest::spawn(2, &root.join("fleet_cache"), &[]);
    let addrs = fleet.addrs();
    for addr in &addrs {
        wait_for_ready(addr, Duration::from_secs(30));
    }

    let out = Command::new(bin())
        .args(sweep_args(&dist, &addrs.join(","), run_id, FAST_SAMPLES))
        .output()
        .expect("sweep spawns");
    assert!(
        out.status.success(),
        "sweep against the fleet failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("DEGRADED"),
        "a healthy fleet must serve the whole sweep: {stdout}"
    );

    let mut fleet = fleet;
    signal(fleet.child.id(), "-TERM");
    let status = fleet.child.wait().expect("fleet reaped");
    assert!(
        status.success(),
        "fleet must exit 0 on SIGTERM; transcript:\n{}",
        fleet.transcript()
    );
    // The fleet has exited, but the reader thread may still be draining
    // its last lines from the pipe.
    fleet.wait_for(
        "each child's drain announcement",
        Duration::from_secs(10),
        |t| (0..2).all(|i| t.contains(&format!("fleet: child {i} on "))),
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_refuses_to_adopt_a_child_with_a_foreign_fingerprint() {
    let root = std::env::temp_dir().join(format!("tdsigma_fleet_skew_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir root");

    // A real serve child whose binary "changed under" the supervisor:
    // the shell wrapper overrides the child's fingerprint while the
    // in-process supervisor keeps the real one. The adoption check must
    // kill it, abandon the slot, and — with every slot abandoned — make
    // the supervisor give up with exit code 1 instead of letting a
    // mismatched engine serve.
    let config = tdsigma::jobs::FleetConfig {
        program: "/bin/sh".into(),
        child_args: vec![
            "-c".into(),
            format!(
                "TDSIGMA_FINGERPRINT=cafef00ddeadbeef exec '{}' serve --addr {{addr}} \
                 --workers 1 --cache-dir '{}'",
                bin(),
                root.join("cache").display()
            ),
        ],
        children: 1,
        health_interval_ms: 50,
        // Give the child ample time to bind before a probe miss could
        // count it as stalled — only the fingerprint may fail it here.
        stall_after_misses: 200,
        ..tdsigma::jobs::FleetConfig::default()
    };
    let skew_before = tdsigma::obs::counter("fleet.version_skew").get();
    let mut fleet = tdsigma::jobs::Fleet::spawn(config).expect("spawn fleet");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let run_stop = Arc::clone(&stop);
    std::thread::spawn(move || {
        let _ = tx.send(fleet.run(&run_stop));
    });
    let code = match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(code) => code,
        Err(_) => {
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            panic!("supervisor kept running instead of refusing the mismatched child");
        }
    };
    assert_eq!(code, 1, "an all-refused fleet must fail loudly");
    assert!(
        tdsigma::obs::counter("fleet.version_skew").get() > skew_before,
        "the refusal must be counted on fleet.version_skew"
    );
    let _ = std::fs::remove_dir_all(&root);
}
