//! Self-healing fleet supervisor for `tdsigma serve` backends.
//!
//! [`Fleet::spawn`] launches N serve children on pre-picked ports and
//! [`Fleet::run`] keeps them alive: each supervision tick it reaps
//! crashed children, health-probes the live ones, and restarts anything
//! dead or stalled with deterministic-jitter exponential backoff
//! (reusing [`backoff_delay_ms`], the same curve the pool uses for job
//! retries). A **restart-storm cap** bounds the healing: a child that
//! needs more than [`FleetConfig::max_restarts`] restarts inside
//! [`FleetConfig::restart_window_ms`] is abandoned instead of being
//! flapped forever, and when every child is abandoned the supervisor
//! exits non-zero rather than pretending a fleet exists.
//!
//! Every freshly (re)started child passes an **adoption check**: its
//! advertised engine fingerprint must match the supervisor's own
//! ([`tdsigma_core::engine_fingerprint`]). A child whose binary changed
//! under the supervisor — upgrade, rollback, wrong binary on the
//! restart path — is killed and its slot abandoned (counted on
//! `fleet.version_skew`) instead of being allowed to serve reports the
//! rest of the fleet cannot trust.
//!
//! On a stop request (SIGTERM/SIGINT via [`install_stop_handler`], or
//! any [`AtomicBool`] the embedder owns) the supervisor performs a
//! **graceful rolling drain**: children are asked to shut down one at a
//! time over the wire (`shutdown` op — children are expected to run
//! with `--allow-remote-shutdown`), each gets a bounded grace period to
//! finish in-flight work, and only stragglers are killed.
//!
//! Ports are picked up front by binding `:0`, reading the assigned
//! address, and releasing the listener: a restarted child comes back on
//! the *same* address, so a dispatcher's backend list stays valid
//! across crashes (std's listener sets `SO_REUSEADDR` on Unix, so the
//! rebind does not trip over `TIME_WAIT`; a lost race against another
//! process is absorbed by the normal restart/backoff path).
//!
//! Chaos: a [`FaultPlan`] with `child_kill_permille > 0` makes the
//! supervisor itself murder children after health polls —
//! deterministically, per `(child, poll)` — which is how the fleet
//! suite proves sweeps survive a supervisor that is actively being shot
//! at. Restarts land on the `fleet.restarts` obs counter.

use crate::faults::FaultPlan;
use crate::pool::backoff_delay_ms;
use crate::remote::{RemoteClient, RemoteConfig};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Fleet tuning: what to spawn, how hard to heal it.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Program to execute for each child (conventionally
    /// `std::env::current_exe()` running `serve`).
    pub program: String,
    /// Arguments for each child; every `{addr}` occurrence is replaced
    /// with the child's pre-picked `host:port`.
    pub child_args: Vec<String>,
    /// How many serve children to keep alive.
    pub children: usize,
    /// Base/ceiling of the restart backoff curve, ms.
    pub backoff_base_ms: u64,
    /// Ceiling of the restart backoff curve, ms.
    pub backoff_max_ms: u64,
    /// Restart-storm cap: more than this many restarts of one child
    /// within [`FleetConfig::restart_window_ms`] abandons the child.
    pub max_restarts: u32,
    /// Window the storm cap counts restarts over, ms.
    pub restart_window_ms: u64,
    /// Supervision tick, ms (crash reap + health probe cadence).
    pub health_interval_ms: u64,
    /// Whether to probe `ready` over the wire each tick. Off for
    /// children that are not serve processes (unit tests, harnesses).
    pub probe_health: bool,
    /// Consecutive failed probes after which a live-but-silent child is
    /// declared stalled and restarted.
    pub stall_after_misses: u32,
    /// Deterministic chaos (only `child_kill_permille` is consulted
    /// here; the children run their own fault plans).
    pub faults: FaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            program: String::new(),
            child_args: Vec::new(),
            children: 2,
            backoff_base_ms: 200,
            backoff_max_ms: 5_000,
            max_restarts: 5,
            restart_window_ms: 60_000,
            health_interval_ms: 500,
            probe_health: true,
            stall_after_misses: 6,
            faults: FaultPlan::none(),
        }
    }
}

/// Stop flag shared with the signal handler. Process-global because a
/// C signal handler cannot carry a closure environment.
static STOP: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that set (and return) the global
/// stop flag, using the libc `signal` symbol that is always linked —
/// no new dependency. On non-Unix targets this returns the flag
/// without installing anything (Ctrl-C then kills the process as
/// usual).
pub fn install_stop_handler() -> &'static AtomicBool {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            STOP.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
    &STOP
}

/// One supervised child slot: a fixed address plus whatever process
/// currently (or no longer) backs it.
struct Slot {
    addr: String,
    child: Option<Child>,
    /// When a pending restart becomes due (backoff in progress).
    restart_at: Option<Instant>,
    /// Restart timestamps inside the storm window.
    restarts: VecDeque<Instant>,
    /// Total restarts over the slot's lifetime (keys the backoff).
    restart_count: u32,
    /// Consecutive failed health probes.
    misses: u32,
    /// Storm cap hit: the slot is abandoned.
    failed: bool,
    /// Engine-fingerprint adoption check passed for the current child
    /// process. Reset on every (re)spawn: a restarted child may be a
    /// different binary than the one that crashed.
    verified: bool,
}

impl Slot {
    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }
}

/// A supervised fleet of serve children. See the module docs.
pub struct Fleet {
    config: FleetConfig,
    slots: Vec<Slot>,
}

impl Fleet {
    /// Picks one address per child and spawns the initial generation.
    ///
    /// # Errors
    ///
    /// `std::io::Error` if a port cannot be reserved or a child cannot
    /// be spawned at all (a child that spawns and then dies is the
    /// supervision loop's problem, not spawn's).
    pub fn spawn(config: FleetConfig) -> std::io::Result<Fleet> {
        let mut slots = Vec::with_capacity(config.children);
        for _ in 0..config.children.max(1) {
            // Bind :0 to let the kernel pick a free port, then release
            // it; the child reuses the address for its whole lifetime.
            let probe = TcpListener::bind("127.0.0.1:0")?;
            let addr = probe.local_addr()?.to_string();
            drop(probe);
            slots.push(Slot {
                addr,
                child: None,
                restart_at: None,
                restarts: VecDeque::new(),
                restart_count: 0,
                misses: 0,
                failed: false,
                verified: false,
            });
        }
        let mut fleet = Fleet { config, slots };
        for i in 0..fleet.slots.len() {
            fleet.spawn_child(i)?;
        }
        Ok(fleet)
    }

    /// The fixed child addresses, in slot order — the backend list to
    /// hand a dispatcher. Stable across restarts.
    pub fn addrs(&self) -> Vec<String> {
        self.slots.iter().map(|s| s.addr.clone()).collect()
    }

    /// Live child pids, in slot order (`None` = slot currently down).
    pub fn pids(&self) -> Vec<Option<u32>> {
        self.slots.iter().map(Slot::pid).collect()
    }

    fn spawn_child(&mut self, i: usize) -> std::io::Result<()> {
        let (program, args, addr) = {
            let slot = &self.slots[i];
            let args: Vec<String> = self
                .config
                .child_args
                .iter()
                .map(|a| a.replace("{addr}", &slot.addr))
                .collect();
            (self.config.program.clone(), args, slot.addr.clone())
        };
        let mut child = Command::new(&program)
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        if let Some(stdout) = child.stdout.take() {
            // Forward the child's stdout with a slot prefix; the thread
            // dies with the pipe when the child does.
            let tag = format!("[serve {i}]");
            std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    println!("{tag} {line}");
                }
            });
        }
        println!("fleet: child {i} pid {pid} serving on {addr}");
        let slot = &mut self.slots[i];
        slot.child = Some(child);
        slot.restart_at = None;
        slot.misses = 0;
        slot.verified = false;
        Ok(())
    }

    /// Supervises until `stop` is set (graceful rolling drain, exit 0)
    /// or every child is abandoned by the storm cap (exit 1).
    pub fn run(&mut self, stop: &AtomicBool) -> i32 {
        let interval = Duration::from_millis(self.config.health_interval_ms.max(10));
        let probe_config = RemoteConfig {
            connect_timeout_ms: 500,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            connect_attempts: 1,
        };
        let mut poll: u32 = 0;
        while !stop.load(Ordering::SeqCst) {
            poll = poll.wrapping_add(1);
            for i in 0..self.slots.len() {
                self.tend(i, poll, &probe_config);
            }
            if self.slots.iter().all(|s| s.failed) {
                eprintln!("fleet: every child exceeded its restart budget; giving up");
                return 1;
            }
            std::thread::sleep(interval);
        }
        self.drain(&probe_config)
    }

    /// One supervision tick for one slot: reap, chaos, probe, restart.
    fn tend(&mut self, i: usize, poll: u32, probe_config: &RemoteConfig) {
        if self.slots[i].failed {
            return;
        }
        if self.slots[i].child.is_none() {
            // A restart is pending; spawn when the backoff elapses.
            let due = self.slots[i]
                .restart_at
                .is_some_and(|at| Instant::now() >= at);
            if due && self.spawn_child(i).is_err() {
                // Could not even exec: treat like an instant crash so
                // the storm cap eventually stops the flapping.
                self.schedule_restart(i, "spawn failed");
            }
            return;
        }
        if self.config.faults.child_kill(i, poll) {
            if let Some(child) = self.slots[i].child.as_mut() {
                println!("fleet: chaos killed child {i}");
                let _ = child.kill();
            }
        }
        let exited = self.slots[i]
            .child
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten());
        if let Some(status) = exited {
            let _ = self.slots[i].child.take().map(|mut c| c.wait());
            self.schedule_restart(i, &format!("exited with {status}"));
            return;
        }
        if self.config.probe_health {
            let client = RemoteClient::with_config(&self.slots[i].addr, probe_config.clone());
            match client.ready() {
                Ok(_) => {
                    self.slots[i].misses = 0;
                    if !self.slots[i].verified {
                        self.verify_child(i, &client);
                    }
                }
                Err(_) => {
                    self.slots[i].misses += 1;
                    if self.slots[i].misses >= self.config.stall_after_misses {
                        println!(
                            "fleet: child {i} stalled ({} silent probes); restarting",
                            self.slots[i].misses
                        );
                        if let Some(mut child) = self.slots[i].child.take() {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                        self.schedule_restart(i, "stalled");
                    }
                }
            }
        }
    }

    /// One-time adoption check for a freshly (re)started child: a child
    /// whose engine fingerprint differs from the supervisor's would
    /// serve reports the rest of the fleet cannot trust — it was
    /// swapped out under us (upgrade, rollback, wrong binary on the
    /// restart path). Such a child is killed and its slot abandoned
    /// loudly instead of adopted; respawning would only exec the same
    /// mismatched binary again.
    fn verify_child(&mut self, i: usize, client: &RemoteClient) {
        let Ok(health) = client.health() else {
            return; // transient: the next tick retries, misses cover silence
        };
        let ours = tdsigma_core::engine_fingerprint();
        if health.fingerprint == ours {
            self.slots[i].verified = true;
            return;
        }
        tdsigma_obs::counter("fleet.version_skew").inc();
        eprintln!(
            "fleet: child {i} engine fingerprint {} != supervisor {ours}; refusing to adopt",
            health.fingerprint
        );
        if let Some(mut child) = self.slots[i].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.slots[i].failed = true;
        self.slots[i].restart_at = None;
    }

    /// Books one restart against the storm cap and, if the budget
    /// holds, schedules the respawn after deterministic-jitter backoff.
    fn schedule_restart(&mut self, i: usize, why: &str) {
        let window_ms = self.config.restart_window_ms;
        let window = Duration::from_millis(window_ms);
        let max_restarts = self.config.max_restarts;
        let (base_ms, max_ms) = (self.config.backoff_base_ms, self.config.backoff_max_ms);
        let now = Instant::now();
        let slot = &mut self.slots[i];
        let addr = slot.addr.clone();
        slot.restarts.push_back(now);
        while slot
            .restarts
            .front()
            .is_some_and(|&t| now.duration_since(t) > window)
        {
            slot.restarts.pop_front();
        }
        if slot.restarts.len() as u32 > max_restarts {
            slot.failed = true;
            slot.restart_at = None;
            eprintln!(
                "fleet: child {i} {why}; {} restarts inside {window_ms} ms exceeds the cap — abandoning it",
                slot.restarts.len(),
            );
            return;
        }
        slot.restart_count += 1;
        let delay = backoff_delay_ms(
            base_ms,
            max_ms,
            &format!("fleet-{i}-{addr}"),
            slot.restart_count,
        );
        slot.restart_at = Some(now + Duration::from_millis(delay));
        tdsigma_obs::counter("fleet.restarts").inc();
        println!("fleet: restarting child {i} ({why}) on {addr} in {delay} ms");
    }

    /// Graceful rolling drain: one child at a time, wire shutdown
    /// first, bounded wait, kill only stragglers. Returns the exit
    /// code (always 0 — a drain that had to kill still drained).
    fn drain(&mut self, probe_config: &RemoteConfig) -> i32 {
        let live = self.slots.iter().filter(|s| s.child.is_some()).count();
        println!("fleet: draining {live} child(ren)");
        for i in 0..self.slots.len() {
            let Some(mut child) = self.slots[i].child.take() else {
                continue;
            };
            let addr = self.slots[i].addr.clone();
            let client = RemoteClient::with_config(&addr, probe_config.clone());
            let asked = client.shutdown().is_ok();
            let mut reaped = false;
            if asked {
                // The child acknowledged: give it a bounded grace
                // period to finish in-flight work and exit.
                let deadline = Instant::now() + Duration::from_millis(5_000);
                while Instant::now() < deadline {
                    match child.try_wait() {
                        Ok(Some(_)) => {
                            reaped = true;
                            break;
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                        Err(_) => break,
                    }
                }
            }
            if !reaped {
                let _ = child.kill();
                let _ = child.wait();
            }
            println!(
                "fleet: child {i} on {addr} drained ({})",
                if asked && reaped {
                    "graceful"
                } else {
                    "killed"
                }
            );
        }
        println!("fleet: drained");
        0
    }
}

impl Drop for Fleet {
    /// A dropped fleet never leaks children: anything still running is
    /// killed (the graceful path is [`Fleet::run`]'s drain).
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake child: prints its addr like serve does, then sleeps far
    /// longer than any test runs.
    fn sleeper_config(children: usize) -> FleetConfig {
        FleetConfig {
            program: "/bin/sh".into(),
            child_args: vec![
                "-c".into(),
                "echo listening on {addr}; exec sleep 30".into(),
            ],
            children,
            backoff_base_ms: 10,
            backoff_max_ms: 40,
            health_interval_ms: 20,
            probe_health: false,
            ..FleetConfig::default()
        }
    }

    fn run_in_thread(
        mut fleet: Fleet,
        stop: std::sync::Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<i32> {
        std::thread::spawn(move || fleet.run(&stop))
    }

    #[test]
    fn crashed_children_are_restarted_on_their_old_address() {
        let fleet = Fleet::spawn(sleeper_config(2)).expect("spawn fleet");
        let addrs = fleet.addrs();
        assert_eq!(addrs.len(), 2);
        let first_pids = fleet.pids();
        assert!(first_pids.iter().all(Option::is_some));
        let victim = first_pids[0].unwrap();

        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let handle = run_in_thread(fleet, std::sync::Arc::clone(&stop));
        // SIGKILL child 0 out from under the supervisor.
        unsafe {
            extern "C" {
                fn kill(pid: i32, sig: i32) -> i32;
            }
            assert_eq!(kill(victim as i32, 9), 0, "kill must reach the child");
        }
        // The supervisor must notice and respawn within a few ticks.
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::SeqCst);
        let code = handle.join().expect("supervisor thread");
        assert_eq!(code, 0, "a drained fleet exits 0");
        assert!(
            tdsigma_obs::counter("fleet.restarts").get() >= 1,
            "restart must be counted"
        );
    }

    #[test]
    fn restart_storm_cap_abandons_a_flapping_child_and_exits_nonzero() {
        let config = FleetConfig {
            program: "/bin/sh".into(),
            // Exits instantly, forever: the definition of flapping.
            child_args: vec!["-c".into(), "exit 3".into()],
            children: 1,
            backoff_base_ms: 1,
            backoff_max_ms: 2,
            max_restarts: 3,
            restart_window_ms: 60_000,
            health_interval_ms: 5,
            probe_health: false,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::spawn(config).expect("spawn fleet");
        let stop = AtomicBool::new(false);
        let code = fleet.run(&stop);
        assert_eq!(code, 1, "an all-abandoned fleet must fail loudly");
        assert!(fleet.slots[0].failed);
        assert!(
            fleet.slots[0].restarts.len() as u32 > 3,
            "cap only trips past the budget"
        );
    }

    #[test]
    fn drain_kills_children_that_ignore_shutdown() {
        let fleet = Fleet::spawn(sleeper_config(1)).expect("spawn fleet");
        let pid = fleet.pids()[0].unwrap();
        let stop = std::sync::Arc::new(AtomicBool::new(true)); // drain immediately
        let handle = run_in_thread(fleet, stop);
        let code = handle.join().expect("supervisor thread");
        assert_eq!(code, 0);
        // The sleeper ignored the wire shutdown (it is not a server);
        // drain must have killed it rather than hanging for 30 s.
        unsafe {
            extern "C" {
                fn kill(pid: i32, sig: i32) -> i32;
            }
            assert_ne!(kill(pid as i32, 0), 0, "child must be gone after drain");
        }
    }

    #[test]
    fn addresses_are_distinct_and_stable() {
        let fleet = Fleet::spawn(sleeper_config(3)).expect("spawn fleet");
        let addrs = fleet.addrs();
        let unique: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(unique.len(), 3, "each child gets its own port");
        assert_eq!(fleet.addrs(), addrs, "addresses never move");
    }
}
