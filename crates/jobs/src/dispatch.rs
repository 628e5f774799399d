//! Multi-backend dispatch: failover, one standing per backend, local
//! fallback.
//!
//! The [`Dispatcher`] turns a fleet of `tdsigma serve` backends into one
//! [`Runner`]: plug it into [`crate::Engine::with_runner`] and every existing
//! engine feature — content-addressed cache, write-ahead journal,
//! `--resume`, batch metrics — works over the network unchanged, because
//! a [`crate::JobReport`] is a pure function of its [`Job`] no matter
//! which machine computed it.
//!
//! The failure policy, in order:
//!
//! 1. **Rotation.** Jobs round-robin across the backends whose standing
//!    admits them (plus local, when `local` was listed as a member).
//! 2. **Failover.** A backend-class failure ([`RemoteError::Backend`])
//!    is a strike against that backend and the job immediately moves to
//!    the next candidate. A job-class rejection ([`RemoteError::Job`]) is
//!    deterministic — every backend would answer the same — so it
//!    propagates without burning the fleet. A structured busy/shed
//!    rejection ([`RemoteError::Busy`]) is neither: the backend is alive,
//!    just full, so it stays away for the advertised `retry_after_ms`
//!    without a strike, and the job fails over like any transient miss.
//! 3. **Standing.** Each backend has exactly one standing, and only what
//!    it was seen to do changes it:
//!
//!    | standing       | admits                           | entered on                              |
//!    |----------------|----------------------------------|-----------------------------------------|
//!    | Up             | every job                        | an answer, or an Away that ran out      |
//!    | Away until t   | nothing before t, then Up        | a busy rejection                        |
//!    | Down until t   | nothing before t, then one probe | 3 failures in a row, or a failed probe  |
//!    | Probing        | nothing: its probe is out        | a Down or Skewed whose t has passed     |
//!    | Skewed until t | nothing before t, then one probe | a foreign engine fingerprint            |
//!    | Quarantined    | nothing, for the rest of the run | bytes that disagreed with recomputation |
//!
//!    A probe must re-prove the engine fingerprint before it carries a
//!    job, and that job's answer decides Up or Down. The startup probe
//!    ([`Dispatcher::probe`]) is a probe like any other, so a peer dead
//!    at startup is Down from the first job on. A dead peer does
//!    not tax every job with a connect timeout, and a replaced binary
//!    rejoins only once it matches again.
//! 4. **Local fallback.** When every backend is down or skipped, the
//!    job runs in-process on the wrapped local runner. A sweep never
//!    fails solely because the fleet did; the degradation is counted
//!    (`dispatch.local_fallback`) and warned once on stderr.
//! 5. **Result integrity** (optional, off by default). With
//!    [`DispatchConfig::verify_permille`] non-zero, a deterministic
//!    sample of remote results — drawn by hashing the report key, so
//!    the same keys verify on every run and on `--resume` — is
//!    redundantly re-executed on a second backend or the local engine
//!    and compared byte-for-byte. Reports are pure functions of their
//!    jobs, so any disagreement proves corruption: the backend that
//!    disagrees with the local recomputation is Quarantined (there is
//!    no recovering from lying) and the verified bytes win.
//!
//! Per-backend instrumentation lands in `tdsigma-obs` under
//! `dispatch.<addr>.…`: `dispatched`/`failed`/`retried`/
//! `integrity_failures` counters, a `breaker` gauge (0 = Up or Away,
//! 1 = Probing, 2 = Down, Skewed or Quarantined) and an `rtt` histogram.
//! Those are process-wide and keyed by address, so [`Dispatcher::summary`]
//! reads each backend's own copy of the counts instead: a second
//! dispatcher to a reused address reports only what it saw.

use crate::error::JobError;
use crate::job::Job;
use crate::metrics::{BackendDispatchStats, DispatchSummary};
use crate::pool::{lock_unpoisoned, Runner};
use crate::remote::{BackendHealth, RemoteClient, RemoteConfig, RemoteError};
use crate::report::JobReport;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Backend-class failures in a row that take an Up backend Down.
const STRIKES: u32 = 3;

/// How long a Down or Skewed backend sits out before its probe.
const COOLDOWN: Duration = Duration::from_secs(5);

/// Basis for the sampled-verification draw: a report key hashes under
/// this basis to decide whether the result is redundantly re-executed.
/// Keyed on the report key alone — no RNG state, no clock — so the same
/// keys are verified on every run and on `--resume`.
const VERIFY_BASIS: u64 = 0x2f63_b1a8_9e47_d025;

/// Where one backend stands: the one answer to "may it take the next
/// job?" (module docs, step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Standing {
    /// Trusted, with this many backend-class failures in a row.
    Up { strikes: u32 },
    /// Busy: skipped until `until`, then Up without a probe.
    Away { until: Instant },
    /// Failing: skipped until `until`, then one probe.
    Down { until: Instant },
    /// Its one probe is out; `skewed` if it was Skewed before.
    Probing { skewed: bool },
    /// Advertised a foreign engine fingerprint: skipped until `until`,
    /// then one probe.
    Skewed { until: Instant },
    /// Returned bytes that disagreed with a recomputation: terminal.
    Quarantined,
}

/// What a backend was seen to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// It answered: a report, or a deterministic job rejection.
    Answered,
    /// A backend-class failure: unreachable, dropped or garbled.
    Failed,
    /// A busy/shed rejection asking to be left alone this long.
    Busy(Duration),
    /// It advertised an engine fingerprint other than ours.
    Skewed,
    /// Its bytes disagreed with a redundant recomputation.
    Lied,
}

/// What a standing lets the caller do with one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Send the job.
    Go,
    /// Re-prove the fingerprint, then send the job: the caller carries
    /// the one probe.
    Probe,
    /// Skip: it asked to be left alone for now.
    Away,
    /// Skip.
    No,
}

impl Standing {
    /// Claims one attempt at `now`. `Probe` moves the standing to
    /// Probing, so every other caller gets `No` until the probe's
    /// outcome is recorded.
    fn admit(&mut self, now: Instant) -> Admit {
        match *self {
            Standing::Up { .. } => Admit::Go,
            Standing::Away { until } if now < until => Admit::Away,
            Standing::Away { .. } => {
                *self = Standing::Up { strikes: 0 };
                Admit::Go
            }
            Standing::Down { until } | Standing::Skewed { until } if now >= until => {
                let skewed = matches!(self, Standing::Skewed { .. });
                *self = Standing::Probing { skewed };
                Admit::Probe
            }
            _ => Admit::No,
        }
    }

    /// Folds what the backend was seen to do at `now` into its standing.
    /// Returns whether this newly marked it Skewed or Quarantined, so the
    /// caller warns once.
    fn record(&mut self, outcome: Outcome, now: Instant) -> bool {
        let was = *self;
        *self = match (was, outcome) {
            (Standing::Quarantined, _) | (_, Outcome::Lied) => Standing::Quarantined,
            (_, Outcome::Skewed) => Standing::Skewed {
                until: now + COOLDOWN,
            },
            // Only a probe that re-proves the fingerprint lifts a skew,
            // and a straggler's answer does not cut a busy wait short.
            (Standing::Skewed { .. }, _)
            | (Standing::Away { .. }, Outcome::Answered | Outcome::Failed) => was,
            (_, Outcome::Busy(wait)) => Standing::Away { until: now + wait },
            (_, Outcome::Answered) => Standing::Up { strikes: 0 },
            (Standing::Up { strikes }, Outcome::Failed) if strikes + 1 < STRIKES => Standing::Up {
                strikes: strikes + 1,
            },
            (Standing::Down { .. }, Outcome::Failed) => was,
            (_, Outcome::Failed) => Standing::Down {
                until: now + COOLDOWN,
            },
        };
        match outcome {
            Outcome::Skewed => !matches!(
                was,
                Standing::Skewed { .. } | Standing::Probing { skewed: true }
            ),
            Outcome::Lied => was != Standing::Quarantined,
            _ => false,
        }
    }

    /// The `breaker` gauge, higher is worse: 0 while it takes jobs, 1
    /// while its probe is out, 2 while it is excluded.
    fn gauge(self) -> u8 {
        match self {
            Standing::Up { .. } | Standing::Away { .. } => 0,
            Standing::Probing { .. } => 1,
            _ => 2,
        }
    }
}

/// Dispatcher tuning: the fleet plus the failure policy.
#[derive(Debug, Clone, Default)]
pub struct DispatchConfig {
    /// Backend addresses (`host:port`), in rotation order.
    pub backends: Vec<String>,
    /// Whether `local` was listed as a fleet member: in-process
    /// execution joins the rotation instead of being only the
    /// last-resort fallback.
    pub local_in_rotation: bool,
    /// Connection deadlines shared by every backend client.
    pub remote: RemoteConfig,
    /// Sampled redundant verification rate, permille (0 disables — the
    /// zero-cost default; 1000 verifies every remote result). The sample
    /// is drawn by hashing the report key, so it is stable across runs
    /// and resumes, independent of scheduling.
    pub verify_permille: u16,
}

/// One backend, its standing, and this dispatcher's counts of what it
/// was seen to do, by obs counter name.
struct Backend {
    client: RemoteClient,
    standing: Mutex<Standing>,
    counts: Mutex<HashMap<&'static str, u64>>,
}

impl Backend {
    /// Counts `what` here and under `dispatch.<addr>.<what>`.
    fn count(&self, what: &'static str) {
        *lock_unpoisoned(&self.counts).entry(what).or_default() += 1;
        tdsigma_obs::counter(&format!("dispatch.{}.{what}", self.client.addr())).inc();
    }

    fn standing(&self) -> Standing {
        *lock_unpoisoned(&self.standing)
    }

    fn set_gauge(&self, gauge: u8) {
        tdsigma_obs::gauge(&format!("dispatch.{}.breaker", self.client.addr())).set(gauge.into());
    }

    /// Records `outcome` now and updates the gauge; see
    /// [`Standing::record`] for the return value. Every failure, of a job
    /// attempt or of a probe, is counted here once under
    /// `dispatch.<addr>.failed`.
    fn record(&self, outcome: Outcome) -> bool {
        if outcome == Outcome::Failed {
            self.count("failed");
        }
        let (newly, gauge) = {
            let mut standing = lock_unpoisoned(&self.standing);
            let newly = standing.record(outcome, Instant::now());
            (newly, standing.gauge())
        };
        self.set_gauge(gauge);
        newly
    }

    /// Whether this backend may take the next job now: the one gate for
    /// the rotation and for choosing a verification peer. A due probe
    /// re-proves the fingerprint first, and the attempt that follows
    /// `Go` settles it. Never returns `Probe`.
    fn admit(&self) -> Admit {
        let admit = lock_unpoisoned(&self.standing).admit(Instant::now());
        if admit != Admit::Probe {
            return admit;
        }
        self.set_gauge(1);
        if self.check_fingerprint().is_ok() {
            Admit::Go
        } else {
            Admit::No
        }
    }

    /// Health-checks the backend and compares its engine fingerprint
    /// with this process's: the one fingerprint check. A mismatch is
    /// counted under `dispatch.<addr>.version_skew`, warned once and
    /// recorded; so is silence, as a failure. Either comes back as the
    /// recorded outcome.
    fn check_fingerprint(&self) -> Result<BackendHealth, Outcome> {
        let ours = tdsigma_core::engine_fingerprint();
        let health = match self.client.health() {
            Ok(h) if h.fingerprint == ours => return Ok(h),
            Ok(h) => h,
            Err(_) => {
                self.record(Outcome::Failed);
                return Err(Outcome::Failed);
            }
        };
        let addr = self.client.addr();
        self.count("version_skew");
        if self.record(Outcome::Skewed) {
            let theirs = match health.fingerprint.as_str() {
                "" => "unknown",
                theirs => theirs,
            };
            eprintln!(
                "warning: backend {addr} excluded: engine fingerprint {theirs} != local {ours}"
            );
        }
        Err(Outcome::Skewed)
    }

    /// Quarantines this backend: its bytes disagreed with a redundant
    /// recomputation. Counted per backend and warned once on stderr.
    fn mark_integrity_failure(&self) {
        self.count("integrity_failures");
        if self.record(Outcome::Lied) {
            eprintln!(
                "warning: backend {} integrity-quarantined: its report bytes disagree \
                 with redundant recomputation",
                self.client.addr()
            );
        }
    }

    /// One full attempt: counters, RTT, and its outcome recorded.
    fn attempt(&self, job: &Job) -> Result<JobReport, RemoteError> {
        let addr = self.client.addr();
        self.count("dispatched");
        let start = Instant::now();
        let result = self.client.run_job(job);
        tdsigma_obs::histogram(&format!("dispatch.{addr}.rtt")).record(start.elapsed());
        self.record(match &result {
            // A job-class rejection means the backend held up its end of
            // the protocol.
            Ok(_) | Err(RemoteError::Job(_)) => Outcome::Answered,
            Err(RemoteError::Busy { retry_after_ms, .. }) => {
                self.count("shed_deferred");
                Outcome::Busy(Duration::from_millis(*retry_after_ms))
            }
            Err(RemoteError::Backend(_)) => Outcome::Failed,
        });
        result
    }
}

/// The candidates one job rotates through.
enum Candidate {
    Remote(usize),
    Local,
}

/// What one pass over the rotation produced. The definitive answer is
/// boxed so the whole enum stays pointer-sized next to the flag-only
/// variants.
enum RoundOutcome {
    /// A definitive answer (success, or a deterministic job error).
    Done(Box<Result<JobReport, JobError>>),
    /// At least one backend said "busy, come back in `wait_ms`" (or was
    /// still cooling from an earlier busy) and nothing succeeded.
    Busy { wait_ms: u64, local_tried: bool },
    /// Every candidate failed or was skipped for its standing.
    Exhausted { local_tried: bool },
}

/// A fleet of backends behind a [`Runner`]-shaped interface.
pub struct Dispatcher {
    backends: Vec<Arc<Backend>>,
    local: Arc<Runner>,
    local_in_rotation: bool,
    verify_permille: u16,
    /// Report keys already verified (this run, or replayed from the
    /// journal on `--resume`): never re-verified.
    verified: Mutex<HashSet<String>>,
    /// Keys verified since the last [`Dispatcher::drain_verified`] —
    /// what the caller journals so a resume skips re-verification.
    fresh_verified: Mutex<Vec<String>>,
    rotation: AtomicUsize,
    fallback_warned: AtomicBool,
    local_fallbacks: AtomicUsize,
}

impl Dispatcher {
    /// Builds a dispatcher over `config.backends`, with `local` as the
    /// in-process runner (rotation member or last-resort fallback).
    pub fn new(config: &DispatchConfig, local: Arc<Runner>) -> Arc<Self> {
        let backends = config
            .backends
            .iter()
            .map(|addr| {
                Arc::new(Backend {
                    client: RemoteClient::with_config(addr.clone(), config.remote.clone()),
                    standing: Mutex::new(Standing::Up { strikes: 0 }),
                    counts: Mutex::default(),
                })
            })
            .collect();
        Arc::new(Dispatcher {
            backends,
            local,
            local_in_rotation: config.local_in_rotation,
            verify_permille: config.verify_permille,
            verified: Mutex::new(HashSet::new()),
            fresh_verified: Mutex::new(Vec::new()),
            rotation: AtomicUsize::new(0),
            fallback_warned: AtomicBool::new(false),
            local_fallbacks: AtomicUsize::new(0),
        })
    }

    /// Seeds the already-verified key set from a journal replay: these
    /// keys were verified in a previous run of the same sweep, so a
    /// `--resume` must not pay for re-verifying them.
    pub fn seed_verified(&self, keys: impl IntoIterator<Item = String>) {
        lock_unpoisoned(&self.verified).extend(keys);
    }

    /// Drains the report keys verified since the last call. The caller
    /// journals them ([`crate::JournalRecord::JobVerified`]) so a resume
    /// inherits the verification work already paid for.
    pub fn drain_verified(&self) -> Vec<String> {
        std::mem::take(&mut *lock_unpoisoned(&self.fresh_verified))
    }

    /// Health-checks every backend once (the startup probe) and returns
    /// `(addr, health)` per backend. `Some` marks a backend that is
    /// reachable and runs this engine. `None` marks one that is
    /// unreachable, which is warned here and goes Down like any failed
    /// probe, or Skewed, which the check warned about; neither gets jobs
    /// until its next probe proves it.
    pub fn probe(&self) -> Vec<(String, Option<BackendHealth>)> {
        self.backends
            .iter()
            .map(|b| {
                let addr = b.client.addr().to_string();
                *lock_unpoisoned(&b.standing) = Standing::Probing { skewed: false };
                b.set_gauge(1);
                let health = match b.check_fingerprint() {
                    Ok(h) => {
                        b.record(Outcome::Answered);
                        Some(h)
                    }
                    Err(Outcome::Failed) => {
                        eprintln!("warning: backend {addr} unreachable at startup");
                        None
                    }
                    Err(_) => None,
                };
                (addr, health)
            })
            .collect()
    }

    /// Wraps this dispatcher as the engine's [`Runner`].
    pub fn into_runner(self: &Arc<Self>) -> Arc<Runner> {
        let this = Arc::clone(self);
        Arc::new(move |job: &Job| this.run_job(job))
    }

    /// Executes one job somewhere: rotation → failover → standing →
    /// local fallback, per the module docs.
    ///
    /// # Errors
    ///
    /// Only job-class errors surface (a deterministic rejection, or the
    /// local runner's own failure after every backend was exhausted) —
    /// never "a backend was down".
    pub fn run_job(&self, job: &Job) -> Result<JobReport, JobError> {
        // An all-busy fleet is temporary by definition: honor the
        // smallest advertised retry_after (bounded) for a couple of
        // rounds before degrading to local execution.
        const BUSY_ROUNDS: u32 = 3;
        let mut round = 0;
        loop {
            match self.dispatch_round(job) {
                RoundOutcome::Done(result) => return *result,
                RoundOutcome::Busy {
                    wait_ms,
                    local_tried,
                } => {
                    round += 1;
                    if round < BUSY_ROUNDS {
                        std::thread::sleep(Duration::from_millis(wait_ms.clamp(10, 2_000)));
                        continue;
                    }
                    if local_tried {
                        return Err(JobError::Failed {
                            attempts: round,
                            message: "every backend stayed busy (local already failed)".into(),
                        });
                    }
                    return self.local_fallback(job);
                }
                RoundOutcome::Exhausted { local_tried: true } => {
                    // Local already ran (and failed retryably) as a
                    // rotation member; re-running it cannot go better.
                    return Err(JobError::Failed {
                        attempts: 1,
                        message: "every backend (including local) failed".into(),
                    });
                }
                RoundOutcome::Exhausted { local_tried: false } => return self.local_fallback(job),
            }
        }
    }

    /// One pass over the rotation: rotation → failover → standing,
    /// classifying how the pass ended.
    fn dispatch_round(&self, job: &Job) -> RoundOutcome {
        let candidates = self.rotation(job);
        let mut local_tried = false;
        let mut busy_wait: Option<u64> = None;
        let mut note_busy = |wait: u64| {
            busy_wait = Some(busy_wait.map_or(wait, |w| w.min(wait)));
        };
        for (slot, candidate) in candidates.iter().enumerate() {
            match candidate {
                Candidate::Local => {
                    local_tried = true;
                    match (self.local)(job) {
                        Ok(out) => return RoundOutcome::Done(Box::new(Ok(out))),
                        // In rotation, a local failure fails over to the
                        // remotes like any other backend-class failure —
                        // unless it is deterministic.
                        Err(e) if e.is_retryable() => continue,
                        Err(e) => return RoundOutcome::Done(Box::new(Err(e))),
                    }
                }
                Candidate::Remote(i) => {
                    let backend = &self.backends[*i];
                    match backend.admit() {
                        Admit::Go => {}
                        // A busy rejection's retry_after is still
                        // running; skip without waking the backend.
                        Admit::Away => {
                            note_busy(100);
                            continue;
                        }
                        Admit::Probe | Admit::No => continue,
                    }
                    match backend.attempt(job) {
                        Ok(report) => {
                            let report = self.verify_sampled(backend, report, job);
                            return RoundOutcome::Done(Box::new(Ok(report)));
                        }
                        Err(RemoteError::Job(e)) => return RoundOutcome::Done(Box::new(Err(e))),
                        Err(RemoteError::Busy { retry_after_ms, .. }) => {
                            backend.count("retried");
                            note_busy(retry_after_ms);
                            continue;
                        }
                        Err(RemoteError::Backend(_)) => {
                            if slot + 1 < candidates.len() {
                                backend.count("retried");
                            }
                            continue;
                        }
                    }
                }
            }
        }
        match busy_wait {
            Some(wait_ms) => RoundOutcome::Busy {
                wait_ms,
                local_tried,
            },
            None => RoundOutcome::Exhausted { local_tried },
        }
    }

    /// Two backends produced different bytes for the same job — one of
    /// them is lying. The local engine recomputes (reports are pure
    /// functions of their jobs, so the local bytes are ground truth) and
    /// whichever backend disagrees with it is integrity-quarantined; the
    /// verified bytes win. If local arbitration itself fails, no verdict
    /// is reached: nobody is quarantined, the primary's answer stands,
    /// and the miss is counted under `dispatch.verify_aborted`.
    fn arbitrate_pair(
        &self,
        job: &Job,
        primary: (Arc<Backend>, JobReport),
        other: (Arc<Backend>, JobReport),
    ) -> JobReport {
        match (self.local)(job) {
            Ok(truth) => {
                let text = truth.to_text();
                let primary_honest = primary.1.to_text() == text;
                let other_honest = other.1.to_text() == text;
                if !primary_honest {
                    primary.0.mark_integrity_failure();
                }
                if !other_honest {
                    other.0.mark_integrity_failure();
                }
                self.note_verified(&truth.key);
                if primary_honest {
                    primary.1
                } else if other_honest {
                    other.1
                } else {
                    // Both lied: the local recomputation is the result.
                    truth
                }
            }
            Err(_) => {
                tdsigma_obs::counter("dispatch.verify_aborted").inc();
                primary.1
            }
        }
    }

    /// Sampled redundant verification of one remote result. Zero-cost
    /// when disabled; otherwise the report key's hash decides — stably
    /// across runs and resumes — whether this result is re-executed on a
    /// second backend or the local engine and compared byte-for-byte.
    /// On a mismatch the local engine arbitrates, the lying backend is
    /// integrity-quarantined, and the verified bytes are returned — so
    /// the sweep output stays byte-identical to a local run.
    fn verify_sampled(&self, origin: &Arc<Backend>, report: JobReport, job: &Job) -> JobReport {
        if self.verify_permille == 0 {
            return report;
        }
        if self.verify_permille < 1000 {
            let draw = tdsigma_tech::fnv1a64(report.key.as_bytes(), VERIFY_BASIS) % 1000;
            if draw >= self.verify_permille as u64 {
                return report;
            }
        }
        if lock_unpoisoned(&self.verified).contains(&report.key) {
            return report;
        }
        tdsigma_obs::counter("dispatch.verify_sampled").inc();
        // Second opinion from a different still-trusted backend when one
        // exists (spreads the verification load across the fleet);
        // otherwise the local engine referees directly.
        let second = self
            .verify_peer(origin)
            .map(|peer| (peer.attempt(job), peer));
        match second {
            Some((Ok(peer_report), peer)) => {
                if peer_report.to_text() == report.to_text() {
                    self.note_verified(&report.key);
                    report
                } else {
                    tdsigma_obs::counter("dispatch.verify_mismatch").inc();
                    self.arbitrate_pair(job, (Arc::clone(origin), report), (peer, peer_report))
                }
            }
            // No usable peer (none trusted, or the peer itself failed):
            // the local engine is the referee.
            Some((Err(_), _)) | None => match (self.local)(job) {
                Ok(truth) => {
                    if truth.to_text() == report.to_text() {
                        self.note_verified(&report.key);
                        report
                    } else {
                        tdsigma_obs::counter("dispatch.verify_mismatch").inc();
                        origin.mark_integrity_failure();
                        self.note_verified(&truth.key);
                        truth
                    }
                }
                Err(_) => {
                    tdsigma_obs::counter("dispatch.verify_aborted").inc();
                    report
                }
            },
        }
    }

    /// The first backend other than `origin` whose standing admits a
    /// job, to use as a verification peer. `None` when no other backend
    /// is admitted.
    fn verify_peer(&self, origin: &Arc<Backend>) -> Option<Arc<Backend>> {
        self.backends
            .iter()
            .find(|b| !Arc::ptr_eq(b, origin) && b.admit() == Admit::Go)
            .cloned()
    }

    /// Records `key` as verified (skipped by later samples, drained for
    /// journaling).
    fn note_verified(&self, key: &str) {
        if lock_unpoisoned(&self.verified).insert(key.to_string()) {
            lock_unpoisoned(&self.fresh_verified).push(key.to_string());
        }
    }

    /// Last-resort in-process execution, counted and warned once.
    fn local_fallback(&self, job: &Job) -> Result<JobReport, JobError> {
        self.local_fallbacks.fetch_add(1, Ordering::Relaxed);
        tdsigma_obs::counter("dispatch.local_fallback").inc();
        if !self.fallback_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: all {} backend(s) unavailable; degrading to local execution",
                self.backends.len()
            );
        }
        (self.local)(job)
    }

    /// The rotation for one job: remote backends starting at a
    /// round-robin offset (keyed per call, so consecutive jobs start at
    /// consecutive backends), with local inserted at its rotation slot
    /// when it is a fleet member.
    fn rotation(&self, _job: &Job) -> Vec<Candidate> {
        let mut slots: Vec<Candidate> = (0..self.backends.len()).map(Candidate::Remote).collect();
        if self.local_in_rotation {
            slots.push(Candidate::Local);
        }
        if slots.len() > 1 {
            let start = self.rotation.fetch_add(1, Ordering::Relaxed) % slots.len();
            slots.rotate_left(start);
        }
        slots
    }

    /// Snapshot of this dispatcher's per-backend counts and standings
    /// for end-of-sweep reporting.
    pub fn summary(&self) -> DispatchSummary {
        let backends = self
            .backends
            .iter()
            .map(|b| {
                let counts = lock_unpoisoned(&b.counts);
                let get = |what: &str| counts.get(what).copied().unwrap_or(0);
                BackendDispatchStats {
                    addr: b.client.addr().to_string(),
                    dispatched: get("dispatched"),
                    failed: get("failed"),
                    retried: get("retried"),
                    shed_deferred: get("shed_deferred"),
                    version_skew: get("version_skew"),
                    integrity_failures: get("integrity_failures"),
                    breaker_open: b.standing().gauge() > 0,
                }
            })
            .collect();
        DispatchSummary {
            backends,
            local_fallbacks: self.local_fallbacks.load(Ordering::Relaxed) as u64,
            local_in_rotation: self.local_in_rotation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::pool::PoolConfig;
    use crate::server::{Server, ServerConfig};
    use std::sync::atomic::AtomicUsize;

    fn ok_report(job: &Job) -> JobReport {
        JobReport {
            key: job.key(),
            job: job.clone(),
            fin_hz: job.input_frequency_hz(),
            sndr_db: 60.0 + job.seed as f64,
            enob: 9.7,
            power_mw: None,
            digital_fraction: None,
            area_mm2: None,
            fom_fj: None,
            timing_slack_ps: None,
        }
    }

    fn local_runner() -> Arc<Runner> {
        Arc::new(|job: &Job| Ok(ok_report(job)))
    }

    fn spawn_backend() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        spawn_backend_with(local_runner())
    }

    /// A real `serve` over `runner`.
    fn spawn_backend_with(
        runner: Arc<Runner>,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let engine = Arc::new(
            Engine::with_runner(
                EngineConfig {
                    pool: PoolConfig {
                        workers: 2,
                        retries: 0,
                        ..PoolConfig::default()
                    },
                    cache_dir: None,
                },
                runner,
            )
            .unwrap(),
        );
        let server = Server::bind_with(
            "127.0.0.1:0",
            engine,
            ServerConfig {
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn stop_backend(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
        use std::io::Write;
        if let Ok(mut s) = std::net::TcpStream::connect(addr) {
            let _ = s.write_all(b"{\"cmd\":\"shutdown\"}\n");
            let _ = std::io::BufRead::read_line(
                &mut std::io::BufReader::new(s.try_clone().unwrap()),
                &mut String::new(),
            );
        }
        let _ = handle.join();
    }

    /// A backend that answers every request with a structured shed
    /// rejection — alive, polite, and permanently full.
    fn spawn_busy_backend(retry_after_ms: u64) -> std::net::SocketAddr {
        spawn_canned_backend(format!(
            "{{\"ok\":false,\"error\":\"server is at capacity\",\
             \"busy\":true,\"shed\":true,\"retry_after_ms\":{retry_after_ms}}}\n"
        ))
    }

    /// A backend that answers every request line with the same `reply`
    /// frame, whatever was asked.
    fn spawn_canned_backend(reply: String) -> std::net::SocketAddr {
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                if reader.read_line(&mut line).is_err() {
                    continue;
                }
                let mut stream = stream;
                let _ = stream.write_all(reply.as_bytes());
            }
        });
        addr
    }

    fn fast_config(backends: Vec<String>) -> DispatchConfig {
        DispatchConfig {
            backends,
            remote: RemoteConfig {
                connect_timeout_ms: 200,
                ..RemoteConfig::default()
            },
            ..DispatchConfig::default()
        }
    }

    /// Drives `standing` through `outcomes` at `now`, one after another.
    fn walk(standing: &mut Standing, outcomes: &[Outcome], now: Instant) {
        for &outcome in outcomes {
            standing.record(outcome, now);
        }
    }

    fn down(t: Instant) -> Standing {
        Standing::Down {
            until: t + COOLDOWN,
        }
    }

    fn skewed(t: Instant) -> Standing {
        Standing::Skewed {
            until: t + COOLDOWN,
        }
    }

    #[test]
    fn standing_goes_down_after_three_failures_and_one_probe_decides() {
        let t0 = Instant::now();
        let mut s = Standing::Up { strikes: 0 };
        walk(&mut s, &[Outcome::Failed, Outcome::Failed], t0);
        assert_eq!(s, Standing::Up { strikes: 2 }, "below the threshold");
        assert_eq!(s.admit(t0), Admit::Go);
        s.record(Outcome::Failed, t0);
        assert_eq!((s, s.gauge()), (down(t0), 2), "third strike");
        assert_eq!(s.admit(t0 + COOLDOWN / 2), Admit::No, "cooling down");
        let t1 = t0 + COOLDOWN;
        assert_eq!(s.admit(t1), Admit::Probe, "cooled: one probe");
        assert_eq!(s.gauge(), 1);
        assert_eq!(s.admit(t1), Admit::No, "only one probe at a time");
        s.record(Outcome::Failed, t1);
        assert_eq!(s, down(t1), "failed probe");
        let t2 = t1 + COOLDOWN;
        assert_eq!(s.admit(t2), Admit::Probe);
        s.record(Outcome::Answered, t2);
        assert_eq!(
            (s, s.gauge()),
            (Standing::Up { strikes: 0 }, 0),
            "good probe"
        );
        // An answer clears the streak.
        let streak = [Outcome::Failed, Outcome::Failed, Outcome::Answered];
        walk(&mut s, &streak, t2);
        s.record(Outcome::Failed, t2);
        assert_eq!(s, Standing::Up { strikes: 1 });
    }

    #[test]
    fn standing_busy_never_adds_a_strike_and_returns_without_a_probe() {
        let t0 = Instant::now();
        let wait = Duration::from_millis(40);
        let away = Standing::Away { until: t0 + wait };
        let mut s = Standing::Up { strikes: 2 };
        s.record(Outcome::Busy(wait), t0);
        assert_eq!((s, s.gauge()), (away, 0), "full is not broken");
        // Stragglers neither strike nor cut the wait short.
        let stragglers = [Outcome::Failed, Outcome::Failed, Outcome::Failed];
        walk(&mut s, &stragglers, t0);
        s.record(Outcome::Answered, t0);
        assert_eq!(s, away);
        assert_eq!(s.admit(t0), Admit::Away);
        assert_eq!(s.admit(t0 + wait), Admit::Go, "no probe on return");
        assert_eq!(s, Standing::Up { strikes: 0 });
        // Busy also settles a probe: the peer answered.
        let mut probing = Standing::Probing { skewed: false };
        probing.record(Outcome::Busy(wait), t0);
        assert_eq!(probing, away);
    }

    #[test]
    fn standing_rejoins_from_skew_only_through_a_matching_probe() {
        let t0 = Instant::now();
        let mut s = Standing::Up { strikes: 0 };
        assert!(s.record(Outcome::Skewed, t0), "first mismatch warns");
        // Answers from stragglers do not vouch for the fingerprint.
        walk(&mut s, &[Outcome::Answered, Outcome::Busy(COOLDOWN)], t0);
        assert_eq!(s, skewed(t0));
        assert_eq!(s.admit(t0), Admit::No);
        let t1 = t0 + COOLDOWN;
        assert_eq!(s.admit(t1), Admit::Probe, "a fingerprint probe");
        assert!(!s.record(Outcome::Skewed, t1), "still skewed: warned");
        assert_eq!(s, skewed(t1));
        let t2 = t1 + COOLDOWN;
        assert_eq!(s.admit(t2), Admit::Probe);
        // The fingerprint matched, so the probe carried a job.
        s.record(Outcome::Answered, t2);
        assert_eq!(s, Standing::Up { strikes: 0 });
        // A Down backend whose probe finds a new engine turns Skewed.
        let mut s = Standing::Down { until: t0 };
        assert_eq!(s.admit(t0), Admit::Probe);
        assert!(s.record(Outcome::Skewed, t0));
        assert_eq!(s, skewed(t0));
    }

    #[test]
    fn standing_quarantine_is_terminal() {
        let t0 = Instant::now();
        let mut s = Standing::Skewed { until: t0 };
        assert!(s.record(Outcome::Lied, t0), "first lie warns");
        assert!(!s.record(Outcome::Lied, t0), "warned once");
        let later = [
            Outcome::Answered,
            Outcome::Failed,
            Outcome::Busy(COOLDOWN),
            Outcome::Skewed,
        ];
        walk(&mut s, &later, t0);
        assert_eq!((s, s.gauge()), (Standing::Quarantined, 2));
        assert_eq!(s.admit(t0 + COOLDOWN * 1000), Admit::No, "never re-probed");
    }

    #[test]
    fn dispatch_runs_jobs_on_a_real_backend() {
        let (addr, handle) = spawn_backend();
        let dispatcher = Dispatcher::new(&fast_config(vec![addr.to_string()]), local_runner());
        let probes = dispatcher.probe();
        assert!(probes[0].1.is_some(), "backend must be reachable");
        let job = Job {
            seed: 9,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let report = dispatcher.run_job(&job).expect("dispatched job");
        assert_eq!(report.key, job.key());
        assert_eq!(report.sndr_db, 69.0);
        let summary = dispatcher.summary();
        assert_eq!(summary.backends[0].dispatched, 1);
        assert_eq!(summary.local_fallbacks, 0);
        stop_backend(addr, handle);
    }

    #[test]
    fn all_backends_down_degrades_to_local() {
        // Nothing listens on these ports (connect is refused fast).
        // Each test uses distinct dead ports: the obs counters are
        // process-global and keyed by address.
        let dispatcher = Dispatcher::new(
            &fast_config(vec!["127.0.0.1:17".into(), "127.0.0.1:18".into()]),
            local_runner(),
        );
        let job = Job::sim(40.0, 750e6, 5e6);
        let report = dispatcher.run_job(&job).expect("local fallback");
        assert_eq!(report.key, job.key());
        let summary = dispatcher.summary();
        assert_eq!(summary.local_fallbacks, 1);
        assert!(summary.backends.iter().all(|b| b.failed >= 1));
    }

    #[test]
    fn backends_dead_at_the_startup_probe_take_no_jobs() {
        // A failed startup probe is a failed probe: Down for the
        // cooldown, so no job pays a connect to either dead peer.
        let dead = vec!["127.0.0.1:23".to_string(), "127.0.0.1:24".to_string()];
        let dispatcher = Dispatcher::new(&fast_config(dead), local_runner());
        assert!(dispatcher
            .probe()
            .iter()
            .all(|(_, health)| health.is_none()));
        for seed in 0..3u64 {
            let job = Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            };
            assert_eq!(dispatcher.run_job(&job).expect("local").key, job.key());
        }
        let summary = dispatcher.summary();
        assert_eq!(summary.local_fallbacks, 3);
        for b in &summary.backends {
            assert_eq!(
                (b.dispatched, b.failed, b.breaker_open),
                (0, 1, true),
                "the failed probe is counted: {}",
                b.addr
            );
        }
    }

    #[test]
    fn failover_moves_a_job_to_the_healthy_backend() {
        let (addr, handle) = spawn_backend();
        // A dead first backend, a live second one: the job must land.
        let dispatcher = Dispatcher::new(
            &fast_config(vec!["127.0.0.1:11".into(), addr.to_string()]),
            local_runner(),
        );
        for seed in 0..4u64 {
            let job = Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            };
            let report = dispatcher.run_job(&job).expect("failover");
            assert_eq!(report.key, job.key());
        }
        let summary = dispatcher.summary();
        assert_eq!(summary.local_fallbacks, 0, "remote fleet handled it all");
        let live = summary.backends.iter().find(|b| b.addr == addr.to_string());
        assert_eq!(live.expect("live backend in summary").dispatched, 4);
        stop_backend(addr, handle);
    }

    #[test]
    fn breaker_opens_after_repeated_failures_and_skips_the_dead_peer() {
        let dispatcher = Dispatcher::new(&fast_config(vec!["127.0.0.1:19".into()]), local_runner());
        for _ in 0..5 {
            dispatcher.run_job(&Job::sim(40.0, 750e6, 5e6)).unwrap();
        }
        let summary = dispatcher.summary();
        assert!(summary.backends[0].breaker_open);
        assert_eq!(
            summary.backends[0].dispatched, 3,
            "breaker must stop dispatch at the threshold"
        );
        assert_eq!(summary.local_fallbacks, 5);
    }

    #[test]
    fn local_in_rotation_shares_the_load() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let local: Arc<Runner> = Arc::new(move |job: &Job| {
            counted.fetch_add(1, Ordering::SeqCst);
            Ok(ok_report(job))
        });
        let config = DispatchConfig {
            local_in_rotation: true,
            ..fast_config(vec![])
        };
        let dispatcher = Dispatcher::new(&config, local);
        for seed in 0..3u64 {
            let job = Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            };
            dispatcher.run_job(&job).expect("local member");
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(
            dispatcher.summary().local_fallbacks,
            0,
            "rotation membership is not degradation"
        );
    }

    #[test]
    fn busy_rejections_cool_down_without_tripping_the_breaker() {
        let busy = spawn_busy_backend(40);
        let dispatcher = Dispatcher::new(&fast_config(vec![busy.to_string()]), local_runner());
        for seed in 0..4u64 {
            let job = Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            };
            let report = dispatcher.run_job(&job).expect("local absorbs shed work");
            assert_eq!(report.key, job.key());
        }
        assert!(
            matches!(dispatcher.backends[0].standing(), Standing::Away { .. }),
            "a healthy-but-full backend must never go down"
        );
        let summary = dispatcher.summary();
        assert!(!summary.backends[0].breaker_open);
        assert_eq!(
            summary.backends[0].failed, 0,
            "busy is not a backend-class failure"
        );
        assert!(
            summary.backends[0].shed_deferred >= 1,
            "cooldowns must be counted: {summary}"
        );
        assert_eq!(summary.local_fallbacks, 4, "every job still completed");
    }

    #[test]
    fn busy_backend_fails_over_to_a_healthy_peer() {
        let busy = spawn_busy_backend(30_000); // cools for the whole test
        let (live, handle) = spawn_backend();
        let dispatcher = Dispatcher::new(
            &fast_config(vec![busy.to_string(), live.to_string()]),
            local_runner(),
        );
        for seed in 0..4u64 {
            let job = Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            };
            let report = dispatcher.run_job(&job).expect("failover from busy");
            assert_eq!(report.key, job.key());
        }
        let summary = dispatcher.summary();
        assert_eq!(summary.local_fallbacks, 0, "the healthy peer took it all");
        assert!(
            summary.backends.iter().all(|b| !b.breaker_open),
            "{summary}"
        );
        let live_stats = summary.backends.iter().find(|b| b.addr == live.to_string());
        assert_eq!(live_stats.expect("live backend").dispatched, 4);
        let busy_stats = summary.backends.iter().find(|b| b.addr == busy.to_string());
        assert!(
            busy_stats.expect("busy backend").dispatched <= 1,
            "the 30s cooldown must keep the rotation away after one rejection"
        );
        stop_backend(live, handle);
    }

    /// A live peer whose every reply is a healthy `health` frame with
    /// `stamp` spliced in: it can be health-checked, but any job sent
    /// to it fails to parse.
    fn spawn_stamped_backend(stamp: &str) -> std::net::SocketAddr {
        spawn_canned_backend(format!(
            "{{\"ok\":true,\"health\":{{\"status\":\"ok\",\"workers\":2,{stamp}\
             \"uptime_ms\":5,\"served_jobs\":0}}}}\n"
        ))
    }

    #[test]
    fn mismatched_fingerprint_backend_is_excluded_not_trusted() {
        // Alive, fast, and running another engine — or advertising no
        // fingerprint at all, since absence of evidence is not a match.
        for stamp in ["\"fingerprint\":\"aaaaaaaaaaaaaaaa\",", ""] {
            let skewed = spawn_stamped_backend(stamp);
            let dispatcher =
                Dispatcher::new(&fast_config(vec![skewed.to_string()]), local_runner());
            assert!(dispatcher.probe()[0].1.is_none(), "reachable, not trusted");
            assert!(
                matches!(dispatcher.backends[0].standing(), Standing::Skewed { .. }),
                "the probe must mark the version skew"
            );
            for seed in 0..3u64 {
                let job = Job {
                    seed,
                    ..Job::sim(40.0, 750e6, 5e6)
                };
                let report = dispatcher.run_job(&job).expect("local absorbs the work");
                assert_eq!(report.key, job.key());
            }
            let summary = dispatcher.summary();
            assert_eq!(
                summary.backends[0].dispatched, 0,
                "a skewed backend must never receive a job: {summary}"
            );
            assert!(
                summary.backends[0].version_skew >= 1,
                "skew must be counted: {summary}"
            );
            assert_eq!(summary.local_fallbacks, 3, "every job still completed");
            assert!(
                summary.to_string().contains("DEGRADED: version_skew"),
                "the summary must flag the degradation: {summary}"
            );
        }
    }

    #[test]
    fn two_dispatchers_to_one_address_each_report_only_their_own_counts() {
        let (addr, _handle) = spawn_backend();
        let dispatchers = [2u64, 1].map(|jobs| {
            let d = Dispatcher::new(&fast_config(vec![addr.to_string()]), local_runner());
            for seed in 0..jobs {
                let job = Job::sim(40.0, 750e6, 5e6);
                d.run_job(&Job { seed, ..job }).expect("answered");
            }
            d
        });
        let dispatched = dispatchers.map(|d| d.summary().backends[0].dispatched);
        assert_eq!(dispatched, [2, 1]);
    }

    #[test]
    fn verify_peer_due_for_its_probe_must_reprove_its_fingerprint() {
        // The peer was Down and its cooldown has passed, and meanwhile
        // its binary changed. Choosing it as a verification peer is its
        // probe: it must be caught as skew, not handed the job.
        let (honest, handle) = spawn_backend();
        let changed = spawn_stamped_backend("\"fingerprint\":\"bbbbbbbbbbbbbbbb\",");
        let config = DispatchConfig {
            verify_permille: 1000,
            ..fast_config(vec![honest.to_string(), changed.to_string()])
        };
        let dispatcher = Dispatcher::new(&config, local_runner());
        *lock_unpoisoned(&dispatcher.backends[1].standing) = Standing::Down {
            until: Instant::now(),
        };
        let job = Job {
            seed: 8,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let report = dispatcher.run_job(&job).expect("verified dispatch");
        assert_eq!(report.to_text(), ok_report(&job).to_text());
        let summary = dispatcher.summary();
        let peer = &summary.backends[1];
        assert_eq!(
            peer.dispatched, 0,
            "no job before the fingerprint: {summary}"
        );
        assert_eq!(peer.version_skew, 1, "counted as skew: {summary}");
        assert_eq!(peer.integrity_failures, 0, "not as a lie: {summary}");
        assert_eq!(summary.backends[0].integrity_failures, 0, "{summary}");
        assert!(
            matches!(dispatcher.backends[1].standing(), Standing::Skewed { .. }),
            "{summary}"
        );
        stop_backend(honest, handle);
    }

    #[test]
    fn lying_backend_is_integrity_quarantined_and_verified_bytes_win() {
        // A backend whose runner computes, then perturbs a report value
        // while keeping the key intact; serve attests the lie, so the
        // frame is self-consistent. Only redundant recomputation can
        // catch it.
        let (liar, handle) = spawn_backend_with(Arc::new(|job: &Job| {
            let mut report = ok_report(job);
            report.sndr_db += 3.5;
            Ok(report)
        }));
        let config = DispatchConfig {
            verify_permille: 1000,
            ..fast_config(vec![liar.to_string()])
        };
        let dispatcher = Dispatcher::new(&config, local_runner());
        for seed in 0..3u64 {
            let job = Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            };
            let report = dispatcher.run_job(&job).expect("verified dispatch");
            // The verified bytes win: every answer matches what a pure
            // local run would have produced, lying backend or not.
            assert_eq!(report.to_text(), ok_report(&job).to_text());
        }
        assert_eq!(
            dispatcher.backends[0].standing(),
            Standing::Quarantined,
            "first verified mismatch must integrity-quarantine the liar"
        );
        let summary = dispatcher.summary();
        assert_eq!(
            summary.backends[0].dispatched, 1,
            "a quarantined backend must never be re-probed this run: {summary}"
        );
        assert!(
            summary.backends[0].integrity_failures >= 1,
            "the mismatch must be counted: {summary}"
        );
        assert_eq!(summary.local_fallbacks, 2, "remaining jobs ran locally");
        let rendered = summary.to_string();
        assert!(
            rendered.contains("DEGRADED: integrity"),
            "the summary must flag the integrity degradation: {rendered}"
        );
        stop_backend(liar, handle);
    }

    #[test]
    fn verify_sample_zero_costs_nothing() {
        let (addr, handle) = spawn_backend();
        let local_calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&local_calls);
        let local: Arc<Runner> = Arc::new(move |job: &Job| {
            counted.fetch_add(1, Ordering::SeqCst);
            Ok(ok_report(job))
        });
        // verify_permille defaults to 0: sampling must be disabled.
        let dispatcher = Dispatcher::new(&fast_config(vec![addr.to_string()]), local);
        for seed in 0..4u64 {
            let job = Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            };
            dispatcher.run_job(&job).expect("dispatched job");
        }
        let summary = dispatcher.summary();
        assert_eq!(
            summary.backends[0].dispatched, 4,
            "exactly one dispatch per job, no verification re-dispatch"
        );
        assert_eq!(
            local_calls.load(Ordering::SeqCst),
            0,
            "no local recomputation when sampling is off"
        );
        assert!(
            dispatcher.drain_verified().is_empty(),
            "nothing was verified, nothing to journal"
        );
        stop_backend(addr, handle);
    }

    #[test]
    fn sampled_verification_referees_locally_and_remembers_verified_keys() {
        let (addr, handle) = spawn_backend();
        let local_calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&local_calls);
        let local: Arc<Runner> = Arc::new(move |job: &Job| {
            counted.fetch_add(1, Ordering::SeqCst);
            Ok(ok_report(job))
        });
        let config = DispatchConfig {
            verify_permille: 1000,
            ..fast_config(vec![addr.to_string()])
        };
        let dispatcher = Dispatcher::new(&config, local);
        let job = Job {
            seed: 5,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        dispatcher.run_job(&job).expect("verified dispatch");
        assert_eq!(
            local_calls.load(Ordering::SeqCst),
            1,
            "a single-backend fleet has no peer: the local engine referees"
        );
        assert_eq!(
            dispatcher.drain_verified(),
            vec![job.key()],
            "the verified key must surface exactly once for journaling"
        );
        assert!(dispatcher.drain_verified().is_empty(), "drain is a take");
        // The same key again: already verified, no second recomputation.
        dispatcher.run_job(&job).expect("re-dispatch");
        assert_eq!(local_calls.load(Ordering::SeqCst), 1);
        let summary = dispatcher.summary();
        assert_eq!(summary.backends[0].integrity_failures, 0);
        assert_ne!(dispatcher.backends[0].standing(), Standing::Quarantined);
        stop_backend(addr, handle);
    }

    #[test]
    fn seeded_verified_keys_skip_resampling_on_resume() {
        let (addr, handle) = spawn_backend();
        let local_calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&local_calls);
        let local: Arc<Runner> = Arc::new(move |job: &Job| {
            counted.fetch_add(1, Ordering::SeqCst);
            Ok(ok_report(job))
        });
        let config = DispatchConfig {
            verify_permille: 1000,
            ..fast_config(vec![addr.to_string()])
        };
        let dispatcher = Dispatcher::new(&config, local);
        let job = Job {
            seed: 6,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        // A resume replays journaled verification outcomes into the
        // dispatcher before any job runs.
        dispatcher.seed_verified([job.key()]);
        dispatcher.run_job(&job).expect("dispatched job");
        assert_eq!(
            local_calls.load(Ordering::SeqCst),
            0,
            "a journaled verification must not be re-verified"
        );
        assert!(
            dispatcher.drain_verified().is_empty(),
            "seeded keys are not fresh: nothing new to journal"
        );
        stop_backend(addr, handle);
    }

    #[test]
    fn arbitration_quarantines_the_backend_that_disagrees_with_local_truth() {
        // Exercise the arbitration core directly: two backends returned
        // different bytes for the same job, and the local recomputation
        // decides which one lied. (No sockets needed — arbitration only
        // touches the local runner and the backend trust flags.)
        let dispatcher = Dispatcher::new(
            &fast_config(vec!["127.0.0.1:21".into(), "127.0.0.1:22".into()]),
            local_runner(),
        );
        let job = Job {
            seed: 7,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let truth = ok_report(&job);
        let mut lie = truth.clone();
        lie.sndr_db += 3.0;
        let report = dispatcher.arbitrate_pair(
            &job,
            (Arc::clone(&dispatcher.backends[0]), lie),
            (Arc::clone(&dispatcher.backends[1]), truth.clone()),
        );
        assert_eq!(report.to_text(), truth.to_text(), "the honest bytes win");
        assert_eq!(
            dispatcher.backends[0].standing(),
            Standing::Quarantined,
            "the liar is integrity-quarantined"
        );
        assert_eq!(
            dispatcher.backends[1].standing(),
            Standing::Up { strikes: 0 },
            "the honest peer keeps its standing"
        );
        assert_eq!(
            dispatcher.drain_verified(),
            vec![job.key()],
            "arbitration doubles as verification of the key"
        );
    }
}
