//! Multi-backend dispatch: failover, circuit breakers, local fallback.
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
//! 1. **Rotation.** Jobs round-robin across backends whose breaker
//!    admits them (plus local, when `local` was listed as a member).
//! 2. **Failover.** A backend-class failure ([`RemoteError::Backend`])
//!    records against that backend's breaker and the job immediately
//!    moves to the next candidate. A job-class rejection
//!    ([`RemoteError::Job`]) is deterministic — every backend would
//!    answer the same — so it propagates without burning the fleet.
//!    A structured busy/shed rejection ([`RemoteError::Busy`]) is
//!    neither: the backend is demonstrably alive, just full. It counts
//!    as breaker *success*, the advertised `retry_after_ms` becomes a
//!    dispatch-side cooldown during which the rotation skips the
//!    backend, and the job fails over like any transient miss.
//! 3. **Circuit breaker.** After [`BreakerConfig::failure_threshold`]
//!    consecutive failures a backend's breaker opens and the rotation
//!    skips it; after [`BreakerConfig::cooldown_ms`] one half-open probe
//!    job is admitted — success re-closes the breaker, failure re-opens
//!    it for another cooldown. This keeps a dead peer from taxing every
//!    job with a connect timeout.
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
//!    disagrees with the local recomputation is **integrity-quarantined**
//!    (excluded for the rest of the run, never re-probed — unlike a
//!    breaker, there is no recovering from lying) and the verified
//!    bytes win.
//!
//! Per-backend instrumentation lands in `tdsigma-obs` under
//! `dispatch.<addr>.…`: `dispatched`/`failed`/`retried`/
//! `integrity_failures` counters, a `breaker` gauge (0 = closed,
//! 1 = half-open, 2 = open) and an `rtt` histogram.
//! [`Dispatcher::summary`] snapshots the same numbers for end-of-sweep
//! reporting.

use crate::error::JobError;
use crate::faults::{FaultPlan, VERIFY_BASIS};
use crate::job::Job;
use crate::metrics::{BackendDispatchStats, DispatchSummary};
use crate::pool::{lock_unpoisoned, Runner};
use crate::remote::{BackendHealth, RemoteClient, RemoteConfig, RemoteError};
use crate::report::JobReport;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Circuit-breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive backend-class failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before admitting one half-open
    /// probe, ms.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 5_000,
        }
    }
}

/// Where a breaker currently stands. Reported as a gauge: closed = 0,
/// half-open = 1, open = 2 — higher is worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// Cooling down; everything is rejected until the cooldown elapses.
    Open,
    /// One probe is in flight; its outcome decides open vs closed.
    HalfOpen,
}

impl BreakerState {
    /// The gauge encoding (0/1/2, higher is worse).
    pub fn gauge_value(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
}

/// A per-backend circuit breaker.
///
/// `admit` is a *claim*, not a query: when it returns `true` the caller
/// has committed to one attempt and must follow up with exactly one
/// `record_success` or `record_failure` — in the half-open state the
/// admitted call *is* the probe, and a second caller is rejected until
/// the probe reports back.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        // Nothing in here panics while holding the guard, but recover
        // from poisoning anyway: the state is a plain value with no
        // multi-step invariant.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims permission for one attempt (see the type docs).
    pub fn admit(&self) -> bool {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false, // a probe is already out
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_none_or(|t| t.elapsed() >= Duration::from_millis(self.config.cooldown_ms));
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                    true // this caller carries the probe
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful attempt: closes the breaker and clears the
    /// failure streak.
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.opened_at = None;
    }

    /// Reports a failed attempt: extends the streak and opens the
    /// breaker at the threshold (a failed half-open probe re-opens it
    /// immediately).
    pub fn record_failure(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = inner.state == BreakerState::HalfOpen
            || inner.consecutive_failures >= self.config.failure_threshold;
        if trip {
            inner.state = BreakerState::Open;
            inner.opened_at = Some(Instant::now());
        }
    }

    /// The current state (for gauges and tests).
    pub fn state(&self) -> BreakerState {
        self.lock().state
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
    /// Per-backend breaker tuning.
    pub breaker: BreakerConfig,
    /// Deterministic network-fault injection for chaos runs.
    pub faults: FaultPlan,
    /// Sampled redundant verification rate, permille (0 disables — the
    /// zero-cost default; 1000 verifies every remote result). The sample
    /// is drawn by hashing the report key, so it is stable across runs
    /// and resumes, independent of scheduling.
    pub verify_permille: u16,
}

/// One backend plus its breaker and instrumentation.
struct Backend {
    client: RemoteClient,
    breaker: CircuitBreaker,
    /// Until when a busy/shed rejection asked us to stay away. Distinct
    /// from the breaker: the backend is healthy, just full, so tripping
    /// Closed→Open (and burning the failure streak) would be wrong.
    cooldown_until: Mutex<Option<Instant>>,
    /// Whether the backend last advertised an engine fingerprint
    /// different from this process's. A skewed backend is excluded from
    /// dispatch — its reports are not interchangeable with ours — until
    /// a later verification (e.g. a half-open probe after it was
    /// replaced) sees matching fingerprints again.
    skewed: AtomicBool,
    /// Whether this backend returned result bytes that disagreed with a
    /// redundant recomputation. Terminal for the run: unlike a breaker
    /// (transient failures recover) or a skew mark (a replaced binary
    /// can rejoin), a backend caught lying about *values* is never
    /// probed or trusted again.
    integrity_quarantined: AtomicBool,
}

impl Backend {
    fn gauge(&self) {
        tdsigma_obs::gauge(&format!("dispatch.{}.breaker", self.client.addr()))
            .set(self.breaker.state().gauge_value());
    }

    fn skewed(&self) -> bool {
        self.skewed.load(Ordering::Relaxed)
    }

    fn quarantined(&self) -> bool {
        self.integrity_quarantined.load(Ordering::Relaxed)
    }

    /// Marks this backend integrity-quarantined: its bytes disagreed
    /// with a redundant recomputation. Counted per backend and warned
    /// once on stderr.
    fn mark_integrity_failure(&self) {
        tdsigma_obs::counter(&format!(
            "dispatch.{}.integrity_failures",
            self.client.addr()
        ))
        .inc();
        if !self.integrity_quarantined.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: backend {} integrity-quarantined: its report bytes disagree \
                 with redundant recomputation",
                self.client.addr(),
            );
        }
    }

    /// Health-checks the backend and compares its advertised engine
    /// fingerprint against this process's. Returns `true` only for a
    /// reachable backend with a matching fingerprint (clearing any skew
    /// mark); a mismatch marks the backend skewed and counts under
    /// `dispatch.<addr>.version_skew`.
    fn verify_fingerprint(&self) -> bool {
        match self.client.health() {
            Ok(h) if h.fingerprint == tdsigma_core::engine_fingerprint() => {
                self.skewed.store(false, Ordering::Relaxed);
                true
            }
            Ok(h) => {
                self.mark_skewed(&h.fingerprint);
                false
            }
            Err(_) => false,
        }
    }

    fn mark_skewed(&self, theirs: &str) {
        tdsigma_obs::counter(&format!("dispatch.{}.version_skew", self.client.addr())).inc();
        if !self.skewed.swap(true, Ordering::Relaxed) {
            let theirs = if theirs.is_empty() { "unknown" } else { theirs };
            eprintln!(
                "warning: backend {} excluded: engine fingerprint {} != local {}",
                self.client.addr(),
                theirs,
                tdsigma_core::engine_fingerprint(),
            );
        }
    }

    /// Whether a `retry_after_ms` cooldown from a busy rejection is
    /// still running.
    fn cooling(&self) -> bool {
        let guard = self
            .cooldown_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.is_some_and(|until| Instant::now() < until)
    }

    fn set_cooldown(&self, retry_after_ms: u64) {
        let mut guard = self
            .cooldown_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *guard = Some(Instant::now() + Duration::from_millis(retry_after_ms));
    }

    /// One full attempt: counters, RTT, breaker bookkeeping.
    fn attempt(&self, job: &Job) -> Result<JobReport, RemoteError> {
        let addr = self.client.addr();
        tdsigma_obs::counter(&format!("dispatch.{addr}.dispatched")).inc();
        let start = Instant::now();
        let result = self.client.run_job(job);
        tdsigma_obs::histogram(&format!("dispatch.{addr}.rtt")).record(start.elapsed());
        match &result {
            // A job-class rejection means the backend held up its end of
            // the protocol: the breaker records success.
            Ok(_) | Err(RemoteError::Job(_)) => self.breaker.record_success(),
            // Busy is a healthy backend protecting itself: success for
            // the breaker (it also resolves a half-open probe — the
            // peer answered), plus a rotation cooldown for as long as
            // it asked to be left alone.
            Err(RemoteError::Busy { retry_after_ms, .. }) => {
                tdsigma_obs::counter(&format!("dispatch.{addr}.shed_deferred")).inc();
                self.set_cooldown(*retry_after_ms);
                self.breaker.record_success();
            }
            Err(RemoteError::Backend(_)) => {
                tdsigma_obs::counter(&format!("dispatch.{addr}.failed")).inc();
                self.breaker.record_failure();
            }
        }
        self.gauge();
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
    /// Every candidate failed or was breaker-skipped.
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
                    client: RemoteClient::with_config(addr.clone(), config.remote.clone())
                        .with_faults(config.faults),
                    breaker: CircuitBreaker::new(config.breaker.clone()),
                    cooldown_until: Mutex::new(None),
                    skewed: AtomicBool::new(false),
                    integrity_quarantined: AtomicBool::new(false),
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

    /// Health-checks every backend once (the startup probe). Returns
    /// `(addr, health)` per backend; `None` marks an unreachable peer —
    /// which also seeds its breaker with a failure, so a fleet that is
    /// down at startup stops being retried almost immediately. A
    /// reachable backend advertising a different engine fingerprint is
    /// marked skewed here — registration is the first exclusion point —
    /// and the rotation will refuse to give it jobs.
    pub fn probe(&self) -> Vec<(String, Option<BackendHealth>)> {
        self.backends
            .iter()
            .map(|b| {
                let health = match b.client.health() {
                    Ok(h) => {
                        b.breaker.record_success();
                        if h.fingerprint == tdsigma_core::engine_fingerprint() {
                            b.skewed.store(false, Ordering::Relaxed);
                        } else {
                            b.mark_skewed(&h.fingerprint);
                        }
                        Some(h)
                    }
                    Err(_) => {
                        b.breaker.record_failure();
                        None
                    }
                };
                b.gauge();
                (b.client.addr().to_string(), health)
            })
            .collect()
    }

    /// Wraps this dispatcher as the engine's [`Runner`].
    pub fn into_runner(self: &Arc<Self>) -> Arc<Runner> {
        let this = Arc::clone(self);
        Arc::new(move |job: &Job| this.run_job(job))
    }

    /// Executes one job somewhere: rotation → failover → breaker →
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

    /// One pass over the rotation: rotation → failover → breaker,
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
                    if backend.quarantined() {
                        // Integrity quarantine is terminal for the run:
                        // no probe, no cooldown, no breaker claim.
                        continue;
                    }
                    if backend.cooling() {
                        // A busy rejection's retry_after is still
                        // running; skip without waking the backend.
                        note_busy(100);
                        continue;
                    }
                    if !backend.breaker.admit() {
                        backend.gauge();
                        continue;
                    }
                    // A marked-skewed backend, and every half-open
                    // probe, must re-prove fingerprint equality before
                    // carrying a job: the probe is how a replaced
                    // binary (matching again) rejoins the rotation, and
                    // how a mismatched one keeps its breaker open
                    // instead of corrupting results. A failed check
                    // resolves the admit() claim as a failure.
                    let half_open = backend.breaker.state() == BreakerState::HalfOpen;
                    if (half_open || backend.skewed()) && !backend.verify_fingerprint() {
                        backend.breaker.record_failure();
                        backend.gauge();
                        continue;
                    }
                    match backend.attempt(job) {
                        Ok(report) => {
                            let report = self.verify_sampled(backend, report, job);
                            return RoundOutcome::Done(Box::new(Ok(report)));
                        }
                        Err(RemoteError::Job(e)) => return RoundOutcome::Done(Box::new(Err(e))),
                        Err(RemoteError::Busy { retry_after_ms, .. }) => {
                            tdsigma_obs::counter(&format!(
                                "dispatch.{}.retried",
                                backend.client.addr()
                            ))
                            .inc();
                            note_busy(retry_after_ms);
                            continue;
                        }
                        Err(RemoteError::Backend(_)) => {
                            if slot + 1 < candidates.len() {
                                tdsigma_obs::counter(&format!(
                                    "dispatch.{}.retried",
                                    backend.client.addr()
                                ))
                                .inc();
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

    /// The first still-trusted backend other than `origin` to use as a
    /// verification peer, claiming its breaker admission. `None` when
    /// the rest of the fleet is untrusted, cooling, or breaker-rejected.
    fn verify_peer(&self, origin: &Arc<Backend>) -> Option<Arc<Backend>> {
        self.backends
            .iter()
            .find(|b| {
                !Arc::ptr_eq(b, origin)
                    && !b.quarantined()
                    && !b.skewed()
                    && !b.cooling()
                    && b.breaker.admit()
            })
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

    /// Snapshot of per-backend counters and breaker states for
    /// end-of-sweep reporting.
    pub fn summary(&self) -> DispatchSummary {
        let backends = self
            .backends
            .iter()
            .map(|b| {
                let addr = b.client.addr();
                let get =
                    |what: &str| tdsigma_obs::counter(&format!("dispatch.{addr}.{what}")).get();
                BackendDispatchStats {
                    addr: addr.to_string(),
                    dispatched: get("dispatched"),
                    failed: get("failed"),
                    retried: get("retried"),
                    shed_deferred: get("shed_deferred"),
                    version_skew: get("version_skew"),
                    integrity_failures: get("integrity_failures"),
                    breaker_open: b.breaker.state() != BreakerState::Closed,
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
        spawn_backend_with_faults(crate::faults::FaultPlan::none())
    }

    fn spawn_backend_with_faults(
        faults: crate::faults::FaultPlan,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let runner: Arc<Runner> = Arc::new(|job: &Job| Ok(ok_report(job)));
        let engine = Arc::new(
            Engine::with_runner(
                EngineConfig {
                    pool: PoolConfig {
                        workers: 2,
                        retries: 0,
                        ..PoolConfig::default()
                    },
                    cache_dir: None,
                    faults,
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
                connect_attempts: 1,
                ..RemoteConfig::default()
            },
            ..DispatchConfig::default()
        }
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 30,
        });
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.admit());
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Closed, "below threshold");
        assert!(breaker.admit());
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open, "threshold trips");
        assert!(!breaker.admit(), "open rejects during cooldown");
        std::thread::sleep(Duration::from_millis(40));
        assert!(breaker.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(!breaker.admit(), "only one probe at a time");
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open, "failed probe re-opens");
        std::thread::sleep(Duration::from_millis(40));
        assert!(breaker.admit());
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed, "good probe closes");
        // A success clears the streak: one new failure does not trip.
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Closed);
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
        let mut config = fast_config(vec!["127.0.0.1:19".into()]);
        config.breaker = BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 60_000,
        };
        let dispatcher = Dispatcher::new(&config, local_runner());
        for _ in 0..5 {
            dispatcher.run_job(&Job::sim(40.0, 750e6, 5e6)).unwrap();
        }
        let summary = dispatcher.summary();
        assert!(summary.backends[0].breaker_open);
        assert_eq!(
            summary.backends[0].dispatched, 2,
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
        assert_eq!(
            dispatcher.backends[0].breaker.state(),
            BreakerState::Closed,
            "a healthy-but-full backend must never trip its breaker"
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

    #[test]
    fn mismatched_fingerprint_backend_is_excluded_not_trusted() {
        // A backend whose every supervision frame advertises a garbled
        // engine fingerprint: alive, fast — and not to be trusted.
        let (skewed, handle) = spawn_backend_with_faults(crate::faults::FaultPlan {
            seed: 11,
            wrong_fingerprint_permille: 1000,
            ..crate::faults::FaultPlan::none()
        });
        let dispatcher = Dispatcher::new(&fast_config(vec![skewed.to_string()]), local_runner());
        let probes = dispatcher.probe();
        assert!(
            probes[0].1.is_some(),
            "the backend is healthy at the transport level"
        );
        assert!(
            dispatcher.backends[0].skewed(),
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
        let rendered = summary.to_string();
        assert!(
            rendered.contains("DEGRADED: version_skew"),
            "the summary must flag the degradation: {rendered}"
        );
        stop_backend(skewed, handle);
    }

    #[test]
    fn backend_advertising_no_fingerprint_is_untrusted() {
        // A live peer whose health frame carries no `fingerprint` field
        // at all: absence of evidence is not a match.
        let unstamped = spawn_canned_backend(
            "{\"ok\":true,\"health\":{\"status\":\"ok\",\"workers\":2,\
             \"uptime_ms\":5,\"served_jobs\":0}}\n"
                .to_string(),
        );
        let dispatcher = Dispatcher::new(&fast_config(vec![unstamped.to_string()]), local_runner());
        assert!(dispatcher.probe()[0].1.is_some(), "the probe reaches it");
        assert!(
            dispatcher.backends[0].skewed(),
            "a missing fingerprint must mark the backend skewed"
        );
        for seed in 0..3u64 {
            let job = Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            };
            dispatcher.run_job(&job).expect("local absorbs the work");
        }
        let summary = dispatcher.summary();
        assert_eq!(
            summary.backends[0].dispatched, 0,
            "an unstamped backend must never receive a job: {summary}"
        );
        assert!(
            summary.to_string().contains("DEGRADED: version_skew"),
            "the summary must flag the degradation: {summary}"
        );
    }

    #[test]
    fn lying_backend_is_integrity_quarantined_and_verified_bytes_win() {
        // A backend that computes correctly, then perturbs a report
        // value while keeping the key (and a self-consistent
        // attestation) intact. Only redundant recomputation can catch
        // it.
        let (liar, handle) = spawn_backend_with_faults(crate::faults::FaultPlan {
            seed: 83,
            lying_backend_permille: 1000,
            ..crate::faults::FaultPlan::none()
        });
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
        assert!(
            dispatcher.backends[0].quarantined(),
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
        assert!(!dispatcher.backends[0].quarantined());
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
        assert!(
            dispatcher.backends[0].quarantined(),
            "the liar is integrity-quarantined"
        );
        assert!(
            !dispatcher.backends[1].quarantined(),
            "the honest peer keeps its standing"
        );
        assert_eq!(
            dispatcher.drain_verified(),
            vec![job.key()],
            "arbitration doubles as verification of the key"
        );
    }
}
