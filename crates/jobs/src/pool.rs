//! The worker pool: `std::thread` workers draining a shared channel,
//! with per-job panic isolation, bounded retries, and cooperative
//! cancellation.
//!
//! Design notes:
//!
//! * One `mpsc` task channel feeds all workers (receiver behind a mutex —
//!   the lock is held only for the dequeue, never during execution).
//! * Every task carries its own reply channel, so completions never
//!   contend and callers can await jobs in any order.
//! * A panicking job is contained by `catch_unwind`: the worker thread
//!   survives, the panic becomes a [`JobError::Failed`] for that job
//!   only, and the rest of the batch is untouched.
//! * Retries happen in the worker, bounded by [`PoolConfig::retries`],
//!   with exponential backoff and deterministic per-(job, attempt)
//!   jitter ([`backoff_delay_ms`]); validation errors are never retried
//!   (same input, same failure).
//! * Cancellation is cooperative: a shared flag checked before each
//!   attempt and during backoff sleeps. In-flight flows finish; queued
//!   jobs drain as `Canceled`. [`WorkerPool::drain`] is the graceful
//!   shutdown: cancel, then join every worker.
//! * Fault injection ([`FaultPlan`]) is consulted before each attempt;
//!   the empty plan reduces to integer compares.

use crate::error::JobError;
use crate::faults::{AttemptFault, FaultPlan};
use crate::job::Job;
use crate::report::JobReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tdsigma_obs as obs;
use tdsigma_tech::{fnv1a64, Rng64};

/// A job runner: everything the pool knows about executing work. The
/// engine installs [`crate::execute::execute`]; tests inject hostile
/// runners (panicking, flaky, slow) to exercise the scheduler itself.
pub type Runner = dyn Fn(&Job) -> Result<JobReport, JobError> + Send + Sync;

/// Pool sizing and retry policy.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads. Clamped to at least 1.
    pub workers: usize,
    /// Extra attempts after a retryable failure (0 = fail fast).
    pub retries: u32,
    /// Base backoff before the first retry, ms; doubles per retry.
    /// 0 disables backoff (retries are immediate).
    pub backoff_base_ms: u64,
    /// Hard cap on any single backoff sleep, ms.
    pub backoff_max_ms: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: default_workers(),
            retries: 1,
            backoff_base_ms: 25,
            backoff_max_ms: 1_000,
        }
    }
}

/// The backoff to sleep before retry number `attempt` (the attempt just
/// failed): exponential in the attempt, capped at `max_ms`, plus a
/// deterministic jitter drawn from `(job_key, attempt)` so that a herd
/// of identical-phase retries decorrelates — but identically for every
/// run, keeping the schedule reproducible.
pub fn backoff_delay_ms(base_ms: u64, max_ms: u64, job_key: &str, attempt: u32) -> u64 {
    if base_ms == 0 || max_ms == 0 {
        return 0;
    }
    let exponent = attempt.saturating_sub(1).min(16);
    let exp = base_ms.saturating_mul(1u64 << exponent).min(max_ms);
    let seed = fnv1a64(job_key.as_bytes(), 0x9ae1_6a3b_2f90_404f).wrapping_add(attempt as u64);
    let jitter = Rng64::seed_from_u64(seed).gen_range(exp as usize / 2 + 1) as u64;
    (exp + jitter).min(max_ms)
}

/// Locks `mutex`, recovering from poison instead of panicking.
///
/// Every mutex in this crate guards plain values (a channel endpoint, a
/// handle list, a counter struct) whose invariants hold across any
/// single operation — no holder performs a multi-step update that a
/// panic could leave half-done. Job panics in particular are caught by
/// `catch_unwind` *before* any lock is taken, so a poisoned lock here
/// means a panic in unrelated code while merely reading or swapping the
/// value. Recovering is therefore always sound, and strictly better
/// than cascading one thread's panic into every worker and the serve
/// loop.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The machine's available parallelism (≥ 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What the pool sends back for one submitted job.
#[derive(Debug)]
pub struct JobOutcome {
    /// The report, or why there is none.
    pub result: Result<JobReport, JobError>,
    /// Attempts made (0 if the job never started).
    pub attempts: u32,
    /// Faults injected into this job by the active [`FaultPlan`].
    pub injected_faults: u32,
}

impl JobOutcome {
    /// An outcome for a job that never started.
    pub(crate) fn terminal(result: Result<JobReport, JobError>) -> Self {
        JobOutcome {
            result,
            attempts: 0,
            injected_faults: 0,
        }
    }
}

struct Task {
    job: Job,
    reply: mpsc::Sender<JobOutcome>,
    /// When the task entered the queue — dequeue-time minus this is the
    /// queue latency the `jobs.queue_wait` histogram records.
    submitted: Instant,
}

/// Liveness state one worker publishes for the watchdog: the time of its
/// last sign of life (ms since the pool epoch) and whether it currently
/// holds a job. Idle workers are parked in `recv()` and do not beat, so
/// stall detection only ever considers busy workers.
#[derive(Debug, Default)]
struct WorkerStatus {
    heartbeat_ms: AtomicU64,
    busy: AtomicBool,
}

impl WorkerStatus {
    fn beat(&self, epoch: Instant) {
        self.heartbeat_ms
            .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
    }
}

/// One worker's liveness as seen from outside the pool (the supervision
/// layer's view; see [`WorkerPool::heartbeats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHeartbeat {
    /// Worker index (matches the `tdsigma-job-worker-<i>` thread name).
    pub worker: usize,
    /// Whether the worker currently holds a job.
    pub busy: bool,
    /// Milliseconds since the worker last showed a sign of life. Only
    /// meaningful for busy workers — an idle worker's clock keeps
    /// counting from its last job.
    pub age_ms: u64,
}

/// A fixed set of worker threads executing submitted jobs.
pub struct WorkerPool {
    tx: Mutex<Option<mpsc::Sender<Task>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    cancel: Arc<AtomicBool>,
    workers: usize,
    /// Per-worker liveness, indexed like the worker threads.
    status: Vec<Arc<WorkerStatus>>,
    /// The zero point the heartbeat clocks count from.
    epoch: Instant,
}

impl WorkerPool {
    /// Spawns the workers with no fault injection.
    pub fn new(config: PoolConfig, runner: Arc<Runner>) -> Self {
        WorkerPool::with_faults(config, runner, FaultPlan::none())
    }

    /// Spawns the workers with a fault-injection plan consulted before
    /// every attempt (the empty plan injects nothing).
    pub fn with_faults(config: PoolConfig, runner: Arc<Runner>, faults: FaultPlan) -> Self {
        let workers = config.workers.max(1);
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let cancel = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let status: Vec<Arc<WorkerStatus>> = (0..workers)
            .map(|_| Arc::new(WorkerStatus::default()))
            .collect();
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let cancel = Arc::clone(&cancel);
                let runner = Arc::clone(&runner);
                let config = config.clone();
                let status = Arc::clone(&status[i]);
                // Invariant, not a hot path: thread spawn happens once at
                // pool construction and fails only when the OS is out of
                // threads/memory — a state no structured error could make
                // survivable. Panicking here is deliberate and documented.
                std::thread::Builder::new()
                    .name(format!("tdsigma-job-worker-{i}"))
                    .spawn(move || {
                        worker_loop(&rx, &cancel, &runner, &config, faults, &status, epoch)
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
            cancel,
            workers,
            status,
            epoch,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Every worker's liveness, for health endpoints and watchdogs.
    pub fn heartbeats(&self) -> Vec<WorkerHeartbeat> {
        let now_ms = self.epoch.elapsed().as_millis() as u64;
        self.status
            .iter()
            .enumerate()
            .map(|(worker, s)| WorkerHeartbeat {
                worker,
                busy: s.busy.load(Ordering::Relaxed),
                age_ms: now_ms.saturating_sub(s.heartbeat_ms.load(Ordering::Relaxed)),
            })
            .collect()
    }

    /// Number of workers that hold a job but have shown no sign of life
    /// for longer than `threshold_ms` — the watchdog's definition of a
    /// stalled worker. Idle workers never count (they beat only around
    /// jobs). `threshold_ms == 0` disables detection.
    pub fn stalled(&self, threshold_ms: u64) -> usize {
        if threshold_ms == 0 {
            return 0;
        }
        self.heartbeats()
            .iter()
            .filter(|h| h.busy && h.age_ms > threshold_ms)
            .count()
    }

    /// Submits a job; the returned receiver yields exactly one
    /// [`JobOutcome`] (immediately, if the pool is already closed).
    pub fn submit(&self, job: Job) -> mpsc::Receiver<JobOutcome> {
        let (reply, rx) = mpsc::channel();
        obs::counter("jobs.submitted").inc();
        match &*lock_unpoisoned(&self.tx) {
            Some(tx) => {
                let task = Task {
                    job,
                    reply,
                    submitted: Instant::now(),
                };
                if let Err(mpsc::SendError(task)) = tx.send(task) {
                    let _ = task
                        .reply
                        .send(JobOutcome::terminal(Err(JobError::PoolClosed)));
                }
            }
            None => {
                let _ = reply.send(JobOutcome::terminal(Err(JobError::PoolClosed)));
            }
        }
        rx
    }

    /// Requests cooperative cancellation: queued jobs resolve as
    /// [`JobError::Canceled`]; in-flight jobs run to completion.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    pub fn is_canceled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Closes the queue and joins every worker. Idempotent.
    pub fn shutdown(&self) {
        lock_unpoisoned(&self.tx).take();
        let handles: Vec<_> = lock_unpoisoned(&self.handles).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Graceful drain: in-flight jobs finish, queued jobs resolve as
    /// [`JobError::Canceled`], then every worker is joined. After this
    /// returns, new submissions report [`JobError::PoolClosed`].
    pub fn drain(&self) {
        self.cancel();
        self.shutdown();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("canceled", &self.is_canceled())
            .finish()
    }
}

/// Sleeps up to `ms`, waking every few ms to honor cancellation.
/// Returns the time actually slept.
fn cancellable_sleep(ms: u64, cancel: &AtomicBool) -> Duration {
    let started = Instant::now();
    let deadline = Duration::from_millis(ms);
    while started.elapsed() < deadline {
        if cancel.load(Ordering::SeqCst) {
            break;
        }
        let left = deadline - started.elapsed();
        std::thread::sleep(left.min(Duration::from_millis(5)));
    }
    started.elapsed()
}

#[allow(clippy::too_many_lines)]
fn worker_loop(
    rx: &Mutex<mpsc::Receiver<Task>>,
    cancel: &AtomicBool,
    runner: &Arc<Runner>,
    config: &PoolConfig,
    faults: FaultPlan,
    status: &WorkerStatus,
    epoch: Instant,
) {
    // Metric handles fetched once per worker: the per-job hot path below
    // is atomic adds only.
    let queue_wait = obs::histogram("jobs.queue_wait");
    let backoff_hist = obs::histogram("jobs.backoff");
    let retries_ctr = obs::counter("jobs.retries");
    let panics_ctr = obs::counter("jobs.panics");
    let faults_ctr = obs::counter("jobs.faults_injected");
    loop {
        // Hold the lock only for the dequeue.
        let task = match lock_unpoisoned(rx).recv() {
            Ok(task) => task,
            Err(_) => break, // queue closed: pool is shutting down
        };
        queue_wait.record(task.submitted.elapsed());
        status.busy.store(true, Ordering::Relaxed);
        status.beat(epoch);
        if cancel.load(Ordering::SeqCst) {
            let _ = task
                .reply
                .send(JobOutcome::terminal(Err(JobError::Canceled)));
            status.busy.store(false, Ordering::Relaxed);
            continue;
        }
        let key = task.job.key();
        let mut attempts = 0u32;
        let mut injected_faults = 0u32;
        let result = loop {
            attempts += 1;
            // One beat per attempt: retries of a live job keep the
            // watchdog quiet; an attempt that hangs stops beating.
            status.beat(epoch);
            let injected = faults.attempt_fault(&key, attempts);
            let latency_ms = faults.attempt_latency_ms(&key, attempts);
            if injected.is_some() || latency_ms > 0 {
                injected_faults += 1;
                faults_ctr.inc();
            }
            if latency_ms > 0 {
                std::thread::sleep(Duration::from_millis(latency_ms));
            }
            let attempt = {
                let _span = obs::span("job.attempt")
                    .attr("job", &key)
                    .attr("attempt", attempts);
                catch_unwind(AssertUnwindSafe(|| match injected {
                    Some(AttemptFault::Panic) => panic!("chaos: injected worker panic"),
                    Some(AttemptFault::Transient) => Err(JobError::Transient(
                        "chaos: injected transient failure".into(),
                    )),
                    None => runner(&task.job),
                }))
            };
            let may_retry = attempts <= config.retries && !cancel.load(Ordering::SeqCst);
            let retry_backoff = || {
                let delay = backoff_delay_ms(
                    config.backoff_base_ms,
                    config.backoff_max_ms,
                    &key,
                    attempts,
                );
                if delay > 0 {
                    backoff_hist.record(cancellable_sleep(delay, cancel));
                }
                // Canceled mid-backoff: give up instead of re-running.
                !cancel.load(Ordering::SeqCst)
            };
            match attempt {
                Ok(Ok(report)) => break Ok(report),
                Ok(Err(e)) if e.is_retryable() && may_retry => {
                    if retry_backoff() {
                        retries_ctr.inc();
                        continue;
                    }
                    break Err(JobError::Canceled);
                }
                Ok(Err(e)) => {
                    break match e {
                        JobError::Invalid(m) => Err(JobError::Invalid(m)),
                        JobError::Failed { message, .. } => {
                            Err(JobError::Failed { attempts, message })
                        }
                        other => Err(JobError::Failed {
                            attempts,
                            message: other.to_string(),
                        }),
                    };
                }
                Err(panic) => {
                    panics_ctr.inc();
                    if may_retry && retry_backoff() {
                        retries_ctr.inc();
                        continue;
                    }
                    break if cancel.load(Ordering::SeqCst) && may_retry {
                        Err(JobError::Canceled)
                    } else {
                        Err(JobError::Failed {
                            attempts,
                            message: format!("panic: {}", panic_message(&*panic)),
                        })
                    };
                }
            }
        };
        // A dropped receiver just means the caller stopped waiting.
        let _ = task.reply.send(JobOutcome {
            result,
            attempts,
            injected_faults,
        });
        status.beat(epoch);
        status.busy.store(false, Ordering::Relaxed);
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn dummy_report(job: &Job) -> JobReport {
        JobReport {
            key: job.key(),
            job: job.clone(),
            fin_hz: 1e6,
            sndr_db: 60.0,
            enob: 9.7,
            power_mw: None,
            digital_fraction: None,
            area_mm2: None,
            fom_fj: None,
            timing_slack_ps: None,
        }
    }

    fn job_with_seed(seed: u64) -> Job {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        job.seed = seed;
        job
    }

    #[test]
    fn executes_and_replies() {
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 2,
                retries: 0,
                ..PoolConfig::default()
            },
            Arc::new(|job: &Job| Ok(dummy_report(job))),
        );
        let outcome = pool.submit(job_with_seed(1)).recv().unwrap();
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.result.unwrap().sndr_db, 60.0);
    }

    #[test]
    fn panic_is_isolated_to_the_job() {
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 2,
                retries: 0,
                ..PoolConfig::default()
            },
            Arc::new(|job: &Job| {
                if job.seed == 13 {
                    panic!("injected fault on die 13");
                }
                Ok(dummy_report(job))
            }),
        );
        let bad = pool.submit(job_with_seed(13));
        let good: Vec<_> = (0..4).map(|s| pool.submit(job_with_seed(s))).collect();
        match bad.recv().unwrap().result {
            Err(JobError::Failed { message, .. }) => {
                assert!(message.contains("injected fault"), "message: {message}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        for rx in good {
            assert!(
                rx.recv().unwrap().result.is_ok(),
                "pool must survive the panic"
            );
        }
    }

    #[test]
    fn retries_recover_flaky_jobs_and_are_counted() {
        let failures = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&failures);
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                retries: 2,
                backoff_base_ms: 1,
                ..PoolConfig::default()
            },
            Arc::new(move |job: &Job| {
                if f.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("flaky");
                }
                Ok(dummy_report(job))
            }),
        );
        let outcome = pool.submit(job_with_seed(7)).recv().unwrap();
        assert_eq!(outcome.attempts, 3);
        assert!(outcome.result.is_ok());
    }

    #[test]
    fn invalid_errors_are_not_retried() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                retries: 5,
                ..PoolConfig::default()
            },
            Arc::new(move |_: &Job| {
                c.fetch_add(1, Ordering::SeqCst);
                Err(JobError::Invalid("bad spec".into()))
            }),
        );
        let outcome = pool.submit(job_with_seed(1)).recv().unwrap();
        assert!(matches!(outcome.result, Err(JobError::Invalid(_))));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "validation failures never retry"
        );
    }

    #[test]
    fn cancellation_drains_queued_jobs() {
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                retries: 0,
                ..PoolConfig::default()
            },
            Arc::new(|job: &Job| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Ok(dummy_report(job))
            }),
        );
        let receivers: Vec<_> = (0..6).map(|s| pool.submit(job_with_seed(s))).collect();
        pool.cancel();
        let outcomes: Vec<_> = receivers.into_iter().map(|rx| rx.recv().unwrap()).collect();
        let canceled = outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(JobError::Canceled)))
            .count();
        assert!(
            canceled >= 4,
            "queued jobs must drain as canceled, got {canceled}"
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_exponential_and_capped() {
        let key = "00112233445566778899aabbccddeeff";
        let schedule: Vec<u64> = (1..=8).map(|a| backoff_delay_ms(10, 200, key, a)).collect();
        let again: Vec<u64> = (1..=8).map(|a| backoff_delay_ms(10, 200, key, a)).collect();
        assert_eq!(schedule, again, "same key, same schedule");
        // Exponential envelope with jitter: delay_n ∈ [exp_n, 1.5·exp_n],
        // capped at max.
        for (i, &d) in schedule.iter().enumerate() {
            let exp = (10u64 << i).min(200);
            assert!(d >= exp, "attempt {}: {d} < {exp}", i + 1);
            assert!(
                d <= (exp + exp / 2).min(200),
                "attempt {}: {d} too large",
                i + 1
            );
        }
        assert!(schedule.iter().all(|&d| d <= 200), "cap must hold");
        // A different job jitters differently (with overwhelming
        // probability at least one attempt differs).
        let other: Vec<u64> = (1..=8)
            .map(|a| backoff_delay_ms(10, 200, "ffeeddccbbaa99887766554433221100", a))
            .collect();
        assert_ne!(schedule, other, "jitter must depend on the job key");
        // Disabled backoff is exactly zero.
        assert_eq!(backoff_delay_ms(0, 200, key, 3), 0);
    }

    #[test]
    fn backoff_jitter_is_deterministic_across_job_seeds() {
        // The schedule is a pure function of (key, attempt): recomputing
        // the whole seed × attempt grid yields the identical grid, so a
        // resumed run (or another machine) sleeps the same milliseconds.
        let grid = |_: ()| -> Vec<Vec<u64>> {
            (0..32u64)
                .map(|seed| {
                    let key = job_with_seed(seed).key();
                    (1..=6)
                        .map(|a| backoff_delay_ms(25, 1_000, &key, a))
                        .collect()
                })
                .collect()
        };
        let first = grid(());
        assert_eq!(first, grid(()), "the grid must be a pure function");
        // And the herd decorrelates: no two seeds share a full schedule.
        let unique: std::collections::HashSet<&Vec<u64>> = first.iter().collect();
        assert_eq!(
            unique.len(),
            first.len(),
            "32 seeds must not collide on a whole schedule"
        );
        // Saturation edges: an absurd attempt number clamps at the cap
        // instead of overflowing, and a zero cap disables backoff.
        let key = job_with_seed(0).key();
        let huge = backoff_delay_ms(25, 1_000, &key, 1_000_000);
        assert!(huge <= 1_000, "cap must hold at saturation, got {huge}");
        assert!(huge > 0, "saturated backoff still sleeps");
        assert_eq!(backoff_delay_ms(25, 0, &key, 3), 0);
    }

    #[test]
    fn backoff_is_applied_between_retries() {
        let failures = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&failures);
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                retries: 2,
                backoff_base_ms: 20,
                backoff_max_ms: 100,
            },
            Arc::new(move |job: &Job| {
                if f.fetch_add(1, Ordering::SeqCst) < 2 {
                    return Err(JobError::Transient("flaky resource".into()));
                }
                Ok(dummy_report(job))
            }),
        );
        let job = job_with_seed(5);
        let expected: f64 = (1..=2)
            .map(|a| backoff_delay_ms(20, 100, &job.key(), a) as f64)
            .sum();
        let started = Instant::now();
        let outcome = pool.submit(job).recv().unwrap();
        let waited_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(outcome.attempts, 3);
        assert!(outcome.result.is_ok());
        assert!(
            waited_ms >= expected * 0.9,
            "waited {waited_ms:.1} ms < expected backoff {expected:.1} ms"
        );
    }

    #[test]
    fn zero_retries_fail_fast_with_original_error() {
        let started = Instant::now();
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                retries: 0,
                backoff_base_ms: 10_000, // must never be slept
                ..PoolConfig::default()
            },
            Arc::new(|_: &Job| Err(JobError::Transient("boom from the flow".into()))),
        );
        let outcome = pool.submit(job_with_seed(1)).recv().unwrap();
        assert_eq!(outcome.attempts, 1);
        match outcome.result {
            Err(JobError::Failed { attempts, message }) => {
                assert_eq!(attempts, 1);
                assert!(message.contains("boom from the flow"), "message: {message}");
            }
            other => panic!("expected Failed with original message, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fail-fast must not sleep"
        );
    }

    #[test]
    fn injected_faults_are_deterministic_and_survivable() {
        let run = || -> Vec<(bool, u32)> {
            let pool = WorkerPool::with_faults(
                PoolConfig {
                    workers: 2,
                    retries: 4,
                    backoff_base_ms: 1,
                    backoff_max_ms: 4,
                },
                Arc::new(|job: &Job| Ok(dummy_report(job))),
                FaultPlan {
                    seed: 7,
                    panic_permille: 300,
                    transient_permille: 300,
                    ..FaultPlan::default()
                },
            );
            let receivers: Vec<_> = (0..16).map(|s| pool.submit(job_with_seed(s))).collect();
            receivers
                .into_iter()
                .map(|rx| {
                    let o = rx.recv().unwrap();
                    (o.result.is_ok(), o.attempts)
                })
                .collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fault pattern must not depend on scheduling");
        assert!(
            a.iter().any(|&(_, attempts)| attempts > 1),
            "some jobs must have been hit"
        );
        assert!(
            a.iter().filter(|&&(ok, _)| ok).count() >= 12,
            "retries should win against a 30%/30% fault mix"
        );
    }

    #[test]
    fn drain_finishes_inflight_cancels_queued_and_closes() {
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                retries: 0,
                ..PoolConfig::default()
            },
            Arc::new(|job: &Job| {
                std::thread::sleep(Duration::from_millis(20));
                Ok(dummy_report(job))
            }),
        );
        let receivers: Vec<_> = (0..6).map(|s| pool.submit(job_with_seed(s))).collect();
        pool.drain();
        let outcomes: Vec<_> = receivers.into_iter().map(|rx| rx.recv().unwrap()).collect();
        assert!(
            outcomes
                .iter()
                .all(|o| o.result.is_ok() || matches!(o.result, Err(JobError::Canceled))),
            "every job must resolve as finished or canceled"
        );
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o.result, Err(JobError::Canceled))),
            "queued jobs must drain as canceled"
        );
        let late = pool.submit(job_with_seed(99)).recv().unwrap();
        assert!(matches!(late.result, Err(JobError::PoolClosed)));
    }

    #[test]
    fn heartbeats_expose_stalled_workers() {
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 2,
                retries: 0,
                ..PoolConfig::default()
            },
            Arc::new(|job: &Job| {
                if job.seed == 1 {
                    // A "stalled" worker: holds the job far past the
                    // watchdog threshold used below.
                    std::thread::sleep(Duration::from_millis(300));
                }
                Ok(dummy_report(job))
            }),
        );
        assert_eq!(pool.heartbeats().len(), 2);
        assert_eq!(pool.stalled(50), 0, "idle pool has no stalls");

        let slow = pool.submit(job_with_seed(1));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(pool.stalled(50), 1, "the hung worker must be visible");
        assert_eq!(pool.stalled(0), 0, "threshold 0 disables detection");
        let busy: Vec<bool> = pool.heartbeats().iter().map(|h| h.busy).collect();
        assert_eq!(busy.iter().filter(|&&b| b).count(), 1);

        let _ = slow.recv().unwrap();
        // The worker beat on completion; give the flag a moment to settle.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.stalled(50), 0, "recovered worker stops counting");
    }

    #[test]
    fn submit_after_shutdown_reports_closed() {
        let pool = WorkerPool::new(
            PoolConfig {
                workers: 1,
                retries: 0,
                ..PoolConfig::default()
            },
            Arc::new(|job: &Job| Ok(dummy_report(job))),
        );
        pool.shutdown();
        let outcome = pool.submit(job_with_seed(1)).recv().unwrap();
        assert!(matches!(outcome.result, Err(JobError::PoolClosed)));
    }
}
