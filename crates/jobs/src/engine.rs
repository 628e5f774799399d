//! The engine: pool + cache + accounting behind one submission API.
//!
//! Batch submission ([`Engine::run_batch`]) is the sweep path: results
//! come back in input order, identical jobs inside one batch execute
//! once, cached jobs execute zero times, and a [`BatchMetrics`] tells
//! you exactly what happened. Single submission ([`Engine::submit_one`])
//! is the serve path: many threads may call it concurrently against the
//! same engine.
//!
//! The engine knows nothing of journals. A caller that wants crash
//! recovery journals the plan before [`Engine::run_batch`]; because every
//! result is filed in the cache as it lands, the cache alone answers
//! which planned jobs are done (see [`crate::journal`]).

use crate::cache::ResultCache;
use crate::error::JobError;
use crate::execute;
use crate::job::Job;
use crate::metrics::BatchMetrics;
use crate::pool::{JobOutcome, PoolConfig, Runner, WorkerPool};
use crate::report::JobReport;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use tdsigma_obs as obs;

/// Engine construction options.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads, retry budget and backoff policy.
    pub pool: PoolConfig,
    /// On-disk artifact store for the result cache; `None` → memory only.
    pub cache_dir: Option<PathBuf>,
}

/// Lifetime counters across every batch and serve request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Jobs answered (from cache or execution).
    pub jobs: usize,
    /// Answers served from the cache.
    pub cache_hits: usize,
    /// Jobs that executed a flow.
    pub executed: usize,
    /// Jobs that ultimately failed.
    pub failed: usize,
}

/// A parallel, cached job-execution engine.
pub struct Engine {
    pool: WorkerPool,
    cache: ResultCache,
    totals: Mutex<EngineTotals>,
}

/// What a batch run returns: per-job results in submission order, plus
/// the batch accounting.
#[derive(Debug)]
pub struct BatchReport {
    /// One result per submitted job, in submission order.
    pub results: Vec<Result<JobReport, JobError>>,
    /// Outcome counters (durations are on the `engine.batch` and
    /// `job.attempt` spans).
    pub metrics: BatchMetrics,
}

impl BatchReport {
    /// The successful reports, in submission order.
    pub fn reports(&self) -> Vec<&JobReport> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .collect()
    }
}

impl Engine {
    /// An engine running the real design flows.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the cache directory cannot be created.
    pub fn new(config: EngineConfig) -> Result<Self, JobError> {
        Engine::with_runner(config, Arc::new(execute::execute))
    }

    /// An engine with an injected runner: a [`crate::Dispatcher`], a
    /// runner wrapped by [`crate::FaultPlan::wrap`], or a test double.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the cache directory cannot be created.
    pub fn with_runner(config: EngineConfig, runner: Arc<Runner>) -> Result<Self, JobError> {
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::with_disk(dir)?,
            None => ResultCache::in_memory(),
        };
        Ok(Engine {
            pool: WorkerPool::new(config.pool, runner),
            cache,
            totals: Mutex::new(EngineTotals::default()),
        })
    }

    /// The result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Every worker's liveness: whether it holds a job, and how long
    /// since it last showed a sign of life.
    pub fn heartbeats(&self) -> Vec<crate::pool::WorkerHeartbeat> {
        self.pool.heartbeats()
    }

    /// Busy workers silent for longer than `threshold_ms` (0 disables).
    pub fn stalled_workers(&self, threshold_ms: u64) -> usize {
        self.pool.stalled(threshold_ms)
    }

    /// Requests cooperative cancellation of queued work.
    pub fn cancel(&self) {
        self.pool.cancel();
    }

    /// Graceful drain: in-flight jobs finish, queued jobs resolve as
    /// [`JobError::Canceled`], every worker is joined. Afterwards new
    /// submissions report [`JobError::PoolClosed`].
    pub fn shutdown(&self) {
        self.pool.drain();
    }

    /// Lifetime counters.
    pub fn totals(&self) -> EngineTotals {
        *crate::pool::lock_unpoisoned(&self.totals)
    }

    /// Runs a batch of jobs, returning results in submission order.
    ///
    /// Guarantees:
    /// * **Determinism** — each result is a pure function of its job; the
    ///   worker count changes only the wall clock.
    /// * **Caching** — jobs whose key is already filed execute zero flows;
    ///   identical jobs within the batch execute once.
    /// * **Isolation** — one panicking or failing job fails only itself.
    /// * **Durability** — every result is filed in the cache as it lands,
    ///   so a crashed batch re-run from its plan executes only the jobs
    ///   whose artifact never reached the cache.
    pub fn run_batch(&self, jobs: &[Job]) -> BatchReport {
        let _batch_span = obs::span("engine.batch").attr("jobs", jobs.len());
        let rejected_before = self.cache.rejected();
        let mut metrics = BatchMetrics {
            jobs: jobs.len(),
            ..BatchMetrics::default()
        };
        let mut slots: Vec<Option<Result<JobReport, JobError>>> = vec![None; jobs.len()];

        // Each job is a cache hit, a duplicate of an earlier job in the
        // batch, or submitted now.
        struct Pending {
            rx: mpsc::Receiver<JobOutcome>,
            slots: Vec<usize>,
        }
        let mut pending: Vec<Pending> = Vec::new();
        let mut by_key: HashMap<String, usize> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let key = job.key();
            if let Some(hit) = self.cache.get(&key) {
                metrics.cache_hits += 1;
                slots[i] = Some(Ok(hit));
                continue;
            }
            obs::counter("jobs.cache_misses").inc();
            if let Some(&pi) = by_key.get(&key) {
                metrics.deduped += 1;
                pending[pi].slots.push(i);
                continue;
            }
            by_key.insert(key, pending.len());
            pending.push(Pending {
                rx: self.pool.submit(job.clone()),
                slots: vec![i],
            });
        }

        for p in pending {
            let outcome =
                p.rx.recv()
                    .unwrap_or_else(|_| JobOutcome::terminal(Err(JobError::PoolClosed)));
            if outcome.attempts > 0 {
                metrics.executed += 1;
                metrics.retried += outcome.attempts.saturating_sub(1) as usize;
            }
            let shared: Result<JobReport, JobError> = match outcome.result {
                Ok(report) => {
                    if !self.store(&report) {
                        metrics.cache_store_failures += 1;
                    }
                    Ok(report)
                }
                Err(e) => {
                    match e {
                        JobError::Canceled => metrics.canceled += p.slots.len(),
                        _ => metrics.failed += p.slots.len(),
                    }
                    Err(e)
                }
            };
            for &slot in &p.slots {
                slots[slot] = Some(shared.clone());
            }
        }

        metrics.cache_rejected = self.cache.rejected() - rejected_before;
        let results: Vec<_> = slots
            .into_iter()
            .map(|s| s.expect("every slot filled by cache, dedup, or execution"))
            .collect();

        let mut totals = crate::pool::lock_unpoisoned(&self.totals);
        totals.jobs += metrics.jobs;
        totals.cache_hits += metrics.cache_hits;
        totals.executed += metrics.executed;
        totals.failed += metrics.failed;
        drop(totals);
        metrics.publish();
        BatchReport { results, metrics }
    }

    /// Answers one job — from the cache if possible, otherwise through
    /// the pool. Safe to call from many threads concurrently.
    ///
    /// # Errors
    ///
    /// Propagates the job's execution error.
    pub fn submit_one(&self, job: &Job) -> Result<JobReport, JobError> {
        let key = job.key();
        if let Some(hit) = self.cache.get(&key) {
            let mut totals = crate::pool::lock_unpoisoned(&self.totals);
            totals.jobs += 1;
            totals.cache_hits += 1;
            obs::counter("jobs.cache_hits").inc();
            return Ok(hit);
        }
        obs::counter("jobs.cache_misses").inc();
        let outcome = self
            .pool
            .submit(job.clone())
            .recv()
            .map_err(|_| JobError::PoolClosed)?;
        let mut totals = crate::pool::lock_unpoisoned(&self.totals);
        totals.jobs += 1;
        if outcome.attempts > 0 {
            totals.executed += 1;
            obs::counter("jobs.executed").inc();
        }
        if outcome.result.is_err() {
            totals.failed += 1;
            obs::counter("jobs.failed").inc();
        }
        drop(totals);
        if let Ok(report) = &outcome.result {
            self.store(report);
        }
        outcome.result
    }

    /// Files a result in the cache; false if the disk write failed. A
    /// store failure must not fail the job: the report is in hand and
    /// persistence is best-effort, but visibly so, under
    /// `jobs.cache_store_failures`.
    fn store(&self, report: &JobReport) -> bool {
        let Err(e) = self.cache.put(report) else {
            return true;
        };
        obs::counter("jobs.cache_store_failures").inc();
        if obs::tracing_enabled() {
            obs::event(
                "cache.store_failure",
                &[("key", report.key.clone()), ("error", e.to_string())],
            );
        }
        false
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers())
            .field("cache_dir", &self.cache.disk_dir())
            .field("totals", &self.totals())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An engine of `workers` threads, no retries and a cache in
    /// `cache_dir` (or memory), whose runner counts its executions.
    fn counting_engine(workers: usize, cache_dir: Option<PathBuf>) -> (Arc<AtomicUsize>, Engine) {
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let runner: Arc<Runner> = Arc::new(move |job: &Job| {
            c.fetch_add(1, Ordering::SeqCst);
            Ok(JobReport {
                key: job.key(),
                job: job.clone(),
                fin_hz: 1e6,
                sndr_db: 50.0 + job.seed as f64,
                enob: 8.0,
                power_mw: None,
                digital_fraction: None,
                area_mm2: None,
                fom_fj: None,
                timing_slack_ps: None,
            })
        });
        let pool = PoolConfig {
            workers,
            retries: 0,
            ..PoolConfig::default()
        };
        let config = EngineConfig { pool, cache_dir };
        (count, Engine::with_runner(config, runner).unwrap())
    }

    fn jobs_with_seeds(seeds: &[u64]) -> Vec<Job> {
        seeds
            .iter()
            .map(|&s| {
                let mut j = Job::sim(40.0, 750e6, 5e6);
                j.seed = s;
                j
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let (_, engine) = counting_engine(4, None);
        let jobs = jobs_with_seeds(&[5, 3, 9, 1, 7]);
        let batch = engine.run_batch(&jobs);
        let sndrs: Vec<f64> = batch
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().sndr_db)
            .collect();
        assert_eq!(sndrs, vec![55.0, 53.0, 59.0, 51.0, 57.0]);
        assert_eq!(batch.metrics.executed, 5);
    }

    #[test]
    fn in_batch_duplicates_execute_once() {
        let (count, engine) = counting_engine(2, None);
        let jobs = jobs_with_seeds(&[1, 2, 1, 1, 2]);
        let batch = engine.run_batch(&jobs);
        assert_eq!(count.load(Ordering::SeqCst), 2, "two distinct jobs");
        assert_eq!(batch.metrics.deduped, 3);
        assert_eq!(
            batch.results[0].as_ref().unwrap(),
            batch.results[2].as_ref().unwrap()
        );
    }

    #[test]
    fn second_batch_is_all_cache_hits() {
        let (count, engine) = counting_engine(2, None);
        let jobs = jobs_with_seeds(&[1, 2, 3]);
        let first = engine.run_batch(&jobs);
        assert_eq!(first.metrics.executed, 3);
        let second = engine.run_batch(&jobs);
        assert_eq!(second.metrics.executed, 0, "warm cache executes nothing");
        assert_eq!(second.metrics.cache_hits, 3);
        assert_eq!(count.load(Ordering::SeqCst), 3);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(
                a.as_ref().unwrap().to_text(),
                b.as_ref().unwrap().to_text(),
                "cached replay must be bit-identical"
            );
        }
    }

    #[test]
    fn submit_one_counts_a_cache_store_failure() {
        let dir = std::env::temp_dir().join(format!(
            "tdsigma_engine_store_failure_{}",
            std::process::id()
        ));
        let (_, engine) = counting_engine(1, Some(dir.clone()));
        // Pull the directory out from under the open cache: the artifact
        // write fails with a real OS error regardless of privileges.
        std::fs::remove_dir_all(&dir).unwrap();
        let failures = || obs::counter("jobs.cache_store_failures").get();
        let before = failures();
        let report = engine.submit_one(&jobs_with_seeds(&[4])[0]);
        assert_eq!(report.unwrap().sndr_db, 54.0, "the job still succeeds");
        assert!(failures() > before, "the lost artifact is counted");
    }

    #[test]
    fn totals_accumulate_across_batches() {
        let (_, engine) = counting_engine(1, None);
        let jobs = jobs_with_seeds(&[1, 2]);
        engine.run_batch(&jobs);
        engine.run_batch(&jobs);
        let totals = engine.totals();
        assert_eq!(totals.jobs, 4);
        assert_eq!(totals.executed, 2);
        assert_eq!(totals.cache_hits, 2);
    }
}
