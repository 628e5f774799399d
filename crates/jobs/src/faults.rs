//! Deterministic fault injection for the job engine.
//!
//! A [`FaultPlan`] is a seeded description of which job attempts to
//! sabotage: worker panics, transient retryable errors and artificial
//! latency. It enters the engine in one place only, the [`Runner`]:
//! [`FaultPlan::wrap`] hands back a runner that consults the plan before
//! each call and then runs the real one. Every other failure class is
//! exercised by the real thing — damaged bytes on disk for the cache,
//! hostile peers on real sockets for the wire, a lying runner behind a
//! real `serve` for result integrity, and an overridden engine
//! fingerprint for version skew (see DESIGN §8).
//!
//! The load-bearing property is **determinism independent of
//! scheduling**: every decision is a pure function of `(plan seed, fault
//! site, job key, attempt)`, hashed into a dedicated [`Rng64`] stream.
//! Two runs with the same plan inject the same faults at the same
//! places no matter how many workers raced for the jobs, which is what
//! lets the chaos suite assert byte-identical recovery.

use crate::error::JobError;
use crate::job::Job;
use crate::pool::{lock_unpoisoned, Runner};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tdsigma_tech::{fnv1a64, Rng64, FNV1A64_BASIS};

/// Where a fault decision is being made. Each site hashes into an
/// independent decision stream so that, e.g., raising the panic rate
/// does not reshuffle which attempts get latency. The discriminants
/// seed those streams, so they are fixed: a retired site's number
/// (4 to 13) is never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Panic = 1,
    Transient = 2,
    Latency = 3,
}

/// A seeded, deterministic fault-injection plan. All rates are permille
/// (0–1000); the zero plan injects nothing and wraps nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for every decision stream. Two plans with equal rates but
    /// different seeds inject faults in different places.
    pub seed: u64,
    /// Chance a job attempt panics inside the worker.
    pub panic_permille: u16,
    /// Chance a job attempt fails with a transient retryable error.
    pub transient_permille: u16,
    /// Upper bound on artificial latency added to an attempt, ms
    /// (actual latency is drawn uniformly from `[0, max]`).
    pub latency_ms_max: u64,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The standard chaotic mix used by `--chaos-seed N` and the chaos
    /// suite: every class enabled at rates low enough that a retry
    /// budget of 3 usually (but not always) wins.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_permille: 120,
            transient_permille: 200,
            latency_ms_max: 3,
        }
    }

    /// True if no fault class is enabled.
    pub fn is_empty(&self) -> bool {
        self.panic_permille == 0 && self.transient_permille == 0 && self.latency_ms_max == 0
    }

    /// `runner` with this plan's faults in front of every call; the
    /// empty plan hands `runner` back untouched. The n-th call for a job
    /// key is that job's attempt n — the pool runs one job's attempts in
    /// order on one worker, so this is the pool's own attempt count.
    /// Each attempt that draws a fault (latency included) counts once on
    /// `jobs.faults_injected`.
    pub fn wrap(self, runner: Arc<Runner>) -> Arc<Runner> {
        if self.is_empty() {
            return runner;
        }
        let attempts = Mutex::new(HashMap::<String, u32>::new());
        let fired = tdsigma_obs::counter("jobs.faults_injected");
        Arc::new(move |job: &Job| {
            let key = job.key();
            let attempt = {
                let mut seen = lock_unpoisoned(&attempts);
                let n = seen.entry(key.clone()).or_insert(0);
                *n += 1;
                *n
            };
            let panics = self.hit(Site::Panic, &key, attempt, self.panic_permille);
            let transient = self.hit(Site::Transient, &key, attempt, self.transient_permille);
            let latency_ms = self.latency_ms(&key, attempt);
            if panics || transient || latency_ms > 0 {
                fired.inc();
            }
            if latency_ms > 0 {
                std::thread::sleep(Duration::from_millis(latency_ms));
            }
            // Panic takes precedence over transient so the two rates
            // never mask each other's determinism.
            if panics {
                panic!("chaos: injected worker panic");
            }
            if transient {
                return Err(JobError::Transient(
                    "chaos: injected transient failure".into(),
                ));
            }
            runner(job)
        })
    }

    /// Artificial latency for this attempt, ms (0 when disabled).
    fn latency_ms(&self, key: &str, attempt: u32) -> u64 {
        if self.latency_ms_max == 0 {
            return 0;
        }
        let mut rng = self.stream(Site::Latency, key, attempt);
        rng.gen_range(self.latency_ms_max as usize + 1) as u64
    }

    /// One permille draw from the decision stream for `(site, key,
    /// attempt)`.
    fn hit(&self, site: Site, key: &str, attempt: u32, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        if permille >= 1000 {
            return true;
        }
        self.stream(site, key, attempt).gen_range(1000) < permille as usize
    }

    /// The dedicated RNG stream for one decision point.
    fn stream(&self, site: Site, key: &str, attempt: u32) -> Rng64 {
        let mut h = fnv1a64(key.as_bytes(), FNV1A64_BASIS ^ self.seed);
        h = h
            .wrapping_mul(31)
            .wrapping_add(site as u64)
            .wrapping_mul(31)
            .wrapping_add(attempt as u64);
        Rng64::seed_from_u64(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JobReport;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// What one call of `runner` did: `Ok` ran through, `Err(true)`
    /// panicked, `Err(false)` failed transiently.
    fn call(runner: &Runner, job: &Job) -> Result<(), bool> {
        match catch_unwind(AssertUnwindSafe(|| runner(job))) {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => {
                assert!(e.is_retryable(), "{e}");
                Err(false)
            }
            Err(_) => Err(true),
        }
    }

    fn honest() -> Arc<Runner> {
        Arc::new(|job: &Job| {
            Ok(JobReport {
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
            })
        })
    }

    fn jobs(n: u64) -> Vec<Job> {
        (0..n)
            .map(|seed| Job {
                seed,
                ..Job::sim(40.0, 750e6, 5e6)
            })
            .collect()
    }

    /// Three attempts of each job under `plan`, in order.
    fn decisions(plan: FaultPlan, jobs: &[Job]) -> Vec<Result<(), bool>> {
        let runner = plan.wrap(honest());
        jobs.iter()
            .flat_map(|job| (0..3).map(|_| call(&*runner, job)).collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn empty_plan_hands_the_runner_back() {
        let runner = honest();
        let wrapped = FaultPlan::none().wrap(Arc::clone(&runner));
        assert!(Arc::ptr_eq(&runner, &wrapped), "no wrapper, no cost");
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_seed_matters() {
        let jobs = jobs(100);
        let a = decisions(FaultPlan::chaos(42), &jobs);
        assert_eq!(a, decisions(FaultPlan::chaos(42), &jobs));
        assert_ne!(
            a,
            decisions(FaultPlan::chaos(43), &jobs),
            "seed must matter"
        );
    }

    #[test]
    fn chaos_plan_actually_fires_every_class() {
        let plan = FaultPlan::chaos(2017);
        assert!(!plan.is_empty(), "chaos plan is never empty");
        let outcomes = decisions(plan, &jobs(200));
        let panics = outcomes.iter().filter(|o| **o == Err(true)).count();
        let transients = outcomes.iter().filter(|o| **o == Err(false)).count();
        assert!(panics > 30, "panic class silent: {panics}");
        assert!(transients > 60, "transient class silent: {transients}");
        let latencies = (0..500u32)
            .filter(|i| plan.latency_ms(&format!("{i:08x}"), 1) > 0)
            .count();
        assert!(latencies > 100, "latency class silent: {latencies}");
    }
}
