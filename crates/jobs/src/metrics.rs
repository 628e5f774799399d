//! Outcome accounting for batches of jobs.
//!
//! [`BatchMetrics`] only counts: how much work ran, how much the cache
//! absorbed, what failed and what was retried. Every duration — per
//! attempt, per flow stage, per batch, per backoff sleep — is timed by
//! the [`tdsigma_obs`] spans and histograms, and the CLI's stage
//! breakdown reads them from there. Neither ever enters a
//! [`crate::JobReport`], which stays a pure function of the job
//! parameters (see the bit-identical guarantee).

use std::fmt;

/// Outcome counters for one batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs answered from the result cache.
    pub cache_hits: usize,
    /// Jobs answered by piggy-backing on an identical in-batch job.
    pub deduped: usize,
    /// Jobs that actually executed a flow.
    pub executed: usize,
    /// Jobs that failed after all retries.
    pub failed: usize,
    /// Extra attempts spent on retries across the batch.
    pub retried: usize,
    /// Jobs abandoned by cancellation.
    pub canceled: usize,
    /// Cache artifacts this engine would not replay — corrupt, or
    /// stamped by a different engine fingerprint — moved to the cache's
    /// `rejected/` directory and recomputed during this batch. Non-zero
    /// means the result store took damage or was written by another
    /// binary (the per-reason split is on `jobs.cache_rejected.*`).
    pub cache_rejected: usize,
    /// Completed jobs whose report could not be persisted to the disk
    /// cache (the job still succeeded; the result is just uncached, so a
    /// resume would recompute it).
    pub cache_store_failures: usize,
}

impl BatchMetrics {
    /// Fraction of jobs served from the cache (0–1).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }

    /// Adds this batch's outcome counters to the process-wide
    /// [`tdsigma_obs`] registry, under the same `jobs.*` namespace the
    /// pool and cache report into live.
    ///
    /// Only the fields that nothing else counts at the source are added
    /// here: retries, panics, backoff sleeps and cache rejections are
    /// recorded by the pool and cache as they happen (injected faults by
    /// the fault wrapper), so re-adding them would double-count.
    pub fn publish(&self) {
        use tdsigma_obs as obs;
        obs::counter("jobs.cache_hits").add(self.cache_hits as u64);
        obs::counter("jobs.deduped").add(self.deduped as u64);
        obs::counter("jobs.executed").add(self.executed as u64);
        obs::counter("jobs.failed").add(self.failed as u64);
        obs::counter("jobs.canceled").add(self.canceled as u64);
    }
}

impl fmt::Display for BatchMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch: {} jobs — {} executed, {} cache hits ({:.0} %), {} deduped, {} failed, \
             {} retried, {} canceled",
            self.jobs,
            self.executed,
            self.cache_hits,
            100.0 * self.cache_hit_rate(),
            self.deduped,
            self.failed,
            self.retried,
            self.canceled,
        )?;
        if self.cache_rejected > 0 || self.cache_store_failures > 0 {
            write!(
                f,
                "\nresilience: {} cache artifacts rejected, {} cache store failures",
                self.cache_rejected, self.cache_store_failures,
            )?;
        }
        Ok(())
    }
}

/// One backend's dispatch counters, snapshotted for end-of-sweep
/// reporting (the live values stream into `tdsigma-obs` under
/// `dispatch.<addr>.…`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendDispatchStats {
    /// Backend address (`host:port`).
    pub addr: String,
    /// Jobs sent to this backend.
    pub dispatched: u64,
    /// Backend-class failures of job attempts and health probes alike
    /// (unreachable, deadline, corrupt frame).
    pub failed: u64,
    /// Jobs that moved on to another candidate after failing here.
    pub retried: u64,
    /// Structured busy/shed rejections honored as cooldowns (never a
    /// strike — the backend was alive, just full).
    pub shed_deferred: u64,
    /// Times this backend was excluded for advertising an engine
    /// fingerprint different from the dispatching process's. Non-zero
    /// means a mixed-version fleet: the backend ran no jobs.
    pub version_skew: u64,
    /// Times this backend's report bytes disagreed with a redundant
    /// recomputation. Non-zero means the backend was caught lying and
    /// is integrity-quarantined for the rest of the run.
    pub integrity_failures: u64,
    /// Whether the backend was anything but Up or Away at snapshot time
    /// (printed as `breaker OPEN`).
    pub breaker_open: bool,
}

/// Fleet-level dispatch outcome: what ran where, and how degraded the
/// run was. `local_fallbacks > 0` means the whole fleet was unavailable
/// for at least one job — the signal an operator investigates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchSummary {
    /// Per-backend counters, in rotation order.
    pub backends: Vec<BackendDispatchStats>,
    /// Jobs that ran in-process because every backend was down/skipped.
    pub local_fallbacks: u64,
    /// Whether `local` was an intentional fleet member (its executions
    /// are then load sharing, not degradation).
    pub local_in_rotation: bool,
}

impl DispatchSummary {
    /// Whether any job had to degrade to last-resort local execution.
    pub fn degraded(&self) -> bool {
        self.local_fallbacks > 0
    }
}

impl fmt::Display for DispatchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dispatch:")?;
        for b in &self.backends {
            write!(
                f,
                "\n  {} — {} dispatched, {} failed, {} retried, breaker {}",
                b.addr,
                b.dispatched,
                b.failed,
                b.retried,
                if b.breaker_open { "OPEN" } else { "closed" },
            )?;
            if b.shed_deferred > 0 {
                write!(f, ", {} shed (deferred)", b.shed_deferred)?;
            }
            if b.version_skew > 0 {
                write!(f, ", version skew ×{}", b.version_skew)?;
            }
            if b.integrity_failures > 0 {
                write!(f, ", integrity ×{}", b.integrity_failures)?;
            }
        }
        if self.local_in_rotation {
            write!(f, "\n  local — rotation member")?;
        }
        let skewed = self.backends.iter().filter(|b| b.version_skew > 0).count();
        if skewed > 0 {
            write!(
                f,
                "\n  DEGRADED: version_skew — {skewed} backend(s) excluded for engine \
                 fingerprint mismatch"
            )?;
        }
        let lying = self
            .backends
            .iter()
            .filter(|b| b.integrity_failures > 0)
            .count();
        if lying > 0 {
            write!(
                f,
                "\n  DEGRADED: integrity — {lying} backend(s) quarantined for report bytes \
                 disagreeing with redundant recomputation"
            )?;
        }
        if self.degraded() {
            write!(
                f,
                "\n  DEGRADED: {} job(s) fell back to local execution",
                self.local_fallbacks
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_rate_handles_zero_and_computes() {
        assert_eq!(BatchMetrics::default().cache_hit_rate(), 0.0);
        let m = BatchMetrics {
            jobs: 8,
            cache_hits: 2,
            executed: 6,
            ..BatchMetrics::default()
        };
        assert!((m.cache_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes() {
        let m = BatchMetrics {
            jobs: 3,
            executed: 2,
            cache_hits: 1,
            ..BatchMetrics::default()
        };
        let text = m.to_string();
        assert!(text.starts_with("batch: 3 jobs"), "{text}");
        assert!(text.contains("2 executed, 1 cache hits"), "{text}");
        assert!(
            !text.contains("time:"),
            "durations live in the spans: {text}"
        );
        assert!(
            !text.contains("resilience"),
            "healthy batches stay quiet about faults"
        );
    }

    #[test]
    fn dispatch_summary_displays_degradation() {
        let s = DispatchSummary {
            backends: vec![BackendDispatchStats {
                addr: "10.0.0.7:4000".into(),
                dispatched: 12,
                failed: 3,
                retried: 3,
                shed_deferred: 2,
                version_skew: 0,
                integrity_failures: 0,
                breaker_open: true,
            }],
            local_fallbacks: 2,
            local_in_rotation: false,
        };
        assert!(s.degraded());
        let text = s.to_string();
        assert!(text.contains("10.0.0.7:4000"), "{text}");
        assert!(text.contains("breaker OPEN"), "{text}");
        assert!(text.contains("2 shed (deferred)"), "{text}");
        assert!(text.contains("DEGRADED: 2 job(s)"), "{text}");
        assert!(!text.contains("version_skew"), "{text}");
        let healthy = DispatchSummary::default();
        assert!(!healthy.degraded());
        assert!(!healthy.to_string().contains("DEGRADED"));
    }

    #[test]
    fn dispatch_summary_flags_version_skew() {
        let s = DispatchSummary {
            backends: vec![
                BackendDispatchStats {
                    addr: "10.0.0.7:4000".into(),
                    dispatched: 12,
                    failed: 0,
                    retried: 0,
                    shed_deferred: 0,
                    version_skew: 0,
                    integrity_failures: 0,
                    breaker_open: false,
                },
                BackendDispatchStats {
                    addr: "10.0.0.8:4000".into(),
                    dispatched: 0,
                    failed: 3,
                    retried: 0,
                    shed_deferred: 0,
                    version_skew: 3,
                    integrity_failures: 0,
                    breaker_open: true,
                },
            ],
            local_fallbacks: 0,
            local_in_rotation: false,
        };
        let text = s.to_string();
        assert!(text.contains("version skew ×3"), "{text}");
        assert!(
            text.contains("DEGRADED: version_skew — 1 backend(s) excluded"),
            "{text}"
        );
        assert!(!text.contains("integrity"), "{text}");
    }

    #[test]
    fn dispatch_summary_flags_integrity_quarantine() {
        let s = DispatchSummary {
            backends: vec![
                BackendDispatchStats {
                    addr: "10.0.0.7:4000".into(),
                    dispatched: 12,
                    failed: 0,
                    retried: 0,
                    shed_deferred: 0,
                    version_skew: 0,
                    integrity_failures: 0,
                    breaker_open: false,
                },
                BackendDispatchStats {
                    addr: "10.0.0.8:4000".into(),
                    dispatched: 5,
                    failed: 0,
                    retried: 0,
                    shed_deferred: 0,
                    version_skew: 0,
                    integrity_failures: 2,
                    breaker_open: false,
                },
            ],
            local_fallbacks: 0,
            local_in_rotation: false,
        };
        let text = s.to_string();
        assert!(text.contains("integrity ×2"), "{text}");
        assert!(
            text.contains("DEGRADED: integrity — 1 backend(s) quarantined"),
            "{text}"
        );
    }

    #[test]
    fn display_surfaces_degradation() {
        let m = BatchMetrics {
            jobs: 3,
            cache_rejected: 2,
            cache_store_failures: 5,
            ..BatchMetrics::default()
        };
        let text = m.to_string();
        assert!(text.contains("2 cache artifacts rejected"), "{text}");
        assert!(text.contains("5 cache store failures"), "{text}");
    }
}
