//! Dry-run planning: what a batch *would* do, without executing it.
//!
//! `tdsigma sweep --dry-run` and `tdsigma optimize --dry-run` both need
//! the same answer — given a job list and the current cache, how many
//! jobs are planned, how many are in-batch duplicates, how many the
//! cache already answers, and how many flows would actually run. The
//! classification here mirrors [`crate::engine::Engine::run_batch`]
//! exactly (cache hit → dedup → execute), so the preview's prediction
//! matches what the real run will report. A `--resume` banner counts the
//! planned jobs this preview finds cached: the cache is the only record
//! of which jobs finished.

use crate::cache::ResultCache;
use crate::job::Job;
use std::collections::HashSet;

/// One previewed job and its predicted disposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRow {
    /// The job's content-addressed key.
    pub key: String,
    /// The job itself.
    pub job: Job,
    /// Predicted to be answered from the cache.
    pub cached: bool,
    /// Duplicate of an earlier job in the same batch (executes zero
    /// additional flows regardless of cache state).
    pub duplicate: bool,
}

/// The predicted shape of a batch: counts plus per-job rows.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPreview {
    /// Jobs submitted.
    pub jobs: usize,
    /// Distinct job keys.
    pub unique: usize,
    /// In-batch duplicates (`jobs - unique`).
    pub duplicates: usize,
    /// Distinct keys the cache already answers.
    pub cache_hits: usize,
    /// Distinct keys that would execute a flow.
    pub to_execute: usize,
    /// Per-job dispositions, in submission order.
    pub rows: Vec<PlanRow>,
}

impl PlanPreview {
    /// Classifies `jobs` against `cache` (`None` → everything is a
    /// predicted miss) without executing anything.
    pub fn of(jobs: &[Job], cache: Option<&ResultCache>) -> Self {
        let mut seen: HashSet<String> = HashSet::new();
        let mut rows = Vec::with_capacity(jobs.len());
        let mut cache_hits = 0usize;
        let mut to_execute = 0usize;
        for job in jobs {
            let key = job.key();
            let duplicate = !seen.insert(key.clone());
            let cached = cache.is_some_and(|c| c.contains(&key));
            if !duplicate {
                if cached {
                    cache_hits += 1;
                } else {
                    to_execute += 1;
                }
            }
            rows.push(PlanRow {
                key,
                job: job.clone(),
                cached,
                duplicate,
            });
        }
        PlanPreview {
            jobs: jobs.len(),
            unique: seen.len(),
            duplicates: jobs.len() - seen.len(),
            cache_hits,
            to_execute,
            rows,
        }
    }

    /// The one-line summary (`N jobs: U unique, D duplicates, H cached,
    /// X to execute`).
    pub fn summary(&self) -> String {
        format!(
            "{} job(s): {} unique, {} in-batch duplicate(s), \
             {} predicted cache hit(s), {} to execute",
            self.jobs, self.unique, self.duplicates, self.cache_hits, self.to_execute
        )
    }

    /// The human-readable plan table, one row per job.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>10} {:>6} {:>7} {:>9} {:>8} {:>8} {:>6} {:>10}\n",
            "key", "node", "slices", "fs[MHz]", "samples", "rdac[Ω]", "kind", "plan"
        ));
        for row in &self.rows {
            let plan = if row.duplicate {
                "dup"
            } else if row.cached {
                "cached"
            } else {
                "execute"
            };
            let rdac = if row.job.rdac_ohm == 0.0 {
                "-".to_string()
            } else {
                format!("{:.0}", row.job.rdac_ohm)
            };
            out.push_str(&format!(
                "{:>10} {:>6} {:>7} {:>9.0} {:>8} {:>8} {:>6} {:>10}\n",
                &row.key[..10.min(row.key.len())],
                format!("{:.0}", row.job.node_nm),
                row.job.slices,
                row.job.fs_hz / 1e6,
                row.job.samples,
                rdac,
                row.job.kind.as_str(),
                plan,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn preview_counts_duplicates_and_misses() {
        let jobs = jobs_with_seeds(&[1, 2, 1, 3, 2]);
        let p = PlanPreview::of(&jobs, None);
        assert_eq!(p.jobs, 5);
        assert_eq!(p.unique, 3);
        assert_eq!(p.duplicates, 2);
        assert_eq!(p.cache_hits, 0);
        assert_eq!(p.to_execute, 3);
        assert!(p.rows[2].duplicate && p.rows[4].duplicate);
        assert!(p.summary().contains("3 to execute"));
    }

    #[test]
    fn preview_predicts_cache_hits() {
        use crate::report::JobReport;
        let cache = ResultCache::in_memory();
        let jobs = jobs_with_seeds(&[1, 2]);
        cache
            .put(&JobReport {
                key: jobs[0].key(),
                job: jobs[0].clone(),
                fin_hz: 1e6,
                sndr_db: 60.0,
                enob: 9.7,
                power_mw: None,
                digital_fraction: None,
                area_mm2: None,
                fom_fj: None,
                timing_slack_ps: None,
            })
            .unwrap();
        let p = PlanPreview::of(&jobs, Some(&cache));
        assert_eq!(p.cache_hits, 1);
        assert_eq!(p.to_execute, 1);
        assert!(p.rows[0].cached && !p.rows[1].cached);
        let table = p.table();
        assert!(
            table.contains("cached") && table.contains("execute"),
            "{table}"
        );
    }

    #[test]
    fn duplicate_of_cached_job_counts_once() {
        let jobs = jobs_with_seeds(&[7, 7]);
        let p = PlanPreview::of(&jobs, None);
        assert_eq!(p.unique, 1);
        assert_eq!(p.to_execute, 1);
        assert_eq!(p.duplicates, 1);
    }
}
