//! Micro-bench: the parallel job engine — batch throughput at 1/2/4
//! workers (cold cache, real behavioral sims) and the latency of a
//! cache-hit answer.

use std::hint::black_box;
use std::sync::Arc;
use tdsigma_bench::harness::BenchRunner;
use tdsigma_jobs::{Engine, EngineConfig, Job, PoolConfig};

/// A small-but-real sim job: low slice count, short capture, coarse
/// substeps, so one job is milliseconds, not seconds. 2048 cycles is the
/// floor that still leaves enough in-band FFT bins for SNDR analysis.
fn quick_job(seed: u64) -> Job {
    let mut job = Job::sim(40.0, 750e6, 5e6);
    job.slices = 2;
    job.samples = 2048;
    job.steps_per_cycle = 4;
    job.seed = seed;
    job
}

fn engine(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        pool: PoolConfig {
            workers,
            retries: 0,
            ..PoolConfig::default()
        },
        cache_dir: None,
        faults: Default::default(),
    })
    .expect("engine")
}

fn main() {
    let runner = BenchRunner::from_args();
    let jobs: Vec<Job> = (0..8).map(|i| quick_job(1000 + i)).collect();

    for workers in [1usize, 2, 4] {
        runner.bench(&format!("engine_batch8_cold_{workers}w"), || {
            // Fresh engine per iteration: cold cache, so all 8 jobs
            // execute and the worker count is what's being measured.
            let batch = engine(workers).run_batch(&jobs);
            assert_eq!(batch.metrics.executed, 8);
            black_box(batch.results.len())
        });
    }

    let warm = Arc::new(engine(2));
    warm.run_batch(&jobs);
    runner.bench("engine_cache_hit_submit_one", || {
        let report = warm.submit_one(&jobs[3]).expect("cached");
        black_box(report.sndr_db)
    });

    runner.bench("engine_batch8_warm_cache", || {
        let batch = warm.run_batch(&jobs);
        assert_eq!(batch.metrics.executed, 0, "warm cache executes nothing");
        black_box(batch.results.len())
    });
    runner.finish();
}
