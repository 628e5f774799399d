//! **ABL4** — §2.2 spec-adaptation knobs: "to increase the effective
//! quantizer resolution, we can simply add more slices. To widen the
//! signal bandwidth, we can increase the clock frequency. To increase
//! SQNR, we can boost the loop gain."
//!
//! All five knob sweeps are submitted as one batch to the parallel job
//! engine: the 18 simulations run concurrently, results land in
//! `results/cache/` so a re-run is free, and the reports are
//! bit-identical to the old serial loop (a [`Job`] materializes the
//! same [`tdsigma_core::AdcSpec`] the knobs used to mutate).

use tdsigma_jobs::{Engine, EngineConfig, Job, JobReport};

const NODE_NM: f64 = 40.0;
const FS_HZ: f64 = 750e6;
const BW_HZ: f64 = 5e6;
const N: usize = 8192;

fn base_job() -> Job {
    let mut job = Job::sim(NODE_NM, FS_HZ, BW_HZ);
    job.samples = N;
    job
}

fn main() {
    println!("=== §2.2 ablation: the architecture's scaling knobs ===\n");

    let slices = [1usize, 2, 4, 8, 16];
    let clock_scales = [0.5f64, 1.0, 2.0];
    let gains = [0.25f64, 0.5, 1.0, 1.5];
    let bw_scales = [4.0f64, 2.0, 1.0, 0.5];
    let stages = [1usize, 2, 4, 8];

    let mut jobs: Vec<Job> = Vec::new();
    for &s in &slices {
        let mut job = base_job();
        job.slices = s;
        jobs.push(job);
    }
    for &scale in &clock_scales {
        // The paper's "increase the clock" knob: vco_f0 and kvco both
        // derive from fs, so the spec at the scaled clock scales them too.
        let mut job = base_job();
        job.fs_hz = FS_HZ * scale;
        job.bw_hz = BW_HZ * scale;
        jobs.push(job);
    }
    for &gain in &gains {
        let mut job = base_job();
        job.loop_gain = gain;
        jobs.push(job);
    }
    for &scale in &bw_scales {
        let mut job = base_job();
        job.bw_hz = BW_HZ * scale;
        jobs.push(job);
    }
    for &st in &stages {
        let mut job = base_job();
        job.vco_stages = st;
        jobs.push(job);
    }

    let engine = Engine::new(EngineConfig {
        cache_dir: Some("results/cache".into()),
        ..EngineConfig::default()
    })
    .expect("engine");
    let batch = engine.run_batch(&jobs);
    let sndr = |i: usize| -> f64 {
        batch.results[i]
            .as_ref()
            .map(|r: &JobReport| r.sndr_db)
            .expect("job succeeds")
    };
    let mut i = 0usize;
    let mut take = |count: usize| -> Vec<f64> {
        let out: Vec<f64> = (i..i + count).map(&sndr).collect();
        i += count;
        out
    };

    println!("knob 1 — slices (effective quantizer resolution):");
    for (s, db) in slices.iter().zip(take(slices.len())) {
        println!("  {s:>2} slices → SNDR {db:>5.1} dB");
    }

    println!("\nknob 2 — clock frequency (signal bandwidth at constant OSR):");
    for (scale, db) in clock_scales.iter().zip(take(clock_scales.len())) {
        println!(
            "  fs {:>5.0} MHz, BW {:>4.1} MHz → SNDR {db:>5.1} dB",
            FS_HZ * scale / 1e6,
            BW_HZ * scale / 1e6,
        );
    }

    println!("\nknob 3 — loop gain (Kvco / DAC current):");
    for (gain, db) in gains.iter().zip(take(gains.len())) {
        println!("  {gain:>4.2}x loop gain → SNDR {db:>5.1} dB");
    }

    println!("\nknob 4 — OSR (bandwidth at fixed clock; first-order shaping ⇒");
    println!("          ~9 dB per octave of oversampling):");
    for (scale, db) in bw_scales.iter().zip(take(bw_scales.len())) {
        println!(
            "  OSR {:>5.1} → SNDR {db:>5.1} dB",
            FS_HZ / (2.0 * BW_HZ * scale)
        );
    }

    println!("\nknob 5 — quantizer taps (ring stages): the multi-phase quantizer");
    println!("          is where the per-slice resolution comes from:");
    for (st, db) in stages.iter().zip(take(stages.len())) {
        println!("  {st:>2} taps/slice → SNDR {db:>5.1} dB");
    }

    println!("\n{}", batch.metrics);
}
