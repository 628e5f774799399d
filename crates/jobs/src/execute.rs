//! The default job runner: turns a [`Job`] into a [`JobReport`] by
//! driving the core simulator or the full design flow. Flow jobs go
//! through [`DesignFlow::evaluate`], so jobs that share a structure (the
//! amplitudes of a flow sweep, the electrical variants an optimizer
//! proposes) share one layout per process.
//!
//! Runners are deliberately plain functions `&Job → Result<JobReport>`
//! so the pool can be tested with injected runners (panicking, flaky,
//! slow) without touching the real flow. They time nothing themselves:
//! the `flow.build` span here, the flow's own stage spans and the pool's
//! `job.attempt` span carry every duration.

use crate::error::JobError;
use crate::job::{Job, JobKind};
use crate::report::JobReport;
use tdsigma_core::flow::DesignFlow;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::metrics::enob_from_sndr;
use tdsigma_dsp::spectrum::SpectrumScratch;
use tdsigma_obs as obs;

std::thread_local! {
    /// Per-thread DSP scratch: a pool worker analyzes every sim job it
    /// runs with reused window/twiddle/windowed buffers (bit-identical to
    /// the allocating path — see `SpectrumScratch`).
    static DSP_SCRATCH: std::cell::RefCell<SpectrumScratch> =
        std::cell::RefCell::new(SpectrumScratch::new());
}

/// Executes one job to completion on the calling thread.
///
/// Deterministic: the result depends only on the job parameters (every
/// stochastic input is drawn from the job's seed), never on scheduling.
///
/// # Errors
///
/// [`JobError::Invalid`] for a job [`Job::to_spec`] refuses,
/// [`JobError::Failed`] for flow errors.
pub fn execute(job: &Job) -> Result<JobReport, JobError> {
    let spec = job.to_spec()?;
    match job.kind {
        JobKind::SimTone => execute_sim(job, spec),
        JobKind::FullFlow => execute_flow(job, spec),
    }
}

fn execute_sim(job: &Job, spec: AdcSpec) -> Result<JobReport, JobError> {
    let mut sim = {
        let _span = obs::span("flow.build").attr("kind", "sim");
        AdcSimulator::new(spec).map_err(failed)?
    };

    let fin = job.input_frequency_hz();
    let amplitude = job.amplitude_rel * sim.spec().full_scale_v();
    let bw_hz = sim.spec().bw_hz;
    let capture = sim.run_tone(fin, amplitude, job.samples);
    let analysis = DSP_SCRATCH.with(|s| capture.analyze_with(bw_hz, &mut s.borrow_mut()));
    Ok(JobReport {
        key: job.key(),
        job: job.clone(),
        fin_hz: fin,
        sndr_db: analysis.sndr_db,
        enob: enob_from_sndr(analysis.sndr_db),
        power_mw: None,
        digital_fraction: None,
        area_mm2: None,
        fom_fj: None,
        timing_slack_ps: None,
    })
}

fn execute_flow(job: &Job, spec: AdcSpec) -> Result<JobReport, JobError> {
    let (flow, fin) = {
        let _span = obs::span("flow.build").attr("kind", "flow");
        let mut flow = DesignFlow::new(spec)
            .with_samples(job.samples)
            .with_amplitude(job.amplitude_rel);
        if let Some(fin) = job.fin_hz {
            flow = flow.with_input_frequency(fin);
        }
        let fin = flow.input_frequency_hz();
        (flow, fin)
    };

    let (r, physical) = flow.evaluate().map_err(failed)?;
    Ok(JobReport {
        key: job.key(),
        job: job.clone(),
        fin_hz: fin,
        sndr_db: r.sndr_db,
        enob: r.enob,
        power_mw: Some(r.power_mw),
        digital_fraction: Some(r.digital_fraction),
        area_mm2: Some(r.area_mm2),
        fom_fj: Some(r.fom_fj),
        timing_slack_ps: Some(physical.slack_ps),
    })
}

fn failed(e: impl std::fmt::Display) -> JobError {
    JobError::Failed {
        attempts: 1,
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sim_job() -> Job {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        job.slices = 2;
        // 2048 cycles keeps the test fast while leaving enough in-band
        // FFT bins for the SNDR analysis (bw·N/fs ≈ 13 bins).
        job.samples = 2048;
        job.steps_per_cycle = 4;
        job
    }

    #[test]
    fn sim_job_executes_deterministically() {
        let job = quick_sim_job();
        let a = execute(&job).unwrap();
        let b = execute(&job).unwrap();
        assert_eq!(a.to_text(), b.to_text(), "same job, same bits");
        assert!(a.sndr_db.is_finite());
        assert_eq!(a.power_mw, None);
        assert_eq!(a.key, job.key());
    }

    #[test]
    fn different_seed_different_result() {
        let job = quick_sim_job();
        let mut other = job.clone();
        other.seed = 31_337;
        let a = execute(&job).unwrap();
        let b = execute(&other).unwrap();
        assert_ne!(
            a.sndr_db, b.sndr_db,
            "a different die must measure differently"
        );
    }

    #[test]
    fn invalid_job_reports_invalid() {
        let mut job = quick_sim_job();
        job.slices = 0;
        match execute(&job) {
            Err(JobError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}
