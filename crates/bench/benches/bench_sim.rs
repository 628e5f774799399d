//! Micro-bench: behavioral ADC simulation throughput at both paper
//! nodes, its sensitivity to the substep count and to each noise
//! source, the raw normal sampler, and the single-run transient +
//! spectrum path a design-space evaluation pays per candidate.
//!
//! The throughput, noise and substep cases time the metered kernel
//! (`run_tone_metered`, what a flow's power estimate needs), and
//! `adc_sim_codes_40nm_2048cyc` the codes-only one (`run_tone`) beside
//! `adc_sim_run_tone_40nm_2048cyc`. The transient + spectrum cases take
//! the path of a sim-kind evaluation, which is codes-only.
//!
//! `cargo bench --bench bench_sim -- --save ../../BENCH_sim.json`
//! refreshes the checked-in baseline and `-- --compare
//! ../../BENCH_sim.json` gates the current build against it (paths are
//! relative to `crates/bench`, where cargo runs bench binaries; the CI
//! `perf` job runs the gate).

use std::hint::black_box;
use tdsigma_bench::harness::BenchRunner;
use tdsigma_circuit::noise::SimRng;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::spectrum::SpectrumScratch;
use tdsigma_dsp::window::Window;

fn main() {
    let runner = BenchRunner::from_args();
    let cycles = 2_048usize;
    for (label, spec) in [
        ("40nm", AdcSpec::paper_40nm().expect("spec")),
        ("180nm", AdcSpec::paper_180nm().expect("spec")),
    ] {
        runner.bench(&format!("adc_sim_run_tone_{label}_{cycles}cyc"), || {
            let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
            black_box(sim.run_tone_metered(1e6, 0.1, cycles))
        });
    }
    let spec = AdcSpec::paper_40nm().expect("spec");
    runner.bench(&format!("adc_sim_codes_40nm_{cycles}cyc"), || {
        let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
        black_box(sim.run_tone(1e6, 0.1, cycles))
    });

    // Two corners of the optimizer's search at 40 nm: one slice, where
    // the fixed cost of a step (the input tone's `sin`, the clock, the
    // loop itself) dominates, and 16 slices of 3 stages at loop gain
    // 2.0, where the per-slice passes and the data-dependent branches
    // cost the most.
    let base = AdcSpec::paper_40nm().expect("spec");
    let one_slice = base.clone().with_slices(1).expect("spec");
    let mut heavy = base.with_slices(16).expect("spec");
    heavy.vco_stages = 3;
    heavy.kvco_hz_per_v *= 2.0;
    for (label, spec) in [
        ("1slice", one_slice),
        ("16slice_3stage_gain2", heavy.validated().expect("spec")),
    ] {
        let name = format!("adc_sim_run_tone_40nm_{label}_{cycles}cyc");
        runner.bench(&name, || {
            let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
            black_box(sim.run_tone_metered(1e6, 0.1, cycles))
        });
    }

    // The noise sources toggled off one at a time at the 40 nm point,
    // against `adc_sim_run_tone_40nm_2048cyc` (every source on): what
    // each costs per step, and the noise-free arithmetic floor.
    let mut no_thermal = AdcSpec::paper_40nm().expect("spec");
    no_thermal.thermal_noise = false;
    let mut no_phase_noise = AdcSpec::paper_40nm().expect("spec");
    no_phase_noise.phase_noise_per_sqrt_hz = 0.0;
    let mut no_noise = no_thermal.clone();
    no_noise.phase_noise_per_sqrt_hz = 0.0;
    no_noise.clock_jitter_rms_s = 0.0;
    no_noise.comparator_noise_v = 0.0;
    for (label, spec) in [
        ("no_thermal", no_thermal),
        ("no_phase_noise", no_phase_noise),
        ("no_noise", no_noise),
    ] {
        runner.bench(&format!("adc_sim_{label}_40nm_{cycles}cyc"), || {
            let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
            black_box(sim.run_tone_metered(1e6, 0.1, cycles))
        });
    }

    // The raw normal sampler the transient draws every noise value from.
    let mut rng = SimRng::new(1);
    runner.bench("sim_standard_normal_1m", || {
        let mut acc = 0.0;
        for _ in 0..1_000_000 {
            acc += rng.standard_normal();
        }
        black_box(acc)
    });

    for steps in [8usize, 16, 32] {
        let mut spec = AdcSpec::paper_40nm().expect("spec");
        spec.steps_per_cycle = steps;
        runner.bench(&format!("adc_sim_substeps_{steps}"), || {
            let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
            black_box(sim.run_tone_metered(1e6, 0.1, 512))
        });
    }

    // The per-candidate cost of one optimizer evaluation at sim kind:
    // transient capture plus windowed spectrum (the SNDR path), at three
    // capture sizes so both the per-step and the FFT-bound regimes are
    // visible in the baseline.
    let spec = AdcSpec::paper_40nm().expect("spec");
    let mut scratch = SpectrumScratch::new();
    for n in [512usize, 2_048, 8_192] {
        runner.bench(&format!("adc_sim_transient_spectrum_{n}cyc"), || {
            let mut sim = AdcSimulator::new(spec.clone()).expect("simulator");
            let capture = sim.run_tone(1e6, 0.79, n);
            black_box(capture.spectrum_with(Window::Hann, &mut scratch))
        });
    }

    runner.finish();
}
