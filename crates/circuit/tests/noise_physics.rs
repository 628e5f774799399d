//! Physics oracles for the simulator's noise sources.
//!
//! The golden fixtures and the scalar reference only show that the
//! engine agrees with itself. These tests check the noise against
//! closed-form physics instead, so they hold for any correct normal
//! sampler and fail for a wrong one (a biased variance, a sampler with
//! σ ≠ 1, or a discretisation that does not settle to `kT/C`).

use std::f64::consts::PI;
use tdsigma_circuit::network::SummingNode;
use tdsigma_circuit::noise::SimRng;
use tdsigma_circuit::vco::{RingVco, VcoParams};
use tdsigma_tech::units::{BOLTZMANN, NOMINAL_TEMPERATURE_K};

const STEPS: usize = 200_000;

/// Sample mean and (population) variance.
fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var)
}

#[test]
fn summing_node_settles_to_kt_over_c() {
    // Two 10 kΩ branches into 20 fF: τ = 5 kΩ · 20 fF = 100 ps. With
    // dt = τ consecutive samples correlate by e⁻¹, so 2·10⁵ steps
    // estimate the variance to ≈ 0.4 %; the 3 % band is ≈ 8 standard
    // errors.
    let cap_f = 20e-15;
    let mut node = SummingNode::new(cap_f, 0.0).with_thermal_noise();
    node.add_branch(10e3, 0.55);
    node.add_branch(10e3, 0.30);
    let target = node.target_voltage();
    node.set_voltage(target);
    let dt = node.time_constant_s();
    let mut rng = SimRng::new(2017);
    let mut v = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        node.advance(dt, &mut rng);
        v.push(node.voltage());
    }
    let (mean, var) = mean_var(&v);
    let kt_over_c = BOLTZMANN * NOMINAL_TEMPERATURE_K / cap_f;
    assert!(
        (var / kt_over_c - 1.0).abs() < 0.03,
        "stationary variance {var:.4e} V² vs kT/C {kt_over_c:.4e} V²"
    );
    // The noise is zero-mean: the node sits at its resistive-divider
    // target to within a few standard errors of the mean.
    assert!(
        (mean - target).abs() < 0.02 * kt_over_c.sqrt(),
        "mean {mean} vs target {target}"
    );
}

#[test]
fn vco_phase_increments_have_white_fm_variance() {
    // White FM: each step adds 2π·(f + σ_f·z)·dt with σ_f = n_pn·f0/√dt,
    // so at a fixed control voltage the increments are independent with
    // variance (2π·σ_f·dt)². 2·10⁵ of them estimate it to ≈ 0.3 %.
    let params = VcoParams {
        f0_hz: 150e6,
        kvco_hz_per_v: 500e6,
        vcm_v: 0.55,
        n_stages: 4,
        phase_noise_per_sqrt_hz: 2.0e-9,
    };
    let dt = 1.0 / 750e6 / 16.0;
    let mut vco = RingVco::new(params, 0.0, 0.0);
    let mut rng = SimRng::new(42);
    let mut increments = Vec::with_capacity(STEPS);
    let mut last = vco.phase();
    for _ in 0..STEPS {
        vco.advance(dt, 0.6, &mut rng);
        increments.push(vco.phase() - last);
        last = vco.phase();
    }
    let (mean, var) = mean_var(&increments);
    let sigma_f = params.phase_noise_per_sqrt_hz * params.f0_hz / dt.sqrt();
    let expect = (2.0 * PI * sigma_f * dt).powi(2);
    assert!(
        (var / expect - 1.0).abs() < 0.03,
        "phase-increment variance {var:.4e} rad² vs (2π·σ_f·dt)² {expect:.4e} rad²"
    );
    // The noise is zero-mean: the average increment is the noiseless
    // 2π·f·dt to within a few standard errors.
    let f = vco.frequency_hz(0.6);
    let noiseless = 2.0 * PI * f * dt;
    assert!(
        (mean - noiseless).abs() < 0.02 * expect.sqrt(),
        "mean increment {mean} vs 2π·f·dt {noiseless}"
    );
}
