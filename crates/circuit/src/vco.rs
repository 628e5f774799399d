//! Ring-VCO phase-domain integrator model.
//!
//! The central trick of the TD architecture: a ring oscillator's phase is
//! the time integral of its control voltage,
//!
//! ```text
//! dφ/dt = 2π · ( f0·(1 + δ) + K_vco·(V_ctrl − V_cm) )
//! ```
//!
//! making the VCO a *lossless, infinite-DC-gain integrator* built entirely
//! from inverters (the paper's Fig. 5: 4 cross-coupled inverter stages).
//! White-FM phase noise is injected as a Wiener increment per step, and
//! per-instance mismatch `δ` offsets the centre frequency.

use crate::mismatch::MismatchModel;
use crate::noise::SimRng;
use std::f64::consts::PI;
use std::fmt;

/// Builder-style parameters of a ring VCO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VcoParams {
    /// Centre (free-running) frequency at the nominal control voltage, Hz.
    pub f0_hz: f64,
    /// Tuning gain, Hz per volt.
    pub kvco_hz_per_v: f64,
    /// Nominal control voltage at which the VCO runs at `f0_hz`, volts.
    pub vcm_v: f64,
    /// Number of pseudo-differential delay stages (the paper uses 4).
    pub n_stages: usize,
    /// White-FM phase noise: 1-σ frequency deviation normalised to `f0`,
    /// per √Hz of integration bandwidth. Zero disables phase noise.
    pub phase_noise_per_sqrt_hz: f64,
}

impl VcoParams {
    /// Validates and freezes the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `f0_hz` or `n_stages` is not positive, or `kvco` is
    /// negative.
    pub fn validated(self) -> Self {
        assert!(self.f0_hz > 0.0, "f0 must be positive");
        assert!(self.kvco_hz_per_v >= 0.0, "Kvco must be non-negative");
        assert!(self.n_stages > 0, "ring needs at least one stage");
        assert!(
            self.phase_noise_per_sqrt_hz >= 0.0,
            "phase noise must be non-negative"
        );
        self
    }
}

/// A running ring VCO instance.
///
/// ```
/// use tdsigma_circuit::{RingVco, SimRng, VcoParams};
///
/// let params = VcoParams {
///     f0_hz: 150e6,
///     kvco_hz_per_v: 500e6,
///     vcm_v: 0.55,
///     n_stages: 4,
///     phase_noise_per_sqrt_hz: 0.0,
/// };
/// let mut rng = SimRng::new(1);
/// let mut vco = RingVco::new(params, 0.0, 0.0);
/// // Integrate 100 ns at 50 mV above the nominal control voltage:
/// for _ in 0..1000 {
///     vco.advance(100e-12, 0.6, &mut rng);
/// }
/// // φ = 2π · (150 MHz + 0.05 V · 500 MHz/V) · 100 ns = 2π · 17.5 rad.
/// assert!((vco.phase() / (2.0 * std::f64::consts::PI) - 17.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RingVco {
    params: VcoParams,
    /// Per-instance relative centre-frequency error (mismatch draw).
    delta: f64,
    /// Absolute phase in radians (unwrapped).
    phase: f64,
    /// Transition counter for activity-based power estimation.
    edges: u64,
    last_level: bool,
}

impl RingVco {
    /// Creates a VCO with an explicit mismatch draw and initial phase.
    pub fn new(params: VcoParams, delta: f64, initial_phase: f64) -> Self {
        let params = params.validated();
        let mut vco = RingVco {
            params,
            delta,
            phase: initial_phase,
            edges: 0,
            last_level: false,
        };
        vco.last_level = vco.output_level(0);
        vco
    }

    /// Creates a VCO drawing its mismatch from `model`.
    pub fn with_mismatch(
        params: VcoParams,
        model: &MismatchModel,
        rng: &mut SimRng,
        initial_phase: f64,
    ) -> Self {
        let delta = model.draw(rng);
        RingVco::new(params, delta, initial_phase)
    }

    /// Current unwrapped phase in radians.
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Instantaneous frequency at a given control voltage, Hz.
    pub fn frequency_hz(&self, vctrl_v: f64) -> f64 {
        (self.params.f0_hz * (1.0 + self.delta)
            + self.params.kvco_hz_per_v * (vctrl_v - self.params.vcm_v))
            .max(0.0) // an inverter ring cannot oscillate backwards
    }

    /// Advances the oscillator by `dt` seconds at control voltage
    /// `vctrl_v`, injecting phase noise from `rng`.
    pub fn advance(&mut self, dt_s: f64, vctrl_v: f64, rng: &mut SimRng) {
        let mut f = self.frequency_hz(vctrl_v);
        if self.params.phase_noise_per_sqrt_hz > 0.0 {
            // White FM: frequency deviation with σ ∝ 1/√dt integrates to a
            // Wiener phase process.
            let sigma_f = self.params.phase_noise_per_sqrt_hz * self.params.f0_hz / dt_s.sqrt();
            f += rng.gaussian(sigma_f);
        }
        self.phase += 2.0 * PI * f * dt_s;
        let level = self.output_level(0);
        if level != self.last_level {
            self.edges += 1;
            self.last_level = level;
        }
    }

    /// Logic level of output tap `tap` (0-based, spaced `π/n_stages` apart):
    /// the square wave a buffer/SAFF sees.
    pub(crate) fn output_level(&self, tap: usize) -> bool {
        let offset = PI * tap as f64 / self.params.n_stages as f64;
        (self.phase + offset).rem_euclid(2.0 * PI) < PI
    }

    /// Number of output transitions observed so far (all taps toggle at the
    /// same rate; multiply by stage count for total ring activity).
    pub fn edge_count(&self) -> u64 {
        self.edges
    }
}

impl fmt::Display for RingVco {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ring VCO {} stages, f0 {:.1} MHz (δ {:+.2} %), Kvco {:.1} MHz/V",
            self.params.n_stages,
            self.params.f0_hz / 1e6,
            self.delta * 100.0,
            self.params.kvco_hz_per_v / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> VcoParams {
        VcoParams {
            f0_hz: 100e6,
            kvco_hz_per_v: 50e6,
            vcm_v: 0.5,
            n_stages: 4,
            phase_noise_per_sqrt_hz: 0.0,
        }
    }

    #[test]
    fn phase_integrates_frequency() {
        let mut rng = SimRng::new(0);
        let mut vco = RingVco::new(params(), 0.0, 0.0);
        let dt = 1e-10;
        for _ in 0..10_000 {
            vco.advance(dt, 0.5, &mut rng); // at vcm → f0 exactly
        }
        let expected = 2.0 * PI * 100e6 * dt * 10_000.0;
        assert!((vco.phase() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn kvco_tunes_frequency() {
        let vco = RingVco::new(params(), 0.0, 0.0);
        assert_eq!(vco.frequency_hz(0.5), 100e6);
        assert_eq!(vco.frequency_hz(0.7), 110e6);
        assert_eq!(vco.frequency_hz(0.3), 90e6);
    }

    #[test]
    fn frequency_clamped_at_zero() {
        let vco = RingVco::new(params(), 0.0, 0.0);
        assert_eq!(vco.frequency_hz(-10.0), 0.0);
    }

    #[test]
    fn mismatch_shifts_f0() {
        let vco = RingVco::new(params(), 0.02, 0.0);
        assert!((vco.frequency_hz(0.5) - 102e6).abs() < 1.0);
    }

    #[test]
    fn output_is_square_wave_with_half_duty() {
        let mut rng = SimRng::new(0);
        let mut vco = RingVco::new(params(), 0.0, 0.0);
        let dt = 1e-11;
        let mut high = 0usize;
        let n = 100_000;
        for _ in 0..n {
            vco.advance(dt, 0.5, &mut rng);
            if vco.output_level(0) {
                high += 1;
            }
        }
        let duty = high as f64 / n as f64;
        assert!((duty - 0.5).abs() < 0.01, "duty {duty}");
    }

    #[test]
    fn taps_are_phase_shifted() {
        // At phase just above 0, tap 0 is high; tap at half-period offset
        // (n_stages/... ) differs.
        let vco = RingVco::new(params(), 0.0, 0.1);
        assert!(vco.output_level(0));
        assert!(!vco.output_level(4)); // offset π → inverted
    }

    #[test]
    fn edge_count_tracks_toggles() {
        let mut rng = SimRng::new(0);
        let mut vco = RingVco::new(params(), 0.0, 0.0);
        // Simulate exactly 10 periods at f0 with fine steps.
        let periods = 10.0;
        let steps = 10_000;
        let dt = periods / 100e6 / steps as f64;
        for _ in 0..steps {
            vco.advance(dt, 0.5, &mut rng);
        }
        // 2 edges per period.
        let edges = vco.edge_count();
        assert!(
            (edges as i64 - 20).abs() <= 1,
            "expected ~20 edges, got {edges}"
        );
    }

    #[test]
    fn phase_noise_diffuses_phase() {
        let mut p = params();
        p.phase_noise_per_sqrt_hz = 1e-6;
        let dt = 1e-10;
        let steps = 20_000;
        let mut final_phases = Vec::new();
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let mut vco = RingVco::new(p, 0.0, 0.0);
            for _ in 0..steps {
                vco.advance(dt, 0.5, &mut rng);
            }
            final_phases.push(vco.phase());
        }
        let mean = final_phases.iter().sum::<f64>() / final_phases.len() as f64;
        let var = final_phases
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / final_phases.len() as f64;
        assert!(var > 0.0, "phase noise must randomise the walk");
        // Deterministic part still dominates.
        let ideal = 2.0 * PI * 100e6 * dt * steps as f64;
        assert!((mean - ideal).abs() / ideal < 0.01);
    }

    #[test]
    fn with_mismatch_is_reproducible() {
        let model = MismatchModel::new(0.02);
        let mut rng1 = SimRng::new(11);
        let mut rng2 = SimRng::new(11);
        let a = RingVco::with_mismatch(params(), &model, &mut rng1, 0.0);
        let b = RingVco::with_mismatch(params(), &model, &mut rng2, 0.0);
        assert_eq!(a.delta, b.delta);
        assert!(a.delta != 0.0);
    }

    #[test]
    #[should_panic(expected = "f0 must be positive")]
    fn zero_f0_panics() {
        let mut p = params();
        p.f0_hz = 0.0;
        let _ = RingVco::new(p, 0.0, 0.0);
    }

    #[test]
    fn display_reports_stages() {
        let vco = RingVco::new(params(), 0.0, 0.0);
        assert!(vco.to_string().contains("4 stages"));
    }
}
