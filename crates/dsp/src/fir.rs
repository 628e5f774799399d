//! FIR filter design (windowed-sinc) and filtering.
//!
//! The decimation chain of a delta-sigma ADC is CIC-first, FIR-second: the
//! CIC does the heavy rate change cheaply, then a compensating FIR
//! flattens the CIC droop and sharpens the transition. This module
//! provides the windowed-sinc designer, a droop-compensation designer, and
//! direct-form filtering.

use crate::window::Window;
use std::f64::consts::PI;
use std::fmt;

/// A designed FIR filter (finite impulse response, linear phase).
///
/// ```
/// use tdsigma_dsp::{FirFilter, Window};
///
/// let lp = FirFilter::low_pass(0.1, 63, Window::Hann);
/// assert!(lp.magnitude(0.02) > 0.95);  // passband
/// assert!(lp.magnitude(0.30) < 0.01);  // stopband
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    taps: Vec<f64>,
}

impl FirFilter {
    /// Designs a low-pass filter by the windowed-sinc method.
    ///
    /// `cutoff` is the −6 dB frequency as a fraction of the sample rate
    /// (0 < cutoff < 0.5); `n_taps` must be odd for a symmetric
    /// linear-phase kernel.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff` is out of range or `n_taps` is even or < 3.
    pub fn low_pass(cutoff: f64, n_taps: usize, window: Window) -> Self {
        assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff must be in (0, 0.5)");
        assert!(
            n_taps >= 3 && n_taps % 2 == 1,
            "n_taps must be odd and >= 3"
        );
        let m = (n_taps - 1) as f64 / 2.0;
        let w = window.symmetric_coefficients(n_taps);
        let mut taps: Vec<f64> = (0..n_taps)
            .map(|i| {
                let x = i as f64 - m;
                let sinc = if x == 0.0 {
                    2.0 * cutoff
                } else {
                    (2.0 * PI * cutoff * x).sin() / (PI * x)
                };
                sinc * w[i]
            })
            .collect();
        // Normalise to unity DC gain.
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        FirFilter { taps }
    }

    /// Designs an inverse-sinc (CIC droop compensation) filter: a short
    /// kernel whose response rises toward the band edge to flatten an
    /// `order`-stage CIC of rate-change `ratio` over the passband
    /// `0..passband` (fraction of the *decimated* rate).
    ///
    /// # Panics
    ///
    /// Panics if `order` is 0, `ratio` < 2, or `passband` out of (0, 0.5).
    pub fn cic_compensator(order: usize, ratio: usize, passband: f64, n_taps: usize) -> Self {
        assert!(order > 0 && ratio >= 2, "bad CIC parameters");
        assert!(passband > 0.0 && passband < 0.5, "passband in (0, 0.5)");
        assert!(
            n_taps >= 3 && n_taps % 2 == 1,
            "n_taps must be odd and >= 3"
        );
        // Frequency-sampled design: target |H| = 1 / |CIC(f)| in the
        // passband, tapering to 0 beyond.
        let grid = 8 * n_taps;
        let target: Vec<f64> = (0..=grid)
            .map(|k| {
                let f = 0.5 * k as f64 / grid as f64; // of decimated rate
                if f <= passband {
                    1.0 / cic_magnitude(order, ratio, f).max(1e-6)
                } else {
                    0.0
                }
            })
            .collect();
        // Inverse DFT of the (real, even) target → symmetric taps.
        let m = (n_taps - 1) / 2;
        let w = Window::Hann.symmetric_coefficients(n_taps);
        let mut taps: Vec<f64> = (0..n_taps)
            .map(|i| {
                let x = i as isize - m as isize;
                let mut acc = 0.0;
                for (k, &t) in target.iter().enumerate() {
                    let f = 0.5 * k as f64 / grid as f64;
                    let weight = if k == 0 || k == grid { 0.5 } else { 1.0 };
                    acc += weight * t * (2.0 * PI * f * x as f64).cos();
                }
                acc / grid as f64 * w[i]
            })
            .collect();
        let dc: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= dc;
        }
        FirFilter { taps }
    }

    /// The filter taps.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Filters `input` (zero-padded edges; output length = input length).
    pub fn filter(&self, input: &[f64]) -> Vec<f64> {
        let n = input.len();
        let k = self.taps.len();
        let half = k / 2;
        (0..n)
            .map(|i| {
                let mut acc = 0.0;
                for (j, &t) in self.taps.iter().enumerate() {
                    let idx = i as isize + j as isize - half as isize;
                    if idx >= 0 && (idx as usize) < n {
                        acc += t * input[idx as usize];
                    }
                }
                acc
            })
            .collect()
    }

    /// Magnitude response at frequency `f` (fraction of the sample rate).
    pub fn magnitude(&self, f: f64) -> f64 {
        let half = (self.taps.len() / 2) as f64;
        let (mut re, mut im) = (0.0, 0.0);
        for (i, &t) in self.taps.iter().enumerate() {
            let phase = -2.0 * PI * f * (i as f64 - half);
            re += t * phase.cos();
            im += t * phase.sin();
        }
        (re * re + im * im).sqrt()
    }
}

impl fmt::Display for FirFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FIR({} taps)", self.taps.len())
    }
}

/// Magnitude of an `order`-stage CIC of rate change `ratio` at frequency
/// `f` expressed as a fraction of the *decimated* rate, normalised to
/// unity at DC.
pub fn cic_magnitude(order: usize, ratio: usize, f: f64) -> f64 {
    if f == 0.0 {
        return 1.0;
    }
    let fi = f / ratio as f64; // fraction of the input rate
    let num = (PI * fi * ratio as f64).sin();
    let den = (PI * fi).sin();
    if den.abs() < 1e-12 {
        return 1.0;
    }
    ((num / den) / ratio as f64).abs().powi(order as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_pass_passes_low_blocks_high() {
        let fir = FirFilter::low_pass(0.1, 63, Window::Hann);
        assert!((fir.magnitude(0.0) - 1.0).abs() < 1e-9, "unity DC gain");
        assert!(fir.magnitude(0.05) > 0.95, "passband flat");
        assert!(fir.magnitude(0.25) < 0.01, "stopband deep");
        assert!(fir.magnitude(0.45) < 0.01);
    }

    #[test]
    fn filtering_removes_out_of_band_tone() {
        let n = 2048;
        let fir = FirFilter::low_pass(0.05, 101, Window::Hann);
        let lo: Vec<f64> = (0..n).map(|i| (2.0 * PI * 0.01 * i as f64).sin()).collect();
        let hi: Vec<f64> = (0..n).map(|i| (2.0 * PI * 0.3 * i as f64).sin()).collect();
        let rms = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        assert!(rms(&fir.filter(&lo)[200..1800]) > 0.65);
        assert!(rms(&fir.filter(&hi)[200..1800]) < 0.01);
    }

    #[test]
    fn taps_are_symmetric_linear_phase() {
        let fir = FirFilter::low_pass(0.2, 31, Window::Hamming);
        let t = fir.taps();
        for i in 0..t.len() / 2 {
            assert!((t[i] - t[t.len() - 1 - i]).abs() < 1e-12, "tap {i}");
        }
    }

    #[test]
    fn cic_magnitude_matches_theory() {
        // First null of a ÷R CIC is at the decimated Nyquist ... sinc
        // shape: at f = 0 gain 1; drops monotonically to the first null.
        assert_eq!(cic_magnitude(3, 16, 0.0), 1.0);
        let mid = cic_magnitude(1, 8, 0.25);
        assert!(mid < 1.0 && mid > 0.8, "mild droop at quarter rate: {mid}");
        let worse = cic_magnitude(3, 8, 0.25);
        assert!((worse - mid.powi(3)).abs() < 1e-9, "order stacks the droop");
    }

    #[test]
    fn compensator_flattens_cic_droop() {
        let order = 3;
        let ratio = 16;
        let comp = FirFilter::cic_compensator(order, ratio, 0.2, 31);
        for k in 1..8 {
            let f = 0.02 * k as f64; // up to 0.14 of decimated rate
            let cic = cic_magnitude(order, ratio, f);
            let combined = cic * comp.magnitude(f);
            assert!(
                (combined - 1.0).abs() < 0.05,
                "at f={f}: CIC {cic:.4} × comp {:.4} = {combined:.4}",
                comp.magnitude(f)
            );
        }
    }

    #[test]
    #[should_panic(expected = "n_taps must be odd")]
    fn even_taps_panic() {
        let _ = FirFilter::low_pass(0.1, 64, Window::Hann);
    }

    #[test]
    #[should_panic(expected = "cutoff must be in")]
    fn bad_cutoff_panics() {
        let _ = FirFilter::low_pass(0.6, 63, Window::Hann);
    }

    #[test]
    fn display_reports_taps() {
        assert_eq!(
            FirFilter::low_pass(0.1, 21, Window::Hann).to_string(),
            "FIR(21 taps)"
        );
    }
}
