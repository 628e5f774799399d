//! Decimation filters for delta-sigma post-processing.
//!
//! A delta-sigma ADC's raw output runs at the oversampled clock; the usable
//! Nyquist-rate signal is recovered by low-pass filtering and decimating
//! ("subsequent low pass filtering and decimating in digital domain",
//! paper §2.1). We provide the classic CIC (cascaded integrator-comb)
//! decimator plus a simple moving-average for quick looks.

use std::fmt;

/// A cascaded integrator-comb (CIC) decimator.
///
/// `order` integrator/comb pairs with decimation `ratio` and differential
/// delay 1. Gain is `ratio^order`, which [`CicDecimator::decimate`]
/// normalises out.
///
/// ```
/// use tdsigma_dsp::CicDecimator;
///
/// let cic = CicDecimator::new(3, 16);
/// let out = cic.decimate(&vec![0.25; 160]);
/// assert_eq!(out.len(), 10);
/// assert!((out[9] - 0.25).abs() < 1e-12); // unity DC gain once settled
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CicDecimator {
    order: usize,
    ratio: usize,
}

impl CicDecimator {
    /// Creates a CIC decimator.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero or `ratio < 2`.
    pub fn new(order: usize, ratio: usize) -> Self {
        assert!(order > 0, "CIC order must be at least 1");
        assert!(ratio >= 2, "decimation ratio must be at least 2");
        CicDecimator { order, ratio }
    }

    /// Filters and decimates `input`, returning `input.len() / ratio`
    /// output samples normalised to unity DC gain.
    pub fn decimate(&self, input: &[f64]) -> Vec<f64> {
        // Integrator cascade at the input rate.
        let mut integrators = vec![0.0f64; self.order];
        let mut decimated: Vec<f64> = Vec::with_capacity(input.len() / self.ratio);
        for (i, &x) in input.iter().enumerate() {
            let mut v = x;
            for acc in integrators.iter_mut() {
                *acc += v;
                v = *acc;
            }
            if (i + 1) % self.ratio == 0 {
                decimated.push(v);
            }
        }
        // Comb cascade at the output rate.
        let mut combs = vec![0.0f64; self.order];
        let gain = (self.ratio as f64).powi(self.order as i32);
        decimated
            .iter()
            .map(|&x| {
                let mut v = x;
                for prev in combs.iter_mut() {
                    let out = v - *prev;
                    *prev = v;
                    v = out;
                }
                v / gain
            })
            .collect()
    }
}

impl fmt::Display for CicDecimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CIC^{} ÷{}", self.order, self.ratio)
    }
}

/// Boxcar (moving-average) decimation by `ratio`: the crudest sinc filter.
///
/// # Panics
///
/// Panics if `ratio` is zero.
pub fn boxcar_decimate(input: &[f64], ratio: usize) -> Vec<f64> {
    assert!(ratio > 0, "ratio must be positive");
    input
        .chunks_exact(ratio)
        .map(|c| c.iter().sum::<f64>() / ratio as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn dc_gain_is_unity() {
        let cic = CicDecimator::new(3, 8);
        let input = vec![0.75f64; 256];
        let out = cic.decimate(&input);
        assert_eq!(out.len(), 32);
        // After the filter settles (order samples), output equals input DC.
        for &v in &out[4..] {
            assert!((v - 0.75).abs() < 1e-12, "got {v}");
        }
    }

    #[test]
    fn output_length_is_input_over_ratio() {
        let cic = CicDecimator::new(2, 4);
        assert_eq!(cic.decimate(&vec![0.0; 100]).len(), 25);
    }

    #[test]
    fn attenuates_high_frequency() {
        let n = 4096;
        let ratio = 16;
        // In-band tone (survives) and near-Nyquist tone (is crushed).
        let low: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 8.0 * i as f64 / n as f64).sin())
            .collect();
        let high: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 1900.0 * i as f64 / n as f64).sin())
            .collect();
        let cic = CicDecimator::new(3, ratio);
        let rms = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        let low_out = cic.decimate(&low);
        let high_out = cic.decimate(&high);
        assert!(rms(&low_out[8..]) > 0.6, "in-band tone must survive");
        assert!(
            rms(&high_out[8..]) < 0.05,
            "out-of-band tone must be attenuated, rms {}",
            rms(&high_out[8..])
        );
    }

    #[test]
    fn higher_order_attenuates_more() {
        let n = 4096;
        let high: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * 1000.0 * i as f64 / n as f64).sin())
            .collect();
        let rms = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        let o1 = rms(&CicDecimator::new(1, 16).decimate(&high)[8..]);
        let o3 = rms(&CicDecimator::new(3, 16).decimate(&high)[8..]);
        assert!(o3 < o1 / 10.0, "order 3 ({o3}) must beat order 1 ({o1})");
    }

    #[test]
    fn boxcar_averages() {
        let out = boxcar_decimate(&[1.0, 3.0, 5.0, 7.0], 2);
        assert_eq!(out, vec![2.0, 6.0]);
    }

    #[test]
    fn boxcar_drops_trailing_partial_chunk() {
        let out = boxcar_decimate(&[1.0, 1.0, 1.0, 1.0, 9.0], 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ratio must be at least 2")]
    fn cic_bad_ratio_panics() {
        let _ = CicDecimator::new(3, 1);
    }

    #[test]
    #[should_panic(expected = "order must be at least 1")]
    fn cic_bad_order_panics() {
        let _ = CicDecimator::new(0, 8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CicDecimator::new(3, 16).to_string(), "CIC^3 ÷16");
    }
}
