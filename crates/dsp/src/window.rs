//! Window functions for spectral estimation.
//!
//! The paper's spectra (Fig. 17, 18) are single-tone captures; we use Hann
//! by default, which confines the fundamental's leakage to ±3 bins and is
//! the standard choice for delta-sigma evaluation when coherent sampling is
//! not guaranteed.

use std::f64::consts::PI;
use std::fmt;

/// Spectral window applied before the FFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// No window (use only with coherent sampling).
    Rectangular,
    /// Hann (raised cosine) — the default for ADC spectra.
    #[default]
    Hann,
    /// Hamming.
    Hamming,
    /// 4-term Blackman-Harris — very low side lobes, wider main lobe.
    BlackmanHarris,
}

impl Window {
    /// Evaluates the window at sample `i` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n == 0`.
    pub(crate) fn coefficient(self, i: usize, n: usize) -> f64 {
        assert!(n > 0, "window length must be positive");
        assert!(i < n, "window index {i} out of bounds for length {n}");
        let x = 2.0 * PI * i as f64 / n as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * x.cos(),
            Window::Hamming => 0.54 - 0.46 * x.cos(),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
            }
        }
    }

    /// Generates the full window of length `n` (periodic form — correct
    /// for spectral analysis).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn coefficients(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coefficient(i, n)).collect()
    }

    /// Generates the symmetric form of the window (correct for FIR design:
    /// `w[i] == w[n-1-i]`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub(crate) fn symmetric_coefficients(self, n: usize) -> Vec<f64> {
        assert!(n >= 2, "symmetric window needs at least 2 points");
        (0..n)
            .map(|i| {
                // Closed interval [0, 2π]: denominator n−1.
                let x = 2.0 * PI * i as f64 / (n - 1) as f64;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * x.cos(),
                    Window::Hamming => 0.54 - 0.46 * x.cos(),
                    Window::BlackmanHarris => {
                        0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos()
                            - 0.01168 * (3.0 * x).cos()
                    }
                }
            })
            .collect()
    }

    /// Normalised equivalent noise bandwidth in bins.
    ///
    /// Rectangular = 1.0, Hann = 1.5, Hamming ≈ 1.36, Blackman-Harris ≈ 2.0.
    /// No flow stage calls it yet: it is the window term of the planned
    /// closed-form SNDR oracle (ROADMAP item 1), which converts in-band
    /// noise power to a per-bin level.
    pub fn enbw_bins(self, n: usize) -> f64 {
        let w = self.coefficients(n);
        let sum: f64 = w.iter().sum();
        let sum_sq: f64 = w.iter().map(|x| x * x).sum();
        n as f64 * sum_sq / (sum * sum)
    }

    /// Number of bins on each side of a tone that carry significant leakage
    /// and must be attributed to the signal during SNDR integration.
    pub(crate) fn leakage_bins(self) -> usize {
        match self {
            Window::Rectangular => 0,
            Window::Hann => 3,
            Window::Hamming => 3,
            Window::BlackmanHarris => 5,
        }
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Window::Rectangular => "rectangular",
            Window::Hann => "Hann",
            Window::Hamming => "Hamming",
            Window::BlackmanHarris => "Blackman-Harris",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(16)
            .iter()
            .all(|&x| x == 1.0));
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let w = Window::Hann.coefficients(256);
        assert!(w[0].abs() < 1e-12);
        assert!((w[128] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hann_coherent_gain_is_half() {
        // Coherent gain: the mean of the window, which `Spectrum` divides out.
        let w = Window::Hann.coefficients(1024);
        assert!((w.iter().sum::<f64>() / 1024.0 - 0.5).abs() < 1e-3);
    }

    #[test]
    fn enbw_values_match_theory() {
        assert!((Window::Rectangular.enbw_bins(1024) - 1.0).abs() < 1e-9);
        assert!((Window::Hann.enbw_bins(1024) - 1.5).abs() < 0.01);
        assert!((Window::Hamming.enbw_bins(1024) - 1.36).abs() < 0.01);
        assert!((Window::BlackmanHarris.enbw_bins(1024) - 2.0).abs() < 0.05);
    }

    #[test]
    fn windows_are_nonnegative() {
        for win in [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::BlackmanHarris,
        ] {
            assert!(
                win.coefficients(512).iter().all(|&x| x >= -1e-12),
                "{win} must be non-negative"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let _ = Window::Hann.coefficient(8, 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        let _ = Window::Hann.coefficient(0, 0);
    }

    #[test]
    fn symmetric_form_is_symmetric() {
        for win in [Window::Hann, Window::Hamming, Window::BlackmanHarris] {
            for n in [15usize, 16, 63] {
                let w = win.symmetric_coefficients(n);
                for i in 0..n / 2 {
                    assert!(
                        (w[i] - w[n - 1 - i]).abs() < 1e-12,
                        "{win} length {n} index {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_is_hann() {
        assert_eq!(Window::default(), Window::Hann);
    }

    #[test]
    fn display_names() {
        assert_eq!(Window::Hann.to_string(), "Hann");
        assert_eq!(Window::BlackmanHarris.to_string(), "Blackman-Harris");
    }
}
