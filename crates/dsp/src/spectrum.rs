//! Amplitude spectra in dBFS — the representation the paper's Fig. 17/18
//! plots.

use crate::fft::{Complex, FftScratch};
use crate::window::Window;
use std::fmt;

/// Reusable buffers for repeated [`Spectrum`] computations: the window
/// coefficients for the current `(window, length)` pair, the windowed
/// sample buffer, and the FFT twiddle tables. The transient+spectrum hot
/// path (sweeps, optimizer loops) holds one of these and calls
/// [`Spectrum::from_samples_scratch`] so nothing but the result's bin
/// vector is allocated per capture.
///
/// Bit-identical to the allocating constructors: cached window
/// coefficients are the same deterministic values
/// `Window::coefficients` returns, and `FftScratch` documents its own
/// bit-exactness contract.
#[derive(Debug, Clone, Default)]
pub struct SpectrumScratch {
    window_key: Option<(Window, usize)>,
    coeffs: Vec<f64>,
    windowed: Vec<f64>,
    fft: FftScratch,
}

impl SpectrumScratch {
    /// Creates an empty scratch; buffers are built on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn window_coeffs(&mut self, window: Window, n: usize) {
        if self.window_key != Some((window, n)) {
            self.coeffs = window.coefficients(n);
            self.window_key = Some((window, n));
        }
    }
}

/// A single-sided amplitude spectrum of a real capture.
///
/// Bin powers are normalised such that a full-scale sine (amplitude =
/// `full_scale`) reads 0 dBFS at its bin, independent of window choice.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    bins: Vec<f64>,
    sample_rate_hz: f64,
    window: Window,
    full_scale: f64,
    n_time: usize,
}

impl Spectrum {
    /// Computes the spectrum of `samples` captured at `sample_rate_hz`,
    /// assuming a full-scale amplitude of 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` is not a power of two, or if
    /// `sample_rate_hz` is not positive.
    pub fn from_samples(samples: &[f64], sample_rate_hz: f64, window: Window) -> Self {
        Self::from_samples_with_full_scale(samples, sample_rate_hz, window, 1.0)
    }

    /// Computes the spectrum with an explicit full-scale amplitude (e.g. the
    /// quantizer's half-range, so multi-level modulator outputs normalise
    /// correctly).
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` is not a power of two, if `sample_rate_hz`
    /// is not positive, or if `full_scale` is not positive.
    pub(crate) fn from_samples_with_full_scale(
        samples: &[f64],
        sample_rate_hz: f64,
        window: Window,
        full_scale: f64,
    ) -> Self {
        Self::from_samples_scratch(
            samples,
            sample_rate_hz,
            window,
            full_scale,
            &mut SpectrumScratch::new(),
        )
    }

    /// `Self::from_samples_with_full_scale` with caller-owned scratch
    /// buffers: window coefficients, the windowed copy, and FFT twiddles
    /// are reused across calls instead of reallocated. Bit-identical to
    /// the allocating constructors (see [`SpectrumScratch`]).
    ///
    /// # Panics
    ///
    /// Same conditions as `Self::from_samples_with_full_scale`.
    pub fn from_samples_scratch(
        samples: &[f64],
        sample_rate_hz: f64,
        window: Window,
        full_scale: f64,
        scratch: &mut SpectrumScratch,
    ) -> Self {
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        assert!(full_scale > 0.0, "full scale must be positive");
        let n = samples.len();
        // Remove the mean so DC leakage does not pollute low bins — delta-
        // sigma outputs have a large DC offset (half the quantizer range).
        let mean = samples.iter().sum::<f64>() / n as f64;
        scratch.window_coeffs(window, n);
        scratch.windowed.clear();
        scratch.windowed.extend(
            samples
                .iter()
                .zip(&scratch.coeffs)
                .map(|(&x, &w)| (x - mean) * w),
        );
        let spec: &[Complex] = scratch.fft.fft_real(&scratch.windowed);
        // Coherent gain: the mean of the cached window coefficients.
        let gain = scratch.coeffs.iter().sum::<f64>() / n as f64;
        // Single-sided amplitude: |X[k]|·2/(N·gain); power relative to FS.
        let scale = 2.0 / (n as f64 * gain * full_scale);
        let bins: Vec<f64> = spec[..n / 2 + 1]
            .iter()
            .enumerate()
            .map(|(k, v)| {
                let s = if k == 0 || k == n / 2 {
                    scale / 2.0
                } else {
                    scale
                };
                let amp = v.abs() * s;
                amp * amp // store power (FS² units)
            })
            .collect();
        Spectrum {
            bins,
            sample_rate_hz,
            window,
            full_scale,
            n_time: n,
        }
    }

    /// Number of frequency bins (N/2 + 1).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if the spectrum has no bins (never the case for constructed
    /// spectra).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The length of the time-domain capture this spectrum came from.
    pub fn time_samples(&self) -> usize {
        self.n_time
    }

    /// Sample rate of the original capture in Hz.
    pub(crate) fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// The window used.
    pub(crate) fn window(&self) -> Window {
        self.window
    }

    /// Frequency resolution (bin width) in Hz.
    pub(crate) fn bin_width_hz(&self) -> f64 {
        self.sample_rate_hz / self.n_time as f64
    }

    /// Centre frequency of bin `k` in Hz.
    pub fn bin_frequency_hz(&self, k: usize) -> f64 {
        k as f64 * self.bin_width_hz()
    }

    /// Bin index nearest to `freq_hz` (clamped to the spectrum).
    pub fn bin_of_frequency(&self, freq_hz: f64) -> usize {
        ((freq_hz / self.bin_width_hz()).round() as usize).min(self.bins.len() - 1)
    }

    /// Power of bin `k` in FS² units.
    pub(crate) fn power(&self, k: usize) -> f64 {
        self.bins[k]
    }

    /// Bin power in dBFS. Returns -200 dB for empty bins.
    pub fn dbfs(&self, k: usize) -> f64 {
        power_to_db(self.bins[k])
    }

    /// All bin powers, FS² units.
    pub fn powers(&self) -> &[f64] {
        &self.bins
    }

    /// Total power in the inclusive bin range, FS² units.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub(crate) fn band_power(&self, lo_bin: usize, hi_bin: usize) -> f64 {
        assert!(
            lo_bin <= hi_bin && hi_bin < self.bins.len(),
            "bad bin range"
        );
        self.bins[lo_bin..=hi_bin].iter().sum()
    }

    /// Index of the strongest bin above DC (bin 0 and the window-leakage
    /// skirt of DC are excluded).
    pub fn peak_bin(&self) -> usize {
        let skip = self.window.leakage_bins() + 1;
        let (idx, _) = self
            .bins
            .iter()
            .enumerate()
            .skip(skip)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("powers are finite"))
            .expect("spectrum has bins above the DC skirt");
        idx
    }
}

impl fmt::Display for Spectrum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bin spectrum, fs={:.3} MHz, {} window",
            self.len(),
            self.sample_rate_hz / 1e6,
            self.window
        )
    }
}

/// Converts a power ratio to decibels, clamping the empty-bin case.
pub fn power_to_db(power: f64) -> f64 {
    if power <= 0.0 {
        -200.0
    } else {
        10.0 * power.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn sine(n: usize, cycles: f64, amplitude: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amplitude * (2.0 * PI * cycles * i as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn full_scale_tone_reads_zero_dbfs() {
        for window in [Window::Rectangular, Window::Hann, Window::Hamming] {
            let s = Spectrum::from_samples(&sine(4096, 129.0, 1.0), 1e6, window);
            let peak = s.peak_bin();
            assert_eq!(peak, 129);
            assert!(
                s.dbfs(peak).abs() < 0.1,
                "{window}: peak reads {} dBFS",
                s.dbfs(peak)
            );
        }
    }

    #[test]
    fn half_scale_tone_reads_minus_six_dbfs() {
        let s = Spectrum::from_samples(&sine(4096, 200.0, 0.5), 1e6, Window::Hann);
        assert!((s.dbfs(s.peak_bin()) + 6.02).abs() < 0.1);
    }

    #[test]
    fn custom_full_scale_normalises() {
        // Amplitude-4 tone with full_scale 4 reads 0 dBFS.
        let s =
            Spectrum::from_samples_with_full_scale(&sine(2048, 55.0, 4.0), 1e6, Window::Hann, 4.0);
        assert!(s.dbfs(s.peak_bin()).abs() < 0.1);
    }

    #[test]
    fn dc_is_removed() {
        let samples: Vec<f64> = sine(1024, 40.0, 0.25)
            .into_iter()
            .map(|x| x + 10.0)
            .collect();
        let s = Spectrum::from_samples(&samples, 1e6, Window::Hann);
        assert_eq!(s.peak_bin(), 40);
        assert!(s.dbfs(0) < -100.0, "DC bin must be empty: {}", s.dbfs(0));
    }

    #[test]
    fn frequency_bookkeeping() {
        let s = Spectrum::from_samples(&sine(1024, 10.0, 1.0), 1024.0, Window::Hann);
        assert_eq!(s.bin_width_hz(), 1.0);
        assert_eq!(s.bin_frequency_hz(10), 10.0);
        assert_eq!(s.bin_of_frequency(10.2), 10);
        assert_eq!(s.bin_of_frequency(1e9), s.len() - 1);
        assert_eq!(s.len(), 513);
        assert_eq!(s.time_samples(), 1024);
        assert!(!s.is_empty());
    }

    #[test]
    fn band_power_sums_bins() {
        let s = Spectrum::from_samples(&sine(1024, 100.0, 1.0), 1e6, Window::Hann);
        let total = s.band_power(0, s.len() - 1);
        let around_tone = s.band_power(95, 105);
        assert!(around_tone / total > 0.999);
    }

    #[test]
    #[should_panic(expected = "bad bin range")]
    fn band_power_bad_range_panics() {
        let s = Spectrum::from_samples(&sine(64, 5.0, 1.0), 1e6, Window::Hann);
        let _ = s.band_power(10, 5);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_sample_rate_panics() {
        let _ = Spectrum::from_samples(&sine(64, 5.0, 1.0), 0.0, Window::Hann);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One SpectrumScratch cycled through different lengths, windows,
        // and full scales must reproduce the allocating constructor bin
        // for bin, to the bit.
        let mut scratch = SpectrumScratch::new();
        for (n, cycles, window, fs_amp) in [
            (1024usize, 37.0, Window::Hann, 1.0),
            (1024, 37.0, Window::Hamming, 1.0),
            (4096, 129.0, Window::Hann, 4.0),
            (256, 9.0, Window::BlackmanHarris, 0.5),
            (1024, 37.0, Window::Hann, 1.0),
        ] {
            let samples = sine(n, cycles, 0.8 * fs_amp);
            let fresh = Spectrum::from_samples_with_full_scale(&samples, 1e6, window, fs_amp);
            let reused =
                Spectrum::from_samples_scratch(&samples, 1e6, window, fs_amp, &mut scratch);
            assert_eq!(fresh.len(), reused.len());
            for (a, b) in fresh.powers().iter().zip(reused.powers()) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} window={window}");
            }
        }
    }

    #[test]
    fn power_to_db_handles_zero() {
        assert_eq!(power_to_db(0.0), -200.0);
        assert!((power_to_db(1.0) - 0.0).abs() < 1e-12);
        assert!((power_to_db(0.1) + 10.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_window() {
        let s = Spectrum::from_samples(&sine(64, 5.0, 1.0), 1e6, Window::Hann);
        assert!(s.to_string().contains("Hann"));
    }
}
