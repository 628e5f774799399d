//! Welch's method: averaged-periodogram power-spectral-density estimation.
//!
//! Single-FFT spectra (Fig. 17 style) have ~100 % variance per bin; Welch
//! averaging over overlapping segments trades frequency resolution for a
//! smooth, quantitative noise-floor estimate — the right tool for reading
//! noise densities (V/√Hz) off a simulation.

use crate::fft::FftScratch;
use crate::window::Window;
use std::fmt;

/// A PSD estimate from Welch's method.
#[derive(Debug, Clone, PartialEq)]
pub struct PsdEstimate {
    psd: Vec<f64>,
    bin_width_hz: f64,
    segments: usize,
    samples_used: usize,
}

impl PsdEstimate {
    /// Frequency-bin width, Hz.
    pub fn bin_width_hz(&self) -> f64 {
        self.bin_width_hz
    }

    /// Resolves a frequency band to an inclusive bin range, or `None`
    /// for an empty band.
    ///
    /// Empty bands — an inverted range (`f_lo_hz > f_hi_hz`, including
    /// NaN endpoints) or a band lying entirely above the last bin — used
    /// to silently alias onto one valid bin (`lo.min(hi)..=hi`), so an
    /// out-of-band request integrated nonzero power. They now resolve to
    /// `None` and the band helpers return 0.
    ///
    /// DC convention: [`welch_psd`] removes the full-record mean, but
    /// per-segment windowing still leaks residual power into bin 0, so a
    /// band starting at exactly 0 Hz begins at bin 1 — DC leakage never
    /// counts as in-band noise.
    fn band_bins(&self, f_lo_hz: f64, f_hi_hz: f64) -> Option<(usize, usize)> {
        if f_lo_hz > f_hi_hz || f_lo_hz.is_nan() || f_hi_hz.is_nan() {
            return None; // inverted range, or a NaN endpoint
        }
        let lo = if f_lo_hz == 0.0 {
            1
        } else {
            (f_lo_hz / self.bin_width_hz).round() as usize
        };
        let hi = ((f_hi_hz / self.bin_width_hz).round() as usize).min(self.psd.len() - 1);
        (lo <= hi).then_some((lo, hi))
    }

    /// Total power integrated between two frequencies (trapezoid-free
    /// rectangle sum), in (input units)². An empty band — inverted range
    /// or entirely past the last bin — integrates to exactly 0; a band
    /// starting at 0 Hz excludes the DC bin (per-segment windowing leaks
    /// residual power into bin 0 even after mean removal, and DC leakage
    /// must never count as in-band noise).
    pub fn band_power(&self, f_lo_hz: f64, f_hi_hz: f64) -> f64 {
        match self.band_bins(f_lo_hz, f_hi_hz) {
            Some((lo, hi)) => self.psd[lo..=hi].iter().sum::<f64>() * self.bin_width_hz,
            None => 0.0,
        }
    }

    /// Median PSD between two frequencies — a robust noise-floor estimate
    /// that ignores tones. Even-length bands average the two middle
    /// elements (the upper-middle element alone biases the floor high);
    /// an empty band returns 0.
    pub fn median_floor(&self, f_lo_hz: f64, f_hi_hz: f64) -> f64 {
        let Some((lo, hi)) = self.band_bins(f_lo_hz, f_hi_hz) else {
            return 0.0;
        };
        let mut band: Vec<f64> = self.psd[lo..=hi].to_vec();
        band.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = band.len();
        if n % 2 == 1 {
            band[n / 2]
        } else {
            0.5 * (band[n / 2 - 1] + band[n / 2])
        }
    }
}

impl fmt::Display for PsdEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Welch PSD: {} bins of {:.1} kHz, {} segments",
            self.psd.len(),
            self.bin_width_hz / 1e3,
            self.segments
        )
    }
}

/// Reusable buffers for repeated [`welch_psd_with`] calls: the window
/// coefficients for the current `(window, segment_len)` pair, the windowed
/// segment buffer, and the FFT twiddle tables. A sweep that estimates
/// hundreds of PSDs at one segment length pays the window/twiddle setup
/// once and allocates nothing per call.
///
/// Results are bit-identical to the scratch-free [`welch_psd`] — the
/// cached window coefficients are the same deterministic values
/// [`Window::coefficients`] returns, and [`FftScratch`] documents its own
/// bit-exactness contract.
#[derive(Debug, Clone, Default)]
pub struct WelchScratch {
    window_key: Option<(Window, usize)>,
    coeffs: Vec<f64>,
    windowed: Vec<f64>,
    fft: FftScratch,
}

impl WelchScratch {
    /// Creates an empty scratch; buffers are built on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn window_coeffs(&mut self, window: Window, n: usize) -> &[f64] {
        if self.window_key != Some((window, n)) {
            self.coeffs = window.coefficients(n);
            self.window_key = Some((window, n));
        }
        &self.coeffs
    }
}

/// Estimates the one-sided PSD of `samples` with Welch's method:
/// `segment_len`-point windowed periodograms, 50 % overlap, averaged.
///
/// Allocates its working buffers per call; hot loops should hold a
/// `WelchScratch` and call `welch_psd_with`, which is bit-identical.
///
/// # DC convention
///
/// The mean of the *full record* is subtracted once before segmentation.
/// Each segment still carries its own residual mean (slow drift, window
/// leakage), so bin 0 of the estimate is small but generally nonzero.
/// The band helpers ([`PsdEstimate::band_power`],
/// [`PsdEstimate::median_floor`]) therefore skip bin 0 whenever a band
/// starts at exactly 0 Hz: DC residue is an artifact of the estimator,
/// not in-band noise.
///
/// # Unaligned tail
///
/// Segments advance by `hop = segment_len/2`; the last segment is the one
/// ending at or before `samples.len()`. When the input length is not of
/// the form `k·hop + segment_len` the trailing `(len − segment_len) % hop`
/// samples contribute to **no** segment and are silently dropped — the
/// estimator never zero-pads or shortens a segment, because a partial
/// window would bias the normalisation `U`. So `(segments − 1)·hop +
/// segment_len` samples enter the estimate; callers that care should size
/// captures so `len ≡ segment_len (mod hop)`.
///
/// # Panics
///
/// Panics if `segment_len` is not a power of two or exceeds the input
/// length, or if `sample_rate_hz` is not positive.
pub fn welch_psd(
    samples: &[f64],
    segment_len: usize,
    window: Window,
    sample_rate_hz: f64,
) -> PsdEstimate {
    welch_psd_with(
        samples,
        segment_len,
        window,
        sample_rate_hz,
        &mut WelchScratch::new(),
    )
}

/// [`welch_psd`] with caller-owned scratch buffers: no per-call window
/// evaluation, twiddle computation, or segment allocation. Bit-identical
/// to [`welch_psd`] (see [`WelchScratch`]).
///
/// # Panics
///
/// Same conditions as [`welch_psd`].
pub fn welch_psd_with(
    samples: &[f64],
    segment_len: usize,
    window: Window,
    sample_rate_hz: f64,
    scratch: &mut WelchScratch,
) -> PsdEstimate {
    assert!(
        segment_len.is_power_of_two() && segment_len >= 8,
        "segment length must be a power of two >= 8"
    );
    assert!(segment_len <= samples.len(), "segment longer than input");
    assert!(sample_rate_hz > 0.0, "sample rate must be positive");
    let hop = segment_len / 2;
    scratch.window_coeffs(window, segment_len);
    // Window power normalisation (U in Welch's paper).
    let u: f64 = scratch.coeffs.iter().map(|w| w * w).sum::<f64>() / segment_len as f64;
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;

    let mut acc = vec![0.0f64; segment_len / 2 + 1];
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + segment_len <= samples.len() {
        scratch.windowed.clear();
        scratch.windowed.extend(
            samples[start..start + segment_len]
                .iter()
                .zip(&scratch.coeffs)
                .map(|(&x, &w)| (x - mean) * w),
        );
        let spec = scratch.fft.fft_real(&scratch.windowed);
        for (k, a) in acc.iter_mut().enumerate() {
            let scale = if k == 0 || k == segment_len / 2 {
                1.0
            } else {
                2.0
            };
            *a += scale * spec[k].norm_sqr() / (u * segment_len as f64 * sample_rate_hz);
        }
        segments += 1;
        start += hop;
    }
    for a in &mut acc {
        *a /= segments as f64;
    }
    PsdEstimate {
        psd: acc,
        bin_width_hz: sample_rate_hz / segment_len as f64,
        segments,
        samples_used: (segments - 1) * hop + segment_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn white_noise(n: usize, rms: f64, seed: u64) -> Vec<f64> {
        // xorshift-based gaussian-ish (sum of uniforms) noise.
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64 - 0.5
        };
        (0..n)
            .map(|_| {
                let s: f64 = (0..12).map(|_| rng()).sum();
                s * rms
            })
            .collect()
    }

    #[test]
    fn white_noise_psd_is_flat_and_integrates_to_variance() {
        let fs = 1e6;
        let rms = 0.05;
        let samples = white_noise(1 << 16, rms, 99);
        let psd = welch_psd(&samples, 1 << 10, Window::Hann, fs);
        // Total power ≈ variance.
        let total = psd.band_power(0.0, fs / 2.0);
        let var = rms * rms; // sum of 12 uniforms: var = 12·(1/12)·rms² = rms²
        assert!(
            (total / var - 1.0).abs() < 0.1,
            "integrated PSD {total} vs variance {var}"
        );
        // Flatness: median of first and last quarter within 1.5x.
        let lo = psd.median_floor(fs * 0.02, fs * 0.12);
        let hi = psd.median_floor(fs * 0.35, fs * 0.48);
        assert!(
            (lo / hi).abs() < 1.5 && (hi / lo).abs() < 1.5,
            "{lo} vs {hi}"
        );
    }

    #[test]
    fn sine_peak_sits_at_its_frequency() {
        let fs = 1e6;
        let f0 = 12_345.0 * 8.0; // ~98.8 kHz
        let n = 1 << 15;
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
            .collect();
        let psd = welch_psd(&samples, 1 << 11, Window::Hann, fs);
        let peak = psd
            .psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0;
        assert!(
            (peak as f64 * psd.bin_width_hz() - f0).abs() < 2.0 * psd.bin_width_hz(),
            "peak at {} vs {f0}",
            peak as f64 * psd.bin_width_hz()
        );
        // Tone power ≈ A²/2 = 0.5.
        let tone_power =
            psd.band_power(f0 - 5.0 * psd.bin_width_hz(), f0 + 5.0 * psd.bin_width_hz());
        assert!((tone_power - 0.5).abs() < 0.05, "tone power {tone_power}");
    }

    #[test]
    fn averaging_reduces_variance() {
        let fs = 1e6;
        let samples = white_noise(1 << 15, 0.1, 7);
        let few = welch_psd(&samples, 1 << 13, Window::Hann, fs);
        let many = welch_psd(&samples, 1 << 8, Window::Hann, fs);
        assert!(many.segments > 10 * few.segments);
        // Spread of the log-PSD shrinks with averaging.
        let spread = |p: &PsdEstimate| {
            let vals: Vec<f64> = p.psd[2..p.psd.len() - 1].iter().map(|v| v.ln()).collect();
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            (vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / vals.len() as f64).sqrt()
        };
        assert!(spread(&many) < spread(&few) * 0.5);
    }

    #[test]
    fn dc_is_removed() {
        let fs = 1e3;
        let samples: Vec<f64> = vec![5.0; 4096];
        let psd = welch_psd(&samples, 256, Window::Hann, fs);
        assert!(psd.psd[0] < 1e-20, "constant input has no AC power");
    }

    #[test]
    fn segment_count_and_samples_used_around_hop_boundaries() {
        // With segment_len L and hop L/2, an input of k·hop + L samples
        // holds exactly k+1 segments; one sample fewer drops a whole
        // segment, and the next hop−1 extra samples change nothing. The
        // off-by-one cases here pin the boundary arithmetic.
        let fs = 1e6;
        let seg = 64usize;
        let hop = seg / 2;
        for (len, want_segments) in [
            (seg, 1usize),             // exactly one segment
            (seg + hop - 1, 1),        // tail one short of a second segment
            (seg + hop, 2),            // second segment lands exactly
            (seg + hop + 1, 2),        // one spare sample, still two
            (10 * hop + seg, 11),      // aligned long record
            (10 * hop + seg + 17, 11), // 17-sample tail dropped
        ] {
            let samples = white_noise(len, 0.1, 5);
            let psd = welch_psd(&samples, seg, Window::Hann, fs);
            assert_eq!(psd.segments, want_segments, "len {len}");
            let used = (want_segments - 1) * hop + seg;
            assert_eq!(psd.samples_used, used, "len {len}");
            assert!(psd.samples_used <= len);
            assert!(len - psd.samples_used < hop, "drop is bounded by hop");
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One WelchScratch reused across calls — different windows,
        // segment lengths, and record lengths — must reproduce the
        // allocating path to the bit.
        let fs = 2.5e6;
        let mut scratch = WelchScratch::new();
        for (len, seg, window) in [
            (4096usize, 256usize, Window::Hann),
            (4096, 256, Window::Hamming),
            (1 << 13, 1 << 10, Window::Hann),
            (3000, 512, Window::BlackmanHarris),
            (4096, 256, Window::Hann), // back to the first shape
        ] {
            let samples = white_noise(len, 0.2, len as u64);
            let fresh = welch_psd(&samples, seg, window, fs);
            let reused = welch_psd_with(&samples, seg, window, fs, &mut scratch);
            assert_eq!(fresh.segments, reused.segments);
            assert_eq!(fresh.samples_used, reused.samples_used);
            for (a, b) in fresh.psd.iter().zip(&reused.psd) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len} seg {seg}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_segment_panics() {
        let _ = welch_psd(&[0.0; 100], 100, Window::Hann, 1e3);
    }

    /// A tiny estimate with hand-picked bin values, for exact band math.
    fn synthetic_psd(psd: Vec<f64>, bin_width_hz: f64) -> PsdEstimate {
        PsdEstimate {
            psd,
            bin_width_hz,
            segments: 1,
            samples_used: 0,
        }
    }

    #[test]
    fn inverted_band_integrates_to_zero() {
        // Regression: `lo.min(hi)..=hi` silently integrated one bin for
        // an inverted range, so band_power(400e3, 100e3) returned the
        // power of the bin at 100 kHz instead of 0.
        let psd = synthetic_psd(vec![1.0; 8], 1e3);
        assert_eq!(psd.band_power(4e3, 1e3), 0.0, "inverted range is empty");
        assert_eq!(psd.median_floor(4e3, 1e3), 0.0);
        // NaN endpoints are empty too, never a panic or a one-bin band.
        assert_eq!(psd.band_power(f64::NAN, 1e3), 0.0);
        assert_eq!(psd.median_floor(1e3, f64::NAN), 0.0);
    }

    #[test]
    fn band_past_nyquist_is_empty() {
        // Regression: a band starting beyond the last bin used to clamp
        // onto the last bin and report its power.
        let psd = synthetic_psd(vec![1.0; 8], 1e3); // bins 0..=7 → 0–7 kHz
        assert_eq!(psd.band_power(9e3, 12e3), 0.0, "band entirely out of range");
        assert_eq!(psd.median_floor(9e3, 12e3), 0.0);
        // A band that merely *ends* past the last bin still clamps.
        assert!((psd.band_power(6e3, 12e3) - 2.0 * 1e3).abs() < 1e-9);
    }

    #[test]
    fn median_averages_the_two_middle_elements() {
        // Regression: even-length bands took the upper-middle element,
        // biasing the floor estimate high.
        let psd = synthetic_psd(vec![0.0, 1.0, 2.0, 3.0, 4.0], 1e3);
        // Bins 1..=4 (even count): median of {1,2,3,4} = 2.5, not 3.
        assert!((psd.median_floor(1e3, 4e3) - 2.5).abs() < 1e-12);
        // Bins 1..=3 (odd count): median of {1,2,3} = 2.
        assert!((psd.median_floor(1e3, 3e3) - 2.0).abs() < 1e-12);
        // Single-bin band: the bin itself.
        assert!((psd.median_floor(2e3, 2e3) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dc_bin_is_excluded_from_bands_starting_at_zero() {
        let psd = synthetic_psd(vec![100.0, 1.0, 1.0, 1.0], 1e3);
        // From 0 Hz: bin 0's leakage residue must not count as noise.
        assert!((psd.band_power(0.0, 3e3) - 3.0 * 1e3).abs() < 1e-9);
        assert!((psd.median_floor(0.0, 3e3) - 1.0).abs() < 1e-12);
        // From any nonzero frequency the usual rounding applies.
        assert!((psd.band_power(1e3, 3e3) - 3.0 * 1e3).abs() < 1e-9);
    }

    #[test]
    fn display_reports_segments() {
        let psd = welch_psd(&white_noise(4096, 0.1, 3), 512, Window::Hann, 1e6);
        assert!(psd.to_string().contains("segments"));
        assert!(!psd.psd.is_empty());
    }
}
