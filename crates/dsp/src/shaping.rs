//! Noise-shaping diagnostics: slope fitting and idle-tone detection.
//!
//! The paper's Fig. 17 annotates a "20 dB/dec" noise-shaping slope between
//! the band edge and the quantization-noise plateau; Fig. 18 claims "no idle
//! tones are observed" at a 10 mV input. This module quantifies both.

use crate::spectrum::{power_to_db, Spectrum};
use std::fmt;

/// Result of a least-squares fit of the noise floor's slope in
/// dB-per-decade over a frequency range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlopeFit {
    /// Fitted slope in dB/decade.
    pub slope_db_per_decade: f64,
    /// Fit intercept: the dB level extrapolated to 1 Hz.
    pub intercept_db: f64,
    /// Number of octave-binned points used.
    pub points: usize,
}

impl fmt::Display for SlopeFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} dB/dec over {} points",
            self.slope_db_per_decade, self.points
        )
    }
}

/// Fits the spectral slope between `f_lo_hz` and `f_hi_hz`, excluding the
/// strongest (signal) bin's leakage skirt.
///
/// The noise floor is first smoothed into logarithmically spaced buckets
/// (8 per decade) so the fit measures the floor rather than bin-to-bin
/// scatter. A first-order delta-sigma modulator shows ≈ +20 dB/decade.
///
/// Returns `None` if the range holds fewer than 4 log buckets with data,
/// too few for a meaningful line.
pub fn fit_noise_slope(spectrum: &Spectrum, f_lo_hz: f64, f_hi_hz: f64) -> Option<SlopeFit> {
    let skirt = spectrum.window().leakage_bins();
    let signal_bin = spectrum.peak_bin();
    let lo_bin = spectrum.bin_of_frequency(f_lo_hz).max(skirt + 1);
    let hi_bin = spectrum.bin_of_frequency(f_hi_hz);

    // Log-spaced buckets: 8 per decade.
    let buckets_per_decade = 8.0;
    let mut pts: Vec<(f64, f64)> = Vec::new();
    let mut bucket_lo = lo_bin as f64;
    while bucket_lo < hi_bin as f64 {
        let bucket_hi = (bucket_lo * 10f64.powf(1.0 / buckets_per_decade)).max(bucket_lo + 1.0);
        let a = bucket_lo as usize;
        let b = (bucket_hi as usize).min(hi_bin);
        let mut power = 0.0;
        let mut count = 0usize;
        for bin in a..=b {
            if bin + skirt >= signal_bin && bin <= signal_bin + skirt {
                continue; // exclude the tone
            }
            power += spectrum.power(bin);
            count += 1;
        }
        if count > 0 {
            let centre_hz = spectrum.bin_frequency_hz((a + b) / 2);
            pts.push((centre_hz.log10(), power_to_db(power / count as f64)));
        }
        bucket_lo = bucket_hi;
    }
    if pts.len() < 4 {
        return None;
    }

    // Ordinary least squares on (log10 f, dB).
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    Some(SlopeFit {
        slope_db_per_decade: slope,
        intercept_db: intercept,
        points: pts.len(),
    })
}

/// Report of in-band idle-tone inspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleToneReport {
    /// Ratio of the worst non-signal in-band bin to the median noise bin, dB.
    pub worst_spur_over_median_db: f64,
    /// Frequency of the worst spur, Hz.
    pub worst_spur_hz: f64,
    /// True if no bin exceeds the idle-tone threshold.
    pub clean: bool,
    /// Threshold used, dB over the median noise bin.
    pub threshold_db: f64,
}

impl fmt::Display for IdleToneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worst in-band spur {:+.1} dB over median at {:.3} MHz → {}",
            self.worst_spur_over_median_db,
            self.worst_spur_hz / 1e6,
            if self.clean {
                "no idle tones"
            } else {
                "IDLE TONES PRESENT"
            }
        )
    }
}

/// Inspects the in-band spectrum (up to `bandwidth_hz`) for idle tones.
///
/// An idle tone is flagged when any non-signal bin exceeds the median noise
/// bin by more than `threshold_db` (default judgement: 25 dB — discrete
/// tones in first-order modulators typically protrude 30–50 dB).
///
/// Returns `None` if fewer than 8 noise bins are in band, too few for a
/// meaningful median.
pub fn idle_tone_report(
    spectrum: &Spectrum,
    bandwidth_hz: f64,
    threshold_db: f64,
) -> Option<IdleToneReport> {
    let skirt = spectrum.window().leakage_bins();
    let signal_bin = spectrum.peak_bin();
    let lo = skirt + 1;
    let hi = spectrum.bin_of_frequency(bandwidth_hz);
    let mut noise: Vec<(usize, f64)> = (lo..=hi)
        .filter(|&b| b + skirt < signal_bin || b > signal_bin + skirt)
        .map(|b| (b, spectrum.power(b)))
        .collect();
    if noise.len() < 8 {
        return None;
    }
    noise.sort_by(|a, b| a.1.total_cmp(&b.1));
    let median = noise[noise.len() / 2].1;
    let (worst_bin, worst_power) = noise[noise.len() - 1];
    let ratio_db = power_to_db(worst_power) - power_to_db(median);
    Some(IdleToneReport {
        worst_spur_over_median_db: ratio_db,
        worst_spur_hz: spectrum.bin_frequency_hz(worst_bin),
        clean: ratio_db <= threshold_db,
        threshold_db,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;
    use std::f64::consts::PI;

    /// Synthesises a capture with a tone plus noise whose amplitude grows
    /// ∝ f^(slope_per_decade/20) — i.e. shaped noise.
    fn shaped_capture(n: usize, tone_bin: usize, shaping_db_per_decade: f64) -> Vec<f64> {
        use crate::fft::{ifft_in_place, Complex};
        let mut spec = vec![Complex::ZERO; n];
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64 * 2.0 * PI
        };
        for k in 1..n / 2 {
            let f_rel = k as f64 / (n / 2) as f64;
            let amp = 1e-4 * f_rel.powf(shaping_db_per_decade / 20.0);
            let phase = rng();
            spec[k] = Complex::cis(phase).scale(amp * n as f64 / 2.0);
            spec[n - k] = spec[k].conj();
        }
        spec[tone_bin] = spec[tone_bin] + Complex::new(0.0, -(n as f64) / 2.0);
        spec[n - tone_bin] = spec[tone_bin].conj();
        ifft_in_place(&mut spec);
        spec.iter().map(|c| c.re).collect()
    }

    #[test]
    fn recovers_first_order_shaping_slope() {
        let samples = shaped_capture(1 << 14, 37, 20.0);
        let s = Spectrum::from_samples(&samples, 100e6, Window::Hann);
        let fit = fit_noise_slope(&s, 1e6, 40e6).unwrap();
        assert!(
            (fit.slope_db_per_decade - 20.0).abs() < 4.0,
            "expected ~20 dB/dec, got {}",
            fit.slope_db_per_decade
        );
        assert!(fit.points >= 8);
    }

    #[test]
    fn flat_noise_fits_zero_slope() {
        let samples = shaped_capture(1 << 13, 21, 0.0);
        let s = Spectrum::from_samples(&samples, 100e6, Window::Hann);
        let fit = fit_noise_slope(&s, 1e6, 40e6).unwrap();
        assert!(
            fit.slope_db_per_decade.abs() < 4.0,
            "expected ~0 dB/dec, got {}",
            fit.slope_db_per_decade
        );
    }

    #[test]
    fn second_order_slope_distinguished() {
        let samples = shaped_capture(1 << 14, 37, 40.0);
        let s = Spectrum::from_samples(&samples, 100e6, Window::Hann);
        let fit = fit_noise_slope(&s, 1e6, 40e6).unwrap();
        assert!(
            fit.slope_db_per_decade > 30.0,
            "got {}",
            fit.slope_db_per_decade
        );
    }

    #[test]
    fn clean_spectrum_has_no_idle_tones() {
        let samples = shaped_capture(1 << 13, 500, 20.0);
        let s = Spectrum::from_samples(&samples, 100e6, Window::Hann);
        let report = idle_tone_report(&s, 10e6, 25.0).unwrap();
        assert!(report.clean, "{report}");
    }

    #[test]
    fn injected_idle_tone_is_detected() {
        let n = 1 << 13;
        let mut samples = shaped_capture(n, 500, 20.0);
        // Inject a discrete in-band tone 40 dB above the local floor.
        for (i, s) in samples.iter_mut().enumerate() {
            *s += 2e-3 * (2.0 * PI * 90.0 * i as f64 / n as f64).sin();
        }
        let s = Spectrum::from_samples(&samples, 100e6, Window::Hann);
        let report = idle_tone_report(&s, 10e6, 25.0).unwrap();
        assert!(!report.clean, "{report}");
        assert!(report.worst_spur_over_median_db > 25.0);
    }

    #[test]
    fn display_formats() {
        let samples = shaped_capture(1 << 12, 100, 20.0);
        let s = Spectrum::from_samples(&samples, 100e6, Window::Hann);
        let fit = fit_noise_slope(&s, 1e6, 40e6).unwrap();
        assert!(fit.to_string().contains("dB/dec"));
        let report = idle_tone_report(&s, 20e6, 25.0).unwrap();
        assert!(report.to_string().contains("spur"));
    }

    #[test]
    fn too_narrow_band_has_no_slope() {
        let samples = shaped_capture(1 << 12, 100, 20.0);
        let s = Spectrum::from_samples(&samples, 100e6, Window::Hann);
        // 1–1.5 MHz spans about 0.18 decade: two log buckets.
        assert_eq!(fit_noise_slope(&s, 1e6, 1.5e6), None);
        assert!(fit_noise_slope(&s, 1e6, 40e6).is_some());
    }

    #[test]
    fn too_narrow_band_has_no_idle_tone_report() {
        let samples = shaped_capture(1 << 12, 100, 20.0);
        let s = Spectrum::from_samples(&samples, 100e6, Window::Hann);
        // 100 kHz is bin 4 at 24.4 kHz/bin; past the 3-bin Hann skirt
        // that leaves one noise bin.
        assert_eq!(idle_tone_report(&s, 1e5, 25.0), None);
        assert!(idle_tone_report(&s, 20e6, 25.0).is_some());
    }
}
