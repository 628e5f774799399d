//! Single-tone ADC metrics: SNDR, SNR, THD, SFDR, ENOB, and the figures of
//! merit the paper's Tables 3 and 4 report.

use crate::spectrum::{power_to_db, Spectrum};
use crate::window::Window;
use std::fmt;

/// Result of analysing a single-tone capture.
///
/// Follows the standard IEEE 1241-style definitions, restricted to the
/// signal bandwidth when one is given (delta-sigma converters are evaluated
/// in-band only; the paper's BW is 5 MHz at 40 nm and 1.4 MHz at 180 nm).
#[derive(Debug, Clone, PartialEq)]
pub struct ToneAnalysis {
    /// Bin index of the fundamental.
    pub fundamental_bin: usize,
    /// Fundamental frequency in Hz.
    pub fundamental_hz: f64,
    /// Fundamental amplitude in dBFS.
    pub signal_dbfs: f64,
    /// Signal-to-noise-and-distortion ratio in dB.
    pub sndr_db: f64,
    /// Signal-to-noise ratio (harmonics excluded) in dB.
    pub snr_db: f64,
    /// Total harmonic distortion in dB (negative; -∞ capped at -200).
    pub thd_db: f64,
    /// Spurious-free dynamic range in dB.
    pub sfdr_db: f64,
    /// Effective number of bits derived from SNDR.
    pub enob: f64,
    /// The bandwidth used for integration, Hz.
    pub bandwidth_hz: f64,
}

impl ToneAnalysis {
    /// The shortest power-of-two capture, in samples at
    /// `sample_rate_hz`, that leaves [`ToneAnalysis::of`] enough bins
    /// below `bandwidth_hz` under `window` — that method's precondition,
    /// checkable before anything is simulated. `None` when no capture
    /// length resolves the band (a non-positive bandwidth or rate).
    pub fn min_samples(sample_rate_hz: f64, bandwidth_hz: f64, window: Window) -> Option<usize> {
        let lo_bin = window.leakage_bins() + 1;
        let bw = bandwidth_hz.min(sample_rate_hz / 2.0);
        (1..usize::BITS - 1).map(|k| 1usize << k).find(|&n| {
            let hi_bin = ((bw / (sample_rate_hz / n as f64)).round() as usize).min(n / 2);
            hi_bin > lo_bin + 2
        })
    }

    /// Analyses `spectrum`, integrating noise up to `bandwidth_hz`
    /// (defaults to Nyquist when `None`).
    ///
    /// The fundamental is the strongest in-band bin; its window-leakage
    /// skirt is attributed to the signal. Harmonics 2..=6 (folded across
    /// Nyquist) are attributed to distortion.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth leaves fewer than a handful of usable bins.
    pub fn of(spectrum: &Spectrum, bandwidth_hz: Option<f64>) -> Self {
        let nyquist = spectrum.sample_rate_hz() / 2.0;
        let bw = bandwidth_hz.unwrap_or(nyquist).min(nyquist);
        let hi_bin = spectrum.bin_of_frequency(bw);
        let skirt = spectrum.window().leakage_bins();
        let lo_bin = skirt + 1; // skip DC and its leakage skirt
        assert!(
            hi_bin > lo_bin + 2,
            "bandwidth leaves too few bins: lo={lo_bin} hi={hi_bin}"
        );

        // Fundamental: strongest bin within the band.
        let fundamental_bin = (lo_bin..=hi_bin)
            .max_by(|&a, &b| {
                spectrum
                    .power(a)
                    .partial_cmp(&spectrum.power(b))
                    .expect("powers are finite")
            })
            .expect("band is non-empty");

        let signal_lo = fundamental_bin.saturating_sub(skirt).max(lo_bin);
        let signal_hi = (fundamental_bin + skirt).min(hi_bin);
        let signal_power = spectrum.band_power(signal_lo, signal_hi);

        // Harmonic bins (with leakage skirts), folded into the first Nyquist
        // zone.
        let n_full = spectrum.time_samples();
        let mut harmonic_bins: Vec<usize> = Vec::new();
        for h in 2..=6usize {
            let raw = (fundamental_bin * h) % n_full;
            let folded = if raw > n_full / 2 { n_full - raw } else { raw };
            if folded >= lo_bin && folded <= hi_bin {
                harmonic_bins.push(folded);
            }
        }

        let in_skirt = |bin: usize, centre: usize| -> bool {
            bin >= centre.saturating_sub(skirt) && bin <= centre + skirt
        };

        let mut noise_power = 0.0;
        let mut distortion_power = 0.0;
        let mut worst_spur_power = 0.0f64;
        let mut spur_run_power = 0.0f64; // power of contiguous non-signal region
        for bin in lo_bin..=hi_bin {
            if in_skirt(bin, fundamental_bin) {
                spur_run_power = 0.0;
                continue;
            }
            let p = spectrum.power(bin);
            if harmonic_bins.iter().any(|&c| in_skirt(bin, c)) {
                distortion_power += p;
            } else {
                noise_power += p;
            }
            spur_run_power = spur_run_power.max(p);
            worst_spur_power = worst_spur_power.max(spur_run_power);
        }

        let nad = noise_power + distortion_power;
        let sndr_db = power_to_db(signal_power) - power_to_db(nad);
        let snr_db = power_to_db(signal_power) - power_to_db(noise_power);
        let thd_db = power_to_db(distortion_power) - power_to_db(signal_power);
        // SFDR compares like with like: strongest single signal bin vs
        // strongest single spur bin.
        let sfdr_db = power_to_db(spectrum.power(fundamental_bin)) - power_to_db(worst_spur_power);

        ToneAnalysis {
            fundamental_bin,
            fundamental_hz: spectrum.bin_frequency_hz(fundamental_bin),
            signal_dbfs: power_to_db(signal_power),
            sndr_db,
            snr_db,
            thd_db,
            sfdr_db,
            enob: enob_from_sndr(sndr_db),
            bandwidth_hz: bw,
        }
    }
}

impl fmt::Display for ToneAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tone {:.3} MHz @ {:.1} dBFS: SNDR {:.1} dB (ENOB {:.2}), SNR {:.1} dB, SFDR {:.1} dB",
            self.fundamental_hz / 1e6,
            self.signal_dbfs,
            self.sndr_db,
            self.enob,
            self.snr_db,
            self.sfdr_db
        )
    }
}

/// Result of a two-tone intermodulation test.
///
/// Third-order intermodulation products land at `2f1 − f2` and `2f2 − f1`
/// — in-band for closely spaced tones, which is why IMD3 is the
/// linearity metric single-tone THD can miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoToneAnalysis {
    /// Level of the first tone, dBFS.
    pub tone1_dbfs: f64,
    /// Level of the second tone, dBFS.
    pub tone2_dbfs: f64,
    /// Worst third-order intermodulation product, dBc (relative to the
    /// stronger tone; very negative = linear).
    pub imd3_dbc: f64,
}

impl fmt::Display for TwoToneAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "two-tone: {:.1} / {:.1} dBFS, IMD3 {:.1} dBc",
            self.tone1_dbfs, self.tone2_dbfs, self.imd3_dbc
        )
    }
}

impl TwoToneAnalysis {
    /// Measures a two-tone capture: tone powers at `f1`/`f2` and the worst
    /// IMD3 product at `2f1−f2` / `2f2−f1` (each integrated over the
    /// window's leakage skirt).
    ///
    /// # Panics
    ///
    /// Panics if an IMD product falls outside the spectrum or the tones
    /// overlap within a leakage skirt.
    pub fn of(spectrum: &Spectrum, f1_hz: f64, f2_hz: f64) -> Self {
        let skirt = spectrum.window().leakage_bins();
        let bin = |f: f64| spectrum.bin_of_frequency(f);
        let b1 = bin(f1_hz);
        let b2 = bin(f2_hz);
        assert!(
            b1.abs_diff(b2) > 2 * skirt,
            "tones too close to separate: bins {b1} and {b2}"
        );
        let band = |centre: usize| {
            spectrum.band_power(
                centre.saturating_sub(skirt),
                (centre + skirt).min(spectrum.len() - 1),
            )
        };
        let p1 = band(b1);
        let p2 = band(b2);
        let imd_lo = 2.0 * f1_hz - f2_hz;
        let imd_hi = 2.0 * f2_hz - f1_hz;
        assert!(imd_lo > 0.0, "lower IMD3 product below DC");
        let imd_power = band(bin(imd_lo)).max(band(bin(imd_hi)));
        let carrier = p1.max(p2);
        TwoToneAnalysis {
            tone1_dbfs: power_to_db(p1),
            tone2_dbfs: power_to_db(p2),
            imd3_dbc: power_to_db(imd_power) - power_to_db(carrier),
        }
    }
}

/// Effective number of bits for a given SNDR: `(SNDR − 1.76) / 6.02`
/// (the formula quoted under the paper's Table 3).
pub fn enob_from_sndr(sndr_db: f64) -> f64 {
    (sndr_db - 1.76) / 6.02
}

/// Walden figure of merit in femtojoules per conversion step:
/// `FOM = P / (2^ENOB · 2 · BW)` (the paper's Table 3 footnote).
///
/// `power_w` in watts, `bandwidth_hz` in hertz.
///
/// # Panics
///
/// Panics if `bandwidth_hz` is not positive.
pub fn walden_fom_fj(power_w: f64, sndr_db: f64, bandwidth_hz: f64) -> f64 {
    assert!(bandwidth_hz > 0.0, "bandwidth must be positive");
    let enob = enob_from_sndr(sndr_db);
    power_w / (2f64.powf(enob) * 2.0 * bandwidth_hz) * 1e15
}

/// Schreier figure of merit in dB: `SNDR + 10·log10(BW / P)`.
///
/// # Panics
///
/// Panics if `power_w` or `bandwidth_hz` is not positive.
pub fn schreier_fom_db(power_w: f64, sndr_db: f64, bandwidth_hz: f64) -> f64 {
    assert!(
        power_w > 0.0 && bandwidth_hz > 0.0,
        "power and bandwidth must be positive"
    );
    sndr_db + 10.0 * (bandwidth_hz / power_w).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn capture(n: usize, tone_bin: f64, amp: f64, noise_rms: f64, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-noise via an xorshift, to avoid rand here.
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                amp * (2.0 * PI * tone_bin * t).sin() + noise_rms * 3.46 * rng()
            })
            .collect()
    }

    #[test]
    fn min_samples_is_the_analysis_precondition() {
        // 750 MHz / 5 MHz under Hann: the band edge must land past bin 6.
        let min = ToneAnalysis::min_samples(750e6, 5e6, Window::Hann).unwrap();
        assert_eq!(min, 1024);
        let s = Spectrum::from_samples(&capture(min, 5.0, 1.0, 1e-3, 3), 750e6, Window::Hann);
        let _ = ToneAnalysis::of(&s, Some(5e6));
        let short =
            Spectrum::from_samples(&capture(min / 2, 2.0, 1.0, 1e-3, 3), 750e6, Window::Hann);
        let caught = std::panic::catch_unwind(|| ToneAnalysis::of(&short, Some(5e6)));
        assert!(caught.is_err(), "half the minimum must be too short");
        assert_eq!(ToneAnalysis::min_samples(750e6, 0.0, Window::Hann), None);
    }

    #[test]
    fn clean_tone_has_high_sndr() {
        let s = Spectrum::from_samples(&capture(4096, 301.0, 1.0, 0.0, 7), 1e6, Window::Hann);
        let t = ToneAnalysis::of(&s, None);
        assert_eq!(t.fundamental_bin, 301);
        assert!(t.sndr_db > 100.0, "got {}", t.sndr_db);
        assert!(t.enob > 16.0);
    }

    #[test]
    fn known_snr_is_recovered() {
        // amplitude 1 sine (power 0.5), white noise rms 0.005 (power 2.5e-5)
        // → SNR = 10·log10(0.5/2.5e-5) = 43 dB.
        let s = Spectrum::from_samples(&capture(8192, 500.0, 1.0, 0.005, 42), 1e6, Window::Hann);
        let t = ToneAnalysis::of(&s, None);
        assert!(
            (t.snr_db - 43.0).abs() < 2.0,
            "expected ~43 dB, got {}",
            t.snr_db
        );
    }

    #[test]
    fn bandwidth_restriction_raises_sndr_of_oversampled_capture() {
        // Noise spread to Nyquist; restricting to 1/16 of the band drops
        // in-band noise by ~12 dB.
        let samples = capture(8192, 100.0, 1.0, 0.01, 3);
        let full = ToneAnalysis::of(&Spectrum::from_samples(&samples, 1e6, Window::Hann), None);
        let narrow = ToneAnalysis::of(
            &Spectrum::from_samples(&samples, 1e6, Window::Hann),
            Some(1e6 / 32.0),
        );
        assert!(
            narrow.sndr_db > full.sndr_db + 8.0,
            "narrow {} vs full {}",
            narrow.sndr_db,
            full.sndr_db
        );
    }

    #[test]
    fn harmonic_distortion_is_separated_from_noise() {
        let n = 8192;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * PI * 400.0 * t).sin() + 0.01 * (2.0 * PI * 800.0 * t).sin()
            })
            .collect();
        let s = Spectrum::from_samples(&samples, 1e6, Window::Hann);
        let t = ToneAnalysis::of(&s, None);
        // THD of a -40 dB second harmonic.
        assert!((t.thd_db + 40.0).abs() < 1.0, "thd {}", t.thd_db);
        // SNR excludes the harmonic and stays high.
        assert!(t.snr_db > t.sndr_db + 10.0);
        // SFDR sees the harmonic as the worst spur.
        assert!((t.sfdr_db - 40.0).abs() < 1.0, "sfdr {}", t.sfdr_db);
    }

    #[test]
    fn enob_formula_matches_table3_footnote() {
        // Paper: SNDR 69.5 dB → ENOB 11.25.
        assert!((enob_from_sndr(69.5) - 11.25).abs() < 0.01);
    }

    #[test]
    fn walden_fom_matches_table3() {
        // Paper 40 nm: 1.37 mW, 69.5 dB, 5 MHz → 56.2 fJ/conv.
        let fom = walden_fom_fj(1.37e-3, 69.5, 5e6);
        assert!((fom - 56.2).abs() < 1.0, "got {fom}");
        // Paper 180 nm: 5.45 mW, 69.5 dB, 1.4 MHz → 798 fJ/conv.
        let fom = walden_fom_fj(5.45e-3, 69.5, 1.4e6);
        assert!((fom - 798.0).abs() < 15.0, "got {fom}");
    }

    #[test]
    fn schreier_fom_sane() {
        let fom = schreier_fom_db(1.37e-3, 69.5, 5e6);
        assert!(fom > 150.0 && fom < 175.0, "got {fom}");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn walden_zero_bw_panics() {
        let _ = walden_fom_fj(1e-3, 60.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "too few bins")]
    fn tiny_bandwidth_panics() {
        let s = Spectrum::from_samples(&capture(1024, 100.0, 1.0, 0.0, 1), 1e6, Window::Hann);
        let _ = ToneAnalysis::of(&s, Some(1.0));
    }

    #[test]
    fn two_tone_on_linear_system_shows_no_imd() {
        let n = 8192;
        let (b1, b2) = (400.0, 460.0);
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                0.45 * (2.0 * PI * b1 * t).sin() + 0.45 * (2.0 * PI * b2 * t).sin()
            })
            .collect();
        let s = Spectrum::from_samples(&samples, 1e6, Window::Hann);
        let tt = TwoToneAnalysis::of(&s, b1 / n as f64 * 1e6, b2 / n as f64 * 1e6);
        // Skirt-integrated level of a coherent tone reads ENBW (1.76 dB for
        // Hann) above the amplitude: 20·log10(0.45) + 1.76 ≈ −5.2 dBFS.
        assert!((tt.tone1_dbfs + 5.2).abs() < 0.5, "{tt}");
        assert!(tt.imd3_dbc < -100.0, "linear: {tt}");
    }

    #[test]
    fn cubic_nonlinearity_produces_imd3() {
        let n = 8192;
        let (b1, b2) = (400.0, 460.0);
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                let x = 0.45 * (2.0 * PI * b1 * t).sin() + 0.45 * (2.0 * PI * b2 * t).sin();
                x + 0.05 * x * x * x
            })
            .collect();
        let s = Spectrum::from_samples(&samples, 1e6, Window::Hann);
        let tt = TwoToneAnalysis::of(&s, b1 / n as f64 * 1e6, b2 / n as f64 * 1e6);
        // 5% cubic on ~0.45 tones → IMD3 ≈ 20·log10(3/4·0.05·0.45²) ≈ -42 dBc.
        assert!((-50.0..-30.0).contains(&tt.imd3_dbc), "{tt}");
        assert!(tt.to_string().contains("IMD3"));
    }

    #[test]
    #[should_panic(expected = "tones too close")]
    fn overlapping_tones_panic() {
        let s = Spectrum::from_samples(&capture(1024, 100.0, 1.0, 0.0, 1), 1e6, Window::Hann);
        let _ = TwoToneAnalysis::of(&s, 100.0 / 1024.0 * 1e6, 102.0 / 1024.0 * 1e6);
    }

    #[test]
    fn display_reports_key_numbers() {
        let s = Spectrum::from_samples(&capture(2048, 100.0, 1.0, 0.001, 5), 1e6, Window::Hann);
        let t = ToneAnalysis::of(&s, None);
        let text = t.to_string();
        assert!(text.contains("SNDR"));
        assert!(text.contains("ENOB"));
    }
}
