//! The digital back end: "with subsequent low pass filtering and
//! decimating in digital domain, the effect of quantization to the in-band
//! signal can be suppressed" (paper §2.1).
//!
//! A classic two-stage decimator: a CIC does the bulk rate change at the
//! modulator rate, then a droop-compensating FIR low-pass finishes the job
//! at the low rate. Both stages are standard-cell-friendly digital logic —
//! in a full SoC they would go through the same APR flow as the modulator.

use crate::sim::SimCapture;
use crate::spec::AdcSpec;
use std::fmt;
use tdsigma_dsp::{CicDecimator, FirFilter, Spectrum, SpectrumScratch, ToneAnalysis, Window};

/// The decimated, filtered output of the ADC.
#[derive(Debug, Clone, PartialEq)]
pub struct DecimatedSignal {
    /// Output samples (full-scale normalised like the raw capture).
    pub samples: Vec<f64>,
    /// Output rate, Hz.
    pub rate_hz: f64,
    /// Full-scale amplitude in sample units.
    pub full_scale: f64,
}

impl DecimatedSignal {
    /// Spectrum of the decimated output.
    ///
    /// Decimation destroys the capture's coherence (the retained window is
    /// no longer an integer number of input periods), so this uses the
    /// Blackman-Harris window, whose −92 dB sidelobes keep non-coherent
    /// leakage out of the noise integral.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 64 output samples are available.
    pub fn spectrum(&self) -> Spectrum {
        self.spectrum_with(&mut SpectrumScratch::new())
    }

    /// [`Self::spectrum`] with caller-owned DSP scratch buffers;
    /// bit-identical, no per-call window/twiddle setup.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 64 output samples are available.
    pub(crate) fn spectrum_with(&self, scratch: &mut SpectrumScratch) -> Spectrum {
        let n = self.samples.len();
        assert!(n >= 64, "need at least 64 decimated samples");
        let pow2 = 1usize << (usize::BITS - 1 - n.leading_zeros());
        Spectrum::from_samples_scratch(
            &self.samples[n - pow2..],
            self.rate_hz,
            Window::BlackmanHarris,
            self.full_scale,
            scratch,
        )
    }

    /// Single-tone analysis of the decimated output up to `bw_hz`.
    pub fn analyze(&self, bw_hz: f64) -> ToneAnalysis {
        self.analyze_with(bw_hz, &mut SpectrumScratch::new())
    }

    /// [`Self::analyze`] with caller-owned DSP scratch buffers;
    /// bit-identical to [`Self::analyze`].
    pub(crate) fn analyze_with(&self, bw_hz: f64, scratch: &mut SpectrumScratch) -> ToneAnalysis {
        ToneAnalysis::of(&self.spectrum_with(scratch), Some(bw_hz))
    }
}

impl fmt::Display for DecimatedSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples @ {:.3} MHz",
            self.samples.len(),
            self.rate_hz / 1e6
        )
    }
}

/// The two-stage decimation back end.
#[derive(Debug, Clone, PartialEq)]
pub struct DecimationBackend {
    cic: CicDecimator,
    compensator: FirFilter,
    ratio: usize,
}

impl DecimationBackend {
    /// Designs the back end for a spec: CIC³ decimating to 4× Nyquist,
    /// then a droop-compensated FIR cutting at the signal bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the spec's OSR is below 8 (nothing to decimate).
    pub fn for_spec(spec: &AdcSpec) -> Self {
        let osr = spec.oversampling_ratio();
        assert!(osr >= 8.0, "OSR {osr} leaves nothing to decimate");
        let ratio = ((osr / 4.0).floor() as usize).max(2);
        let cic = CicDecimator::new(3, ratio);
        // Passband edge at the decimated rate.
        let passband = spec.bw_hz / (spec.fs_hz / ratio as f64);
        let compensator = FirFilter::cic_compensator(3, ratio, passband.min(0.45), 63);
        DecimationBackend {
            cic,
            compensator,
            ratio,
        }
    }

    /// Processes a raw modulator capture into the decimated output.
    pub fn process(&self, capture: &SimCapture) -> DecimatedSignal {
        let _span = tdsigma_obs::span("flow.decimate")
            .attr("samples", capture.output.len())
            .attr("ratio", self.ratio);
        let decimated = self.cic.decimate(&capture.output);
        let filtered = self.compensator.filter(&decimated);
        // Drop the settling transient at the head AND the zero-padded
        // convolution edge at the tail.
        let skip = self.compensator.taps().len().min(filtered.len() / 4);
        let tail = (self.compensator.taps().len() / 2 + 1).min(filtered.len() / 8);
        DecimatedSignal {
            samples: filtered[skip..filtered.len() - tail].to_vec(),
            rate_hz: capture.fs_hz / self.ratio as f64,
            full_scale: (capture.n_slices * capture.taps_per_slice) as f64 / 2.0,
        }
    }
}

impl fmt::Display for DecimationBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {} ÷{}", self.cic, self.compensator, self.ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::AdcSimulator;

    fn quick_capture(n: usize) -> (AdcSpec, SimCapture, f64) {
        let mut spec = AdcSpec::paper_40nm().unwrap();
        spec.steps_per_cycle = 8;
        let fin = (spec.bw_hz / 5.0 * n as f64 / spec.fs_hz).round() * spec.fs_hz / n as f64;
        let mut sim = AdcSimulator::new(spec.clone()).unwrap();
        let cap = sim.run_tone(fin, 0.7 * spec.full_scale_v(), n);
        (spec, cap, fin)
    }

    #[test]
    fn backend_preserves_the_tone() {
        let (spec, cap, fin) = quick_capture(16384);
        let backend = DecimationBackend::for_spec(&spec);
        let out = backend.process(&cap);
        let analysis = out.analyze(spec.bw_hz);
        // Tolerance: one bin of the decimated FFT (the retained window is
        // not coherent with the tone).
        let bin_hz = out.rate_hz / out.spectrum().time_samples() as f64;
        assert!(
            (analysis.fundamental_hz - fin).abs() <= bin_hz,
            "tone at {} vs fin {fin} (bin {bin_hz})",
            analysis.fundamental_hz
        );
        // Amplitude preserved within the combined measurement spread of
        // the two (coherent vs non-coherent) analyses.
        let raw = cap.analyze(spec.bw_hz);
        assert!(
            (analysis.signal_dbfs - raw.signal_dbfs).abs() < 2.0,
            "decimated {} vs raw {} dBFS",
            analysis.signal_dbfs,
            raw.signal_dbfs
        );
    }

    #[test]
    fn backend_preserves_most_of_the_sndr() {
        // Needs a long capture: the decimated FFT has R× fewer points, so
        // short runs under-resolve the noise floor.
        let (spec, cap, _) = quick_capture(32_768);
        let backend = DecimationBackend::for_spec(&spec);
        let out = backend.process(&cap);
        let dec_sndr = out.analyze(spec.bw_hz).sndr_db;
        let raw_sndr = cap.analyze(spec.bw_hz).sndr_db;
        assert!(
            dec_sndr > raw_sndr - 6.0,
            "decimation must not eat the resolution: {dec_sndr} vs {raw_sndr}"
        );
    }

    #[test]
    fn rate_change_matches_ratio() {
        let (spec, cap, _) = quick_capture(2048);
        let backend = DecimationBackend::for_spec(&spec);
        assert_eq!(backend.ratio, 18); // OSR 75 / 4 → 18
        let out = backend.process(&cap);
        assert!((out.rate_hz - spec.fs_hz / 18.0).abs() < 1.0);
        assert!(out.samples.len() <= 2048 / 18);
        assert!(out.to_string().contains("samples"));
        assert!(backend.to_string().contains("÷18"));
    }

    #[test]
    #[should_panic(expected = "nothing to decimate")]
    fn low_osr_panics() {
        let mut spec = AdcSpec::paper_40nm().unwrap();
        spec.bw_hz = spec.fs_hz / 8.0;
        let spec = spec.validated().unwrap();
        let _ = DecimationBackend::for_spec(&spec);
    }
}
