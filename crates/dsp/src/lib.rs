//! # tdsigma-dsp — signal analysis and metrology
//!
//! Everything needed to turn a delta-sigma modulator bitstream into the
//! numbers the paper reports: an in-house radix-2 FFT, window functions,
//! power-spectral-density estimation, single-tone ADC metrics (SNDR, SNR,
//! SFDR, THD, ENOB), the Walden figure of merit, a noise-shaping slope
//! estimator (the paper's "20 dB/dec" annotation in Fig. 17), idle-tone
//! detection (Fig. 18), and decimation filters.
//!
//! No external DSP crates are used; the FFT is implemented here and verified
//! against a direct DFT, Parseval's theorem, and analytic cases. Every
//! module is private: the root re-exports exactly the names other crates,
//! the benches and the integration tests import.
//!
//! ```
//! use tdsigma_dsp::{Spectrum, ToneAnalysis, Window};
//!
//! // A pure sine at bin 17 of a 1024-point capture.
//! let n = 1024;
//! let samples: Vec<f64> = (0..n)
//!     .map(|i| (2.0 * std::f64::consts::PI * 17.0 * i as f64 / n as f64).sin())
//!     .collect();
//! let spec = Spectrum::from_samples(&samples, 1.0e6, Window::Hann);
//! let tone = ToneAnalysis::of(&spec, None);
//! assert!(tone.sndr_db > 90.0); // pure tone: quantization-free
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod decimate;
mod fft;
mod fir;
mod linearity;
mod metrics;
mod shaping;
mod spectrum;
mod welch;
mod window;

pub use decimate::{boxcar_decimate, CicDecimator};
pub use fft::{dft_reference, fft_in_place, fft_real, ifft_in_place, Complex};
pub use fir::FirFilter;
pub use linearity::{transfer_inl, TransferPoint};
pub use metrics::{enob_from_sndr, walden_fom_fj, ToneAnalysis, TwoToneAnalysis};
pub use shaping::{fit_noise_slope, idle_tone_report, IdleToneReport, SlopeFit};
pub use spectrum::{Spectrum, SpectrumScratch};
pub use welch::{welch_psd, PsdEstimate};
pub use window::Window;
