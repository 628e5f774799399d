//! Micro-bench: the in-house FFT and spectral metrology.

use std::hint::black_box;
use tdsigma_bench::harness::BenchRunner;
use tdsigma_dsp::fft::fft_real;
use tdsigma_dsp::metrics::ToneAnalysis;
use tdsigma_dsp::spectrum::Spectrum;
use tdsigma_dsp::window::Window;

fn tone(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (2.0 * std::f64::consts::PI * 127.0 * i as f64 / n as f64).sin())
        .collect()
}

fn main() {
    let runner = BenchRunner::from_args();
    for n in [1 << 10, 1 << 13, 1 << 16] {
        let samples = tone(n);
        runner.bench(&format!("fft_real_{n}"), || black_box(fft_real(&samples)));
    }

    let samples = tone(1 << 14);
    runner.bench("spectrum_and_sndr_16k", || {
        let spec = Spectrum::from_samples(&samples, 750e6, Window::Hann);
        black_box(ToneAnalysis::of(&spec, Some(5e6)))
    });
    runner.finish();
}
