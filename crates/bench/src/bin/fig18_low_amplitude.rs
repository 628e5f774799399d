//! **FIG18** — reproduces Fig. 18: the 40 nm ADC driven with a low
//! 10 mV input amplitude; spectrum, time-domain output, and the "no idle
//! tones" check.

use tdsigma_bench::{ascii_spectrum, ascii_waveform};
use tdsigma_core::{AdcSpec, DesignFlow};
use tdsigma_dsp::{idle_tone_report, Window};

fn main() {
    println!("=== Fig. 18: low input amplitude (10 mV), 40 nm ===\n");
    let spec = AdcSpec::paper_40nm().expect("spec");
    let bw = spec.bw_hz;
    let full_scale_mv = spec.full_scale_v() * 1e3;
    let amplitude_rel = 0.010 / spec.full_scale_v(); // 10 mV differential
    let outcome = DesignFlow::new(spec)
        .with_samples(32_768)
        .with_amplitude(amplitude_rel)
        .run()
        .expect("flow");

    let spectrum = outcome.capture.spectrum(Window::Hann);
    println!("{}", ascii_spectrum(&spectrum, 18, 100, bw));
    println!("  {}", outcome.analysis);
    println!(
        "  input 10 mV of {full_scale_mv:.0} mV full scale = {:.1} dBFS",
        20.0 * amplitude_rel.log10()
    );
    match idle_tone_report(&spectrum, bw, 25.0) {
        Some(report) => println!("  idle-tone check: {report}"),
        None => println!("  idle-tone check: FAILED, too few noise bins in band"),
    }
    println!("  (paper: \"No idle tones are observed for the low input amplitude.\")");
    println!();
    println!("time-domain output (first 96 samples):");
    println!(
        "{}",
        ascii_waveform(
            &outcome.capture.output[..96.min(outcome.capture.output.len())],
            12,
            96
        )
    );
}
