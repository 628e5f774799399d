//! **FIG16** — reproduces Fig. 16: post-layout transient simulation of the
//! ADC's time-domain outputs at both nodes (fin = 1 MHz at 40 nm,
//! 250 kHz at 180 nm).

use tdsigma_bench::{ascii_waveform, write_artifact};
use tdsigma_core::{AdcSpec, DesignFlow};
use tdsigma_dsp::CicDecimator;

fn main() {
    println!("=== Fig. 16: post-layout transient outputs ===\n");
    for (spec, fin) in [
        (AdcSpec::paper_40nm().expect("spec"), 1e6),
        (AdcSpec::paper_180nm().expect("spec"), 250e3),
    ] {
        let label = spec.tech.to_string();
        let outcome = DesignFlow::new(spec)
            .with_samples(8192)
            .with_input_frequency(fin)
            .run()
            .expect("flow");
        let cap = &outcome.capture;
        println!(
            "--- {label}, fin = {:.3} MHz ---",
            outcome.analysis.fundamental_hz / 1e6
        );
        println!("raw modulator words d[n] (first 96 samples):");
        println!(
            "{}",
            ascii_waveform(&cap.output[..96.min(cap.output.len())], 12, 96)
        );
        // Decimated view: the sine is visible after the decimation filter.
        let osr = (cap.fs_hz / (2.0 * outcome.analysis.bandwidth_hz)).round() as usize;
        let ratio = (osr / 4).max(2);
        let cic = CicDecimator::new(3, ratio);
        let filtered = cic.decimate(&cap.output);
        println!("after CIC^3 ÷{ratio} decimation (one input period):");
        let period_samples =
            (cap.fs_hz / ratio as f64 / outcome.analysis.fundamental_hz).round() as usize;
        let shown = period_samples
            .clamp(32, 96)
            .min(filtered.len().saturating_sub(8));
        println!("{}", ascii_waveform(&filtered[8..8 + shown], 14, shown));
        let mut csv = String::from("n,d\n");
        for (i, v) in cap.output.iter().take(2048).enumerate() {
            csv.push_str(&format!("{i},{v}\n"));
        }
        let path = write_artifact(
            &format!(
                "fig16_transient_{}.csv",
                label.split(' ').next().unwrap_or("node")
            ),
            &csv,
        );
        println!("wrote {}\n", path.display());
    }
}
