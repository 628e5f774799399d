//! **FIG17** — reproduces Fig. 17: the post-layout output spectra at both
//! nodes, the 20 dB/dec noise-shaping annotation, and the claim that VCO
//! and DAC mismatch fall out of band.

use tdsigma_bench::{ascii_spectrum, write_artifact};
use tdsigma_core::{AdcSpec, DesignFlow};
use tdsigma_dsp::{fit_noise_slope, Window};

fn main() {
    println!("=== Fig. 17: post-layout output spectra ===\n");
    for spec in [
        AdcSpec::paper_40nm().expect("spec"),
        AdcSpec::paper_180nm().expect("spec"),
    ] {
        let label = spec.tech.to_string();
        let bw = spec.bw_hz;
        let fs = spec.fs_hz;
        // Mismatch ON vs OFF exposes where mismatch energy lands.
        let mut matched = spec.clone();
        matched.vco_mismatch_sigma = 0.0;
        matched.comparator_offset_sigma_v = 0.0;
        matched.dac_mismatch_sigma = 0.0;

        let outcome = DesignFlow::new(spec)
            .with_samples(32_768)
            .run()
            .expect("flow");
        let spectrum = outcome.capture.spectrum(Window::Hann);
        println!("--- {label} ---");
        println!("{}", ascii_spectrum(&spectrum, 18, 100, bw));
        println!("  {}", outcome.analysis);
        match fit_noise_slope(&spectrum, bw, fs / 4.0) {
            Some(slope) => {
                println!("  noise-shaping slope above the band edge: {slope} (paper: 20 dB/dec)")
            }
            None => println!(
                "  noise-shaping slope: FAILED, too few log buckets above the band edge \
                 (paper: 20 dB/dec)"
            ),
        }

        // Mismatch out-of-band check: compare in-band noise with and
        // without mismatch — the difference must be small.
        let sndr_with = outcome.analysis.sndr_db;
        let matched_outcome = DesignFlow::new(matched)
            .with_samples(32_768)
            .run()
            .expect("flow");
        let sndr_without = matched_outcome.analysis.sndr_db;
        println!(
            "  SNDR with mismatch {sndr_with:.1} dB vs perfectly matched {sndr_without:.1} dB → \
             penalty {:.1} dB (mismatch energy is shaped out of band)",
            sndr_without - sndr_with
        );

        let mut csv = String::from("freq_hz,dbfs\n");
        for bin in 1..spectrum.len() {
            csv.push_str(&format!(
                "{},{}\n",
                spectrum.bin_frequency_hz(bin),
                spectrum.dbfs(bin)
            ));
        }
        let path = write_artifact(
            &format!(
                "fig17_spectrum_{}.csv",
                label.split(' ').next().unwrap_or("node")
            ),
            &csv,
        );
        println!("  wrote {}\n", path.display());
    }
}
