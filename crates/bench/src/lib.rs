//! # tdsigma-bench — experiment harness
//!
//! One binary per table and figure of the paper (see `src/bin/`), plus the
//! shared plotting/reporting helpers they use. Every binary prints the
//! rows/series the paper reports and, where applicable, writes SVG/CSV
//! artifacts into `results/`.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_scaling` | Fig. 1a/1b technology trends |
//! | `fig11_rescells` | Fig. 11 resistor standard cells |
//! | `fig13_layouts` | Fig. 12/13/14 layouts + power domains |
//! | `fig15_power_breakdown` | Fig. 15 digital/analog split |
//! | `fig16_transient` | Fig. 16 time-domain outputs |
//! | `fig17_spectra` | Fig. 17 spectra, 20 dB/dec, mismatch OOB |
//! | `fig18_low_amplitude` | Fig. 18 10 mV input, idle tones |
//! | `tab1_verilog` | Tables 1–2 gate-level Verilog |
//! | `table3_process_comparison` | Table 3 |
//! | `table4_prior_work` | Table 4 |
//! | `abl_comparator` | §2.2.1 comparator ablation |
//! | `abl_dac` | §2.2.2 DAC ablation |
//! | `abl_naive_apr` | §3.3 naive-APR failure |
//! | `abl_scalability` | §2.2 spec-adaptation knobs |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use tdsigma_dsp::Spectrum;

/// Directory where experiment artifacts (SVG, CSV) are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a text artifact into `results/`, returning its path.
///
/// # Panics
///
/// Panics if the file cannot be written (experiment harness context).
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// Renders a spectrum as an ASCII plot (log-frequency x-axis, dBFS y-axis)
/// in the style of the paper's Fig. 17.
pub fn ascii_spectrum(spectrum: &Spectrum, height: usize, width: usize, bw_hz: f64) -> String {
    let height = height.max(8);
    let width = width.max(20);
    let f_min = spectrum.bin_frequency_hz(1).max(1.0);
    let f_max = spectrum.bin_frequency_hz(spectrum.len() - 1);
    let log_span = (f_max / f_min).ln();
    // Column-wise max of dBFS over log-spaced buckets.
    let mut cols = vec![f64::NEG_INFINITY; width];
    for bin in 1..spectrum.len() {
        let f = spectrum.bin_frequency_hz(bin);
        let x = (((f / f_min).ln() / log_span) * (width - 1) as f64).round() as usize;
        let db = spectrum.dbfs(bin);
        if db > cols[x.min(width - 1)] {
            cols[x.min(width - 1)] = db;
        }
    }
    let top = 0.0;
    let bottom = -120.0;
    let mut out = String::new();
    for row in 0..height {
        let level = top - (top - bottom) * row as f64 / (height - 1) as f64;
        let _ = write!(out, "{level:>6.0} |");
        for &c in &cols {
            let step = (top - bottom) / (height - 1) as f64;
            out.push(if c >= level - step / 2.0 { '#' } else { ' ' });
        }
        out.push('\n');
    }
    let _ = write!(out, "{:>6} +", "dBFS");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    // Bandwidth marker.
    let bw_x = (((bw_hz / f_min).ln().max(0.0) / log_span) * (width - 1) as f64).round() as usize;
    let _ = writeln!(
        out,
        "{:>7}{}^ BW = {:.2} MHz   (x: {:.2} kHz … {:.0} MHz, log)",
        "",
        " ".repeat(bw_x.min(width - 1)),
        bw_hz / 1e6,
        f_min / 1e3,
        f_max / 1e6
    );
    out
}

/// Renders a sample series as an ASCII waveform (Fig. 16 style).
pub fn ascii_waveform(samples: &[f64], height: usize, width: usize) -> String {
    let height = height.max(5);
    let n = samples.len().min(width.max(10));
    let lo = samples[..n].iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = samples[..n]
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let mut grid = vec![vec![' '; n]; height];
    for (x, &v) in samples[..n].iter().enumerate() {
        let y = ((hi - v) / span * (height - 1) as f64).round() as usize;
        grid[y.min(height - 1)][x] = '*';
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let level = hi - span * i as f64 / (height - 1) as f64;
        let _ = writeln!(out, "{level:>8.2} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>8} +{}", "", "-".repeat(n));
    out
}

/// Formats a two-column comparison (paper value vs measured) used by the
/// experiment binaries' summaries.
pub fn compare_line(metric: &str, paper: f64, measured: f64, unit: &str) -> String {
    format!("  {metric:<28} paper {paper:>10.3} {unit:<8} measured {measured:>10.3} {unit}",)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsigma_dsp::Window;

    #[test]
    fn spectrum_plot_has_requested_shape() {
        let samples: Vec<f64> = (0..1024)
            .map(|i| (2.0 * std::f64::consts::PI * 37.0 * i as f64 / 1024.0).sin())
            .collect();
        let s = Spectrum::from_samples(&samples, 1e6, Window::Hann);
        let plot = ascii_spectrum(&s, 12, 60, 1e5);
        assert!(plot.lines().count() >= 13);
        assert!(plot.contains("BW"));
        assert!(plot.contains('#'));
    }

    #[test]
    fn waveform_plot_contains_samples() {
        let samples: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let plot = ascii_waveform(&samples, 10, 64);
        assert!(plot.contains('*'));
        assert!(plot.lines().count() == 11);
    }

    #[test]
    fn compare_line_formats() {
        let line = compare_line("SNDR", 69.5, 67.1, "dB");
        assert!(line.contains("69.500"));
        assert!(line.contains("67.100"));
    }

    #[test]
    fn artifacts_are_written() {
        let path = write_artifact("selftest.txt", "hello");
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
    }
}
