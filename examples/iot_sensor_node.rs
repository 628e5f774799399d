//! IoT sensor-node scenario — the application class the paper's intro
//! motivates ("ultra-low-power and ultra-low-voltage ADCs ... in
//! increasingly high demand by ... IoT, autonomous wireless sensor
//! networks, and biomedical implants").
//!
//! We respecify the same synthesizable architecture for a 100 kHz sensor
//! bandwidth at a 24 MHz system clock, digitise a synthetic two-tone
//! sensor signal, decimate it to the Nyquist rate with a CIC filter, and
//! report resolution and battery-relevant power.
//!
//! ```text
//! cargo run --release --example iot_sensor_node
//! ```

use tdsigma::core::{power, sim::AdcSimulator, AdcSpec, DecimationBackend};
use tdsigma::tech::{NodeId, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sensor spec: 100 kHz bandwidth from a 24 MHz crystal-derived clock
    // (OSR 120), in the scaled 40 nm node.
    let tech = Technology::for_node(NodeId::N40)?;
    let spec = AdcSpec::for_technology(tech, 24e6, 100e3)?;
    println!(
        "sensor ADC: fs {:.1} MHz, BW {:.0} kHz, OSR {:.0}, full scale {:.0} mV",
        spec.fs_hz / 1e6,
        spec.bw_hz / 1e3,
        spec.oversampling_ratio(),
        spec.full_scale_v() * 1e3
    );

    let fs = spec.full_scale_v();
    let n = 32_768;

    // Characterisation first: a single-tone run gives the converter's
    // resolution figure.
    let fchar = (20e3 * n as f64 / spec.fs_hz).round() * spec.fs_hz / n as f64;
    let mut sim = AdcSimulator::new(spec.clone())?;
    let analysis = sim.run_tone(fchar, 0.6 * fs, n).analyze(spec.bw_hz);
    println!("characterisation: {analysis}");

    // Acquisition demo: a 13 kHz carrier with a weak 31 kHz interferer
    // (e.g. a resonant MEMS pickup plus coupling).
    let f1 = (13e3 * n as f64 / spec.fs_hz).round() * spec.fs_hz / n as f64;
    let f2 = (31e3 * n as f64 / spec.fs_hz).round() * spec.fs_hz / n as f64;
    let w1 = 2.0 * std::f64::consts::PI * f1;
    let w2 = 2.0 * std::f64::consts::PI * f2;
    let mut sim = AdcSimulator::new(spec.clone())?;
    let (capture, activity) = sim.run_metered(
        |t| 0.6 * fs * (w1 * t).sin() + 0.05 * fs * (w2 * t).sin(),
        n,
    );
    // Both tones are recovered at their true levels from the raw word
    // stream (−24.4 dBFS apart: 0.05/0.6 plus the 0.6 drive level).
    let spec_raw = capture.spectrum(tdsigma::dsp::Window::Hann);
    let b1 = spec_raw.bin_of_frequency(f1);
    let b2 = spec_raw.bin_of_frequency(f2);
    println!(
        "two-tone acquisition: {:.1} kHz at {:.1} dBFS, {:.1} kHz at {:.1} dBFS",
        f1 / 1e3,
        spec_raw.dbfs(b1),
        f2 / 1e3,
        spec_raw.dbfs(b2)
    );

    // Decimate through the standard back end (CIC³ + droop-compensated FIR).
    let backend = DecimationBackend::for_spec(&spec);
    let out = backend.process(&capture);
    let spectrum = out.spectrum();
    let after = out.analyze(spec.bw_hz);
    let b2d = spectrum.bin_of_frequency(f2);
    println!(
        "after {backend}: output rate {:.0} kHz, carrier {:.1} kHz at {:.1} dBFS, \
         interferer still resolved at {:.1} dBFS",
        out.rate_hz / 1e3,
        after.fundamental_hz / 1e3,
        after.signal_dbfs,
        spectrum.dbfs(b2d)
    );

    // Battery budget: estimate power at this (slow) operating point.
    let breakdown = power::estimate(&spec, &activity, 0.0, 300.0);
    println!("power at 24 MHz: {breakdown}");
    let coin_cell_mah = 220.0;
    let current_ma = breakdown.total_w() / 3.0 * 1e3; // ~3 V battery
    println!(
        "a {coin_cell_mah} mAh coin cell runs this front-end for ~{:.0} days continuous",
        coin_cell_mah / current_ma / 24.0
    );
    Ok(())
}
