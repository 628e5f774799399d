//! **ABL6** — clock-jitter sweep: SNDR of the 40 nm ADC vs sampling-clock
//! RMS jitter, quantifying the TD architecture's first-order jitter
//! tolerance (the SAFFs all sample from one clock tree, so only the small
//! *difference* frequency of each VCO pair converts jitter into error).

use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::AdcSpec;

fn main() {
    println!("=== clock-jitter tolerance, 40 nm @ 750 MHz ===\n");
    let base = AdcSpec::paper_40nm().expect("spec");
    let n = 16_384;
    let fin = (base.bw_hz / 5.0 * n as f64 / base.fs_hz).round() * base.fs_hz / n as f64;
    println!(
        "{:>14} {:>16} {:>12}",
        "jitter [ps]", "jitter [% of T]", "SNDR [dB]"
    );
    let period_ps = 1e12 / base.fs_hz;
    for jitter_ps in [0.0, 0.2, 1.0, 5.0, 20.0, 50.0] {
        let mut spec = base.clone();
        spec.clock_jitter_rms_s = jitter_ps * 1e-12;
        let spec = spec.validated().expect("valid");
        let mut sim = AdcSimulator::new(spec.clone()).expect("sim");
        let sndr = sim
            .run_tone(fin, 0.79 * spec.full_scale_v(), n)
            .analyze(spec.bw_hz)
            .sndr_db;
        println!(
            "{:>14.1} {:>15.2}% {:>12.1}",
            jitter_ps,
            100.0 * jitter_ps / period_ps,
            sndr
        );
    }
    println!();
    println!("For reference, a Nyquist converter with a 1 MHz full-scale input needs");
    println!("jitter < 1/(2π·fin·2^ENOB) ≈ 65 ps for 11.3 ENOB — and degrades linearly");
    println!("beyond it. The TD ΔΣ holds its SNDR well past that because the jitter is");
    println!("common-mode to the pseudo-differential VCO pair.");
}
