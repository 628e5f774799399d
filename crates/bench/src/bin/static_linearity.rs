//! **ABL7** — static linearity of the 40 nm ADC: a DC transfer sweep with
//! best-fit-line INL. Ties the §2.2.2 resistor-matching claim to a
//! converter-level number: the resistor DAC's raw matching is what keeps
//! the multi-bit loop linear without calibration or DEM.

use tdsigma_bench::write_artifact;
use tdsigma_core::sim::AdcSimulator;
use tdsigma_core::AdcSpec;
use tdsigma_dsp::{transfer_inl, TransferPoint};

fn main() {
    println!("=== static linearity (DC transfer sweep), 40 nm ===\n");
    let mut spec = AdcSpec::paper_40nm().expect("spec");
    spec.steps_per_cycle = 8;
    let fsv = spec.full_scale_v();
    let points_n = 33;
    let samples = 4096;

    let mut points = Vec::with_capacity(points_n);
    let mut csv = String::from("vin_v,mean_code\n");
    for i in 0..points_n {
        let vin = (i as f64 / (points_n - 1) as f64 * 1.6 - 0.8) * fsv;
        let mut sim = AdcSimulator::new(spec.clone()).expect("sim");
        let cap = sim.run(|_| vin, samples);
        // Skip the settling prefix.
        let mean = cap.output[256..].iter().sum::<f64>() / (cap.output.len() - 256) as f64;
        points.push(TransferPoint {
            input: vin,
            output: mean,
        });
        csv.push_str(&format!("{vin},{mean}\n"));
    }

    // LSB: the quantizer's own step (one tap code) — slices·stages codes
    // span ±FS, so one LSB = total span / levels.
    let span = points.last().expect("points").output - points[0].output;
    let lsb = span / (spec.n_slices * spec.vco_stages) as f64;
    let report = transfer_inl(&points, lsb);
    println!("sweep: {points_n} DC points over ±0.8 FS, {samples} cycles each");
    println!("{report}");
    println!();
    println!("{:>10} {:>12} {:>10}", "Vin [mV]", "mean code", "INL [LSB]");
    for (p, inl) in points.iter().zip(&report.inl_lsb).step_by(4) {
        println!("{:>10.1} {:>12.3} {:>10.3}", p.input * 1e3, p.output, inl);
    }
    let path = write_artifact("static_linearity.csv", &csv);
    println!("\nwrote {}", path.display());
    println!(
        "\nconclusion: |INL| ≤ {:.2} LSB without any calibration or DEM — the raw",
        report.max_inl_lsb
    );
    println!("matching of the resistor DAC (§2.2.2) carries the multi-bit loop.");
    assert!(
        report.max_inl_lsb < 1.0,
        "static linearity must stay sub-LSB"
    );
}
