//! **ABL1** — §2.2.1 ablation: the NOR3 comparator vs strongARM vs the
//! NAND3 comparator of \[16\], both standalone (common-mode sweep) and
//! inside the closed-loop ADC.

use tdsigma_baselines::comparators::sweep_common_mode;
use tdsigma_core::sim::{AdcSimulator, ComparatorFlavor};
use tdsigma_core::AdcSpec;

fn main() {
    println!("=== §2.2.1 ablation: comparator flavour ===\n");
    let spec = AdcSpec::paper_40nm().expect("spec");
    let vdd = spec.tech.vdd().value();

    println!("standalone common-mode sweep (decision accuracy on a ±20 mV input):");
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "CM [V]", "NOR3 (prop.)", "strongARM", "NAND3 [16]"
    );
    let flavors = [
        ComparatorFlavor::Nor3,
        ComparatorFlavor::StrongArm,
        ComparatorFlavor::Nand3,
    ];
    let sweeps: Vec<_> = flavors
        .iter()
        .map(|&f| sweep_common_mode(f, vdd, 0.02, 12, 3_000, 7))
        .collect();
    for (i, point) in sweeps[0].iter().enumerate() {
        println!(
            "{:>8.2} {:>15.1}% {:>15.1}% {:>15.1}%",
            point.vcm_v,
            100.0 * point.accuracy,
            100.0 * sweeps[1][i].accuracy,
            100.0 * sweeps[2][i].accuracy
        );
    }
    println!(
        "\nthe ADC's buffer common mode is {:.2} V ({}·VDD) — exactly where the NAND3 dies.",
        0.23 * vdd,
        0.23
    );

    println!("\nclosed-loop ADC SNDR with each comparator (post-schematic, 8192 samples):");
    let n = 8192;
    let fin = (spec.bw_hz / 5.0 * n as f64 / spec.fs_hz).round() * spec.fs_hz / n as f64;
    let amp = 0.79 * spec.full_scale_v();
    for flavor in flavors {
        let mut sim = AdcSimulator::with_comparator(spec.clone(), flavor).expect("simulator");
        let sndr = sim.run_tone(fin, amp, n).analyze(spec.bw_hz).sndr_db;
        let friendly = if flavor.is_synthesis_friendly() {
            "std-cell"
        } else {
            "CUSTOM AMS"
        };
        println!("  {flavor:<22} SNDR {sndr:>6.1} dB   [{friendly}]");
    }
    println!("\nconclusion: NOR3 ≈ strongARM in performance, but NOR3 is a standard cell;");
    println!("NAND3 (the prior synthesis-friendly option) fails at this common mode.");
}
