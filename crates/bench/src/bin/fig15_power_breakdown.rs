//! **FIG15** — reproduces Fig. 15: the digital/analog power split of the
//! post-layout design at both nodes.

use tdsigma_bench::compare_line;
use tdsigma_core::{AdcSpec, DesignFlow};

fn main() {
    println!("=== Fig. 15: power breakdown (post-layout) ===\n");
    let reference = [("40 nm", 73.0), ("180 nm", 88.0)];
    let mut measured = Vec::new();
    for (spec, (label, paper_digital)) in [
        (AdcSpec::paper_40nm().expect("spec"), reference[0]),
        (AdcSpec::paper_180nm().expect("spec"), reference[1]),
    ] {
        let outcome = DesignFlow::new(spec)
            .with_samples(8192)
            .run()
            .expect("flow");
        let p = &outcome.power;
        let digital_pct = 100.0 * p.digital_fraction();
        println!("--- {label} ---");
        println!("  total {:.3} mW", p.total_w() * 1e3);
        println!(
            "  digital {:.1} %  (VCO {:.3}, buffers {:.3}, SAFF {:.3}, retime/XOR {:.3}, clock {:.3}, DAC {:.3}, wire {:.3}, leak {:.4} mW)",
            digital_pct,
            p.vco_w * 1e3,
            p.buffer_logic_w * 1e3,
            p.saff_w * 1e3,
            p.retime_xor_w * 1e3,
            p.clock_w * 1e3,
            p.dac_w * 1e3,
            p.wire_w * 1e3,
            p.leakage_w * 1e3
        );
        println!(
            "  analog  {:.1} %  (resistor network {:.3}, buffer bias {:.3} mW)",
            100.0 - digital_pct,
            p.resistor_network_w * 1e3,
            p.buffer_bias_w * 1e3
        );
        println!(
            "{}",
            compare_line("digital share [%]", paper_digital, digital_pct, "%")
        );
        println!();
        measured.push(digital_pct);
    }
    println!(
        "Shape check: digital share rises at the older node (paper 73% → 88%, measured {:.0}% → {:.0}%),",
        measured[0], measured[1]
    );
    println!("because digital power scales down with CMOS while the analog bias/resistor power");
    println!("shrinks more slowly — the headroom for further FOM gains at newer nodes (§4.1).");
}
