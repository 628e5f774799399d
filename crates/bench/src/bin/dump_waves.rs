//! **WAVES** — dumps VCD waveforms of a short post-layout run (per-slice
//! quantizer codes, the summed word) and of a gate-level comparator
//! exercise, for inspection in any VCD viewer.

use tdsigma_bench::write_artifact;
use tdsigma_core::{netgen, AdcSimulator, AdcSpec};
use tdsigma_netlist::{Design, GateSimulator, VcdWriter};

fn main() {
    // Behavioral waves: 512 cycles of the 40 nm ADC.
    let spec = AdcSpec::paper_40nm().expect("spec");
    let period_ps = (1e12 / spec.fs_hz) as u64;
    let mut sim = AdcSimulator::new(spec.clone()).expect("sim");
    let fin = spec.bw_hz / 5.0;
    let cap = sim.run_tone(fin, 0.79 * spec.full_scale_v(), 512);

    let mut vcd = VcdWriter::new("1ps", "adc_top");
    vcd.declare("clk", 1);
    vcd.declare("sum", 6);
    for i in 0..spec.n_slices {
        vcd.declare(&format!("slice{i}_code"), 3);
    }
    for (n, &word) in cap.output.iter().enumerate() {
        let t0 = n as u64 * period_ps;
        vcd.change_bool(t0, "clk", true);
        vcd.change_bool(t0 + period_ps / 2, "clk", false);
        vcd.change_vector(t0, "sum", word as u64);
        for i in 0..spec.n_slices {
            vcd.change_vector(t0, &format!("slice{i}_code"), cap.slice_code(n, i) as u64);
        }
    }
    let p1 = write_artifact("adc_behavioral.vcd", &vcd.finish());
    println!(
        "behavioral waves: {} ({} cycles)",
        p1.display(),
        cap.output.len()
    );

    // Gate-level waves: the Table-1 comparator through 8 clock cycles.
    let design = Design::new(netgen::comparator_module()).expect("design");
    let mut gsim = GateSimulator::new(&design.flatten()).expect("gate sim");
    let mut gvcd = VcdWriter::new("1ps", "comparator");
    for sig in ["CLK", "INP", "INM", "OUTP", "OUTM", "Q", "QB"] {
        gvcd.declare(sig, 1);
    }
    let mut t = 0u64;
    for cycle in 0..8 {
        let inp = cycle % 3 != 0;
        gsim.drive("INP", inp);
        gsim.drive("INM", !inp);
        gsim.drive("CLK", false); // evaluate
        for sig in ["CLK", "INP", "INM", "OUTP", "OUTM", "Q", "QB"] {
            gvcd.change_logic(t, sig, gsim.value(sig));
        }
        t += period_ps / 2;
        gsim.drive("CLK", true); // reset, SR latch holds
        for sig in ["CLK", "OUTP", "OUTM", "Q", "QB"] {
            gvcd.change_logic(t, sig, gsim.value(sig));
        }
        t += period_ps / 2;
    }
    let p2 = write_artifact("comparator_gatelevel.vcd", &gvcd.finish());
    println!("gate-level waves: {} (8 comparator cycles)", p2.display());
}
