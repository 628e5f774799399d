//! **TAB1/2** — reproduces Tables 1 and 2: the gate-level Verilog of the
//! proposed comparator and of one ADC slice, as produced by the HDL
//! generation phase.

use tdsigma_bench::write_artifact;
use tdsigma_core::{netgen, AdcSpec};
use tdsigma_netlist::{verilog, Design};

fn main() {
    let spec = AdcSpec::paper_40nm().expect("spec");

    println!("=== Table 1: proposed synthesis-friendly comparator ===\n");
    let comparator = Design::new(netgen::comparator_module()).expect("design");
    let text = verilog::write_design(&comparator).expect("verilog");
    println!("{text}");

    println!("=== Table 2: ADC slice (with the full design's submodules) ===\n");
    let design = netgen::generate(&spec).expect("netlist");
    let full = verilog::write_design(&design).expect("verilog");
    // Show the slice module itself.
    let slice_start = full.find("module ADC_slice").expect("slice module present");
    let slice_end = full[slice_start..].find("endmodule").expect("endmodule") + slice_start;
    println!("{}", &full[slice_start..slice_end + "endmodule".len()]);
    println!(
        "\n[... {} total lines of generated Verilog ...]",
        full.lines().count()
    );

    // Round-trip proof (the HDL is a loss-free interchange format).
    let reparsed = verilog::read_design(&full).expect("reparse");
    assert_eq!(
        reparsed.flatten().len(),
        design.flatten().len(),
        "round-trip must preserve the netlist"
    );
    println!(
        "round-trip check: {} leaf cells preserved ✓",
        design.flatten().len()
    );

    let path = write_artifact("tab2_adc_top.v", &full);
    println!("wrote {}", path.display());
}
