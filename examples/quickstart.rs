//! Quickstart: design, synthesize and evaluate the paper's 40 nm ADC in
//! ~20 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tdsigma::core::{AdcSpec, DesignFlow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's 40 nm reference design: 750 MHz clock, 5 MHz bandwidth,
    // 8 slices of VCO-pair + NOR3-SAFF + XOR + resistor DAC.
    let spec = AdcSpec::paper_40nm()?;
    println!("designing: {} slices @ {}", spec.n_slices, spec.tech);
    println!(
        "full scale {:.0} mV differential, OSR {:.0}\n",
        spec.full_scale_v() * 1e3,
        spec.oversampling_ratio()
    );

    // Run the complete Fig.-9 flow: netlist → Verilog → power domains →
    // floorplan → place & route → extraction → post-layout simulation.
    let outcome = DesignFlow::new(spec).with_samples(8192).run()?;

    println!("{}", outcome.layout);
    println!("{}", outcome.analysis);
    println!("{}", outcome.power);
    println!("\nTable-3 style report:\n{}", outcome.report);

    // The generated artifacts are all in the outcome:
    println!(
        "\ngenerated {} lines of gate-level Verilog, {} power domains, {} placed cells",
        outcome.verilog.lines().count(),
        outcome.power_plan.domain_count(),
        outcome.layout.placement.len()
    );
    Ok(())
}
