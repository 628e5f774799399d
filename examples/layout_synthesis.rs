//! Layout-synthesis walkthrough: the §3 methodology step by step, with
//! each intermediate artifact exported.
//!
//! ```text
//! cargo run --release --example layout_synthesis
//! ```

use std::fs;
use tdsigma::core::{netgen, AdcSpec};
use tdsigma::layout::{gds, lef, render, synthesize, AprOptions, Parasitics, PhysicalLibrary};
use tdsigma::netlist::{lint_flat, verilog, PowerPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::Path::new("results");
    fs::create_dir_all(out_dir)?;
    let spec = AdcSpec::paper_40nm()?;

    // Phase 1 — HDL generation (Fig. 9 top left): schematic → gate-level
    // Verilog.
    let design = netgen::generate(&spec)?;
    let verilog_text = verilog::write_design(&design)?;
    fs::write(out_dir.join("adc_top.v"), &verilog_text)?;
    println!(
        "phase 1  HDL generation: {} modules, {} lines of Verilog",
        design.modules_bottom_up().len(),
        verilog_text.lines().count()
    );

    // Lint before layout.
    let flat = design.flatten();
    let externals = design
        .top()
        .ports()
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let report = lint_flat(&flat, &externals)?;
    println!(
        "         lint: {} errors, {} warnings (cross-coupled VCO nets)",
        if report.has_errors() { "SOME" } else { "no" },
        report.warnings().len()
    );

    // Phase 2 — standard-cell library modification (Fig. 10a): the
    // physical library including the generated resistor cells, exported
    // in LEF exactly as Fig. 9 prescribes.
    let lib = PhysicalLibrary::for_technology(&spec.tech);
    fs::write(out_dir.join("tdsigma_40nm.lef"), lef::to_lef(&lib))?;
    println!("phase 2  library modification: {lib} → results/tdsigma_40nm.lef");

    // Phase 3 — floorplan generation (Fig. 10b): power domains and
    // component groups from connectivity.
    let plan = PowerPlan::infer(&flat)?;
    plan.validate(&flat)?;
    println!(
        "phase 3  floorplan inputs: {} power domains, {} component groups",
        plan.domain_count(),
        plan.group_count()
    );

    // Phase 4 — APR with MSV regions, then extraction and checks.
    let result = synthesize(&flat, &plan, &spec.tech, &AprOptions::default())?;
    println!("phase 4  APR: {result}");
    println!("         {}", result.routing);

    // Exports: the .fp floorplan spec, SVG (Fig. 13/14 view), DEF
    // placement and GDS-style text — the full Fig. 9 artifact set.
    fs::write(out_dir.join("adc_top.fp"), result.floorplan.to_fp_text())?;
    fs::write(
        out_dir.join("adc_top_layout.svg"),
        render::to_svg(&result.floorplan, &result.placement),
    )?;
    fs::write(
        out_dir.join("adc_top.def"),
        lef::to_def(
            &result.placement,
            "adc_top",
            result.floorplan.die.width(),
            result.floorplan.die.height(),
        ),
    )?;
    fs::write(
        out_dir.join("adc_top.gds.txt"),
        gds::to_gds_text(&result.placement, &lib, "adc_top"),
    )?;
    println!("         wrote results/adc_top.{{v,fp,def,gds.txt}} and adc_top_layout.svg");

    // Phase 5 — what post-layout simulation will see.
    let parasitics: &Parasitics = &result.parasitics;
    println!(
        "phase 5  extraction: {} nets, {:.1} fF total wire capacitance, {:.2} fF on the VCTRL nodes",
        parasitics.len(),
        parasitics.total_capacitance_f() * 1e15,
        parasitics.total_capacitance_where(|n| n.contains("VCTRL")) * 1e15,
    );
    Ok(())
}
