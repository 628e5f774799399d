//! **FIG13** (plus Fig. 12/14) — synthesizes the ADC layout in 40 nm and
//! 180 nm, prints the power-domain / component-group decomposition, and
//! writes the Fig. 13-style SVG views plus a GDS-text stream.

use tdsigma_bench::write_artifact;
use tdsigma_core::AdcSpec;
use tdsigma_layout::{gds, render, synthesize, AprOptions, PhysicalLibrary};
use tdsigma_netlist::PowerPlan;

fn main() {
    println!("=== Fig. 12/13/14: automatically synthesized layouts ===\n");
    for spec in [
        AdcSpec::paper_40nm().expect("paper spec"),
        AdcSpec::paper_180nm().expect("paper spec"),
    ] {
        let node = spec.tech.id();
        let design = tdsigma_core::netgen::generate(&spec).expect("netlist generation");
        let flat = design.flatten();
        let plan = PowerPlan::infer(&flat).expect("power plan");
        println!("--- {} : {} cells ---", spec.tech, flat.len());
        println!(
            "Fig. 12 decomposition: {} power domains + {} component groups",
            plan.domain_count(),
            plan.group_count()
        );
        for region in plan.regions().iter().take(8) {
            println!("    {region}: {} cells", plan.cells_in(&region.name).len());
        }
        if plan.regions().len() > 8 {
            println!("    ... and {} more regions", plan.regions().len() - 8);
        }

        let result =
            synthesize(&flat, &plan, &spec.tech, &AprOptions::default()).expect("APR clean");
        println!("  {}", result);
        println!("  routing: {}", result.routing);
        println!(
            "  checks: {} (rail conflicts: {})",
            if result.checks.is_clean() {
                "CLEAN"
            } else {
                "VIOLATIONS"
            },
            result.checks.rail_conflicts()
        );
        let ascii = render::to_ascii(&result.floorplan, &result.placement, 48);
        println!("{ascii}");

        let svg = render::to_svg(&result.floorplan, &result.placement);
        let p1 = write_artifact(&format!("fig13_layout_{node}.svg").replace(' ', ""), &svg);
        let svg_routed =
            render::to_svg_with_routes(&result.floorplan, &result.placement, &result.routing);
        let p1r = write_artifact(
            &format!("fig13_layout_{node}_routed.svg").replace(' ', ""),
            &svg_routed,
        );
        println!("  routed view: {}", p1r.display());
        let lib = PhysicalLibrary::for_technology(&spec.tech);
        let gds_text = gds::to_gds_text(&result.placement, &lib, "adc_top");
        let p2 = write_artifact(
            &format!("fig13_layout_{node}.gds.txt").replace(' ', ""),
            &gds_text,
        );
        println!("  wrote {} and {}\n", p1.display(), p2.display());
    }
    println!("Paper reference: 40 nm area 0.012 mm², 180 nm area 0.151 mm² (12.6x).");
}
