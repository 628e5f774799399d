//! **FIG11** — reproduces Fig. 11: the generated resistor standard cells
//! (1 kΩ low-resistivity and 11 kΩ high-resistivity, both matched to the
//! digital row height), including the §3.1 trade-off numbers.

use tdsigma_bench::write_artifact;
use tdsigma_layout::generate_resistor_cell;
use tdsigma_tech::{NodeId, Technology};

fn main() {
    println!("=== Fig. 11: resistor standard cells (library modification) ===\n");
    for node in [NodeId::N40, NodeId::N180] {
        let tech = Technology::for_node(node).expect("built-in node");
        println!(
            "--- {} (row height {:.0} nm, site {:.0} nm) ---",
            tech,
            tech.row_height_nm(),
            tech.site_width_nm()
        );
        for name in ["RESLO", "RESHI"] {
            let spec = tech.catalog().cell(name).expect("catalog cell");
            let layout = generate_resistor_cell(spec, &tech);
            println!("  {layout}");
            println!(
                "    4 fragments in series -> {:.0} Ω resistor; matching σ {:.2} %; drawn area {:.3} µm²",
                4.0 * layout.resistance_ohm,
                100.0 * layout.matching_sigma(),
                layout.drawn_area_nm2() as f64 * 1e-6
            );
            // Simple SVG of the fragment geometry.
            let mut svg = String::from(
                r#"<svg xmlns="http://www.w3.org/2000/svg" width="400" height="120">"#,
            );
            let site = tech.site_width_nm();
            let scale = 380.0 / (layout.width_sites as f64 * site);
            for leg in &layout.body {
                svg.push_str(&format!(
                    r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#888" stroke="black"/>"##,
                    10.0 + leg.x0 as f64 * scale,
                    10.0 + leg.y0 as f64 * scale,
                    leg.width() as f64 * scale,
                    leg.height() as f64 * scale,
                ));
            }
            svg.push_str("</svg>\n");
            let path = write_artifact(
                &format!(
                    "fig11_{}_{}.svg",
                    name.to_lowercase(),
                    node.gate_length().value()
                ),
                &svg,
            );
            println!("    wrote {}", path.display());
        }
    }
    println!();
    println!("Trade-off (§3.1): the high-resistivity film packs 11x the ohms into a");
    println!("similar footprint but matches ~2x worse per square — the paper picks");
    println!("low-ρ for the matching-critical input resistors and high-ρ for the DAC.");
}
