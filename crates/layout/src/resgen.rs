//! Resistor standard-cell generation (paper §3.1, Fig. 11).
//!
//! Each DAC/input resistor is decomposed into identical *fragments*; only
//! the fragment is added to the library as a special "standard cell" whose
//! height matches the digital rows so the placer can treat it like any
//! other cell. The fragment is drawn as a serpentine of resistive material:
//! the number of squares follows from `R = R_sheet · squares`, and the
//! serpentine is folded into legs that fit the row height.
//!
//! The trade-off the paper describes is explicit here: high-resistivity
//! material needs fewer squares for the same resistance (smaller cell,
//! lower matching accuracy); fragment granularity trades placement
//! flexibility against routing complexity.

use std::fmt;
use tdsigma_tech::{CellSpec, Technology};

/// Generated geometry of one resistor standard cell.
///
/// ```
/// use tdsigma_layout::generate_resistor_cell;
/// use tdsigma_tech::{NodeId, Technology};
///
/// # fn main() -> Result<(), tdsigma_tech::TechError> {
/// let tech = Technology::for_node(NodeId::N40)?;
/// let spec = tech.catalog().cell("RESHI")?;
/// let cell = generate_resistor_cell(spec, &tech);
/// assert!(cell.squares > 0.0);
/// assert!((4.0 * cell.resistance_ohm - 11_000.0).abs() < 2_000.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResistorCellLayout {
    /// Library cell name this geometry belongs to.
    pub cell_name: String,
    /// Fragment resistance, ohms.
    pub resistance_ohm: f64,
    /// Sheet resistance used, Ω/square.
    pub sheet_ohm: f64,
    /// Number of squares of resistive material.
    pub squares: f64,
    /// Number of vertical serpentine legs.
    pub legs: usize,
    /// Drawn strip width, nm.
    pub strip_width_nm: i64,
    /// Height of one leg, nm.
    pub leg_height_nm: i64,
    /// Resulting cell width in placement sites.
    pub width_sites: usize,
    /// Serpentine body rectangles (cell-relative nm coordinates).
    pub body: Vec<crate::geom::Rect>,
}

impl ResistorCellLayout {
    /// Total drawn resistor area in nm².
    pub fn drawn_area_nm2(&self) -> i128 {
        self.body.iter().map(|r| r.area()).sum()
    }

    /// Relative 1-σ matching of the fragment (Pelgrom on drawn area):
    /// larger fragments match better, higher-resistivity material is less
    /// accurate per the paper's trade-off discussion.
    pub fn matching_sigma(&self) -> f64 {
        let area_um2 = self.drawn_area_nm2() as f64 * 1e-6;
        // ~0.5 %·µm baseline, degraded 2x for high-resistivity film.
        let a_r = if self.sheet_ohm > 500.0 { 0.01 } else { 0.005 };
        a_r / area_um2.max(1e-6).sqrt()
    }
}

impl fmt::Display for ResistorCellLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.0} Ω ({:.1} sq of {:.0} Ω/sq, {} legs, {} sites)",
            self.cell_name,
            self.resistance_ohm,
            self.squares,
            self.sheet_ohm,
            self.legs,
            self.width_sites
        )
    }
}

/// Generates the serpentine layout of a resistor fragment cell.
///
/// The strip width is two routing pitches (for matching-friendly line
/// width); legs are folded to fill the usable row height (the paper:
/// *"the actual heights of both resistors standard cells should be similar
/// to the digital standard cell height"*).
pub fn generate_resistor_cell(spec: &CellSpec, tech: &Technology) -> ResistorCellLayout {
    let sheet_ohm = if spec.name() == "RESHI" {
        tech.res_sheet_high_ohm()
    } else {
        tech.res_sheet_low_ohm()
    };
    let resistance_ohm = spec.fragment_res_ohm();
    let squares = resistance_ohm / sheet_ohm;

    let site = tech.site_width_nm().round() as i64;
    let row = tech.row_height_nm().round() as i64;
    let strip_width_nm = 2 * site;
    // Usable leg height: leave half a site top and bottom for terminals.
    let leg_height_nm = row - site;
    let squares_per_leg = leg_height_nm as f64 / strip_width_nm as f64;
    let legs = (squares / squares_per_leg).ceil().max(1.0) as usize;

    // One leg per two sites (strip + gap).
    let width_sites = (legs * 2 + 2).max(4);

    let mut body = Vec::with_capacity(legs);
    for i in 0..legs {
        let x0 = (i as i64 * 2 + 1) * site;
        body.push(crate::geom::Rect::new(
            x0,
            site / 2,
            x0 + strip_width_nm,
            site / 2 + leg_height_nm,
        ));
    }

    ResistorCellLayout {
        cell_name: spec.name().to_string(),
        resistance_ohm,
        sheet_ohm,
        squares,
        legs,
        strip_width_nm,
        leg_height_nm,
        width_sites,
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsigma_tech::{NodeId, Technology};

    fn layouts(node: NodeId) -> (ResistorCellLayout, ResistorCellLayout) {
        let tech = Technology::for_node(node).unwrap();
        let lo = generate_resistor_cell(tech.catalog().cell("RESLO").unwrap(), &tech);
        let hi = generate_resistor_cell(tech.catalog().cell("RESHI").unwrap(), &tech);
        (lo, hi)
    }

    #[test]
    fn squares_match_sheet_resistance() {
        let (lo, hi) = layouts(NodeId::N40);
        assert!((lo.squares * lo.sheet_ohm - lo.resistance_ohm).abs() < 1e-9);
        assert!((hi.squares * hi.sheet_ohm - hi.resistance_ohm).abs() < 1e-9);
    }

    #[test]
    fn high_res_film_needs_fewer_squares_for_more_ohms() {
        // The Fig. 11 trade-off: 11 kΩ from high-ρ film is barely bigger
        // than 1 kΩ from low-ρ film.
        let (lo, hi) = layouts(NodeId::N40);
        assert!(hi.resistance_ohm > 8.0 * lo.resistance_ohm);
        assert!(hi.width_sites < 3 * lo.width_sites);
    }

    #[test]
    fn body_fits_cell_height() {
        for node in [NodeId::N40, NodeId::N180] {
            let tech = Technology::for_node(node).unwrap();
            let row = tech.row_height_nm().round() as i64;
            let (lo, hi) = layouts(node);
            for layout in [&lo, &hi] {
                for r in &layout.body {
                    assert!(r.y0 >= 0 && r.y1 <= row, "leg {r} exceeds row height {row}");
                    assert!(r.x0 >= 0);
                    assert!(
                        r.x1 <= layout.width_sites as i64 * tech.site_width_nm() as i64,
                        "leg {r} exceeds cell width"
                    );
                }
                assert_eq!(layout.body.len(), layout.legs);
            }
        }
    }

    #[test]
    fn legs_do_not_overlap() {
        let (_, hi) = layouts(NodeId::N180);
        for (i, a) in hi.body.iter().enumerate() {
            for b in hi.body.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn matching_improves_with_area() {
        let (lo, hi) = layouts(NodeId::N40);
        assert!(lo.matching_sigma() > 0.0);
        assert!(hi.matching_sigma() > 0.0);
        // Both should be sub-5% — resistors "exhibit high raw matching".
        assert!(lo.matching_sigma() < 0.05, "{}", lo.matching_sigma());
        assert!(hi.matching_sigma() < 0.05, "{}", hi.matching_sigma());
    }

    #[test]
    fn display_reports_geometry() {
        let (lo, _) = layouts(NodeId::N40);
        let s = lo.to_string();
        assert!(s.contains("RESLO"), "{s}");
        assert!(s.contains("legs"), "{s}");
    }
}
