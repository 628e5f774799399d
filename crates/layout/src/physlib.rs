//! Physical standard-cell library (the LEF view).
//!
//! Derived mechanically from the technology catalog so the logical and
//! physical views can never disagree: every catalog cell becomes a
//! `width_sites × 1 row` abstract with pins on a uniform grid. The resistor
//! standard cells come from [`crate::resgen`] and are merged in — the
//! paper's "standard cell library modification" phase (§3.1, Fig. 10a).

use crate::error::LayoutError;
use crate::resgen::{generate_resistor_cell, ResistorCellLayout};
use std::collections::BTreeMap;
use std::fmt;
use tdsigma_tech::Technology;

/// Physical view of one library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalCell {
    /// Catalog name.
    pub name: String,
    /// Width in placement sites.
    pub width_sites: usize,
    /// Width in nanometres.
    pub width_nm: i64,
    /// Height in nanometres (one row).
    pub height_nm: i64,
    /// True for resistor standard cells (no P/G rails inside).
    pub is_resistor: bool,
    /// Generated serpentine geometry for resistor cells.
    pub resistor_layout: Option<ResistorCellLayout>,
}

/// The physical library of one technology node.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalLibrary {
    cells: BTreeMap<String, PhysicalCell>,
    site_width_nm: i64,
    row_height_nm: i64,
    node_label: String,
}

impl PhysicalLibrary {
    /// Builds the physical library for a technology, generating the
    /// resistor standard cells (library-modification phase).
    pub fn for_technology(tech: &Technology) -> Self {
        let site_width_nm = tech.site_width_nm().round() as i64;
        let row_height_nm = tech.row_height_nm().round() as i64;
        let mut cells = BTreeMap::new();
        for spec in tech.catalog().iter() {
            let is_resistor = spec.class().is_resistor();
            let resistor_layout = if is_resistor {
                Some(generate_resistor_cell(spec, tech))
            } else {
                None
            };
            let width_sites = resistor_layout
                .as_ref()
                .map(|r| r.width_sites)
                .unwrap_or(spec.width_sites());
            cells.insert(
                spec.name().to_string(),
                PhysicalCell {
                    name: spec.name().to_string(),
                    width_sites,
                    width_nm: width_sites as i64 * site_width_nm,
                    height_nm: row_height_nm,
                    is_resistor,
                    resistor_layout,
                },
            );
        }
        PhysicalLibrary {
            cells,
            site_width_nm,
            row_height_nm,
            node_label: tech.to_string(),
        }
    }

    /// Looks up a cell.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownCell`] when absent.
    pub(crate) fn cell(&self, name: &str) -> Result<&PhysicalCell, LayoutError> {
        self.cells
            .get(name)
            .ok_or_else(|| LayoutError::UnknownCell {
                name: name.to_string(),
            })
    }

    /// Placement site width, nm.
    pub(crate) fn site_width_nm(&self) -> i64 {
        self.site_width_nm
    }

    /// Row height, nm.
    pub(crate) fn row_height_nm(&self) -> i64 {
        self.row_height_nm
    }

    /// Iterates over cells in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &PhysicalCell> {
        self.cells.values()
    }
}

impl fmt::Display for PhysicalLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "physical library for {} ({} cells, site {} nm, row {} nm)",
            self.node_label,
            self.cells.len(),
            self.site_width_nm,
            self.row_height_nm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsigma_tech::NodeId;

    fn lib(node: NodeId) -> PhysicalLibrary {
        PhysicalLibrary::for_technology(&Technology::for_node(node).unwrap())
    }

    #[test]
    fn library_mirrors_catalog() {
        let tech = Technology::for_node(NodeId::N40).unwrap();
        let lib = PhysicalLibrary::for_technology(&tech);
        assert_eq!(lib.cells.len(), tech.catalog().len());
    }

    #[test]
    fn logic_cell_geometry() {
        let lib = lib(NodeId::N40);
        let inv = lib.cell("INVX1").unwrap();
        assert_eq!(inv.width_sites, 2);
        assert_eq!(inv.width_nm, 2 * lib.site_width_nm());
        assert_eq!(inv.height_nm, lib.row_height_nm());
        assert!(!inv.is_resistor);
        assert!(inv.resistor_layout.is_none());
    }

    #[test]
    fn resistor_cells_have_generated_layout() {
        let lib = lib(NodeId::N40);
        for name in ["RESLO", "RESHI"] {
            let cell = lib.cell(name).unwrap();
            assert!(cell.is_resistor);
            let r = cell.resistor_layout.as_ref().expect("generated layout");
            assert!(r.squares > 0.0);
            assert_eq!(cell.width_sites, r.width_sites);
        }
    }

    #[test]
    fn cells_shrink_with_node() {
        let l40 = lib(NodeId::N40);
        let l180 = lib(NodeId::N180);
        let w40 = l40.cell("DFFX1").unwrap().width_nm;
        let w180 = l180.cell("DFFX1").unwrap().width_nm;
        assert!(
            w40 * 2 < w180,
            "40 nm DFF ({w40}) much narrower than 180 nm ({w180})"
        );
    }

    #[test]
    fn unknown_cell_errors() {
        let lib = lib(NodeId::N40);
        assert!(matches!(
            lib.cell("MISSING"),
            Err(LayoutError::UnknownCell { .. })
        ));
    }

    #[test]
    fn display_mentions_node() {
        let lib = lib(NodeId::N180);
        assert!(lib.to_string().contains("180 nm"));
    }
}
