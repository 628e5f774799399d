//! Automatic design migration between technology nodes.
//!
//! Section 4 of the paper: *"The design migration between 40-nm and 180-nm
//! process is done automatically by transforming the standard cells into
//! their closest-size counterparts."* This module implements that mapping:
//! given a cell of the source node's catalog, find the target-node cell of
//! the same functional class whose drive strength best preserves the ratio
//! of drive to the node's characteristic load.

use crate::cells::{CellClass, CellSpec, DriveStrength};
use crate::error::TechError;
use crate::node::Technology;
use std::fmt;

/// Migrates a single cell to its closest-size counterpart in `target`.
///
/// The functional class is preserved exactly; the drive strength is chosen
/// to minimise the relative difference in *normalised* drive (drive factor is
/// dimensionless and directly portable between nodes, which is what makes
/// the gate-level netlist technology-portable).
///
/// # Errors
///
/// Returns [`TechError::UnknownCell`] if the source cell's class/drive
/// combination does not exist in the target catalog (cannot happen between
/// built-in nodes, whose catalogs are structurally identical).
///
/// ```
/// use tdsigma_tech::{migrate_cell, NodeId, Technology};
///
/// # fn main() -> Result<(), tdsigma_tech::TechError> {
/// let t40 = Technology::for_node(NodeId::N40)?;
/// let t180 = Technology::for_node(NodeId::N180)?;
/// let nor3 = t40.catalog().cell("NOR3X4")?;
/// let migrated = migrate_cell(nor3, &t180)?;
/// assert_eq!(migrated.name(), "NOR3X4");
/// # Ok(())
/// # }
/// ```
pub fn migrate_cell<'t>(
    source: &CellSpec,
    target: &'t Technology,
) -> Result<&'t CellSpec, TechError> {
    if source.class().is_resistor() || source.class() == CellClass::Tie {
        return target.catalog().cell_for(source.class(), DriveStrength::X1);
    }
    let mut best: Option<(&CellSpec, f64)> = None;
    for drive in DriveStrength::ALL {
        let candidate = target.catalog().cell_for(source.class(), drive)?;
        let diff = (candidate.drive().factor() - source.drive().factor()).abs();
        match best {
            Some((_, best_diff)) if best_diff <= diff => {}
            _ => best = Some((candidate, diff)),
        }
    }
    Ok(best.expect("DriveStrength::ALL is non-empty").0)
}

/// Summary of migrating a whole cell list between nodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MigrationReport {
    /// Number of cells migrated with identical names.
    pub exact: usize,
    /// Number of cells whose drive strength changed.
    pub resized: usize,
    /// Total width change in placement sites (target − source).
    pub width_delta_sites: i64,
}

impl MigrationReport {
    /// Migrates every cell name in `cell_names` from `source` to `target`
    /// and accumulates statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`TechError::UnknownCell`] for names missing from either
    /// catalog.
    pub fn for_cells<'a, I>(
        cell_names: I,
        source: &Technology,
        target: &Technology,
    ) -> Result<Self, TechError>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut report = MigrationReport::default();
        for name in cell_names {
            let src = source.catalog().cell(name)?;
            let dst = migrate_cell(src, target)?;
            if dst.name() == src.name() {
                report.exact += 1;
            } else {
                report.resized += 1;
            }
            report.width_delta_sites += dst.width_sites() as i64 - src.width_sites() as i64;
        }
        Ok(report)
    }

    /// Total number of cells considered.
    pub(crate) fn total(&self) -> usize {
        self.exact + self.resized
    }
}

impl fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migrated {} cells ({} exact, {} resized, width delta {} sites)",
            self.total(),
            self.exact,
            self.resized,
            self.width_delta_sites
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn tech(id: NodeId) -> Technology {
        Technology::for_node(id).expect("built-in node")
    }

    #[test]
    fn migration_preserves_class_and_drive_between_builtin_nodes() {
        let t40 = tech(NodeId::N40);
        let t180 = tech(NodeId::N180);
        for cell in t40.catalog().iter() {
            let migrated = migrate_cell(cell, &t180).expect("migration succeeds");
            assert_eq!(migrated.class(), cell.class());
            assert_eq!(
                migrated.name(),
                cell.name(),
                "catalogs are structurally identical"
            );
        }
    }

    #[test]
    fn migration_roundtrip_is_identity() {
        let t40 = tech(NodeId::N40);
        let t180 = tech(NodeId::N180);
        let src = t40.catalog().cell("XOR2X2").unwrap();
        let there = migrate_cell(src, &t180).unwrap();
        let back = migrate_cell(there, &t40).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn resistors_migrate_to_resistors() {
        let t40 = tech(NodeId::N40);
        let t180 = tech(NodeId::N180);
        let src = t40.catalog().cell("RESHI").unwrap();
        let dst = migrate_cell(src, &t180).unwrap();
        assert_eq!(dst.class(), CellClass::ResFragHigh);
        // Same fragment geometry, different sheet resistance → different ohms.
        assert_ne!(dst.fragment_res_ohm(), src.fragment_res_ohm());
    }

    #[test]
    fn report_counts_all_cells() {
        let t40 = tech(NodeId::N40);
        let t180 = tech(NodeId::N180);
        let names = ["INVX1", "NOR3X4", "RESLO", "DFFX1", "LATCHX2"];
        let report = MigrationReport::for_cells(names, &t40, &t180).unwrap();
        assert_eq!(report.total(), 5);
        assert_eq!(report.exact, 5);
        assert_eq!(report.resized, 0);
        assert!(report.to_string().contains("5 cells"));
    }

    #[test]
    fn report_unknown_cell_errors() {
        let t40 = tech(NodeId::N40);
        let t180 = tech(NodeId::N180);
        let err = MigrationReport::for_cells(["NOPE"], &t40, &t180).unwrap_err();
        assert!(matches!(err, TechError::UnknownCell { .. }));
    }
}
