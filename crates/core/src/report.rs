//! Performance reports in the shape of the paper's Table 3.

use std::fmt;
use tdsigma_dsp::{enob_from_sndr, walden_fom_fj};
use tdsigma_tech::NodeId;

/// One Table-3-style performance row.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcReport {
    /// Technology node.
    pub node: NodeId,
    /// Sampling clock, MHz.
    pub fs_mhz: f64,
    /// Signal bandwidth, MHz.
    pub bw_mhz: f64,
    /// In-band SNDR, dB.
    pub sndr_db: f64,
    /// Effective number of bits.
    pub enob: f64,
    /// Total power, mW.
    pub power_mw: f64,
    /// Digital fraction of total power (Fig. 15).
    pub digital_fraction: f64,
    /// Die area, mm².
    pub area_mm2: f64,
    /// Walden figure of merit, fJ/conversion-step.
    pub fom_fj: f64,
}

impl AdcReport {
    /// Assembles a report, deriving ENOB and FOM with the paper's Table 3
    /// footnote formulas.
    pub fn from_parts(
        node: NodeId,
        fs_hz: f64,
        bw_hz: f64,
        sndr_db: f64,
        power_w: f64,
        digital_fraction: f64,
        area_mm2: f64,
    ) -> Self {
        AdcReport {
            node,
            fs_mhz: fs_hz / 1e6,
            bw_mhz: bw_hz / 1e6,
            sndr_db,
            enob: enob_from_sndr(sndr_db),
            power_mw: power_w * 1e3,
            digital_fraction,
            area_mm2,
            fom_fj: walden_fom_fj(power_w, sndr_db, bw_hz),
        }
    }

    /// The Table 3 column header.
    pub fn table_header() -> String {
        format!(
            "{:>8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>12}",
            "Process", "fs[MHz]", "BW[MHz]", "SNDR[dB]", "Power[mW]", "Area[mm2]", "FOM[fJ/conv]"
        )
    }

    /// This report as a Table 3 row.
    pub fn table_row(&self) -> String {
        format!(
            "{:>8} {:>9.0} {:>9.2} {:>9.1} {:>10.3} {:>10.4} {:>12.1}",
            self.node.to_string(),
            self.fs_mhz,
            self.bw_mhz,
            self.sndr_db,
            self.power_mw,
            self.area_mm2,
            self.fom_fj
        )
    }
}

impl fmt::Display for AdcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", AdcReport::table_header())?;
        write!(f, "{}", self.table_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_40nm_row_reproduces_derived_columns() {
        // Feed the paper's measured values; ENOB/FOM must match Table 3.
        let r = AdcReport::from_parts(NodeId::N40, 750e6, 5e6, 69.5, 1.37e-3, 0.73, 0.012);
        assert!((r.enob - 11.25).abs() < 0.01);
        assert!((r.fom_fj - 56.2).abs() < 1.0, "FOM {}", r.fom_fj);
    }

    #[test]
    fn paper_180nm_row() {
        let r = AdcReport::from_parts(NodeId::N180, 250e6, 1.4e6, 69.5, 5.45e-3, 0.88, 0.151);
        assert!((r.fom_fj - 798.0).abs() < 15.0, "FOM {}", r.fom_fj);
    }

    #[test]
    fn table_formatting_aligns() {
        let r = AdcReport::from_parts(NodeId::N40, 750e6, 5e6, 69.5, 1.37e-3, 0.73, 0.012);
        let header = AdcReport::table_header();
        let row = r.table_row();
        assert!(header.contains("FOM"));
        assert!(row.contains("40 nm"));
        assert!(r.to_string().lines().count() == 2);
    }
}
