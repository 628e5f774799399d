//! Process corners.
//!
//! Synthesis sign-off happens at corners, not at typical: the slow corner
//! must still close timing at the target clock, and the fast corner bounds
//! power. We model the classic three-corner set by scaling the node's
//! delay, supply and leakage — enough to exercise every consumer of
//! [`Technology`] under PVT spread.

use crate::itrs::NodeRecord;
use crate::node::Technology;
use std::fmt;

/// A process corner.
///
/// ```
/// use tdsigma_tech::{Corner, NodeId, Technology};
///
/// # fn main() -> Result<(), tdsigma_tech::TechError> {
/// let tt = Technology::for_node(NodeId::N40)?;
/// let ss = tt.at_corner(Corner::Slow);
/// assert!(ss.fo4_delay_ps() > tt.fo4_delay_ps());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Corner {
    /// Slow-slow: +15 % delay, −10 % supply, −30 % leakage.
    Slow,
    /// Typical-typical: the trend-table values.
    #[default]
    Typical,
    /// Fast-fast: −12 % delay, +10 % supply, +60 % leakage.
    Fast,
}

impl Corner {
    /// All corners, slow first.
    pub const ALL: [Corner; 3] = [Corner::Slow, Corner::Typical, Corner::Fast];

    /// Multiplier applied to FO4 delay (and hence every cell delay).
    pub(crate) fn delay_factor(self) -> f64 {
        match self {
            Corner::Slow => 1.15,
            Corner::Typical => 1.0,
            Corner::Fast => 0.88,
        }
    }

    /// Multiplier applied to the supply voltage.
    pub(crate) fn supply_factor(self) -> f64 {
        match self {
            Corner::Slow => 0.9,
            Corner::Typical => 1.0,
            Corner::Fast => 1.1,
        }
    }

    /// Multiplier applied to leakage.
    pub(crate) fn leakage_factor(self) -> f64 {
        match self {
            Corner::Slow => 0.7,
            Corner::Typical => 1.0,
            Corner::Fast => 1.6,
        }
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Corner::Slow => "SS",
            Corner::Typical => "TT",
            Corner::Fast => "FF",
        };
        f.write_str(s)
    }
}

impl Technology {
    /// This technology shifted to a process corner. Geometry (pitches,
    /// cell widths) is unchanged; delay, supply, transit frequency and
    /// leakage move together.
    pub fn at_corner(&self, corner: Corner) -> Technology {
        let r = self.record();
        let record = NodeRecord {
            gate_length_nm: r.gate_length_nm,
            vdd_v: r.vdd_v * corner.supply_factor(),
            intrinsic_gain: r.intrinsic_gain,
            ft_ghz: r.ft_ghz / corner.delay_factor(),
            fo4_ps: r.fo4_ps * corner.delay_factor(),
            m1_pitch_nm: r.m1_pitch_nm,
            row_tracks: r.row_tracks,
            inv_cin_ff: r.inv_cin_ff,
            wire_cap_ff_per_um: r.wire_cap_ff_per_um,
            wire_res_ohm_per_um: r.wire_res_ohm_per_um,
            gate_leakage_nw: r.gate_leakage_nw * corner.leakage_factor(),
            res_sheet_low_ohm: r.res_sheet_low_ohm,
            res_sheet_high_ohm: r.res_sheet_high_ohm,
        };
        Technology::from_record(self.id(), record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn corners_order_delay() {
        let tt = Technology::for_node(NodeId::N40).unwrap();
        let ss = tt.at_corner(Corner::Slow);
        let ff = tt.at_corner(Corner::Fast);
        assert!(ss.fo4_delay_ps() > tt.fo4_delay_ps());
        assert!(ff.fo4_delay_ps() < tt.fo4_delay_ps());
        assert!(ss.vdd().value() < tt.vdd().value());
        assert!(ff.vdd().value() > tt.vdd().value());
        assert!(ff.record().gate_leakage_nw > ss.record().gate_leakage_nw);
    }

    #[test]
    fn typical_corner_is_identity() {
        let tt = Technology::for_node(NodeId::N180).unwrap();
        assert_eq!(tt.at_corner(Corner::Typical).record(), tt.record());
    }

    #[test]
    fn corner_catalog_reflects_shift() {
        let tt = Technology::for_node(NodeId::N40).unwrap();
        let ss = tt.at_corner(Corner::Slow);
        let d_tt = tt.catalog().cell("INVX1").unwrap().delay_ps(0.0);
        let d_ss = ss.catalog().cell("INVX1").unwrap().delay_ps(0.0);
        assert!((d_ss / d_tt - 1.15).abs() < 1e-9);
        // Energy drops with the slow corner's reduced supply.
        let e_tt = tt.catalog().cell("INVX1").unwrap().switch_energy_fj();
        let e_ss = ss.catalog().cell("INVX1").unwrap().switch_energy_fj();
        assert!(e_ss < e_tt);
    }

    #[test]
    fn geometry_is_corner_invariant() {
        let tt = Technology::for_node(NodeId::N40).unwrap();
        let ff = tt.at_corner(Corner::Fast);
        assert_eq!(tt.site_width_nm(), ff.site_width_nm());
        assert_eq!(tt.row_height_nm(), ff.row_height_nm());
    }

    #[test]
    fn display_names() {
        assert_eq!(Corner::Slow.to_string(), "SS");
        assert_eq!(Corner::Typical.to_string(), "TT");
        assert_eq!(Corner::Fast.to_string(), "FF");
        assert_eq!(Corner::default(), Corner::Typical);
    }
}
