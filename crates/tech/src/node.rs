//! Technology nodes and the [`Technology`] handle.

use crate::cells::CellCatalog;
use crate::error::TechError;
use crate::itrs::{record_for, NodeRecord, NODE_TABLE};
use crate::units::{Nanometers, Volts};
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a supported CMOS technology node.
///
/// The two nodes the paper fabricates layouts in are [`NodeId::N40`] and
/// [`NodeId::N180`]; the remaining nodes exist for the Fig. 1 scaling sweep
/// and the Table 4 prior-work comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum NodeId {
    N500,
    N350,
    N250,
    N180,
    N130,
    N90,
    N65,
    N45,
    N40,
    N32,
    N22,
}

impl NodeId {
    /// All supported nodes, oldest (largest gate length) first.
    pub const ALL: [NodeId; 11] = [
        NodeId::N500,
        NodeId::N350,
        NodeId::N250,
        NodeId::N180,
        NodeId::N130,
        NodeId::N90,
        NodeId::N65,
        NodeId::N45,
        NodeId::N40,
        NodeId::N32,
        NodeId::N22,
    ];

    /// The drawn gate length of this node.
    pub fn gate_length(self) -> Nanometers {
        Nanometers(match self {
            NodeId::N500 => 500.0,
            NodeId::N350 => 350.0,
            NodeId::N250 => 250.0,
            NodeId::N180 => 180.0,
            NodeId::N130 => 130.0,
            NodeId::N90 => 90.0,
            NodeId::N65 => 65.0,
            NodeId::N45 => 45.0,
            NodeId::N40 => 40.0,
            NodeId::N32 => 32.0,
            NodeId::N22 => 22.0,
        })
    }

    /// Finds the node whose gate length matches `gate_length_nm` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] if no supported node has that gate
    /// length.
    pub fn from_gate_length(gate_length_nm: f64) -> Result<Self, TechError> {
        NodeId::ALL
            .into_iter()
            .find(|n| (n.gate_length().value() - gate_length_nm).abs() < 1e-9)
            .ok_or(TechError::UnknownNode { gate_length_nm })
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nm", self.gate_length().value())
    }
}

/// A fully-resolved technology: the raw ITRS record plus derived quantities
/// and the per-node standard-cell catalog.
///
/// `Technology` is cheap to clone and immutable; every downstream crate
/// (circuit simulation, netlist, layout, the ADC flow) receives one of these
/// instead of talking to a PDK.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    id: NodeId,
    record: NodeRecord,
    catalog: CellCatalog,
}

impl Technology {
    /// Resolves a technology by node id.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] if the node is missing from the
    /// trend table (cannot happen for the built-in [`NodeId`] values, but the
    /// signature is kept fallible for forward compatibility with custom
    /// tables).
    pub fn for_node(id: NodeId) -> Result<Self, TechError> {
        let gate_length_nm = id.gate_length().value();
        let record =
            *record_for(gate_length_nm).ok_or(TechError::UnknownNode { gate_length_nm })?;
        // One catalog per node for the process: every job derives its
        // spec (and so a technology) at planning, admission and execution.
        static CATALOGS: [OnceLock<CellCatalog>; NodeId::ALL.len()] =
            [const { OnceLock::new() }; NodeId::ALL.len()];
        let slot = NodeId::ALL.iter().position(|&n| n == id);
        let catalog = CATALOGS[slot.expect("NodeId::ALL lists every node")]
            .get_or_init(|| CellCatalog::for_record(&record))
            .clone();
        Ok(Technology {
            id,
            record,
            catalog,
        })
    }

    /// Resolves a technology with log-interpolated parameters for an
    /// arbitrary gate length between 22 nm and 500 nm.
    ///
    /// Used by scaling sweeps that plot trends at finer granularity than the
    /// built-in table.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownNode`] if `gate_length_nm` falls outside
    /// the supported 22–500 nm range.
    pub fn interpolated(gate_length_nm: f64) -> Result<Self, TechError> {
        if let Ok(id) = NodeId::from_gate_length(gate_length_nm) {
            return Technology::for_node(id);
        }
        let last = NODE_TABLE.len() - 1;
        if gate_length_nm > NODE_TABLE[0].gate_length_nm
            || gate_length_nm < NODE_TABLE[last].gate_length_nm
        {
            return Err(TechError::UnknownNode { gate_length_nm });
        }
        // Find bracketing rows (table is sorted descending by gate length).
        let hi = NODE_TABLE
            .windows(2)
            .find(|w| {
                w[0].gate_length_nm >= gate_length_nm && gate_length_nm >= w[1].gate_length_nm
            })
            .expect("bracketing rows exist inside table range");
        let (a, b) = (&hi[0], &hi[1]);
        let t = (gate_length_nm.ln() - a.gate_length_nm.ln())
            / (b.gate_length_nm.ln() - a.gate_length_nm.ln());
        let lerp = |x: f64, y: f64| x * (1.0 - t) + y * t;
        let glog = |x: f64, y: f64| (x.ln() * (1.0 - t) + y.ln() * t).exp();
        let record = NodeRecord {
            gate_length_nm,
            vdd_v: lerp(a.vdd_v, b.vdd_v),
            intrinsic_gain: glog(a.intrinsic_gain, b.intrinsic_gain),
            ft_ghz: glog(a.ft_ghz, b.ft_ghz),
            fo4_ps: glog(a.fo4_ps, b.fo4_ps),
            m1_pitch_nm: glog(a.m1_pitch_nm, b.m1_pitch_nm),
            row_tracks: lerp(a.row_tracks, b.row_tracks),
            inv_cin_ff: glog(a.inv_cin_ff, b.inv_cin_ff),
            wire_cap_ff_per_um: lerp(a.wire_cap_ff_per_um, b.wire_cap_ff_per_um),
            wire_res_ohm_per_um: glog(a.wire_res_ohm_per_um, b.wire_res_ohm_per_um),
            gate_leakage_nw: glog(a.gate_leakage_nw, b.gate_leakage_nw),
            res_sheet_low_ohm: lerp(a.res_sheet_low_ohm, b.res_sheet_low_ohm),
            res_sheet_high_ohm: lerp(a.res_sheet_high_ohm, b.res_sheet_high_ohm),
        };
        let catalog = CellCatalog::for_record(&record);
        // Closest named node id, for display purposes.
        let id = NodeId::ALL
            .into_iter()
            .min_by(|x, y| {
                let dx = (x.gate_length().value() - gate_length_nm).abs();
                let dy = (y.gate_length().value() - gate_length_nm).abs();
                dx.partial_cmp(&dy).expect("gate lengths are finite")
            })
            .expect("NodeId::ALL is non-empty");
        Ok(Technology {
            id,
            record,
            catalog,
        })
    }

    /// Builds a technology from an explicit record (corners, what-if
    /// analyses). The catalog is rebuilt to match.
    pub(crate) fn from_record(id: NodeId, record: NodeRecord) -> Technology {
        let catalog = CellCatalog::for_record(&record);
        Technology {
            id,
            record,
            catalog,
        }
    }

    /// The node identifier (closest named node for interpolated technologies).
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The raw trend-table record backing this technology.
    pub(crate) fn record(&self) -> &NodeRecord {
        &self.record
    }

    /// Per-node standard-cell catalog (logical + electrical view).
    pub fn catalog(&self) -> &CellCatalog {
        &self.catalog
    }

    /// Drawn gate length.
    pub fn gate_length(&self) -> Nanometers {
        Nanometers(self.record.gate_length_nm)
    }

    /// Nominal supply voltage.
    pub fn vdd(&self) -> Volts {
        Volts(self.record.vdd_v)
    }

    /// Transistor intrinsic gain `gm·ro`.
    pub fn intrinsic_gain(&self) -> f64 {
        self.record.intrinsic_gain
    }

    /// Fan-out-of-4 inverter delay in picoseconds.
    pub fn fo4_delay_ps(&self) -> f64 {
        self.record.fo4_ps
    }

    /// Delay of one ring-oscillator stage (inverter driving one identical
    /// inverter plus local wire), in picoseconds.
    ///
    /// The FO4 metric loads the inverter with four copies of itself; a ring
    /// stage sees roughly one copy plus parasitics, so the classic rule of
    /// thumb `t_stage ≈ FO4 / 3` applies.
    pub(crate) fn ring_stage_delay_ps(&self) -> f64 {
        self.record.fo4_ps / 3.0
    }

    /// Maximum oscillation frequency of an `n_stages` pseudo-differential
    /// ring oscillator at nominal supply, in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `n_stages` is zero.
    pub fn ring_max_frequency_hz(&self, n_stages: usize) -> f64 {
        assert!(n_stages > 0, "a ring oscillator needs at least one stage");
        1.0 / (2.0 * n_stages as f64 * self.ring_stage_delay_ps() * 1e-12)
    }

    /// Standard-cell placement site width in nanometres (one M1 pitch).
    pub fn site_width_nm(&self) -> f64 {
        self.record.m1_pitch_nm
    }

    /// Standard-cell row height in nanometres.
    pub fn row_height_nm(&self) -> f64 {
        self.record.m1_pitch_nm * self.record.row_tracks
    }

    /// Wire capacitance per micrometre in femtofarads.
    pub fn wire_cap_ff_per_um(&self) -> f64 {
        self.record.wire_cap_ff_per_um
    }

    /// Wire resistance per micrometre in ohms.
    pub fn wire_res_ohm_per_um(&self) -> f64 {
        self.record.wire_res_ohm_per_um
    }

    /// Sheet resistance of the low-resistivity resistor material (Ω/sq).
    pub fn res_sheet_low_ohm(&self) -> f64 {
        self.record.res_sheet_low_ohm
    }

    /// Sheet resistance of the high-resistivity resistor material (Ω/sq).
    pub fn res_sheet_high_ohm(&self) -> f64 {
        self.record.res_sheet_high_ohm
    }

    /// Pelgrom-style relative mismatch (1-sigma) of a minimum device.
    ///
    /// Matching improves with device area; minimum devices at small nodes
    /// match *worse* in absolute terms but the TD architecture shapes this
    /// out of band — which is the paper's robustness argument.
    pub fn min_device_sigma(&self) -> f64 {
        // A_vt ≈ 1 mV·µm per nm of oxide; normalised to a convenient
        // dimensionless 1-sigma for minimum W/L devices.
        0.02 * (40.0 / self.record.gate_length_nm).sqrt().min(2.0)
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} CMOS (VDD {:.2} V, FO4 {:.1} ps, fT {:.0} GHz)",
            self.id, self.record.vdd_v, self.record.fo4_ps, self.record.ft_ghz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_node_resolves_all() {
        for id in NodeId::ALL {
            let t = Technology::for_node(id).expect("built-in nodes resolve");
            assert_eq!(t.id(), id);
            assert!(t.vdd().value() > 0.0);
        }
    }

    #[test]
    fn node_id_from_gate_length() {
        assert_eq!(NodeId::from_gate_length(40.0).unwrap(), NodeId::N40);
        assert!(NodeId::from_gate_length(41.0).is_err());
    }

    #[test]
    fn ring_frequency_scales_with_node() {
        let t40 = Technology::for_node(NodeId::N40).unwrap();
        let t180 = Technology::for_node(NodeId::N180).unwrap();
        let f40 = t40.ring_max_frequency_hz(4);
        let f180 = t180.ring_max_frequency_hz(4);
        assert!(f40 > 3.0 * f180, "40 nm ring should be much faster");
        // A 4-stage ring in 40 nm should comfortably exceed 1 GHz.
        assert!(f40 > 1e9);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn ring_frequency_zero_stages_panics() {
        let t = Technology::for_node(NodeId::N40).unwrap();
        let _ = t.ring_max_frequency_hz(0);
    }

    #[test]
    fn switch_energy_improves_with_scaling() {
        let inv_energy = |id| {
            let tech = Technology::for_node(id).unwrap();
            tech.catalog().cell("INVX1").unwrap().switch_energy_fj()
        };
        let (e40, e180) = (inv_energy(NodeId::N40), inv_energy(NodeId::N180));
        assert!(
            e180 / e40 > 3.0,
            "energy/transition must improve >3x: {e180} vs {e40}"
        );
    }

    #[test]
    fn interpolated_matches_exact_at_table_nodes() {
        let exact = Technology::for_node(NodeId::N90).unwrap();
        let interp = Technology::interpolated(90.0).unwrap();
        assert_eq!(exact.record(), interp.record());
    }

    #[test]
    fn interpolated_between_nodes_is_bracketed() {
        let t = Technology::interpolated(55.0).unwrap();
        let lo = Technology::for_node(NodeId::N45).unwrap();
        let hi = Technology::for_node(NodeId::N65).unwrap();
        assert!(t.fo4_delay_ps() > lo.fo4_delay_ps());
        assert!(t.fo4_delay_ps() < hi.fo4_delay_ps());
        assert!(t.record().ft_ghz < lo.record().ft_ghz);
        assert!(t.record().ft_ghz > hi.record().ft_ghz);
    }

    #[test]
    fn interpolated_out_of_range_errors() {
        assert!(Technology::interpolated(10.0).is_err());
        assert!(Technology::interpolated(700.0).is_err());
    }

    #[test]
    fn row_height_shrinks_with_node() {
        let h40 = Technology::for_node(NodeId::N40).unwrap().row_height_nm();
        let h180 = Technology::for_node(NodeId::N180).unwrap().row_height_nm();
        assert!(h40 < h180 / 2.0);
    }

    #[test]
    fn display_formats() {
        let t = Technology::for_node(NodeId::N40).unwrap();
        let s = t.to_string();
        assert!(s.contains("40 nm"), "{s}");
        assert!(s.contains("VDD"), "{s}");
    }
}
