//! Per-node standard-cell catalog (logical + electrical view).
//!
//! The paper's methodology deliberately restricts the ADC to plain digital
//! standard cells (inverters, NOR2/NOR3, NAND, XOR, latches) plus one class
//! of custom "resistor standard cells" (Fig. 11). This module describes
//! those cells for a given technology node: geometry in placement sites,
//! input capacitance, switching energy, a linear delay model, and leakage.
//!
//! The physical (pin/geometry) view lives in `tdsigma-layout`; the logical
//! connectivity view lives in `tdsigma-netlist`. Both are derived from this
//! catalog so the three views can never drift apart.

use crate::error::TechError;
use crate::itrs::NodeRecord;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Functional class of a standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellClass {
    /// Static CMOS inverter — the VCO integrator stage is built from these.
    Inverter,
    /// Two-inverter buffer; also models the VCO kick-back isolation buffer.
    Buffer,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND (the comparator of Weaver et al. \[16\] uses these).
    Nand3,
    /// 2-input NOR (SR-latch of the proposed SAFF).
    Nor2,
    /// 3-input NOR — the heart of the proposed synthesis-friendly comparator.
    Nor3,
    /// 2-input XOR — the phase detector of each ADC slice.
    Xor2,
    /// Level-sensitive transparent latch — the retiming element.
    Latch,
    /// Edge-triggered D flip-flop.
    Dff,
    /// Low-resistivity resistor fragment ("resistor standard cell", ~250 Ω).
    ResFragLow,
    /// High-resistivity resistor fragment (~2.75 kΩ).
    ResFragHigh,
    /// Tie cell (constant 0/1), used by naive synthesis baselines.
    Tie,
}

impl CellClass {
    /// All cell classes, in catalog order.
    pub(crate) const ALL: [CellClass; 12] = [
        CellClass::Inverter,
        CellClass::Buffer,
        CellClass::Nand2,
        CellClass::Nand3,
        CellClass::Nor2,
        CellClass::Nor3,
        CellClass::Xor2,
        CellClass::Latch,
        CellClass::Dff,
        CellClass::ResFragLow,
        CellClass::ResFragHigh,
        CellClass::Tie,
    ];

    /// True if the cell is a passive resistor fragment (no P/G pins).
    pub fn is_resistor(self) -> bool {
        matches!(self, CellClass::ResFragLow | CellClass::ResFragHigh)
    }

    /// Short name used as the prefix of catalog cell names.
    pub(crate) fn prefix(self) -> &'static str {
        match self {
            CellClass::Inverter => "INV",
            CellClass::Buffer => "BUF",
            CellClass::Nand2 => "NAND2",
            CellClass::Nand3 => "NAND3",
            CellClass::Nor2 => "NOR2",
            CellClass::Nor3 => "NOR3",
            CellClass::Xor2 => "XOR2",
            CellClass::Latch => "LATCH",
            CellClass::Dff => "DFF",
            CellClass::ResFragLow => "RESLO",
            CellClass::ResFragHigh => "RESHI",
            CellClass::Tie => "TIE",
        }
    }

    /// Width of the X1 variant in placement sites.
    fn base_width_sites(self) -> usize {
        match self {
            CellClass::Inverter => 2,
            CellClass::Buffer => 4,
            CellClass::Nand2 | CellClass::Nor2 => 3,
            CellClass::Nand3 | CellClass::Nor3 => 4,
            CellClass::Xor2 => 6,
            CellClass::Latch => 8,
            CellClass::Dff => 12,
            CellClass::ResFragLow => 4,
            CellClass::ResFragHigh => 4,
            CellClass::Tie => 2,
        }
    }

    /// Equivalent minimum-gate count, for leakage and energy scaling.
    fn equivalent_gates(self) -> f64 {
        match self {
            CellClass::Inverter => 1.0,
            CellClass::Buffer => 2.0,
            CellClass::Nand2 | CellClass::Nor2 => 1.5,
            CellClass::Nand3 | CellClass::Nor3 => 2.2,
            CellClass::Xor2 => 3.0,
            CellClass::Latch => 4.0,
            CellClass::Dff => 7.0,
            CellClass::ResFragLow | CellClass::ResFragHigh | CellClass::Tie => 0.0,
        }
    }

    /// Logical-effort style delay multiplier relative to an inverter.
    fn delay_factor(self) -> f64 {
        match self {
            CellClass::Inverter => 1.0,
            CellClass::Buffer => 2.0,
            CellClass::Nand2 => 1.3,
            CellClass::Nand3 => 1.6,
            CellClass::Nor2 => 1.5,
            CellClass::Nor3 => 1.9,
            CellClass::Xor2 => 2.2,
            CellClass::Latch => 2.5,
            CellClass::Dff => 3.5,
            CellClass::ResFragLow | CellClass::ResFragHigh | CellClass::Tie => 0.0,
        }
    }
}

impl fmt::Display for CellClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// Drive strength of a standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DriveStrength {
    /// Minimum drive.
    X1,
    /// 2× drive.
    X2,
    /// 4× drive.
    X4,
}

impl DriveStrength {
    /// All drive strengths in ascending order.
    pub(crate) const ALL: [DriveStrength; 3] =
        [DriveStrength::X1, DriveStrength::X2, DriveStrength::X4];

    /// The multiplier relative to X1.
    pub(crate) fn factor(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 2.0,
            DriveStrength::X4 => 4.0,
        }
    }

    /// Suffix used in catalog cell names, e.g. `"X4"`.
    pub(crate) fn suffix(self) -> &'static str {
        match self {
            DriveStrength::X1 => "X1",
            DriveStrength::X2 => "X2",
            DriveStrength::X4 => "X4",
        }
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Electrical and geometric description of one library cell at one node.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    name: String,
    class: CellClass,
    drive: DriveStrength,
    width_sites: usize,
    input_cap_ff: f64,
    switch_energy_fj: f64,
    intrinsic_delay_ps: f64,
    drive_res_kohm: f64,
    leakage_nw: f64,
    fragment_res_ohm: f64,
}

impl CellSpec {
    /// Catalog name, e.g. `"NOR3X4"` or `"RESLO"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Functional class.
    pub fn class(&self) -> CellClass {
        self.class
    }

    /// Drive strength.
    pub(crate) fn drive(&self) -> DriveStrength {
        self.drive
    }

    /// Cell width in placement sites (height is always one row).
    pub fn width_sites(&self) -> usize {
        self.width_sites
    }

    /// Capacitance of one logic input, femtofarads.
    pub fn input_cap_ff(&self) -> f64 {
        self.input_cap_ff
    }

    /// Energy of one output transition into a typical load, femtojoules.
    pub fn switch_energy_fj(&self) -> f64 {
        self.switch_energy_fj
    }

    /// Loaded propagation delay for a given load capacitance, picoseconds.
    pub fn delay_ps(&self, load_ff: f64) -> f64 {
        self.intrinsic_delay_ps + self.drive_res_kohm * load_ff
    }

    /// Static leakage power, nanowatts.
    pub fn leakage_nw(&self) -> f64 {
        self.leakage_nw
    }

    /// For resistor fragments: the fragment resistance in ohms (0 otherwise).
    pub fn fragment_res_ohm(&self) -> f64 {
        self.fragment_res_ohm
    }
}

impl fmt::Display for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} sites)", self.name, self.width_sites)
    }
}

/// Resistance of one low-resistivity fragment, ohms. Four in series make the
/// paper's 1 kΩ DAC resistor (Fig. 11a).
pub const RES_FRAG_LOW_OHM: f64 = 250.0;

/// Resistance of one high-resistivity fragment, ohms. Four in series make
/// the paper's 11 kΩ input resistor (Fig. 11b).
pub const RES_FRAG_HIGH_OHM: f64 = 2750.0;

/// The complete standard-cell catalog of one technology node. Immutable
/// and shared: a clone copies a pointer, not the cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCatalog {
    cells: Arc<BTreeMap<String, CellSpec>>,
}

impl CellCatalog {
    /// Builds the catalog for a raw technology record.
    pub(crate) fn for_record(record: &NodeRecord) -> Self {
        let mut cells = BTreeMap::new();
        let stage_delay_ps = record.fo4_ps / 3.0;
        for class in CellClass::ALL {
            let drives: &[DriveStrength] = if class.is_resistor() || class == CellClass::Tie {
                &[DriveStrength::X1]
            } else {
                &DriveStrength::ALL
            };
            for &drive in drives {
                let f = drive.factor();
                let width_extra = match drive {
                    DriveStrength::X1 => 0,
                    DriveStrength::X2 => 1,
                    DriveStrength::X4 => 2,
                };
                let name = if class.is_resistor() {
                    class.prefix().to_string()
                } else {
                    format!("{}{}", class.prefix(), drive.suffix())
                };
                let input_cap_ff = record.inv_cin_ff * f * class.equivalent_gates().max(0.5);
                let c_eff_ff = input_cap_ff * 2.5;
                let switch_energy_fj = c_eff_ff * record.vdd_v * record.vdd_v;
                let intrinsic_delay_ps = stage_delay_ps * class.delay_factor();
                // Drive resistance chosen so an inverter driving 4 identical
                // inverters reproduces the FO4 delay.
                let r_inv_kohm = if record.inv_cin_ff > 0.0 {
                    (record.fo4_ps - stage_delay_ps) / (4.0 * record.inv_cin_ff)
                } else {
                    0.0
                };
                let drive_res_kohm = if class.is_resistor() || class == CellClass::Tie {
                    0.0
                } else {
                    r_inv_kohm / f
                };
                let fragment_res_ohm = match class {
                    CellClass::ResFragLow => RES_FRAG_LOW_OHM * record.res_sheet_low_ohm / 120.0,
                    CellClass::ResFragHigh => {
                        RES_FRAG_HIGH_OHM * record.res_sheet_high_ohm / 1250.0
                    }
                    _ => 0.0,
                };
                let spec = CellSpec {
                    name: name.clone(),
                    class,
                    drive,
                    width_sites: class.base_width_sites() + width_extra,
                    input_cap_ff,
                    switch_energy_fj,
                    intrinsic_delay_ps,
                    drive_res_kohm,
                    leakage_nw: record.gate_leakage_nw * class.equivalent_gates() * f,
                    fragment_res_ohm,
                };
                cells.insert(name, spec);
            }
        }
        CellCatalog {
            cells: Arc::new(cells),
        }
    }

    /// Looks up a cell by catalog name.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownCell`] if the name is not in the catalog.
    pub fn cell(&self, name: &str) -> Result<&CellSpec, TechError> {
        self.cells.get(name).ok_or_else(|| TechError::UnknownCell {
            name: name.to_string(),
        })
    }

    /// Looks up a cell by class and drive.
    ///
    /// # Errors
    ///
    /// Returns [`TechError::UnknownCell`] if the class/drive combination is
    /// not in the catalog (resistor fragments only exist at X1).
    pub fn cell_for(&self, class: CellClass, drive: DriveStrength) -> Result<&CellSpec, TechError> {
        let name = if class.is_resistor() {
            class.prefix().to_string()
        } else {
            format!("{}{}", class.prefix(), drive.suffix())
        };
        self.cell(&name)
    }

    /// Iterates over all cells in name order.
    pub fn iter(&self) -> impl Iterator<Item = &CellSpec> {
        self.cells.values()
    }

    /// Number of cells in the catalog.
    pub fn len(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itrs::record_for;

    fn catalog(node_nm: f64) -> CellCatalog {
        CellCatalog::for_record(record_for(node_nm).expect("node exists"))
    }

    #[test]
    fn catalog_has_paper_cells() {
        let c = catalog(40.0);
        // The exact cell names used in the paper's Table 1 Verilog.
        assert!(c.cell("NOR3X4").is_ok());
        assert!(c.cell("NOR2X1").is_ok());
        assert!(c.cell("INVX1").is_ok());
        assert!(c.cell("RESLO").is_ok());
        assert!(c.cell("RESHI").is_ok());
    }

    #[test]
    fn unknown_cell_errors() {
        let c = catalog(40.0);
        let err = c.cell("OAI21X1").unwrap_err();
        assert!(matches!(err, TechError::UnknownCell { .. }));
    }

    #[test]
    fn drive_strength_scales_cap_and_leakage() {
        let c = catalog(40.0);
        let x1 = c.cell("INVX1").unwrap();
        let x4 = c.cell("INVX4").unwrap();
        assert!(x4.input_cap_ff() > 3.0 * x1.input_cap_ff());
        assert!(x4.leakage_nw() > 3.0 * x1.leakage_nw());
        assert!(x4.drive_res_kohm < x1.drive_res_kohm / 3.0);
        assert!(x4.width_sites() > x1.width_sites());
    }

    #[test]
    fn fo4_reproduced_by_delay_model() {
        for node in [40.0, 180.0] {
            let rec = record_for(node).unwrap();
            let c = CellCatalog::for_record(rec);
            let inv = c.cell("INVX1").unwrap();
            let fo4 = inv.delay_ps(4.0 * inv.input_cap_ff());
            assert!(
                (fo4 - rec.fo4_ps).abs() / rec.fo4_ps < 0.01,
                "delay model must reproduce FO4 at {node} nm: {fo4} vs {}",
                rec.fo4_ps
            );
        }
    }

    #[test]
    fn resistor_fragments_compose_paper_values() {
        let c = catalog(40.0);
        let lo = c.cell("RESLO").unwrap();
        let hi = c.cell("RESHI").unwrap();
        // Four fragments in series reproduce the paper's 1 kΩ and 11 kΩ.
        let r_lo = 4.0 * lo.fragment_res_ohm();
        let r_hi = 4.0 * hi.fragment_res_ohm();
        assert!((r_lo - 1_000.0).abs() / 1_000.0 < 0.2, "got {r_lo}");
        assert!((r_hi - 11_000.0).abs() / 11_000.0 < 0.2, "got {r_hi}");
        // Higher resistivity => more ohms in the same footprint.
        assert!(hi.fragment_res_ohm() > 5.0 * lo.fragment_res_ohm());
    }

    #[test]
    fn resistors_have_no_drive_or_energy() {
        let c = catalog(180.0);
        let lo = c.cell("RESLO").unwrap();
        assert_eq!(lo.drive_res_kohm, 0.0);
        assert!(lo.class().is_resistor());
    }

    #[test]
    fn cell_for_matches_cell_by_name() {
        let c = catalog(40.0);
        let by_name = c.cell("NOR3X4").unwrap();
        let by_class = c.cell_for(CellClass::Nor3, DriveStrength::X4).unwrap();
        assert_eq!(by_name, by_class);
    }

    #[test]
    fn catalog_size_is_stable() {
        let c = catalog(40.0);
        // 9 logic classes × 3 drives + 2 resistors + 1 tie = 30.
        assert_eq!(c.len(), 30);
        assert_eq!(c.iter().count(), 30);
    }

    #[test]
    fn energy_scales_between_nodes() {
        let e40 = catalog(40.0).cell("INVX1").unwrap().switch_energy_fj();
        let e180 = catalog(180.0).cell("INVX1").unwrap().switch_energy_fj();
        assert!(e180 > 5.0 * e40, "180 nm transitions much costlier");
    }

    #[test]
    fn display_is_informative() {
        let c = catalog(40.0);
        let s = c.cell("DFFX1").unwrap().to_string();
        assert!(s.contains("DFFX1"));
        assert!(s.contains("sites"));
    }
}
