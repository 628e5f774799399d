//! Leaf-cell pin definitions.
//!
//! The netlist crate is deliberately independent of `tdsigma-tech`; the pin
//! interface of each supported library cell is defined here by name
//! pattern. `tdsigma-core` has a test asserting that every cell in the
//! technology catalog resolves to a pin set, so the two views cannot drift.

use crate::error::NetlistError;
use std::fmt;

/// The role a pin plays on a leaf cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinRole {
    /// Logic input.
    Input,
    /// Logic output (a driver).
    Output,
    /// Bidirectional / passive terminal (resistor ends).
    Passive,
    /// Power pin (VDD).
    Power,
    /// Ground pin (VSS).
    Ground,
}

impl fmt::Display for PinRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PinRole::Input => "input",
            PinRole::Output => "output",
            PinRole::Passive => "passive",
            PinRole::Power => "power",
            PinRole::Ground => "ground",
        };
        f.write_str(s)
    }
}

/// Pin interface of a library leaf cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafPins {
    cell: String,
    pins: Vec<(&'static str, PinRole)>,
}

impl LeafPins {
    /// Resolves the pin set of a library cell by name.
    ///
    /// Supported families: `INV*`, `BUF*`, `NAND2*`, `NAND3*`, `NOR2*`,
    /// `NOR3*`, `XOR2*`, `LATCH*`, `DFF*`, `RESLO`, `RESHI`, `TIE*`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] for unsupported names.
    pub fn for_cell(cell: &str) -> Result<Self, NetlistError> {
        let pg: [(&'static str, PinRole); 2] = [("VDD", PinRole::Power), ("VSS", PinRole::Ground)];
        let pins: Vec<(&'static str, PinRole)> = if cell.starts_with("INV")
            || cell.starts_with("BUF")
        {
            let mut v = vec![("A", PinRole::Input), ("Y", PinRole::Output)];
            v.extend(pg);
            v
        } else if cell.starts_with("NAND2") || cell.starts_with("NOR2") || cell.starts_with("XOR2")
        {
            let mut v = vec![
                ("A", PinRole::Input),
                ("B", PinRole::Input),
                ("Y", PinRole::Output),
            ];
            v.extend(pg);
            v
        } else if cell.starts_with("NAND3") || cell.starts_with("NOR3") {
            let mut v = vec![
                ("A", PinRole::Input),
                ("B", PinRole::Input),
                ("C", PinRole::Input),
                ("Y", PinRole::Output),
            ];
            v.extend(pg);
            v
        } else if cell.starts_with("LATCH") {
            let mut v = vec![
                ("D", PinRole::Input),
                ("EN", PinRole::Input),
                ("Q", PinRole::Output),
            ];
            v.extend(pg);
            v
        } else if cell.starts_with("DFF") {
            let mut v = vec![
                ("D", PinRole::Input),
                ("CK", PinRole::Input),
                ("Q", PinRole::Output),
            ];
            v.extend(pg);
            v
        } else if cell == "RESLO" || cell == "RESHI" {
            vec![("T1", PinRole::Passive), ("T2", PinRole::Passive)]
        } else if cell.starts_with("TIE") {
            let mut v = vec![("Y", PinRole::Output)];
            v.extend(pg);
            v
        } else {
            return Err(NetlistError::UnknownCell {
                cell: cell.to_string(),
            });
        };
        Ok(LeafPins {
            cell: cell.to_string(),
            pins,
        })
    }

    /// All pins in declaration order.
    pub fn pins(&self) -> &[(&'static str, PinRole)] {
        &self.pins
    }

    /// The role of pin `name`, if it exists.
    pub fn role(&self, name: &str) -> Option<PinRole> {
        self.pins.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
    }

    /// True if the cell has power/ground pins (resistor fragments do not —
    /// the crux of the paper's floorplanning problem).
    pub fn has_power_pins(&self) -> bool {
        self.pins
            .iter()
            .any(|(_, r)| matches!(r, PinRole::Power | PinRole::Ground))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pins_with(pins: &LeafPins, role: PinRole) -> Vec<&'static str> {
        pins.pins()
            .iter()
            .filter(|(_, r)| *r == role)
            .map(|(n, _)| *n)
            .collect()
    }

    #[test]
    fn inverter_pins() {
        let p = LeafPins::for_cell("INVX1").unwrap();
        assert_eq!(pins_with(&p, PinRole::Input), vec!["A"]);
        assert_eq!(pins_with(&p, PinRole::Output), vec!["Y"]);
        assert!(p.has_power_pins());
        assert_eq!(p.role("VDD"), Some(PinRole::Power));
        assert_eq!(p.role("NOPE"), None);
    }

    #[test]
    fn nor3_matches_paper_table1() {
        // Table 1 instantiates NOR3X4 with pins Y, VDD, VSS, A, B, C.
        let p = LeafPins::for_cell("NOR3X4").unwrap();
        for pin in ["Y", "VDD", "VSS", "A", "B", "C"] {
            assert!(p.role(pin).is_some(), "missing pin {pin}");
        }
        assert_eq!(pins_with(&p, PinRole::Input).len(), 3);
    }

    #[test]
    fn resistor_is_passive_without_power() {
        for cell in ["RESLO", "RESHI"] {
            let p = LeafPins::for_cell(cell).unwrap();
            assert!(!p.has_power_pins(), "{cell} must not have P/G pins");
            assert_eq!(p.role("T1"), Some(PinRole::Passive));
            assert_eq!(p.role("T2"), Some(PinRole::Passive));
            assert!(pins_with(&p, PinRole::Output).is_empty());
        }
    }

    #[test]
    fn all_families_resolve() {
        for cell in [
            "INVX1", "INVX2", "INVX4", "BUFX2", "NAND2X1", "NAND3X1", "NOR2X1", "NOR3X4", "XOR2X1",
            "LATCHX1", "DFFX1", "RESLO", "RESHI", "TIEX1",
        ] {
            assert!(LeafPins::for_cell(cell).is_ok(), "{cell} must resolve");
        }
    }

    #[test]
    fn unknown_cell_errors() {
        assert!(matches!(
            LeafPins::for_cell("AOI22X1"),
            Err(NetlistError::UnknownCell { .. })
        ));
    }

    #[test]
    fn latch_and_dff_pins() {
        let latch = LeafPins::for_cell("LATCHX1").unwrap();
        assert_eq!(pins_with(&latch, PinRole::Input), vec!["D", "EN"]);
        let dff = LeafPins::for_cell("DFFX2").unwrap();
        assert_eq!(pins_with(&dff, PinRole::Input), vec!["D", "CK"]);
        assert_eq!(pins_with(&dff, PinRole::Output), vec!["Q"]);
    }

    #[test]
    fn xor_pins() {
        let p = LeafPins::for_cell("XOR2X1").unwrap();
        assert_eq!(pins_with(&p, PinRole::Input), vec!["A", "B"]);
    }

    #[test]
    fn role_display() {
        assert_eq!(PinRole::Power.to_string(), "power");
        assert_eq!(PinRole::Passive.to_string(), "passive");
    }
}
