//! Structural lint for flattened netlists.
//!
//! The checks a gate-level netlist must pass before layout synthesis:
//! every logic input driven, no contending drivers, no dangling outputs.
//! Power/supply nets and passive (resistor) terminals are exempt from the
//! driver rules — they are analog nodes by design in this circuit.

use crate::cellpins::{LeafPins, PinRole};
use crate::design::FlatNetlist;
use crate::error::NetlistError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintViolation {
    /// A logic input pin's net has no driver at all.
    FloatingInput {
        /// Cell path.
        cell: String,
        /// Pin name.
        pin: String,
        /// Net name.
        net: String,
    },
    /// Two or more output pins drive the same net.
    MultipleDrivers {
        /// Net name.
        net: String,
        /// Paths of the contending drivers.
        drivers: Vec<String>,
    },
    /// Two or more outputs drive the same net *within one leaf block* —
    /// the cross-coupled inverter topology of the paper's VCO cell
    /// (Fig. 5). Intentional analog contention; reported as a warning.
    CrossCoupledDrivers {
        /// Net name.
        net: String,
        /// Paths of the cross-coupled drivers.
        drivers: Vec<String>,
    },
    /// An output pin drives a net nobody reads.
    DanglingOutput {
        /// Cell path.
        cell: String,
        /// Net name.
        net: String,
    },
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintViolation::FloatingInput { cell, pin, net } => {
                write!(f, "floating input {cell}.{pin} on net {net}")
            }
            LintViolation::MultipleDrivers { net, drivers } => {
                write!(
                    f,
                    "net {net} has {} drivers: {}",
                    drivers.len(),
                    drivers.join(", ")
                )
            }
            LintViolation::CrossCoupledDrivers { net, drivers } => {
                write!(
                    f,
                    "net {net} is cross-coupled (intentional analog contention): {}",
                    drivers.join(", ")
                )
            }
            LintViolation::DanglingOutput { cell, net } => {
                write!(f, "dangling output of {cell} on net {net}")
            }
        }
    }
}

/// The result of linting a netlist.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// All violations found, in deterministic order.
    pub violations: Vec<LintViolation>,
}

impl LintReport {
    /// True if the netlist is clean.
    pub(crate) fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// True if any *error-class* violation exists. Dangling outputs are
    /// warnings (unused complementary outputs are routine in gate-level
    /// netlists); floating inputs and driver contention are errors.
    pub fn has_errors(&self) -> bool {
        self.violations.iter().any(|v| {
            !matches!(
                v,
                LintViolation::DanglingOutput { .. } | LintViolation::CrossCoupledDrivers { .. }
            )
        })
    }

    /// The warning-class findings (dangling / cross-coupled) only.
    pub fn warnings(&self) -> Vec<&LintViolation> {
        self.violations
            .iter()
            .filter(|v| {
                matches!(
                    v,
                    LintViolation::DanglingOutput { .. }
                        | LintViolation::CrossCoupledDrivers { .. }
                )
            })
            .collect()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "lint clean")
        } else {
            writeln!(f, "lint: {} violations", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Lints a flattened netlist. `external_nets` are nets legitimately driven
/// or observed from outside (the top module's ports: inputs count as
/// drivers, outputs as readers).
///
/// # Errors
///
/// Returns [`NetlistError::UnknownCell`] if a cell's pin set cannot be
/// resolved.
pub fn lint_flat(
    flat: &FlatNetlist,
    external_nets: &BTreeSet<String>,
) -> Result<LintReport, NetlistError> {
    let mut drivers: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut readers: BTreeMap<&str, Vec<(String, String)>> = BTreeMap::new();
    let mut passive_nets: BTreeSet<&str> = BTreeSet::new();

    for cell in &flat.cells {
        let pins = LeafPins::for_cell(&cell.cell)?;
        for (pin, net) in &cell.connections {
            match pins.role(pin) {
                Some(PinRole::Output) => drivers
                    .entry(net.as_str())
                    .or_default()
                    .push(cell.path.clone()),
                Some(PinRole::Input) => readers
                    .entry(net.as_str())
                    .or_default()
                    .push((cell.path.clone(), pin.clone())),
                Some(PinRole::Passive) => {
                    passive_nets.insert(net.as_str());
                }
                Some(PinRole::Power | PinRole::Ground) => {
                    passive_nets.insert(net.as_str());
                }
                None => {
                    return Err(NetlistError::UnknownPin {
                        cell: cell.cell.clone(),
                        pin: pin.clone(),
                    })
                }
            }
        }
    }

    let mut report = LintReport::default();
    // Floating inputs: an input net with no driver, no passive connection
    // (a resistor can legitimately define a node) and not external.
    for (net, sinks) in &readers {
        let driven =
            drivers.contains_key(net) || passive_nets.contains(net) || external_nets.contains(*net);
        if !driven {
            for (cell, pin) in sinks {
                report.violations.push(LintViolation::FloatingInput {
                    cell: cell.clone(),
                    pin: pin.clone(),
                    net: (*net).to_string(),
                });
            }
        }
    }
    // Multiple drivers. Contention confined to one hierarchical block is
    // the cross-coupled (latching / ring) topology — a warning; contention
    // across blocks is an error.
    for (net, d) in &drivers {
        if d.len() > 1 {
            // A top-level leaf is its own block; a hierarchical leaf's
            // block is its parent instance.
            let parent = |path: &str| -> String {
                path.rsplit_once('/')
                    .map(|(p, _)| p.to_string())
                    .unwrap_or_else(|| path.to_string())
            };
            let first_parent = parent(&d[0]);
            let same_block = d.iter().all(|p| parent(p) == first_parent);
            if same_block {
                report.violations.push(LintViolation::CrossCoupledDrivers {
                    net: (*net).to_string(),
                    drivers: d.clone(),
                });
            } else {
                report.violations.push(LintViolation::MultipleDrivers {
                    net: (*net).to_string(),
                    drivers: d.clone(),
                });
            }
        }
    }
    // Dangling outputs.
    for (net, d) in &drivers {
        let read =
            readers.contains_key(net) || passive_nets.contains(net) || external_nets.contains(*net);
        if !read {
            for cell in d {
                report.violations.push(LintViolation::DanglingOutput {
                    cell: cell.clone(),
                    net: (*net).to_string(),
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use crate::module::{Module, PortDirection};

    fn externals(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn inverter_chain() -> FlatNetlist {
        let mut m = Module::new("chain");
        let a = m.add_port("IN", PortDirection::Input);
        let y = m.add_port("OUT", PortDirection::Output);
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let mid = m.add_net("mid");
        m.add_leaf(
            "I0",
            "INVX1",
            [("A", a), ("Y", mid), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        m.add_leaf(
            "I1",
            "INVX1",
            [("A", mid), ("Y", y), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        Design::new(m).unwrap().flatten()
    }

    #[test]
    fn clean_chain_passes() {
        let flat = inverter_chain();
        let report = lint_flat(&flat, &externals(&["IN", "OUT", "VDD", "VSS"])).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn floating_input_detected() {
        let flat = inverter_chain();
        // Without IN declared external, I0.A floats.
        let report = lint_flat(&flat, &externals(&["OUT", "VDD", "VSS"])).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            &report.violations[0],
            LintViolation::FloatingInput { cell, .. } if cell == "I0"
        ));
        assert!(!report.is_clean());
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut m = Module::new("contention");
        let a = m.add_port("A", PortDirection::Input);
        let y = m.add_port("Y", PortDirection::Output);
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        m.add_leaf(
            "I0",
            "INVX1",
            [("A", a), ("Y", y), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        m.add_leaf(
            "I1",
            "INVX1",
            [("A", a), ("Y", y), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        let flat = Design::new(m).unwrap().flatten();
        let report = lint_flat(&flat, &externals(&["A", "Y", "VDD", "VSS"])).unwrap();
        assert!(matches!(
            &report.violations[0],
            LintViolation::MultipleDrivers { drivers, .. } if drivers.len() == 2
        ));
    }

    #[test]
    fn dangling_output_detected() {
        let mut m = Module::new("dangle");
        let a = m.add_port("A", PortDirection::Input);
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let dead = m.add_net("dead");
        m.add_leaf(
            "I0",
            "INVX1",
            [("A", a), ("Y", dead), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        let flat = Design::new(m).unwrap().flatten();
        let report = lint_flat(&flat, &externals(&["A", "VDD", "VSS"])).unwrap();
        assert!(matches!(
            &report.violations[0],
            LintViolation::DanglingOutput { net, .. } if net == "dead"
        ));
    }

    #[test]
    fn resistor_defined_node_is_not_floating() {
        // An input fed only through a resistor (the ADC's V_CTRL pattern)
        // must not be flagged: the resistor defines the node.
        let mut m = Module::new("rc");
        let vin = m.add_port("VIN", PortDirection::Input);
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let node = m.add_net("node");
        let y = m.add_port("Y", PortDirection::Output);
        m.add_leaf("R0", "RESHI", [("T1", vin), ("T2", node)])
            .unwrap();
        m.add_leaf(
            "I0",
            "INVX1",
            [("A", node), ("Y", y), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        let flat = Design::new(m).unwrap().flatten();
        let report = lint_flat(&flat, &externals(&["VIN", "Y", "VDD", "VSS"])).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn report_display_lists_violations() {
        let flat = inverter_chain();
        let report = lint_flat(&flat, &externals(&[])).unwrap();
        let text = report.to_string();
        assert!(text.contains("violations"));
        assert!(text.contains("floating input") || text.contains("dangling"));
    }
}
