//! Modules, ports, nets and instances — the hierarchical netlist.

use crate::cellpins::LeafPins;
use crate::error::NetlistError;
use std::collections::BTreeMap;
use std::fmt;

/// Index of a net inside one [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) usize);

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Driven from outside.
    Input,
    /// Driven by this module.
    Output,
    /// Bidirectional (analog nets, supplies — the paper's modules declare
    /// supplies and analog nodes as `inout`).
    Inout,
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PortDirection::Input => "input",
            PortDirection::Output => "output",
            PortDirection::Inout => "inout",
        };
        f.write_str(s)
    }
}

/// A module port: a named, directed connection to the module's boundary.
/// Every port owns a net of the same name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub direction: PortDirection,
    /// The internal net the port is bonded to.
    pub net: NetId,
}

/// What an instance instantiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceKind {
    /// A library leaf cell (e.g. `NOR3X4`).
    Leaf {
        /// Library cell name.
        cell: String,
    },
    /// Another module of the same design.
    Hierarchical {
        /// Module name.
        module: String,
    },
}

/// An instance inside a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name, unique within the module.
    pub name: String,
    /// Leaf cell or submodule.
    pub kind: InstanceKind,
    /// Pin-name → net connections.
    pub connections: BTreeMap<String, NetId>,
}

impl Instance {
    /// The library cell name if this is a leaf instance.
    pub fn leaf_cell(&self) -> Option<&str> {
        match &self.kind {
            InstanceKind::Leaf { cell } => Some(cell),
            InstanceKind::Hierarchical { .. } => None,
        }
    }
}

/// One level of netlist hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    name: String,
    ports: Vec<Port>,
    nets: Vec<String>,
    net_index: BTreeMap<String, NetId>,
    instances: Vec<Instance>,
}

impl Module {
    /// Creates an empty module.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "module name must be non-empty");
        Module {
            name,
            ports: Vec::new(),
            nets: Vec::new(),
            net_index: BTreeMap::new(),
            instances: Vec::new(),
        }
    }

    /// Module name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Adds a net; names are unique (adding an existing name returns the
    /// existing net).
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        if let Some(&id) = self.net_index.get(&name) {
            return id;
        }
        let id = NetId(self.nets.len());
        self.net_index.insert(name.clone(), id);
        self.nets.push(name);
        id
    }

    /// Adds a port (and its net). Returns the net the port is bonded to.
    ///
    /// # Panics
    ///
    /// Panics if a port of this name already exists.
    pub fn add_port(&mut self, name: impl Into<String>, direction: PortDirection) -> NetId {
        let name = name.into();
        assert!(
            !self.ports.iter().any(|p| p.name == name),
            "duplicate port {name}"
        );
        let net = self.add_net(name.clone());
        self.ports.push(Port {
            name,
            direction,
            net,
        });
        net
    }

    /// Adds a leaf instance with the given pin connections.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownCell`] if the cell name is unsupported.
    /// * [`NetlistError::UnknownPin`] if a connection names a pin the cell
    ///   does not have.
    /// * [`NetlistError::DuplicateName`] if the instance name is taken.
    /// * [`NetlistError::UnconnectedPin`] if a cell pin is left open.
    pub fn add_leaf<'p>(
        &mut self,
        name: impl Into<String>,
        cell: &str,
        connections: impl IntoIterator<Item = (&'p str, NetId)>,
    ) -> Result<(), NetlistError> {
        let name = name.into();
        if self.instances.iter().any(|i| i.name == name) {
            return Err(NetlistError::DuplicateName { name });
        }
        let pins = LeafPins::for_cell(cell)?;
        let mut map = BTreeMap::new();
        for (pin, net) in connections {
            if pins.role(pin).is_none() {
                return Err(NetlistError::UnknownPin {
                    cell: cell.to_string(),
                    pin: pin.to_string(),
                });
            }
            map.insert(pin.to_string(), net);
        }
        for (pin, _) in pins.pins() {
            if !map.contains_key(*pin) {
                return Err(NetlistError::UnconnectedPin {
                    instance: name,
                    pin: (*pin).to_string(),
                });
            }
        }
        self.instances.push(Instance {
            name,
            kind: InstanceKind::Leaf {
                cell: cell.to_string(),
            },
            connections: map,
        });
        Ok(())
    }

    /// Adds a hierarchical instance of `module` with port-name → net
    /// connections. Port existence is validated at [`crate::Design`]
    /// construction, where the referenced module is available.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the instance name is
    /// taken.
    pub fn add_submodule<'p>(
        &mut self,
        name: impl Into<String>,
        module: &str,
        connections: impl IntoIterator<Item = (&'p str, NetId)>,
    ) -> Result<(), NetlistError> {
        let name = name.into();
        if self.instances.iter().any(|i| i.name == name) {
            return Err(NetlistError::DuplicateName { name });
        }
        self.instances.push(Instance {
            name,
            kind: InstanceKind::Hierarchical {
                module: module.to_string(),
            },
            connections: connections
                .into_iter()
                .map(|(p, n)| (p.to_string(), n))
                .collect(),
        });
        Ok(())
    }

    /// The module's ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Looks up a port by name.
    pub(crate) fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// The module's instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Name of net `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this module.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.0]
    }

    /// All net names in id order.
    pub(crate) fn net_names(&self) -> &[String] {
        &self.nets
    }

    /// Number of nets.
    pub(crate) fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// True if the named net is bonded to a port.
    pub(crate) fn is_port_net(&self, id: NetId) -> bool {
        self.ports.iter().any(|p| p.net == id)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module {} ({} ports, {} nets, {} instances)",
            self.name,
            self.ports.len(),
            self.nets.len(),
            self.instances.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_own_nets() {
        let mut m = Module::new("top");
        let a = m.add_port("A", PortDirection::Input);
        assert_eq!(m.net_name(a), "A");
        assert!(m.is_port_net(a));
        assert_eq!(m.port("A").unwrap().direction, PortDirection::Input);
    }

    #[test]
    fn add_net_is_idempotent() {
        let mut m = Module::new("top");
        let x1 = m.add_net("X");
        let x2 = m.add_net("X");
        assert_eq!(x1, x2);
        assert_eq!(m.net_count(), 1);
    }

    #[test]
    fn leaf_requires_all_pins() {
        let mut m = Module::new("top");
        let a = m.add_net("a");
        let y = m.add_net("y");
        let vdd = m.add_net("vdd");
        let vss = m.add_net("vss");
        // Missing VSS.
        let err = m
            .add_leaf("I0", "INVX1", [("A", a), ("Y", y), ("VDD", vdd)])
            .unwrap_err();
        assert!(matches!(err, NetlistError::UnconnectedPin { .. }));
        // Complete.
        m.add_leaf(
            "I0",
            "INVX1",
            [("A", a), ("Y", y), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        assert_eq!(m.instances().len(), 1);
        assert_eq!(m.instances()[0].leaf_cell(), Some("INVX1"));
    }

    #[test]
    fn unknown_pin_rejected() {
        let mut m = Module::new("top");
        let a = m.add_net("a");
        let err = m.add_leaf("I0", "INVX1", [("Z", a)]).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownPin { .. }));
    }

    #[test]
    fn unknown_cell_rejected() {
        let mut m = Module::new("top");
        let a = m.add_net("a");
        let err = m.add_leaf("I0", "MUX21X1", [("A", a)]).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownCell { .. }));
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut m = Module::new("top");
        let t1 = m.add_net("t1");
        let t2 = m.add_net("t2");
        m.add_leaf("R0", "RESLO", [("T1", t1), ("T2", t2)]).unwrap();
        let err = m
            .add_leaf("R0", "RESLO", [("T1", t1), ("T2", t2)])
            .unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateName { .. }));
    }

    #[test]
    #[should_panic(expected = "duplicate port")]
    fn duplicate_port_panics() {
        let mut m = Module::new("top");
        m.add_port("A", PortDirection::Input);
        m.add_port("A", PortDirection::Output);
    }

    #[test]
    fn submodule_instances() {
        let mut m = Module::new("top");
        let clk = m.add_port("CLK", PortDirection::Input);
        m.add_submodule("S0", "slice", [("CLK", clk)]).unwrap();
        assert_eq!(m.instances()[0].leaf_cell(), None);
        match &m.instances()[0].kind {
            InstanceKind::Hierarchical { module } => assert_eq!(module, "slice"),
            _ => panic!("expected hierarchical"),
        }
    }

    #[test]
    fn display_counts() {
        let mut m = Module::new("adc");
        m.add_port("CLK", PortDirection::Input);
        assert_eq!(m.to_string(), "module adc (1 ports, 1 nets, 0 instances)");
    }
}
