//! Designs (module collections) and hierarchy flattening.

use crate::error::NetlistError;
use crate::module::{InstanceKind, Module, NetId};
use std::collections::BTreeMap;
use std::fmt;

/// A complete design: a set of modules with a designated top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Design {
    modules: BTreeMap<String, Module>,
    top: String,
}

impl Design {
    /// Creates a design whose only module is also the top.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`Design::with_modules`].
    pub fn new(top: Module) -> Result<Self, NetlistError> {
        let name = top.name().to_string();
        Design::with_modules(vec![top], &name)
    }

    /// Creates a design from several modules.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DuplicateName`] for duplicate module names.
    /// * [`NetlistError::MissingModule`] if the top or any instantiated
    ///   module is absent.
    /// * [`NetlistError::UnknownPin`] if a hierarchical connection names a
    ///   port the submodule lacks.
    pub fn with_modules(
        modules: impl IntoIterator<Item = Module>,
        top: &str,
    ) -> Result<Self, NetlistError> {
        let mut map = BTreeMap::new();
        for m in modules {
            let name = m.name().to_string();
            if map.insert(name.clone(), m).is_some() {
                return Err(NetlistError::DuplicateName { name });
            }
        }
        if !map.contains_key(top) {
            return Err(NetlistError::MissingModule {
                module: top.to_string(),
            });
        }
        let design = Design {
            modules: map,
            top: top.to_string(),
        };
        design.validate_hierarchy()?;
        Ok(design)
    }

    fn validate_hierarchy(&self) -> Result<(), NetlistError> {
        for module in self.modules.values() {
            for inst in module.instances() {
                if let InstanceKind::Hierarchical { module: sub } = &inst.kind {
                    let Some(submodule) = self.modules.get(sub) else {
                        return Err(NetlistError::MissingModule {
                            module: sub.clone(),
                        });
                    };
                    for pin in inst.connections.keys() {
                        if submodule.port(pin).is_none() {
                            return Err(NetlistError::UnknownPin {
                                cell: sub.clone(),
                                pin: pin.clone(),
                            });
                        }
                    }
                    for port in submodule.ports() {
                        if !inst.connections.contains_key(&port.name) {
                            return Err(NetlistError::UnconnectedPin {
                                instance: format!("{}/{}", module.name(), inst.name),
                                pin: port.name.clone(),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The top module.
    pub fn top(&self) -> &Module {
        &self.modules[&self.top]
    }

    /// Name of the top module.
    pub fn top_name(&self) -> &str {
        &self.top
    }

    /// Modules in dependency order (leaves first, top last) — the order a
    /// Verilog writer needs.
    pub fn modules_bottom_up(&self) -> Vec<&Module> {
        let mut order: Vec<&Module> = Vec::new();
        let mut visited: Vec<String> = Vec::new();
        fn visit<'d>(
            design: &'d Design,
            name: &str,
            visited: &mut Vec<String>,
            order: &mut Vec<&'d Module>,
        ) {
            if visited.iter().any(|v| v == name) {
                return;
            }
            visited.push(name.to_string());
            let module = &design.modules[name];
            for inst in module.instances() {
                if let InstanceKind::Hierarchical { module: sub } = &inst.kind {
                    visit(design, sub, visited, order);
                }
            }
            order.push(module);
        }
        visit(self, &self.top, &mut visited, &mut order);
        order
    }

    /// Flattens the hierarchy into leaf cells with hierarchical path names
    /// (`slice0/I6`) and globally resolved net names.
    pub fn flatten(&self) -> FlatNetlist {
        let mut flat = FlatNetlist {
            top: self.top.clone(),
            cells: Vec::new(),
            nets: Vec::new(),
        };
        let top = self.top();
        // Top-level nets keep their names.
        let top_net_map: BTreeMap<NetId, String> = (0..top.net_count())
            .map(|i| (NetId(i), top.net_names()[i].clone()))
            .collect();
        self.flatten_into(top, "", &top_net_map, &mut flat);
        let mut seen = std::collections::BTreeSet::new();
        for cell in &flat.cells {
            for net in cell.connections.values() {
                if seen.insert(net.clone()) {
                    flat.nets.push(net.clone());
                }
            }
        }
        flat
    }

    fn flatten_into(
        &self,
        module: &Module,
        prefix: &str,
        net_map: &BTreeMap<NetId, String>,
        out: &mut FlatNetlist,
    ) {
        for inst in module.instances() {
            let path = if prefix.is_empty() {
                inst.name.clone()
            } else {
                format!("{prefix}/{}", inst.name)
            };
            match &inst.kind {
                InstanceKind::Leaf { cell } => {
                    let connections = inst
                        .connections
                        .iter()
                        .map(|(pin, net)| (pin.clone(), net_map[net].clone()))
                        .collect();
                    out.cells.push(FlatCell {
                        path,
                        cell: cell.clone(),
                        connections,
                    });
                }
                InstanceKind::Hierarchical { module: sub_name } => {
                    let sub = &self.modules[sub_name];
                    // Build the submodule's net map: port nets bind to the
                    // parent's nets; internal nets get path-prefixed names.
                    let mut sub_map: BTreeMap<NetId, String> = BTreeMap::new();
                    for port in sub.ports() {
                        let parent_net = inst.connections[&port.name];
                        sub_map.insert(port.net, net_map[&parent_net].clone());
                    }
                    for i in 0..sub.net_count() {
                        let id = NetId(i);
                        sub_map
                            .entry(id)
                            .or_insert_with(|| format!("{path}/{}", sub.net_names()[i]));
                    }
                    self.flatten_into(sub, &path, &sub_map, out);
                }
            }
        }
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design top={} ({} modules)",
            self.top,
            self.modules.len()
        )
    }
}

/// A flattened leaf cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatCell {
    /// Hierarchical instance path, e.g. `"slice0/I6"`.
    pub path: String,
    /// Library cell name.
    pub cell: String,
    /// Pin → flat net name.
    pub connections: BTreeMap<String, String>,
}

/// The result of flattening a [`Design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatNetlist {
    /// Name of the top module this was flattened from.
    pub top: String,
    /// All leaf cells.
    pub cells: Vec<FlatCell>,
    /// All net names observed, in first-use order.
    pub nets: Vec<String>,
}

impl FlatNetlist {
    /// Total number of leaf cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the netlist has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cells connected to the given flat net.
    pub fn cells_on_net<'a>(&'a self, net: &'a str) -> impl Iterator<Item = &'a FlatCell> {
        self.cells
            .iter()
            .filter(move |c| c.connections.values().any(|n| n == net))
    }
}

impl fmt::Display for FlatNetlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flat {} ({} cells, {} nets)",
            self.top,
            self.cells.len(),
            self.nets.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::PortDirection;

    /// A two-level design: `top` instantiates `pair` twice; `pair` holds
    /// two inverters in series.
    fn two_level_design() -> Design {
        let mut pair = Module::new("pair");
        let a = pair.add_port("A", PortDirection::Input);
        let y = pair.add_port("Y", PortDirection::Output);
        let vdd = pair.add_port("VDD", PortDirection::Inout);
        let vss = pair.add_port("VSS", PortDirection::Inout);
        let mid = pair.add_net("mid");
        pair.add_leaf(
            "I0",
            "INVX1",
            [("A", a), ("Y", mid), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        pair.add_leaf(
            "I1",
            "INVX1",
            [("A", mid), ("Y", y), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();

        let mut top = Module::new("top");
        let tin = top.add_port("IN", PortDirection::Input);
        let tout = top.add_port("OUT", PortDirection::Output);
        let vdd = top.add_port("VDD", PortDirection::Inout);
        let vss = top.add_port("VSS", PortDirection::Inout);
        let x = top.add_net("x");
        top.add_submodule(
            "P0",
            "pair",
            [("A", tin), ("Y", x), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        top.add_submodule(
            "P1",
            "pair",
            [("A", x), ("Y", tout), ("VDD", vdd), ("VSS", vss)],
        )
        .unwrap();
        Design::with_modules([pair, top], "top").unwrap()
    }

    #[test]
    fn missing_top_rejected() {
        let m = Module::new("a");
        let err = Design::with_modules([m], "b").unwrap_err();
        assert!(matches!(err, NetlistError::MissingModule { .. }));
    }

    #[test]
    fn missing_submodule_rejected() {
        let mut top = Module::new("top");
        let c = top.add_port("C", PortDirection::Input);
        top.add_submodule("S", "ghost", [("C", c)]).unwrap();
        let err = Design::new(top).unwrap_err();
        assert!(matches!(err, NetlistError::MissingModule { .. }));
    }

    #[test]
    fn bad_submodule_port_rejected() {
        let sub = Module::new("sub");
        let mut top = Module::new("top");
        let c = top.add_port("C", PortDirection::Input);
        top.add_submodule("S", "sub", [("NOPE", c)]).unwrap();
        let err = Design::with_modules([sub, top], "top").unwrap_err();
        assert!(matches!(err, NetlistError::UnknownPin { .. }));
    }

    #[test]
    fn unbound_submodule_port_rejected() {
        let mut sub = Module::new("sub");
        sub.add_port("A", PortDirection::Input);
        let mut top = Module::new("top");
        top.add_submodule("S", "sub", []).unwrap();
        let err = Design::with_modules([sub, top], "top").unwrap_err();
        assert!(matches!(err, NetlistError::UnconnectedPin { .. }));
    }

    #[test]
    fn bottom_up_order_puts_top_last() {
        let d = two_level_design();
        let order: Vec<&str> = d.modules_bottom_up().iter().map(|m| m.name()).collect();
        assert_eq!(order, vec!["pair", "top"]);
    }

    #[test]
    fn flatten_produces_all_leaves() {
        let d = two_level_design();
        let flat = d.flatten();
        assert_eq!(flat.len(), 4);
        let paths: Vec<&str> = flat.cells.iter().map(|c| c.path.as_str()).collect();
        assert_eq!(paths, vec!["P0/I0", "P0/I1", "P1/I0", "P1/I1"]);
        assert!(!flat.is_empty());
    }

    #[test]
    fn flatten_resolves_nets_across_hierarchy() {
        let d = two_level_design();
        let flat = d.flatten();
        // P0's output Y is bonded to top net "x"; P1's input A too.
        let p0_i1 = flat.cells.iter().find(|c| c.path == "P0/I1").unwrap();
        let p1_i0 = flat.cells.iter().find(|c| c.path == "P1/I0").unwrap();
        assert_eq!(p0_i1.connections["Y"], "x");
        assert_eq!(p1_i0.connections["A"], "x");
        // Internal nets are path-prefixed.
        let p0_i0 = flat.cells.iter().find(|c| c.path == "P0/I0").unwrap();
        assert_eq!(p0_i0.connections["Y"], "P0/mid");
        // Global supplies stay global.
        assert_eq!(p0_i0.connections["VDD"], "VDD");
        assert_eq!(p1_i0.connections["VDD"], "VDD");
    }

    #[test]
    fn cells_on_net_and_of_cell() {
        let d = two_level_design();
        let flat = d.flatten();
        assert_eq!(flat.cells.iter().filter(|c| c.cell == "INVX1").count(), 4);
        assert_eq!(flat.cells_on_net("x").count(), 2);
        assert_eq!(flat.cells_on_net("VDD").count(), 4);
    }

    #[test]
    fn display_formats() {
        let d = two_level_design();
        assert!(d.to_string().contains("top=top"));
        assert!(d.flatten().to_string().contains("4 cells"));
    }
}
