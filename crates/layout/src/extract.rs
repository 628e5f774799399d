//! Parasitic RC extraction from routed wirelengths.
//!
//! The post-layout feedback loop: every routed net's length, times the
//! node's per-micrometre wire resistance and capacitance, gives the lumped
//! RC that `tdsigma-core` back-annotates onto the behavioral model (the
//! V_CTRL node capacitance, buffer loading, clock loading). This is what
//! turns the schematic-level simulation into a *post-layout* simulation.

use crate::route::Routing;
use std::collections::BTreeMap;
use std::fmt;
use tdsigma_tech::Technology;

/// Lumped parasitics of one net.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetParasitics {
    /// Series wire resistance, ohms.
    pub resistance_ohm: f64,
    /// Wire capacitance to ground, farads.
    pub capacitance_f: f64,
    /// Routed length, nm.
    pub length_nm: i64,
}

/// Extracted parasitics for a whole layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Parasitics {
    nets: BTreeMap<String, NetParasitics>,
}

impl Parasitics {
    /// Extracts parasitics from the routing result at the given technology.
    pub(crate) fn extract(routing: &Routing, tech: &Technology) -> Self {
        let r_per_um = tech.wire_res_ohm_per_um();
        let c_per_um = tech.wire_cap_ff_per_um() * 1e-15;
        let mut nets = BTreeMap::new();
        for net in &routing.nets {
            let length_um = net.wirelength_nm as f64 / 1e3;
            nets.insert(
                net.name.clone(),
                NetParasitics {
                    resistance_ohm: length_um * r_per_um,
                    capacitance_f: length_um * c_per_um,
                    length_nm: net.wirelength_nm,
                },
            );
        }
        Parasitics { nets }
    }

    /// Summed capacitance of all nets matching a predicate, farads.
    pub fn total_capacitance_where<F: Fn(&str) -> bool>(&self, pred: F) -> f64 {
        self.nets
            .iter()
            .filter(|(n, _)| pred(n))
            .map(|(_, p)| p.capacitance_f)
            .sum()
    }

    /// Total wire capacitance, farads.
    pub fn total_capacitance_f(&self) -> f64 {
        self.nets.values().map(|p| p.capacitance_f).sum()
    }

    /// Number of nets with extracted parasitics.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// True if nothing was extracted.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Iterates over `(net name, parasitics)` in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &NetParasitics)> {
        self.nets.iter().map(|(n, p)| (n.as_str(), p))
    }
}

impl fmt::Display for Parasitics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parasitics: {} nets, {:.2} fF total",
            self.nets.len(),
            self.total_capacitance_f() * 1e15
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RoutedNet;
    use tdsigma_tech::NodeId;

    fn fake_routing() -> Routing {
        Routing {
            nets: vec![
                RoutedNet {
                    name: "a".into(),
                    pins: 2,
                    wirelength_nm: 10_000, // 10 µm
                    overflow_edges: 0,
                    segments: Vec::new(),
                },
                RoutedNet {
                    name: "slice0/VCTRLP".into(),
                    pins: 3,
                    wirelength_nm: 50_000, // 50 µm
                    overflow_edges: 0,
                    segments: Vec::new(),
                },
            ],
            total_wirelength_nm: 60_000,
            max_congestion: 0.1,
            grid: (4, 4),
        }
    }

    #[test]
    fn extraction_scales_with_length_and_node() {
        let t40 = Technology::for_node(NodeId::N40).unwrap();
        let p = Parasitics::extract(&fake_routing(), &t40);
        let a = p.nets["a"];
        // 10 µm × 0.9 Ω/µm = 9 Ω; 10 µm × 0.19 fF/µm = 1.9 fF.
        assert!((a.resistance_ohm - 9.0).abs() < 0.1, "{}", a.resistance_ohm);
        assert!((a.capacitance_f - 1.9e-15).abs() < 1e-17);
        let v = p.nets["slice0/VCTRLP"];
        assert!((v.capacitance_f / a.capacitance_f - 5.0).abs() < 1e-9);
    }

    #[test]
    fn older_node_has_lower_wire_resistance() {
        let t40 = Technology::for_node(NodeId::N40).unwrap();
        let t180 = Technology::for_node(NodeId::N180).unwrap();
        let p40 = Parasitics::extract(&fake_routing(), &t40);
        let p180 = Parasitics::extract(&fake_routing(), &t180);
        assert!(p180.nets["a"].resistance_ohm < p40.nets["a"].resistance_ohm);
    }

    #[test]
    fn filtered_totals() {
        let t = Technology::for_node(NodeId::N40).unwrap();
        let p = Parasitics::extract(&fake_routing(), &t);
        let vctrl = p.total_capacitance_where(|n| n.contains("VCTRL"));
        assert!(vctrl > 0.0);
        assert!(vctrl < p.total_capacitance_f());
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn display_reports_total() {
        let t = Technology::for_node(NodeId::N40).unwrap();
        let p = Parasitics::extract(&fake_routing(), &t);
        assert!(p.to_string().contains("fF total"));
    }
}
