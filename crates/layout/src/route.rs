//! Usage-aware global routing on a gcell grid, in a single pass.
//!
//! Each signal net is decomposed into a Manhattan minimum-spanning tree
//! over its pins' gcells; every tree edge is routed with A* over the grid,
//! where edge costs grow with the usage earlier nets committed. Nets are
//! routed once each, widest bounding box first, and a committed route is
//! never ripped up: an edge pushed past its capacity is counted as
//! overflow (per net and in [`Routing`]'s total), not repaired. Removing
//! that overflow by negotiated rip-up and reroute is ROADMAP item 3.
//! Supply nets are excluded — they are distributed by the row rails and
//! the region-level power mesh, which is the whole point of the MSV
//! floorplan.

use crate::error::LayoutError;
use crate::geom::Point;
use crate::place::Placement;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use tdsigma_netlist::FlatNetlist;

/// One routed net.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedNet {
    /// Net name.
    pub name: String,
    /// Number of pins.
    pub pins: usize,
    /// Total routed wirelength, nm.
    pub wirelength_nm: i64,
    /// Number of grid edges whose capacity the net pushed past the limit.
    pub overflow_edges: usize,
    /// Routed wire segments as gcell-centre polyline pieces, nm
    /// coordinates (for rendering and geometric analyses).
    pub segments: Vec<(Point, Point)>,
}

/// Result of global routing.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// Per-net results, in routing order (longest nets first).
    pub nets: Vec<RoutedNet>,
    /// Sum of all net wirelengths, nm.
    pub total_wirelength_nm: i64,
    /// Peak edge usage / capacity ratio.
    pub max_congestion: f64,
    /// Grid dimensions (columns, rows).
    pub grid: (usize, usize),
}

impl Routing {
    /// Total number of overflowed edges across nets. The router counts
    /// overflow and does not repair it; this sum is what a legal-routing
    /// gate (ROADMAP item 3) would hold at zero.
    pub(crate) fn total_overflow(&self) -> usize {
        self.nets.iter().map(|n| n.overflow_edges).sum()
    }
}

impl fmt::Display for Routing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routing: {} nets, {:.1} µm total, congestion {:.2}, {} overflows",
            self.nets.len(),
            self.total_wirelength_nm as f64 / 1e3,
            self.max_congestion,
            self.total_overflow()
        )
    }
}

fn is_supply_net(name: &str) -> bool {
    let base = name.rsplit('/').next().unwrap_or(name);
    matches!(base, "VDD" | "VSS" | "VREFP" | "VREFN" | "GND")
}

struct Grid {
    cols: usize,
    rows: usize,
    capacity: u32,
    /// Usage of horizontal edges `[(col, row) → (col+1, row)]`.
    h_use: Vec<u32>,
    /// Usage of vertical edges `[(col, row) → (col, row+1)]`.
    v_use: Vec<u32>,
}

impl Grid {
    fn h_idx(&self, c: usize, r: usize) -> usize {
        r * (self.cols - 1) + c
    }
    fn v_idx(&self, c: usize, r: usize) -> usize {
        c * (self.rows - 1) + r
    }
    fn node(&self, c: usize, r: usize) -> usize {
        r * self.cols + c
    }
    fn edge_cost(&self, usage: u32) -> f64 {
        // Unit base cost plus steep congestion penalty past capacity.
        1.0 + if usage >= self.capacity {
            10.0 * (usage - self.capacity + 1) as f64
        } else {
            usage as f64 / self.capacity as f64
        }
    }
}

/// Routes the signal nets of a placed netlist.
///
/// `gcell_rows` sets the gcell edge length in placement-row heights
/// (4 is a good default). Routing always completes (congestion is a soft
/// cost); overflow is reported per net instead of failing.
///
/// # Errors
///
/// Returns [`LayoutError::Unroutable`] only for internal inconsistencies
/// (a pin outside the die).
pub fn route(
    flat: &FlatNetlist,
    placement: &Placement,
    die_width_nm: i64,
    die_height_nm: i64,
    row_height_nm: i64,
    gcell_rows: usize,
) -> Result<Routing, LayoutError> {
    let gcell_nm = (row_height_nm * gcell_rows as i64).max(1);
    let cols = ((die_width_nm + gcell_nm - 1) / gcell_nm).max(2) as usize;
    let rows = ((die_height_nm + gcell_nm - 1) / gcell_nm).max(2) as usize;
    // Tracks per gcell boundary: half the pitches, conservatively.
    let capacity = ((gcell_nm / (row_height_nm / 8).max(1)) as u32).max(2);
    let mut grid = Grid {
        cols,
        rows,
        capacity,
        h_use: vec![0; rows * (cols - 1)],
        v_use: vec![0; cols * (rows - 1)],
    };

    // Net → pin gcells.
    let mut nets: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for cell in &flat.cells {
        let placed = placement
            .cell(&cell.path)
            .ok_or_else(|| LayoutError::Unroutable {
                net: format!("<unplaced cell {}>", cell.path),
            })?;
        let centre = placed.center();
        if centre.x < 0 || centre.y < 0 {
            return Err(LayoutError::Unroutable {
                net: format!("<cell {} outside die>", cell.path),
            });
        }
        let gc = (
            ((centre.x / gcell_nm) as usize).min(cols - 1),
            ((centre.y / gcell_nm) as usize).min(rows - 1),
        );
        for net in cell.connections.values() {
            if is_supply_net(net) {
                continue;
            }
            nets.entry(net).or_default().push(gc);
        }
    }

    // Route longest (by pin-spread) nets first.
    let mut order: Vec<(&str, Vec<(usize, usize)>)> = nets
        .into_iter()
        .map(|(name, mut pins)| {
            pins.sort_unstable();
            pins.dedup();
            (name, pins)
        })
        .collect();
    order.sort_by_key(|(name, pins)| {
        let spread = bbox_half_perimeter(pins);
        (Reverse(spread), *name)
    });

    let mut routed = Vec::with_capacity(order.len());
    let mut search = Search::new(cols * rows);
    let mut max_cong = 0.0f64;
    for (name, pins) in order {
        let pin_count = pins.len();
        let mut wire_gcells = 0i64;
        let mut overflow_edges = 0usize;
        let mut segments: Vec<(Point, Point)> = Vec::new();
        if pin_count > 1 {
            // Prim's MST on Manhattan distance, each edge A*-routed.
            let mut in_tree = vec![false; pin_count];
            in_tree[0] = true;
            for _ in 1..pin_count {
                // Closest (tree, outside) pair.
                let mut best: Option<(usize, usize, i64)> = None;
                for (i, &a) in pins.iter().enumerate() {
                    if !in_tree[i] {
                        continue;
                    }
                    for (j, &b) in pins.iter().enumerate() {
                        if in_tree[j] {
                            continue;
                        }
                        let d = (a.0 as i64 - b.0 as i64).abs() + (a.1 as i64 - b.1 as i64).abs();
                        if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                            best = Some((i, j, d));
                        }
                    }
                }
                let (i, j, _) = best.expect("tree incomplete implies outside pins exist");
                in_tree[j] = true;
                let (len, over, path) = astar_route(&mut grid, &mut search, pins[i], pins[j]);
                wire_gcells += len;
                overflow_edges += over;
                let centre = |gc: usize| {
                    let (c, r) = (gc % cols, gc / cols);
                    Point::new(
                        c as i64 * gcell_nm + gcell_nm / 2,
                        r as i64 * gcell_nm + gcell_nm / 2,
                    )
                };
                for pair in path.windows(2) {
                    segments.push((centre(pair[0]), centre(pair[1])));
                }
            }
        }
        // Pin-escape length: half a gcell per pin.
        let wirelength_nm = wire_gcells * gcell_nm + (pin_count as i64) * gcell_nm / 2;
        routed.push(RoutedNet {
            name: name.to_string(),
            pins: pin_count,
            wirelength_nm,
            overflow_edges,
            segments,
        });
    }
    for &u in &grid.h_use {
        max_cong = max_cong.max(u as f64 / grid.capacity as f64);
    }
    for &u in &grid.v_use {
        max_cong = max_cong.max(u as f64 / grid.capacity as f64);
    }

    let total = routed.iter().map(|n| n.wirelength_nm).sum();
    Ok(Routing {
        nets: routed,
        total_wirelength_nm: total,
        max_congestion: max_cong,
        grid: (cols, rows),
    })
}

fn bbox_half_perimeter(pins: &[(usize, usize)]) -> i64 {
    if pins.len() < 2 {
        return 0;
    }
    let xs: Vec<i64> = pins.iter().map(|p| p.0 as i64).collect();
    let ys: Vec<i64> = pins.iter().map(|p| p.1 as i64).collect();
    (xs.iter().max().unwrap() - xs.iter().min().unwrap())
        + (ys.iter().max().unwrap() - ys.iter().min().unwrap())
}

/// Reusable A* state for one `route` call: `dist`/`prev` stay sized to the
/// grid, and only the nodes the previous search reached are reset.
struct Search {
    dist: Vec<f64>,
    prev: Vec<usize>,
    heap: BinaryHeap<(Reverse<u64>, usize)>,
    /// Nodes whose `dist` the last search set.
    reached: Vec<usize>,
}

impl Search {
    fn new(nodes: usize) -> Self {
        Search {
            dist: vec![f64::INFINITY; nodes],
            prev: vec![usize::MAX; nodes],
            heap: BinaryHeap::new(),
            reached: Vec::new(),
        }
    }
}

/// A* route between two gcells; commits usage; returns (edges, overflows,
/// node path from source to sink).
fn astar_route(
    grid: &mut Grid,
    search: &mut Search,
    from: (usize, usize),
    to: (usize, usize),
) -> (i64, usize, Vec<usize>) {
    if from == to {
        return (0, 0, Vec::new());
    }
    let Search {
        dist,
        prev,
        heap,
        reached,
    } = search;
    for &v in reached.iter() {
        dist[v] = f64::INFINITY;
        prev[v] = usize::MAX;
    }
    reached.clear();
    heap.clear();
    let start = grid.node(from.0, from.1);
    let goal = grid.node(to.0, to.1);
    dist[start] = 0.0;
    reached.push(start);
    // BinaryHeap over ordered f64 via bit trick (all costs non-negative).
    let key = |c: f64| Reverse(c.to_bits());
    heap.push((key(manhattan(grid, start, goal)), start));
    let g = &*grid;
    while let Some((_, u)) = heap.pop() {
        if u == goal {
            break;
        }
        let (uc, ur) = (u % g.cols, u / g.cols);
        let mut relax = |v: usize, usage: u32| {
            let nd = dist[u] + g.edge_cost(usage);
            if nd < dist[v] {
                if dist[v] == f64::INFINITY {
                    reached.push(v);
                }
                dist[v] = nd;
                prev[v] = u;
                heap.push((key(nd + manhattan(g, v, goal)), v));
            }
        };
        if uc + 1 < g.cols {
            relax(u + 1, g.h_use[g.h_idx(uc, ur)]);
        }
        if uc > 0 {
            relax(u - 1, g.h_use[g.h_idx(uc - 1, ur)]);
        }
        if ur + 1 < g.rows {
            relax(u + g.cols, g.v_use[g.v_idx(uc, ur)]);
        }
        if ur > 0 {
            relax(u - g.cols, g.v_use[g.v_idx(uc, ur - 1)]);
        }
    }
    // Walk back, committing usage and recording the path.
    let mut edges = 0i64;
    let mut overflow = 0usize;
    let mut path = vec![goal];
    let mut v = goal;
    while v != start {
        let u = prev[v];
        debug_assert!(u != usize::MAX, "grid is connected");
        let (uc, ur) = (u % grid.cols, u / grid.cols);
        let (vc, vr) = (v % grid.cols, v / grid.cols);
        let usage = if ur == vr {
            let idx = grid.h_idx(uc.min(vc), ur);
            grid.h_use[idx] += 1;
            grid.h_use[idx]
        } else {
            let idx = grid.v_idx(uc, ur.min(vr));
            grid.v_use[idx] += 1;
            grid.v_use[idx]
        };
        if usage > grid.capacity {
            overflow += 1;
        }
        edges += 1;
        v = u;
        path.push(v);
    }
    path.reverse();
    (edges, overflow, path)
}

fn manhattan(grid: &Grid, a: usize, b: usize) -> f64 {
    let (ac, ar) = (a % grid.cols, a / grid.cols);
    let (bc, br) = (b % grid.cols, b / grid.cols);
    Point::new(ac as i64, ar as i64).manhattan(Point::new(bc as i64, br as i64)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::physlib::PhysicalLibrary;
    use crate::place::place;
    use std::collections::BTreeMap;
    use tdsigma_netlist::{Design, Module, PortDirection, PowerPlan};
    use tdsigma_tech::{NodeId, Technology};

    fn placed_chain(n: usize) -> (FlatNetlist, Placement, Floorplan) {
        let mut m = Module::new("chain");
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let mut prev = m.add_port("IN", PortDirection::Input);
        for i in 0..n {
            let next = m.add_net(format!("n{i}"));
            m.add_leaf(
                format!("I{i}"),
                "INVX1",
                [("A", prev), ("Y", next), ("VDD", vdd), ("VSS", vss)],
            )
            .unwrap();
            prev = next;
        }
        let flat = Design::new(m).unwrap().flatten();
        let plan = PowerPlan::infer(&flat).unwrap();
        let lib = PhysicalLibrary::for_technology(&Technology::for_node(NodeId::N40).unwrap());
        let fp = Floorplan::generate(&flat, &plan, &lib, 0.8).unwrap();
        let assignments: BTreeMap<String, String> = flat
            .cells
            .iter()
            .map(|c| {
                (
                    c.path.clone(),
                    plan.region_of(&c.path).unwrap().name.clone(),
                )
            })
            .collect();
        let p = place(&flat, &assignments, &fp, &lib, 1).unwrap();
        (flat, p, fp)
    }

    fn route_chain(n: usize) -> (FlatNetlist, Routing) {
        let (flat, p, fp) = placed_chain(n);
        let r = route(
            &flat,
            &p,
            fp.die.width(),
            fp.die.height(),
            fp.row_height_nm(),
            4,
        )
        .unwrap();
        (flat, r)
    }

    #[test]
    fn all_signal_nets_routed() {
        let (_, r) = route_chain(30);
        // IN + n0..n29 = 31 signal nets; VDD/VSS excluded.
        assert_eq!(r.nets.len(), 31);
        assert!(r.nets.iter().all(|n| n.wirelength_nm > 0));
        assert!(!r.nets.iter().any(|n| n.name == "VDD"));
    }

    #[test]
    fn wirelength_positive_and_bounded() {
        let (_, r) = route_chain(20);
        assert!(r.total_wirelength_nm > 0);
        // Each 2-pin net in a compact die should route in a few gcells.
        for net in &r.nets {
            assert!(
                net.wirelength_nm < 200_000,
                "net {} suspiciously long: {} nm",
                net.name,
                net.wirelength_nm
            );
        }
    }

    #[test]
    fn single_pin_nets_get_escape_only() {
        let (_, r) = route_chain(5);
        // n4 (last inverter output) has one pin.
        let wirelength = |name| {
            r.nets
                .iter()
                .find(|n| n.name == name)
                .unwrap()
                .wirelength_nm
        };
        let (last, mid) = (wirelength("n4"), wirelength("n2"));
        assert!(last <= mid, "single-pin escape ≤ routed 2-pin net");
    }

    #[test]
    fn congestion_reported() {
        let (_, r) = route_chain(60);
        assert!(r.max_congestion >= 0.0);
        assert!(r.grid.0 >= 2 && r.grid.1 >= 2);
        let text = r.to_string();
        assert!(text.contains("nets"));
    }

    #[test]
    fn routing_is_deterministic() {
        let (flat, p, fp) = placed_chain(15);
        let r1 = route(
            &flat,
            &p,
            fp.die.width(),
            fp.die.height(),
            fp.row_height_nm(),
            4,
        )
        .unwrap();
        let r2 = route(
            &flat,
            &p,
            fp.die.width(),
            fp.die.height(),
            fp.row_height_nm(),
            4,
        )
        .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn overflow_counted_not_fatal() {
        let (_, r) = route_chain(80);
        // However congested, routing completes.
        assert_eq!(r.nets.len(), 81);
        let _ = r.total_overflow();
    }
}
