//! Row-based standard-cell placement: greedy construction plus simulated-
//! annealing refinement of half-perimeter wirelength, with the hard
//! constraint that a cell may only be placed in rows of its own region
//! (power domain / component group).

use crate::error::LayoutError;
use crate::floorplan::Floorplan;
use crate::geom::Point;
use crate::physlib::PhysicalLibrary;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use tdsigma_netlist::FlatNetlist;
use tdsigma_tech::Rng64;

/// A placed leaf cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedCell {
    /// Flat instance path.
    pub path: String,
    /// Library cell name.
    pub cell: String,
    /// Region the cell was placed in.
    pub region: String,
    /// Lower-left x, nm.
    pub x_nm: i64,
    /// Lower-left y, nm.
    pub y_nm: i64,
    /// Cell width, nm.
    pub width_nm: i64,
    /// Cell height, nm.
    pub height_nm: i64,
}

impl PlacedCell {
    /// Centre point of the cell.
    pub(crate) fn center(&self) -> Point {
        Point::new(
            self.x_nm + self.width_nm / 2,
            self.y_nm + self.height_nm / 2,
        )
    }
}

/// A legal placement of every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// All placed cells, in flat-netlist order.
    pub cells: Vec<PlacedCell>,
    /// Total half-perimeter wirelength over signal nets, nm.
    pub hpwl_nm: i64,
    pub(crate) index: BTreeMap<String, usize>,
}

impl Placement {
    /// Looks up a placed cell by path.
    pub(crate) fn cell(&self, path: &str) -> Option<&PlacedCell> {
        self.index.get(path).map(|&i| &self.cells[i])
    }

    /// Number of placed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "placement of {} cells, HPWL {:.1} µm",
            self.cells.len(),
            self.hpwl_nm as f64 / 1e3
        )
    }
}

/// Nets excluded from the wirelength objective (rail-distributed supplies).
fn is_supply_net(name: &str) -> bool {
    let base = name.rsplit('/').next().unwrap_or(name);
    matches!(base, "VDD" | "VSS" | "VREFP" | "VREFN" | "GND")
}

struct CellState {
    width_sites: usize,
    region_idx: usize,
    row: usize,
    order_in_row: usize,
}

struct RowState {
    region_idx: usize,
    y_nm: i64,
    x0_nm: i64,
    sites: usize,
    used_sites: usize,
    cells: Vec<usize>,
}

/// The placer's starting state: the greedy row fill and the signal nets.
struct Board {
    rows: Vec<RowState>,
    cells: Vec<CellState>,
    /// Signal nets as cell-index lists.
    net_cells: Vec<Vec<usize>>,
    /// Signal nets of each cell.
    cell_nets: Vec<Vec<usize>>,
}

/// Fills each region's rows greedily in flat-netlist order and indexes the
/// signal nets.
fn greedy_board(
    flat: &FlatNetlist,
    assignments: &BTreeMap<String, String>,
    floorplan: &Floorplan,
    lib: &PhysicalLibrary,
) -> Result<Board, LayoutError> {
    // Rows, globally indexed.
    let mut rows: Vec<RowState> = Vec::new();
    for (region_idx, region) in floorplan.regions.iter().enumerate() {
        for row in &region.rows {
            rows.push(RowState {
                region_idx,
                y_nm: row.y_nm,
                x0_nm: row.x0_nm,
                sites: row.sites,
                used_sites: 0,
                cells: Vec::new(),
            });
        }
    }

    // Cell states in flat order; greedy fill per region.
    let mut cells: Vec<CellState> = Vec::with_capacity(flat.cells.len());
    for cell in &flat.cells {
        let phys = lib.cell(&cell.cell)?;
        let region_name = assignments
            .get(&cell.path)
            .ok_or_else(|| LayoutError::DoesNotFit {
                region: format!("<unassigned cell {}>", cell.path),
                required_sites: phys.width_sites,
                available_sites: 0,
            })?;
        let region_idx = floorplan
            .regions
            .iter()
            .position(|r| &r.name == region_name)
            .ok_or_else(|| LayoutError::DoesNotFit {
                region: region_name.clone(),
                required_sites: phys.width_sites,
                available_sites: 0,
            })?;
        // First row of the region with room.
        let row_idx = rows
            .iter()
            .position(|r| r.region_idx == region_idx && r.used_sites + phys.width_sites <= r.sites)
            .ok_or_else(|| LayoutError::DoesNotFit {
                region: region_name.clone(),
                required_sites: phys.width_sites,
                available_sites: 0,
            })?;
        let order = rows[row_idx].cells.len();
        rows[row_idx].cells.push(cells.len());
        rows[row_idx].used_sites += phys.width_sites;
        cells.push(CellState {
            width_sites: phys.width_sites,
            region_idx,
            row: row_idx,
            order_in_row: order,
        });
    }

    // Signal nets as cell-index lists.
    let mut net_cells: Vec<Vec<usize>> = Vec::new();
    {
        let mut net_map: BTreeMap<&str, usize> = BTreeMap::new();
        for (ci, cell) in flat.cells.iter().enumerate() {
            for net in cell.connections.values() {
                if is_supply_net(net) {
                    continue;
                }
                let id = *net_map.entry(net.as_str()).or_insert_with(|| {
                    net_cells.push(Vec::new());
                    net_cells.len() - 1
                });
                if net_cells[id].last() != Some(&ci) {
                    net_cells[id].push(ci);
                }
            }
        }
    }
    // Nets per cell.
    let mut cell_nets: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
    for (ni, members) in net_cells.iter().enumerate() {
        for &ci in members {
            cell_nets[ci].push(ni);
        }
    }
    Ok(Board {
        rows,
        cells,
        net_cells,
        cell_nets,
    })
}

/// Places the flat netlist onto the floorplan.
///
/// `assignments` maps every flat cell path to the name of its floorplan
/// region. The placer never violates region boundaries; within each region
/// it minimises global HPWL with simulated annealing (deterministic for a
/// given `seed`).
///
/// Each annealing move costs what it changes: cell centres are cached, a
/// swap re-lays only the row positions it can shift, and only the nets of
/// cells whose centre moved are re-priced. Every other net keeps its HPWL,
/// so the move's integer cost delta (and with it the RNG draw sequence and
/// the result) equals a full re-evaluation.
///
/// # Errors
///
/// * [`LayoutError::UnknownCell`] for cells missing from the library.
/// * [`LayoutError::DoesNotFit`] if a region's rows overflow.
pub fn place(
    flat: &FlatNetlist,
    assignments: &BTreeMap<String, String>,
    floorplan: &Floorplan,
    lib: &PhysicalLibrary,
    seed: u64,
) -> Result<Placement, LayoutError> {
    let row_h = floorplan.row_height_nm();
    let site = floorplan.site_width_nm();
    let Board {
        mut rows,
        mut cells,
        net_cells,
        cell_nets,
    } = greedy_board(flat, assignments, floorplan, lib)?;
    let width_nm = |c: &CellState| c.width_sites as i64 * site;

    // Centre of every cell, kept in step with the row orders.
    let mut centre = vec![Point::new(0, 0); cells.len()];
    for row in &rows {
        let all = 0..row.cells.len();
        relayout(row, all, &cells, site, row_h, &mut centre, &mut Vec::new());
    }
    let mut net_costs: Vec<i64> = net_cells.iter().map(|m| net_hpwl(m, &centre)).collect();
    let total: i64 = net_costs.iter().sum();

    // Simulated annealing: swap two cells of the same region.
    let mut rng = Rng64::seed_from_u64(seed);
    let n = cells.len();
    if n >= 2 {
        let iterations = (n * 60).clamp(200, 60_000);
        let mut temperature = (total as f64 / net_costs.len().max(1) as f64).max(1.0);
        let cooling = (0.01f64 / temperature.max(1.0)).powf(1.0 / iterations as f64);
        // Per-move scratch: moved cells with their old centres, re-priced
        // nets with their new costs, and an epoch stamp per net for dedup.
        let mut moved: Vec<(usize, Point)> = Vec::new();
        let mut repriced: Vec<(usize, i64)> = Vec::new();
        let mut stamp = vec![0usize; net_cells.len()];
        for epoch in 1..=iterations {
            let a = rng.gen_range(n);
            let b = rng.gen_range(n);
            if a == b || cells[a].region_idx != cells[b].region_idx {
                temperature *= cooling;
                continue;
            }
            let (row_a, ord_a) = (cells[a].row, cells[a].order_in_row);
            let (row_b, ord_b) = (cells[b].row, cells[b].order_in_row);
            // Swapping cells of different widths within the same row is a
            // reorder; across rows it must respect capacity.
            if row_a != row_b {
                let (wa, wb) = (cells[a].width_sites, cells[b].width_sites);
                if rows[row_a].used_sites - wa + wb > rows[row_a].sites
                    || rows[row_b].used_sites - wb + wa > rows[row_b].sites
                {
                    temperature *= cooling;
                    continue;
                }
            }
            swap_cells(&mut cells, &mut rows, a, b);

            // Only positions from the first swapped one on can shift: up
            // to the second swapped one within a row, to the row end across
            // rows (the widths differ, or the y does).
            moved.clear();
            if row_a == row_b {
                let span = ord_a.min(ord_b)..ord_a.max(ord_b) + 1;
                relayout(
                    &rows[row_a],
                    span,
                    &cells,
                    site,
                    row_h,
                    &mut centre,
                    &mut moved,
                );
            } else {
                for (r, from) in [(row_a, ord_a), (row_b, ord_b)] {
                    let span = from..rows[r].cells.len();
                    relayout(&rows[r], span, &cells, site, row_h, &mut centre, &mut moved);
                }
            }
            // A net with no moved cell keeps its HPWL.
            repriced.clear();
            for &(ci, _) in &moved {
                for &ni in &cell_nets[ci] {
                    if stamp[ni] != epoch {
                        stamp[ni] = epoch;
                        repriced.push((ni, net_hpwl(&net_cells[ni], &centre)));
                    }
                }
            }
            let delta: i64 = repriced
                .iter()
                .map(|&(ni, cost)| cost - net_costs[ni])
                .sum();
            let accept = delta <= 0 || rng.gen_f64() < (-(delta as f64) / temperature).exp();
            if accept {
                for &(ni, cost) in &repriced {
                    net_costs[ni] = cost;
                }
            } else {
                swap_cells(&mut cells, &mut rows, a, b);
                for &(ci, old) in &moved {
                    centre[ci] = old;
                }
            }
            temperature *= cooling;
        }
    }

    // Materialise.
    let mut placed = Vec::with_capacity(n);
    let mut index = BTreeMap::new();
    for (ci, flat_cell) in flat.cells.iter().enumerate() {
        let c = &cells[ci];
        let region = floorplan.regions[c.region_idx].name.clone();
        index.insert(flat_cell.path.clone(), placed.len());
        placed.push(PlacedCell {
            path: flat_cell.path.clone(),
            cell: flat_cell.cell.clone(),
            region,
            x_nm: centre[ci].x - width_nm(c) / 2,
            y_nm: rows[c.row].y_nm,
            width_nm: width_nm(c),
            height_nm: row_h,
        });
    }
    let hpwl: i64 = net_costs.iter().sum();
    Ok(Placement {
        cells: placed,
        hpwl_nm: hpwl,
        index,
    })
}

/// Half-perimeter wirelength of one net from the cached cell centres: what
/// `geom::half_perimeter` computes, without first gathering the members'
/// centres into a slice (that copy costs ≈15 % of the naive flow).
fn net_hpwl(members: &[usize], centre: &[Point]) -> i64 {
    if members.len() < 2 {
        return 0;
    }
    let (mut xmin, mut xmax) = (i64::MAX, i64::MIN);
    let (mut ymin, mut ymax) = (i64::MAX, i64::MIN);
    for &ci in members {
        let p = centre[ci];
        xmin = xmin.min(p.x);
        xmax = xmax.max(p.x);
        ymin = ymin.min(p.y);
        ymax = ymax.max(p.y);
    }
    (xmax - xmin) + (ymax - ymin)
}

/// Recomputes the centres of `row.cells[span]`, laid out from the right
/// edge of the cell before the span, whose centre is current. Each cell
/// whose centre changes is pushed to `moved` with its old centre.
fn relayout(
    row: &RowState,
    span: Range<usize>,
    cells: &[CellState],
    site: i64,
    row_h: i64,
    centre: &mut [Point],
    moved: &mut Vec<(usize, Point)>,
) {
    let width_nm = |ci: usize| cells[ci].width_sites as i64 * site;
    let mut x = match span.start.checked_sub(1).map(|p| row.cells[p]) {
        Some(prev) => centre[prev].x - width_nm(prev) / 2 + width_nm(prev),
        None => row.x0_nm,
    };
    for &ci in &row.cells[span] {
        let p = Point::new(x + width_nm(ci) / 2, row.y_nm + row_h / 2);
        if centre[ci] != p {
            moved.push((ci, centre[ci]));
            centre[ci] = p;
        }
        x += width_nm(ci);
    }
}

fn swap_cells(cells: &mut [CellState], rows: &mut [RowState], a: usize, b: usize) {
    let (row_a, ord_a) = (cells[a].row, cells[a].order_in_row);
    let (row_b, ord_b) = (cells[b].row, cells[b].order_in_row);
    rows[row_a].cells[ord_a] = b;
    rows[row_b].cells[ord_b] = a;
    let (wa, wb) = (cells[a].width_sites, cells[b].width_sites);
    if row_a != row_b {
        rows[row_a].used_sites = rows[row_a].used_sites - wa + wb;
        rows[row_b].used_sites = rows[row_b].used_sites - wb + wa;
    }
    cells[a].row = row_b;
    cells[a].order_in_row = ord_b;
    cells[b].row = row_a;
    cells[b].order_in_row = ord_a;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::geom::half_perimeter;
    use tdsigma_netlist::{Design, LeafPins, Module, PinRole, PortDirection, PowerPlan};
    use tdsigma_tech::{NodeId, Technology};

    /// Frozen copy of the full-recompute annealing loop `place` replaced:
    /// each move re-prices every net of every cell in both touched rows,
    /// finds each pin by walking its row prefix, and on accept prices the
    /// same nets a second time. `place` must reproduce it bit for bit.
    fn place_reference(
        flat: &FlatNetlist,
        assignments: &BTreeMap<String, String>,
        floorplan: &Floorplan,
        lib: &PhysicalLibrary,
        seed: u64,
    ) -> Result<Placement, LayoutError> {
        let row_h = floorplan.row_height_nm();
        let site = floorplan.site_width_nm();
        let Board {
            mut rows,
            mut cells,
            net_cells,
            cell_nets,
        } = greedy_board(flat, assignments, floorplan, lib)?;

        let position = |cells: &[CellState], rows: &[RowState], ci: usize| -> Point {
            let c = &cells[ci];
            let row = &rows[c.row];
            let mut x = row.x0_nm;
            for &other in row.cells.iter().take(c.order_in_row) {
                x += cells[other].width_sites as i64 * site;
            }
            Point::new(x + c.width_sites as i64 * site / 2, row.y_nm + row_h / 2)
        };

        let net_hpwl = |cells: &[CellState], rows: &[RowState], members: &[usize]| -> i64 {
            let pts: Vec<Point> = members
                .iter()
                .map(|&ci| position(cells, rows, ci))
                .collect();
            half_perimeter(&pts)
        };

        let mut net_costs: Vec<i64> = net_cells
            .iter()
            .map(|m| net_hpwl(&cells, &rows, m))
            .collect();
        let total: i64 = net_costs.iter().sum();

        let mut rng = Rng64::seed_from_u64(seed);
        let n = cells.len();
        if n >= 2 {
            let iterations = (n * 60).clamp(200, 60_000);
            let mut temperature = (total as f64 / net_costs.len().max(1) as f64).max(1.0);
            let cooling = (0.01f64 / temperature.max(1.0)).powf(1.0 / iterations as f64);
            for _ in 0..iterations {
                let a = rng.gen_range(n);
                let b = rng.gen_range(n);
                if a == b || cells[a].region_idx != cells[b].region_idx {
                    temperature *= cooling;
                    continue;
                }
                if cells[a].row != cells[b].row {
                    let (wa, wb) = (cells[a].width_sites, cells[b].width_sites);
                    let row_a = &rows[cells[a].row];
                    let row_b = &rows[cells[b].row];
                    if row_a.used_sites - wa + wb > row_a.sites
                        || row_b.used_sites - wb + wa > row_b.sites
                    {
                        temperature *= cooling;
                        continue;
                    }
                }
                let mut affected: Vec<usize> = Vec::new();
                for &row_idx in &[cells[a].row, cells[b].row] {
                    for &ci in &rows[row_idx].cells {
                        affected.extend(cell_nets[ci].iter().copied());
                    }
                }
                affected.sort_unstable();
                affected.dedup();
                let before: i64 = affected.iter().map(|&ni| net_costs[ni]).sum();

                swap_cells(&mut cells, &mut rows, a, b);

                let after: i64 = affected
                    .iter()
                    .map(|&ni| net_hpwl(&cells, &rows, &net_cells[ni]))
                    .sum();
                let delta = after - before;
                let accept = delta <= 0 || rng.gen_f64() < (-(delta as f64) / temperature).exp();
                if accept {
                    for &ni in &affected {
                        net_costs[ni] = net_hpwl(&cells, &rows, &net_cells[ni]);
                    }
                } else {
                    swap_cells(&mut cells, &mut rows, a, b);
                }
                temperature *= cooling;
            }
        }

        let mut placed = Vec::with_capacity(n);
        let mut index = BTreeMap::new();
        for (ci, flat_cell) in flat.cells.iter().enumerate() {
            let c = &cells[ci];
            let row = &rows[c.row];
            let mut x = row.x0_nm;
            for &other in row.cells.iter().take(c.order_in_row) {
                x += cells[other].width_sites as i64 * site;
            }
            let region = floorplan.regions[c.region_idx].name.clone();
            index.insert(flat_cell.path.clone(), placed.len());
            placed.push(PlacedCell {
                path: flat_cell.path.clone(),
                cell: flat_cell.cell.clone(),
                region,
                x_nm: x,
                y_nm: row.y_nm,
                width_nm: c.width_sites as i64 * site,
                height_nm: row_h,
            });
        }
        let hpwl: i64 = net_costs.iter().sum();
        Ok(Placement {
            cells: placed,
            hpwl_nm: hpwl,
            index,
        })
    }

    /// A random netlist: mixed-width logic on one to four supplies (so
    /// power domains range from a single row to many), resistor fragments
    /// wired among the logic, and a net pool small enough that many nets
    /// have several pins.
    fn random_netlist(rng: &mut Rng64) -> FlatNetlist {
        const CELLS: [&str; 9] = [
            "INVX1", "INVX4", "BUFX2", "NAND2X1", "NOR3X4", "XOR2X1", "DFFX1", "RESLO", "RESHI",
        ];
        let mut m = Module::new("random");
        let vss = m.add_port("VSS", PortDirection::Inout);
        let supplies: Vec<_> = ["VDD", "VCTRLP", "VREFP", "VCTRLN"][..1 + rng.gen_range(4)]
            .iter()
            .map(|name| m.add_port(*name, PortDirection::Inout))
            .collect();
        let n_cells = 2 + rng.gen_range(120);
        let nets: Vec<_> = (0..2 + rng.gen_range(n_cells))
            .map(|i| m.add_net(format!("n{i}")))
            .collect();
        for i in 0..n_cells {
            let cell = CELLS[rng.gen_range(CELLS.len())];
            let supply = supplies[rng.gen_range(supplies.len())];
            let pins = LeafPins::for_cell(cell).unwrap();
            let connections: Vec<_> = pins
                .pins()
                .iter()
                .map(|&(pin, role)| match role {
                    PinRole::Power => (pin, supply),
                    PinRole::Ground => (pin, vss),
                    _ => (pin, nets[rng.gen_range(nets.len())]),
                })
                .collect();
            m.add_leaf(format!("U{i}"), cell, connections).unwrap();
        }
        Design::new(m).unwrap().flatten()
    }

    #[test]
    fn incremental_annealing_matches_the_full_recompute_reference() {
        let mut rng = Rng64::seed_from_u64(0x9e37_79b9);
        let (mut single_row, mut multi_row, mut multi_pin) = (false, false, false);
        for case in 0..24 {
            let flat = random_netlist(&mut rng);
            let node = if case % 3 == 0 {
                NodeId::N180
            } else {
                NodeId::N40
            };
            let lib = PhysicalLibrary::for_technology(&Technology::for_node(node).unwrap());
            let utilization = 0.45 + 0.4 * rng.gen_f64();
            let plan = PowerPlan::infer(&flat).unwrap();
            let (fp, assignments): (_, BTreeMap<String, String>) = if case % 4 == 3 {
                let fp = Floorplan::generate_naive(&flat, &lib, utilization).unwrap();
                let core = fp.regions[0].name.clone();
                let a = flat
                    .cells
                    .iter()
                    .map(|c| (c.path.clone(), core.clone()))
                    .collect();
                (fp, a)
            } else {
                let fp = Floorplan::generate(&flat, &plan, &lib, utilization).unwrap();
                let a = flat
                    .cells
                    .iter()
                    .map(|c| {
                        (
                            c.path.clone(),
                            plan.region_of(&c.path).unwrap().name.clone(),
                        )
                    })
                    .collect();
                (fp, a)
            };
            single_row |= fp.regions.iter().any(|r| r.rows.len() == 1);
            multi_row |= fp.regions.iter().any(|r| r.rows.len() > 2);
            multi_pin |= greedy_board(&flat, &assignments, &fp, &lib)
                .unwrap()
                .net_cells
                .iter()
                .any(|m| m.len() > 3);
            let seed = rng.next_u64();
            assert_eq!(
                place(&flat, &assignments, &fp, &lib, seed),
                place_reference(&flat, &assignments, &fp, &lib, seed),
                "case {case}: {} cells, seed {seed}",
                flat.cells.len()
            );
        }
        assert!(single_row && multi_row && multi_pin, "cases miss a shape");
    }

    fn chain(n: usize) -> FlatNetlist {
        let mut m = Module::new("chain");
        let vdd = m.add_port("VDD", PortDirection::Inout);
        let vss = m.add_port("VSS", PortDirection::Inout);
        let mut prev = m.add_port("IN", PortDirection::Input);
        for i in 0..n {
            let next = if i == n - 1 {
                m.add_port("OUT", PortDirection::Output)
            } else {
                m.add_net(format!("n{i}"))
            };
            m.add_leaf(
                format!("I{i}"),
                "INVX1",
                [("A", prev), ("Y", next), ("VDD", vdd), ("VSS", vss)],
            )
            .unwrap();
            prev = next;
        }
        Design::new(m).unwrap().flatten()
    }

    fn setup(
        n: usize,
    ) -> (
        FlatNetlist,
        BTreeMap<String, String>,
        Floorplan,
        PhysicalLibrary,
    ) {
        let flat = chain(n);
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
        (flat, assignments, fp, lib)
    }

    #[test]
    fn all_cells_placed_in_their_region() {
        let (flat, assignments, fp, lib) = setup(24);
        let p = place(&flat, &assignments, &fp, &lib, 1).unwrap();
        assert_eq!(p.len(), 24);
        for cell in &p.cells {
            assert_eq!(&cell.region, &assignments[&cell.path]);
            let region = fp.region(&cell.region).unwrap();
            let r = crate::geom::Rect::new(
                cell.x_nm,
                cell.y_nm,
                cell.x_nm + cell.width_nm,
                cell.y_nm + cell.height_nm,
            );
            assert!(
                region.rect.contains_rect(&r),
                "{} outside its region",
                cell.path
            );
        }
    }

    #[test]
    fn no_overlaps() {
        let (flat, assignments, fp, lib) = setup(40);
        let p = place(&flat, &assignments, &fp, &lib, 2).unwrap();
        for (i, a) in p.cells.iter().enumerate() {
            let ra =
                crate::geom::Rect::new(a.x_nm, a.y_nm, a.x_nm + a.width_nm, a.y_nm + a.height_nm);
            for b in p.cells.iter().skip(i + 1) {
                let rb = crate::geom::Rect::new(
                    b.x_nm,
                    b.y_nm,
                    b.x_nm + b.width_nm,
                    b.y_nm + b.height_nm,
                );
                assert!(!ra.overlaps(&rb), "{} overlaps {}", a.path, b.path);
            }
        }
    }

    #[test]
    fn cells_are_site_aligned() {
        let (flat, assignments, fp, lib) = setup(16);
        let p = place(&flat, &assignments, &fp, &lib, 3).unwrap();
        for cell in &p.cells {
            assert_eq!(cell.x_nm % fp.site_width_nm(), 0, "{}", cell.path);
            assert_eq!(cell.y_nm % fp.row_height_nm(), 0, "{}", cell.path);
        }
    }

    #[test]
    fn annealing_improves_over_worst_case() {
        // A chain netlist: greedy order is already good, but annealing must
        // at least not regress and HPWL must be bounded by die perimeter ×
        // net count.
        let (flat, assignments, fp, lib) = setup(32);
        let p = place(&flat, &assignments, &fp, &lib, 4).unwrap();
        let per_net_worst = fp.die.width() + fp.die.height();
        // 31 internal 2-pin nets (plus IN/OUT single-pin contributions = 0).
        assert!(p.hpwl_nm < 33 * per_net_worst);
        assert!(p.hpwl_nm > 0);
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let (flat, assignments, fp, lib) = setup(20);
        let p1 = place(&flat, &assignments, &fp, &lib, 7).unwrap();
        let p2 = place(&flat, &assignments, &fp, &lib, 7).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn lookup_by_path() {
        let (flat, assignments, fp, lib) = setup(8);
        let p = place(&flat, &assignments, &fp, &lib, 5).unwrap();
        assert!(p.cell("I3").is_some());
        assert!(p.cell("GHOST").is_none());
        assert!(!p.cells.is_empty());
    }

    #[test]
    fn missing_assignment_errors() {
        let (flat, mut assignments, fp, lib) = setup(8);
        assignments.remove("I0");
        assert!(matches!(
            place(&flat, &assignments, &fp, &lib, 6),
            Err(LayoutError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn display_reports_hpwl() {
        let (flat, assignments, fp, lib) = setup(8);
        let p = place(&flat, &assignments, &fp, &lib, 8).unwrap();
        assert!(p.to_string().contains("HPWL"));
    }
}
