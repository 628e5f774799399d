//! # tdsigma-layout — layout synthesis for synthesis-friendly AMS circuits
//!
//! A self-contained digital-APR substitute implementing the paper's §3
//! methodology end to end:
//!
//! 1. **Standard-cell library modification** (`physlib`, `resgen`):
//!    physical views of the digital cells ([`PhysicalLibrary`]) plus
//!    generated *resistor standard cells* ([`generate_resistor_cell`], the
//!    paper's Fig. 11 — serpentine fragments matched to the digital row
//!    height).
//! 2. **Floorplan generation** (`floorplan`): the circuit's power domains
//!    and component groups (from `tdsigma-netlist`) become disjoint
//!    placement regions ([`Floorplan`]), the multi-supply-voltage (MSV)
//!    discipline that keeps cells on different supplies out of each
//!    other's rails.
//! 3. **Automatic place & route** (`place`, `route`): greedy +
//!    simulated-annealing placement per region minimising half-perimeter
//!    wirelength ([`place`]), then one usage-aware A* maze-routing pass on
//!    a global grid that counts overflow without repairing it.
//! 4. **Sign-off** (`checks`, `extract`, `sta`): rail-conflict / overlap /
//!    region-containment checks ([`check_placement`]), per-net RC
//!    extraction ([`Parasitics`]) that `tdsigma-core` back-annotates into
//!    the post-layout simulation, and static timing ([`analyze_timing`]).
//! 5. **Output** ([`render`], [`gds`], [`lef`]): SVG/ASCII layout views
//!    (Fig. 13/14), a GDS-style text stream and LEF/DEF.
//!
//! [`synthesize`] chains all phases; [`synthesize_naive`] runs the flow
//! *without* the PD discipline to reproduce the failure mode (shorted P/G
//! rails) that motivates the methodology.
//!
//! `render`, `gds` and `lef` are public modules because callers name
//! their paths (`render::to_svg`, `lef::to_def`); every other module is
//! private and the root re-exports the names other crates import.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod apr;
mod checks;
mod error;
mod extract;
mod floorplan;
pub mod gds;
mod geom;
pub mod lef;
mod physlib;
mod place;
pub mod render;
mod resgen;
mod route;
mod sta;

pub use apr::{synthesize, synthesize_naive, AprOptions, LayoutResult};
pub use checks::{check_placement, CheckReport};
pub use error::LayoutError;
pub use extract::Parasitics;
pub use floorplan::Floorplan;
pub use geom::{half_perimeter, Point, Rect};
pub use physlib::PhysicalLibrary;
pub use place::place;
pub use resgen::generate_resistor_cell;
pub use sta::{analyze_timing, TimingReport};
