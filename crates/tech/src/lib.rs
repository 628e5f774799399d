//! # tdsigma-tech — technology scaling model
//!
//! A self-contained model of CMOS process technology spanning the 500 nm to
//! 22 nm nodes, replacing the foundry PDKs used by the original paper
//! ("A Scaling Compatible, Synthesis Friendly VCO-based Delta-sigma ADC
//! Design and Synthesis Methodology", DAC 2017).
//!
//! The model is built from publicly documented ITRS-style trends — exactly
//! the quantities the paper's Fig. 1 plots:
//!
//! * power-supply voltage `VDD` (5 V at 500 nm → 1 V at 22 nm),
//! * transistor intrinsic gain `gm·ro` (180 → 6),
//! * transistor transit frequency `fT` (16 GHz → 400 GHz),
//! * fan-out-of-4 inverter delay `FO4` (140 ps → 6 ps),
//!
//! plus the derived physical-design quantities every other crate needs:
//! standard-cell geometry (site width, row height), interconnect RC,
//! per-transition switching energy, leakage, and resistor sheet properties.
//!
//! ## Quickstart
//!
//! ```
//! use tdsigma_tech::{Technology, NodeId};
//!
//! # fn main() -> Result<(), tdsigma_tech::TechError> {
//! let t40 = Technology::for_node(NodeId::N40)?;
//! let t180 = Technology::for_node(NodeId::N180)?;
//! // Scaling helps timing resolution: FO4 shrinks dramatically.
//! assert!(t40.fo4_delay_ps() < t180.fo4_delay_ps() / 3.0);
//! // ...and hurts the voltage domain: intrinsic gain collapses.
//! assert!(t40.intrinsic_gain() < t180.intrinsic_gain() / 2.0);
//! # Ok(())
//! # }
//! ```
//!
//! Inside, `itrs` holds the raw trend table behind the paper's Fig. 1
//! ([`ScalingTrend`]); `cells` builds the per-node standard-cell catalog
//! the netlist and layout crates read through [`Technology::catalog`];
//! `migrate` implements the paper's automatic design migration
//! ("transforming the standard cells into their closest-size
//! counterparts", [`migrate_cell`]). Every module is private: the root
//! re-exports exactly the names other crates import.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cells;
mod corner;
mod error;
mod itrs;
mod migrate;
mod node;
mod rng;
mod scaling;
mod units;

pub use cells::{CellClass, CellSpec, DriveStrength};
pub use corner::Corner;
pub use error::TechError;
pub use migrate::{migrate_cell, MigrationReport};
pub use node::{NodeId, Technology};
pub use rng::{fnv1a64, Rng64, FNV1A64_BASIS};
pub use scaling::ScalingTrend;
pub use units::{BOLTZMANN, NOMINAL_TEMPERATURE_K};
