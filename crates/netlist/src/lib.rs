//! # tdsigma-netlist — gate-level netlist core
//!
//! The structural representation of the synthesis-friendly ADC and the
//! "HDL generation" phase of the paper's flow (§3.2): hierarchical
//! gate-level netlists, their power-domain / component-group annotation
//! (§3.3), a Verilog writer producing exactly the style of the paper's
//! Tables 1 and 2, a reader for round-tripping, and structural lint.
//!
//! [`verilog`] is the one public module, since callers name its path
//! (`verilog::write_design`, `verilog::read_design`); every other module
//! is private and the root re-exports the names other crates import.
//!
//! ```
//! use tdsigma_netlist::{Design, Module, PortDirection};
//!
//! # fn main() -> Result<(), tdsigma_netlist::NetlistError> {
//! let mut m = Module::new("comparator");
//! let vdd = m.add_port("VDD", PortDirection::Inout);
//! let vss = m.add_port("VSS", PortDirection::Inout);
//! let inp = m.add_port("INP", PortDirection::Input);
//! let clk = m.add_port("CLK", PortDirection::Input);
//! let q = m.add_port("Q", PortDirection::Output);
//! let outm = m.add_net("OUTM");
//! m.add_leaf("I0", "NOR3X4", [("A", outm), ("B", inp), ("C", clk),
//!     ("Y", q), ("VDD", vdd), ("VSS", vss)])?;
//! let design = Design::new(m)?;
//! let verilog = tdsigma_netlist::verilog::write_design(&design)?;
//! assert!(verilog.contains("NOR3X4 I0"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cellpins;
mod design;
mod error;
mod gatesim;
mod lint;
mod module;
mod power;
mod vcd;
pub mod verilog;

pub use cellpins::{LeafPins, PinRole};
pub use design::{Design, FlatCell, FlatNetlist};
pub use error::NetlistError;
pub use gatesim::{GateSimulator, Logic};
pub use lint::lint_flat;
pub use module::{Module, NetId, PortDirection};
pub use power::{GroupKind, PowerPlan, Region};
pub use vcd::VcdWriter;
