//! # tdsigma-core — the scaling-compatible, synthesis-friendly VCO-based
//! delta-sigma ADC
//!
//! This crate implements the primary contribution of the DAC'17 paper:
//!
//! * [`AdcSpec`] — the architectural knobs (slices, clock, VCO
//!   parameters, resistor values) with the paper's two reference designs
//!   ([`AdcSpec::paper_40nm`], [`AdcSpec::paper_180nm`]),
//! * [`netgen`] — the gate-level netlist generator producing exactly the
//!   decomposition of the paper's Tables 1–2: VCO cells from cross-coupled
//!   inverters, the NOR3-based comparator + SR-latch SAFF, buffers,
//!   retiming latches, XOR phase detector, and the inverter + resistor DAC,
//! * [`sim`] — the continuous-time behavioral simulator that closes the
//!   delta-sigma loop (phase-domain integration, resistive feedback,
//!   clocked sampling) with noise, mismatch and optional post-layout
//!   parasitics,
//! * [`power`] — activity-based digital power plus static/bias analog
//!   power, split exactly the way the paper's Fig. 15 reports,
//! * [`DesignFlow`] — the complete design & synthesis flow of Fig. 9:
//!   spec → netlist → HDL → power plan → floorplan → APR → extraction →
//!   post-layout simulation → report,
//! * [`physical`] — the flow's physical half, keyed by exactly what it
//!   reads and implemented once per key per process,
//! * [`AdcReport`] — Table-3-style performance summaries (SNDR, ENOB,
//!   power, area, Walden FOM).
//!
//! `netgen`, `sim`, `power` and `physical` are public modules because
//! callers name their paths (`netgen::generate`, `sim::ComparatorFlavor`,
//! `power::estimate`, `physical::implement`); their items that no caller
//! outside the crate uses are `pub(crate)`. Every other module is private
//! and the root re-exports the names other crates import.
//!
//! ```no_run
//! use tdsigma_core::{AdcSpec, DesignFlow};
//!
//! # fn main() -> Result<(), tdsigma_core::CoreError> {
//! let outcome = DesignFlow::new(AdcSpec::paper_40nm()?).run()?;
//! println!("{}", outcome.report);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod error;
mod fingerprint;
mod flow;
pub mod netgen;
pub mod physical;
pub mod power;
mod report;
pub mod sim;
mod spec;

pub use backend::DecimationBackend;
pub use error::CoreError;
pub use fingerprint::engine_fingerprint;
pub use flow::{coherent_input_hz, DesignFlow, FlowOutcome};
pub use physical::{PhysicalKey, PhysicalSummary};
pub use report::AdcReport;
pub use sim::{AdcSimulator, SimCapture};
pub use spec::{AdcSpec, MAX_SLICES, MAX_STEPS_PER_CYCLE, MAX_VCO_STAGES};
