//! # tdsigma-core — the scaling-compatible, synthesis-friendly VCO-based
//! delta-sigma ADC
//!
//! This crate implements the primary contribution of the DAC'17 paper:
//!
//! * [`spec::AdcSpec`] — the architectural knobs (slices, clock, VCO
//!   parameters, resistor values) with the paper's two reference designs
//!   ([`spec::AdcSpec::paper_40nm`], [`spec::AdcSpec::paper_180nm`]),
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
//! * [`flow`] — the complete design & synthesis flow of Fig. 9: spec →
//!   netlist → HDL → power plan → floorplan → APR → extraction →
//!   post-layout simulation → report,
//! * [`physical`] — the flow's physical half, keyed by exactly what it
//!   reads and implemented once per key per process,
//! * [`report`] — Table-3-style performance summaries (SNDR, ENOB, power,
//!   area, Walden FOM).
//!
//! ```no_run
//! use tdsigma_core::{flow::DesignFlow, spec::AdcSpec};
//!
//! # fn main() -> Result<(), tdsigma_core::CoreError> {
//! let outcome = DesignFlow::new(AdcSpec::paper_40nm()?).run()?;
//! println!("{}", outcome.report);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod error;
pub mod fingerprint;
pub mod flow;
pub mod netgen;
pub mod physical;
pub mod power;
pub mod report;
pub mod sim;
pub mod spec;

pub use backend::{DecimatedSignal, DecimationBackend};
pub use error::CoreError;
pub use fingerprint::{engine_fingerprint, ARTIFACT_SCHEMA_VERSION};
pub use flow::{DesignFlow, FlowOutcome};
pub use physical::{PhysicalKey, PhysicalSummary};
pub use report::AdcReport;
pub use sim::{AdcSimulator, SimCapture};
pub use spec::AdcSpec;
