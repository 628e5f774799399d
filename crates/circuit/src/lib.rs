//! # tdsigma-circuit — behavioral mixed-signal simulation substrate
//!
//! This crate stands in for the commercial transistor-level simulator the
//! paper used for post-layout verification. It provides continuous-time
//! behavioral models of every analog block in the proposed ADC:
//!
//! * [`RingVco`] — a ring oscillator as a phase-domain integrator
//!   (`dφ/dt = 2π(f0 + K_vco·V_ctrl)`) with white-FM phase noise and
//!   per-instance mismatch,
//! * [`ClockedComparator`] — a clocked regenerative comparator with
//!   offset, input-referred noise and a metastability window; models both
//!   the proposed NOR3-based SAFF and a strongARM reference,
//! * [`SummingNode`] — a resistive summing node with RC dynamics and
//!   thermal noise; the V_CTRL nodes where the input resistors meet the
//!   DAC resistors,
//! * [`SimRng`] & [`MismatchModel`] — reproducible stochastic plumbing on
//!   top of a seeded RNG,
//! * [`Clock`] — drift-free clocking for fixed-step transients.
//!
//! The crate knows nothing about the ADC architecture; `tdsigma-core` wires
//! these blocks into slices and closes the delta-sigma loop. Every module
//! is private: the root re-exports exactly the names other crates import.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod comparator;
mod mismatch;
mod network;
mod noise;
mod transient;
mod vco;

pub use comparator::{ClockedComparator, CommonModeWindow, ComparatorParams};
pub use mismatch::MismatchModel;
pub use network::{BranchId, SummingNode};
pub use noise::SimRng;
pub use transient::{Clock, EdgeKind};
pub use vco::{RingVco, VcoParams};
