//! `tdsigma-opt` — closed-loop design-space exploration for the tdsigma
//! flows.
//!
//! The sweep subsystem answers "what does this grid of configurations
//! look like?"; this crate answers the inverse question: "which
//! configuration should I build?". It searches a typed [`SearchSpace`]
//! (technology node, slice count, VCO sizing, DAC resistance) with two
//! offline black-box strategies —
//!
//! * **[`Strategy::Cma`]** — a CMA-ES-like evolution strategy: λ
//!   candidates per generation, log-rank
//!   recombination, diagonal covariance and success-rule step size.
//! * **[`Strategy::Halving`]** — successive-halving racing: a large
//!   random field raced through rising-fidelity rungs (FFT capture
//!   length), halving the field at each rung, with the paper design
//!   point carried elitistically to full fidelity.
//!
//! The optimizer is a *client* of the jobs engine, never a second
//! executor: candidates become ordinary [`tdsigma_jobs::Job`]s pushed
//! through an evaluation closure with the engine's batch signature
//! (the `eval` argument of [`optimize`]), so caching,
//! dedup, fleet dispatch, journaling and crash-resume all apply
//! unchanged. Determinism is end-to-end: the candidate sequence is a
//! pure function of [`OptConfig`] (via [`tdsigma_tech::Rng64::split`]
//! sub-streams) and each report is a pure function of its job, so the
//! same config always produces a byte-identical report — which
//! is exactly how `tdsigma optimize --resume` recovers from a SIGKILL:
//! re-run the persisted config and let the result cache absorb the
//! work that already finished.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cma;
mod driver;
mod space;

pub use driver::{initial_jobs, optimize, OptConfig, Strategy};
pub use space::SearchSpace;
