//! `tdsigma-jobs` — a std-only parallel job-execution subsystem for the
//! tdsigma design flows.
//!
//! The crate turns "run this grid of ADC configurations" from a serial
//! loop into a first-class engine with five pieces:
//!
//! * **[`Job`]** — the unit of work: a fully-parameterized, deterministic
//!   description (spec knobs + flow options + RNG seed) with a stable
//!   content address ([`Job::key`]).
//! * **the worker pool** ([`PoolConfig`]) — a `std::thread` + channel
//!   scheduler that runs a [`Runner`] with per-job panic isolation
//!   (`catch_unwind`), bounded retries and cooperative cancellation.
//! * **[`ResultCache`]** — a content-addressed result store (in-memory
//!   map + on-disk JSON artifacts, conventionally under `results/cache/`)
//!   so repeated sweeps are answered without re-running flows. Artifacts
//!   are checksummed and stamped with the engine fingerprint
//!   ([`tdsigma_core::engine_fingerprint`]); an artifact that is corrupt
//!   or stamped by a different engine is moved to the cache's
//!   `rejected/` directory, tagged with that reason, and recomputed —
//!   never replayed.
//! * **[`Engine`]** — pool + cache + batch accounting behind
//!   one API: [`Engine::run_batch`] for sweeps, [`Engine::submit_one`]
//!   for the [`Server`] line protocol.
//! * **[`FaultPlan`]** — seeded, deterministic fault injection that
//!   enters in one place, the runner ([`FaultPlan::wrap`]): worker
//!   panics, transient errors and latency exercise the pool's isolation,
//!   retries and backoff. The chaos suite (`tests/chaos.rs`) asserts the
//!   headline invariant: under any fault seed a batch either reproduces
//!   the fault-free bytes or fails loudly with a structured error — it
//!   never hangs and never drops a job silently. The other failure
//!   classes are tested with the real thing: damaged artifacts on disk,
//!   hostile peers on real sockets, a lying runner behind a real
//!   [`Server`].
//!
//! The load-bearing guarantee is **determinism**: a [`JobReport`] is a
//! pure function of its [`Job`] — no wall-clock, host name or scheduling
//! artifact ever enters it — so a sweep produces bit-identical reports
//! whether it ran on one worker or sixteen, serially or from a warm
//! cache. [`BatchReport::metrics`] counts what a batch did, next to the
//! reports; every duration is timed by the [`tdsigma_obs`] spans and
//! histograms (`engine.batch`, `job.attempt`, `flow.*`, `jobs.backoff`).
//! Neither ever enters a report.
//!
//! Everything here is dependency-free `std`: threads from `std::thread`,
//! channels from `std::sync::mpsc`, sockets from `std::net`, JSON from
//! the in-crate [`Json`] writer/parser.
//!
//! Only [`job`] is a public module (for its limits); everything else is
//! reached through the re-exports below, which are exactly the names the
//! CLI, the benches, the tests and the ledger import.

#![forbid(unsafe_code)]

mod cache;
mod dispatch;
mod engine;
mod error;
mod execute;
mod faults;
pub mod job;
mod journal;
mod json;
mod metrics;
mod plan;
mod pool;
mod remote;
mod report;
mod server;

pub use cache::ResultCache;
pub use dispatch::{DispatchConfig, Dispatcher};
pub use engine::{BatchReport, Engine, EngineConfig};
pub use error::JobError;
pub use execute::execute;
pub use faults::FaultPlan;
pub use job::{Job, JobKind};
pub use journal::{gc_finished, validate_run_id, Journal, JournalRecord, JournalReplay};
pub use json::Json;
pub use plan::PlanPreview;
pub use pool::{default_workers, PoolConfig, Runner};
pub use remote::RemoteConfig;
pub use report::JobReport;
pub use server::{Server, ServerConfig};
