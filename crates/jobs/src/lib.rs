//! `tdsigma-jobs` — a std-only parallel job-execution subsystem for the
//! tdsigma design flows.
//!
//! The crate turns "run this grid of ADC configurations" from a serial
//! loop into a first-class engine with four pieces:
//!
//! * **[`Job`]** — the unit of work: a fully-parameterized, deterministic
//!   description (spec knobs + flow options + RNG seed) with a stable
//!   content address ([`Job::key`]).
//! * **[`WorkerPool`]** — a `std::thread` + channel scheduler with
//!   per-job panic isolation (`catch_unwind`), bounded retries and
//!   cooperative cancellation.
//! * **[`ResultCache`]** — a content-addressed result store (in-memory
//!   map + on-disk JSON artifacts, conventionally under `results/cache/`)
//!   so repeated sweeps are answered without re-running flows. Artifacts
//!   are checksummed and stamped with the engine fingerprint
//!   ([`tdsigma_core::engine_fingerprint`]); an artifact that is corrupt
//!   or stamped by a different engine is moved to the cache's
//!   `rejected/` directory, tagged with that reason, and recomputed —
//!   never replayed.
//! * **[`Engine`]** — pool + cache + [`BatchMetrics`] counting behind
//!   one API: [`Engine::run_batch`] for sweeps, [`Engine::submit_one`]
//!   for the [`Server`] line protocol.
//! * **[`FaultPlan`]** — seeded, deterministic fault injection (worker
//!   panics, transient errors, latency, artifact corruption, network
//!   faults on dispatch) that exercises the resilience layer: exponential backoff
//!   with deterministic jitter, cache rejection, socket timeouts and
//!   graceful drain. The chaos suite
//!   (`tests/chaos.rs`) asserts the headline invariant: under any fault
//!   seed a batch either reproduces the fault-free bytes or fails loudly
//!   with a structured error — it never hangs, never drops a job
//!   silently, never poisons the cache.
//!
//! The load-bearing guarantee is **determinism**: a [`JobReport`] is a
//! pure function of its [`Job`] — no wall-clock, host name or scheduling
//! artifact ever enters it — so a sweep produces bit-identical reports
//! whether it ran on one worker or sixteen, serially or from a warm
//! cache. [`BatchMetrics`] counts what a batch did, next to the reports;
//! every duration is timed by the [`tdsigma_obs`] spans and histograms
//! (`engine.batch`, `job.attempt`, `flow.*`, `jobs.backoff`). Neither
//! ever enters a report.
//!
//! Everything here is dependency-free `std`: threads from `std::thread`,
//! channels from `std::sync::mpsc`, sockets from `std::net`, JSON from
//! the in-crate [`json`] writer/parser.

#![forbid(unsafe_code)]

pub mod cache;
pub mod dispatch;
pub mod engine;
pub mod error;
pub mod execute;
pub mod faults;
pub mod job;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod plan;
pub mod pool;
pub mod remote;
pub mod report;
pub mod server;

pub use cache::{CacheScrub, CacheStats, ResultCache};
pub use dispatch::{DispatchConfig, Dispatcher};
pub use engine::{BatchReport, Engine, EngineConfig, EngineTotals};
pub use error::JobError;
pub use execute::execute;
pub use faults::{AttemptFault, FaultPlan, NetFault};
pub use job::{Job, JobKind};
pub use journal::{gc_finished, validate_run_id, Journal, JournalGc, JournalRecord, JournalReplay};
pub use json::Json;
pub use metrics::{BackendDispatchStats, BatchMetrics, DispatchSummary};
pub use plan::{PlanPreview, PlanRow};
pub use pool::{
    backoff_delay_ms, default_workers, JobOutcome, PoolConfig, Runner, WorkerHeartbeat, WorkerPool,
};
pub use remote::{BackendHealth, RemoteClient, RemoteConfig, RemoteError};
pub use report::JobReport;
pub use server::{Server, ServerConfig};
