//! `tdsigma-obs` — a std-only observability layer for the tdsigma flows.
//!
//! Commercial EDA flows get tracing for free from their tooling; a pure-Rust
//! flow serving heavy sweep traffic needs its own. This crate provides the
//! three pieces the rest of the workspace instruments itself with:
//!
//! * **[`Span`]** — an RAII wall-time timer over a monotonic clock
//!   ([`std::time::Instant`]). Entering a span is one `Instant::now()` plus
//!   one registry lookup; dropping it records the duration into a
//!   [`Histogram`] (atomic adds only) and, *only when tracing is enabled*,
//!   writes one JSON line to the trace sink.
//! * **[`Registry`]** — a thread-safe, process-global home for named
//!   [`Counter`]s, [`Gauge`]s and [`Histogram`]s. Handles are `Arc`s; the
//!   hot path (increment / record) is lock-free atomics with no allocation.
//! * **Trace sink** ([`trace_to_file`] / [`set_trace_writer`]) — a
//!   JSON-lines event stream, conventionally written under
//!   `results/trace/`. Disabled by default: when off, span attributes are
//!   never formatted and nothing is ever written, so benches are
//!   unaffected.
//!
//! # Naming convention
//!
//! Dotted lowercase paths, subsystem first: `flow.netgen`,
//! `flow.transient`, `job.attempt`, `jobs.cache_hits`. Span durations land
//! in a histogram of the same name (microsecond resolution).
//!
//! # Example
//!
//! ```
//! let _span = tdsigma_obs::span("flow.netgen");
//! tdsigma_obs::counter("jobs.cache_hits").inc();
//! let snap = tdsigma_obs::registry().snapshot();
//! assert!(snap.counters["jobs.cache_hits"] >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod span;
mod trace;

pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use span::Span;
pub use trace::{
    disable_tracing, event, flush_tracing, set_trace_writer, trace_to_file, tracing_enabled,
};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry every instrumentation site reports to.
pub fn registry() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Interns `name` in the global registry and returns its counter handle.
///
/// Call sites that fire often should fetch the handle once and reuse it;
/// the handle's [`Counter::inc`] is a single atomic add.
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Interns `name` in the global registry and returns its gauge handle.
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Interns `name` in the global registry and returns its histogram handle.
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// Opens an RAII span: wall time from now until drop is recorded into the
/// histogram `name`, and a JSON trace line is emitted when tracing is on.
pub fn span(name: &'static str) -> Span {
    Span::enter(name)
}
