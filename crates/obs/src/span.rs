//! RAII span timers.

use crate::registry::Histogram;
use crate::trace;
use std::sync::Arc;
use std::time::Instant;

/// A wall-time span over a monotonic clock.
///
/// Created by [`crate::span`]; the covered region is the guard's
/// lifetime. On drop the duration lands in the histogram named after the
/// span (always — atomic adds only) and, when tracing is enabled, one
/// JSON line goes to the trace sink.
///
/// Attributes are free when tracing is off: [`Span::attr`] checks the
/// enabled flag *before* formatting the value, so no allocation happens
/// on an untraced path.
#[must_use = "a span measures its guard's lifetime — bind it to a variable"]
pub struct Span {
    name: &'static str,
    start: Instant,
    hist: Arc<Histogram>,
    attrs: Vec<(&'static str, String)>,
}

impl Span {
    pub(crate) fn enter(name: &'static str) -> Span {
        Span {
            name,
            start: Instant::now(),
            hist: crate::registry().histogram(name),
            attrs: Vec::new(),
        }
    }

    /// Attaches a key/value attribute to the trace line. A no-op (the
    /// value is never formatted) when tracing is disabled.
    pub fn attr(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        if trace::tracing_enabled() {
            self.attrs.push((key, value.to_string()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.hist.record(elapsed);
        if trace::tracing_enabled() {
            trace::write_span(
                self.name,
                self.start,
                elapsed.as_micros() as u64,
                &self.attrs,
            );
        }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("elapsed_us", &self.start.elapsed().as_micros())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_its_histogram() {
        let before = crate::histogram("test.span.unit").snapshot().count;
        {
            let _s = crate::span("test.span.unit");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let h = crate::histogram("test.span.unit").snapshot();
        assert_eq!(h.count, before + 1);
        assert!(h.max_us >= 1_000, "slept ≥ 2 ms, recorded {} µs", h.max_us);
    }

    #[test]
    fn attrs_are_dropped_when_tracing_is_off() {
        if !trace::tracing_enabled() {
            let s = crate::span("test.span.attrs").attr("k", "v");
            assert!(s.attrs.is_empty(), "no allocation when tracing is off");
            assert_eq!(s.name, "test.span.attrs");
        }
    }
}
