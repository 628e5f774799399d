//! The JSON-lines trace sink.
//!
//! One event per line, no trailing comma games, parsable by `jq` or a
//! `Json::parse` loop. Two event kinds:
//!
//! ```text
//! {"kind":"span","name":"flow.netgen","ts_us":12,"dur_us":345,
//!  "thread":"tdsigma-job-worker-0","attrs":{"job":"ab12…","attempt":"1"}}
//! {"kind":"event","name":"cache.reject","ts_us":99,
//!  "thread":"main","attrs":{"reason":"corrupt"}}
//! ```
//!
//! `ts_us` is microseconds since the sink was installed (monotonic clock,
//! never wall time — trace ordering survives NTP jumps). The sink is
//! global and disabled by default; [`tracing_enabled`] is a single
//! relaxed atomic load, which is what keeps the instrumented hot paths
//! free when nobody is watching.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Whether a trace sink is installed. A relaxed atomic load — cheap
/// enough to guard every attribute format on the instrumented paths.
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs an arbitrary writer as the trace sink (tests use an in-memory
/// buffer; production uses [`trace_to_file`]). Replaces any previous sink.
pub fn set_trace_writer(w: Box<dyn Write + Send>) {
    epoch();
    *SINK.lock().expect("trace sink lock") = Some(w);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Opens (creates/truncates) `path` — parent directories included — and
/// streams trace events to it.
///
/// # Errors
///
/// Propagates directory-creation and file-open errors.
pub fn trace_to_file(path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file = fs::File::create(path)?;
    set_trace_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Flushes the sink without disabling it (serve calls this after each
/// stats request so a tail -f on the trace file stays current).
pub fn flush_tracing() {
    if let Some(w) = self::SINK.lock().expect("trace sink lock").as_mut() {
        let _ = w.flush();
    }
}

/// Disables tracing and flushes + drops the sink. Idempotent.
pub fn disable_tracing() {
    ENABLED.store(false, Ordering::SeqCst);
    if let Some(mut w) = SINK.lock().expect("trace sink lock").take() {
        let _ = w.flush();
    }
}

/// Emits a point event (no duration) with optional attributes. A no-op
/// when tracing is disabled.
pub fn event(name: &str, attrs: &[(&str, String)]) {
    if !tracing_enabled() {
        return;
    }
    let ts_us = epoch().elapsed().as_micros() as u64;
    write_line("event", name, ts_us, None, attrs);
}

/// Emits one span line. Called by [`crate::Span`] on drop; `started` is
/// clamped to the sink epoch so spans opened before tracing was enabled
/// still serialize with a valid timestamp.
pub(crate) fn write_span(name: &str, started: Instant, dur_us: u64, attrs: &[(&str, String)]) {
    let ts_us = started
        .checked_duration_since(epoch())
        .unwrap_or_default()
        .as_micros() as u64;
    write_line("span", name, ts_us, Some(dur_us), attrs);
}

fn write_line(kind: &str, name: &str, ts_us: u64, dur_us: Option<u64>, attrs: &[(&str, String)]) {
    let mut line = String::with_capacity(128);
    line.push_str("{\"kind\":\"");
    line.push_str(kind);
    line.push_str("\",\"name\":\"");
    escape_into(&mut line, name);
    line.push_str("\",\"ts_us\":");
    line.push_str(&ts_us.to_string());
    if let Some(d) = dur_us {
        line.push_str(",\"dur_us\":");
        line.push_str(&d.to_string());
    }
    line.push_str(",\"thread\":\"");
    escape_into(
        &mut line,
        std::thread::current().name().unwrap_or("unnamed"),
    );
    line.push('"');
    if !attrs.is_empty() {
        line.push_str(",\"attrs\":{");
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push('"');
            escape_into(&mut line, k);
            line.push_str("\":\"");
            escape_into(&mut line, v);
            line.push('"');
        }
        line.push('}');
    }
    line.push_str("}\n");
    // A sink error (disk full, closed pipe) silently drops the event:
    // observability must never fail the observed flow.
    if let Some(w) = SINK.lock().expect("trace sink lock").as_mut() {
        let _ = w.write_all(line.as_bytes());
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_the_awkward_cases() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\te\u{1}f");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001f");
    }

    #[test]
    fn disabled_tracing_is_a_noop() {
        // The global sink may be exercised by the integration test binary;
        // unit tests only assert the disabled path does nothing visible.
        if !tracing_enabled() {
            event("test.noop", &[("k", "v".to_string())]);
            assert!(!tracing_enabled());
        }
    }
}
