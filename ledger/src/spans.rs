//! Per-layer self time from the spans the program records itself.
//!
//! `tdsigma sweep|optimize|serve --trace FILE` write one JSON line per
//! `tdsigma_obs` span: its name, thread, start and duration in µs, and
//! for a job attempt the job key. The lines carry no parent. On one
//! thread spans nest (each is an RAII guard), so a span's children are
//! the spans on its thread that lie inside it. One span waits on other
//! threads: `engine.batch` blocks while the engine's workers run job
//! attempts, so those attempts are its children too. A span's self time
//! is its duration minus the part of it its children cover.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use tdsigma_jobs::Json;

/// The span that waits for the job attempts on other threads.
const WAITING: &str = "engine.batch";

/// One attempt at one job, on an engine worker thread.
const ATTEMPT: &str = "job.attempt";

/// A remote client's job attempt, less the server's attempt at the job:
/// the wire, the server's admission and cache lookup, and the reply.
pub const REMOTE_CALL: &str = "remote.call";

/// Time on a driving thread outside every span.
pub const UNSPANNED: &str = "unspanned";

/// How far a child's end may pass its parent's: trace times are whole
/// µs, each rounded down, so a child's end can read up to 2 µs late.
const SLACK_US: u64 = 2;

/// The thread that drives a command: the CLI's, and the ledger's own.
const MAIN: &str = "main";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub thread: String,
    pub start_us: u64,
    pub end_us: u64,
    /// The job key of a job attempt.
    pub job: Option<String>,
}

impl Span {
    fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Parses the span lines of a trace; point events are skipped.
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("trace line {}: {what}", n + 1);
        let v = Json::parse(line).map_err(|e| bad(&e.to_string()))?;
        if v.get("kind").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("no {k}")))
        };
        let micros = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("no {k}")))
        };
        let start_us = micros("ts_us")?;
        spans.push(Span {
            name: text("name")?,
            thread: text("thread")?,
            start_us,
            end_us: start_us + micros("dur_us")?,
            job: v
                .get("attrs")
                .and_then(|a| a.get("job"))
                .and_then(Json::as_str)
                .map(str::to_string),
        });
    }
    Ok(spans)
}

/// Reads and parses a trace file.
pub fn read(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text)
}

/// Whether `c` (the `j`-th span) is a child of `s` (the `i`-th).
fn is_child(s: &Span, i: usize, c: &Span, j: usize) -> bool {
    if i == j {
        return false;
    }
    if c.thread != s.thread {
        return s.name == WAITING
            && c.name == ATTEMPT
            && c.start_us < s.end_us
            && c.end_us > s.start_us;
    }
    let inside = c.start_us >= s.start_us && c.end_us <= s.end_us + SLACK_US;
    // Equal intervals: the child closed first, so it was written first.
    let smaller = c.start_us > s.start_us || c.end_us < s.end_us;
    inside && (smaller || j < i)
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        open = match open {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// Each span's self time, µs, in the order given.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = spans
                .iter()
                .enumerate()
                .filter(|&(j, c)| is_child(s, i, c, j))
                .map(|(_, c)| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
                .collect();
            s.duration_us().saturating_sub(union_len(covered))
        })
        .collect()
}

/// Time on the `main` thread outside every span, out of `wall_us`.
fn unspanned(spans: &[Span], wall_us: u64) -> u64 {
    let covered = spans
        .iter()
        .filter(|s| s.thread == MAIN)
        .map(|s| (s.start_us, s.end_us))
        .collect();
    wall_us.saturating_sub(union_len(covered))
}

/// Calls and self time of one layer, summed over the traced ops.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Layer {
    pub calls: u64,
    pub self_us: u64,
}

/// Per-layer totals over the traced ops of a run, keyed by span name.
#[derive(Debug, Default)]
pub struct Profile {
    pub layers: BTreeMap<String, Layer>,
    /// Traced ops added.
    pub ops: usize,
}

impl Profile {
    fn add(&mut self, name: &str, self_us: u64) {
        let layer = self.layers.entry(name.to_string()).or_default();
        layer.calls += 1;
        layer.self_us += self_us;
    }

    /// Adds one process's spans. `wall_us`, spawn to exit, is given for a
    /// process whose `main` thread drives the op (the CLI, or the ledger
    /// itself); that thread's time outside every span then counts as
    /// [`UNSPANNED`].
    pub fn add_process(&mut self, spans: &[Span], wall_us: Option<u64>) {
        for (s, t) in spans.iter().zip(self_times(spans)) {
            self.add(&s.name, t);
        }
        if let Some(wall) = wall_us {
            self.add(UNSPANNED, unspanned(spans, wall));
        }
    }

    /// Adds a server and the CLI clients that dispatched jobs to it. A
    /// client's job attempt is a call to the server, so it counts as a
    /// [`REMOTE_CALL`] with the server's own attempt at that job (whose
    /// stages the server's spans already hold) taken out.
    pub fn add_remote(&mut self, server: &[Span], clients: &[(Vec<Span>, u64)]) {
        let mut served: HashMap<&str, u64> = HashMap::new();
        for s in server.iter().filter(|s| s.name == ATTEMPT) {
            if let Some(job) = &s.job {
                *served.entry(job).or_default() += s.duration_us();
            }
        }
        self.add_process(server, None);
        for (spans, wall_us) in clients {
            for (s, t) in spans.iter().zip(self_times(spans)) {
                if s.name == ATTEMPT {
                    let on_server = s.job.as_deref().and_then(|j| served.remove(j));
                    self.add(REMOTE_CALL, t.saturating_sub(on_server.unwrap_or(0)));
                } else {
                    self.add(&s.name, t);
                }
            }
            self.add(UNSPANNED, unspanned(spans, *wall_us));
        }
    }

    /// Self time summed over every layer, µs.
    pub fn busy_us(&self) -> u64 {
        self.layers.values().map(|l| l.self_us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, thread: &str, start_us: u64, end_us: u64) -> Span {
        Span {
            name: name.into(),
            thread: thread.into(),
            start_us,
            end_us,
            job: None,
        }
    }

    fn attempt(thread: &str, start_us: u64, end_us: u64, job: &str) -> Span {
        Span {
            job: Some(job.into()),
            ..span(ATTEMPT, thread, start_us, end_us)
        }
    }

    #[test]
    fn parses_the_obs_trace_format() {
        let text = concat!(
            r#"{"kind":"span","name":"flow.transient","ts_us":227,"dur_us":2810,"thread":"main","attrs":{"samples":"1024"}}"#,
            "\n",
            r#"{"kind":"event","name":"cache.corrupt","ts_us":300,"thread":"main"}"#,
            "\n\n",
            r#"{"kind":"span","name":"job.attempt","ts_us":4000,"dur_us":50,"thread":"tdsigma-job-worker-0","attrs":{"job":"ab12","attempt":"1"}}"#,
            "\n",
        );
        let spans = parse(text).expect("parses");
        assert_eq!(
            spans,
            vec![
                span("flow.transient", "main", 227, 3037),
                attempt("tdsigma-job-worker-0", 4000, 4050, "ab12"),
            ]
        );
        assert!(parse("{\"kind\":\"span\",\"name\":\"x\"}").is_err());
        assert!(parse("not json").is_err());
    }

    #[test]
    fn nested_spans_on_one_thread() {
        // Children are written before their parent (they close first).
        let spans = [
            span("flow.netgen", "w", 10, 20),
            span("flow.apr", "w", 20, 70),
            span("flow.build", "w", 5, 100),
            span("job.attempt", "w", 0, 100),
        ];
        assert_eq!(self_times(&spans), vec![10, 50, 35, 5]);
    }

    #[test]
    fn equal_intervals_give_the_time_to_the_child() {
        let spans = [span("inner", "w", 10, 20), span("outer", "w", 10, 20)];
        assert_eq!(self_times(&spans), vec![10, 0]);
    }

    #[test]
    fn a_child_may_end_a_rounding_slack_late() {
        let spans = [span("inner", "w", 12, 21), span("outer", "w", 10, 20)];
        assert_eq!(self_times(&spans), vec![9, 2]);
    }

    #[test]
    fn the_batch_keeps_only_time_no_attempt_runs() {
        // Two workers with overlapping attempts; worker 1 idles at the
        // barrier while worker 0 finishes. The batch's self time is its
        // planning before the first attempt, the gap between attempts,
        // and its journal append is a child on its own thread.
        let spans = [
            attempt("w0", 10, 60, "a"),
            attempt("w1", 12, 30, "b"),
            attempt("w0", 65, 90, "c"),
            span("journal.fsync", "main", 60, 63),
            span("engine.batch", "main", 0, 95),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t[..3],
            [50, 18, 25],
            "attempts on other threads are not nested"
        );
        assert_eq!(t[3], 3);
        // 0–10 planning, 63–65 between attempts, 90–95 after: 17 µs.
        assert_eq!(t[4], 17);
    }

    #[test]
    fn attempts_do_not_cover_spans_that_do_not_wait() {
        let spans = [
            attempt("w0", 0, 50, "a"),
            span("opt.generation", "main", 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 50]);
    }

    #[test]
    fn unspanned_is_main_thread_time_outside_spans() {
        let spans = [
            span("flow.transient", "main", 10, 20),
            span("engine.batch", "main", 30, 80),
            span("job.attempt", "w0", 0, 200),
        ];
        let mut p = Profile::default();
        p.add_process(&spans, Some(100));
        assert_eq!(
            p.layers[UNSPANNED],
            Layer {
                calls: 1,
                self_us: 40
            }
        );
        assert_eq!(p.layers["engine.batch"].self_us, 0);
        // flow.transient, engine.batch (covered), job.attempt, unspanned.
        assert_eq!(p.busy_us(), 10 + 200 + 40);
    }

    #[test]
    fn remote_calls_exclude_the_servers_attempt_once() {
        let server = [
            span("flow.transient", "s0", 5, 35),
            attempt("s0", 0, 40, "k"),
        ];
        // The cold client's attempt waited 50 µs for a 40 µs server
        // attempt; the warm client's was answered from the server cache.
        let cold = vec![attempt("c0", 0, 50, "k")];
        let warm = vec![attempt("c0", 0, 3, "k")];
        let mut p = Profile::default();
        p.add_remote(&server, &[(cold, 60), (warm, 8)]);
        assert_eq!(
            p.layers[REMOTE_CALL],
            Layer {
                calls: 2,
                self_us: 10 + 3
            }
        );
        assert_eq!(
            p.layers[ATTEMPT],
            Layer {
                calls: 1,
                self_us: 10
            }
        );
        assert_eq!(p.layers["flow.transient"].self_us, 30);
        assert_eq!(
            p.layers[UNSPANNED],
            Layer {
                calls: 2,
                self_us: 60 + 8
            }
        );
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(5, 10), (0, 3), (8, 12), (12, 13)]), 11);
        assert_eq!(union_len(Vec::new()), 0);
    }
}
