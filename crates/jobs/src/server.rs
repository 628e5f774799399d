//! `tdsigma serve`: a line-protocol TCP front end over an [`Engine`].
//!
//! Protocol: one JSON command object per line in, one JSON response per
//! line out:
//!
//! ```text
//! {"cmd":"ping"}          → {"ok":true,"pong":true}
//! {"cmd":"stats"}         → {"ok":true,"stats":{…}}
//! {"cmd":"health"}        → {"ok":true,"health":{…}}
//! {"cmd":"ready"}         → {"ok":true,"ready":true,"fingerprint":"…"}
//! {"cmd":"run","job":{…}} → {"ok":true,"report":{…},"attest":"…"}
//! {"cmd":"shutdown"}      → {"ok":true,"bye":true}   (then the server stops)
//! ```
//!
//! The `run` command carries a full [`Job`] in its canonical Hz-units
//! JSON form ([`Job::to_json`]), so every parameter round-trips
//! bit-exactly and local and remote execution share one cache address;
//! [`Job::from_json`] refuses a missing, mistyped or unknown field.
//! Results are cached exactly like sweep results: asking the same
//! question twice executes one flow. A malformed frame, one without a
//! `cmd`, or a job [`Job::to_spec`] refuses gets `{"ok":false,"error":"…"}`
//! and the connection stays open.
//!
//! `shutdown` is **disabled by default**: any LAN client can reach the
//! socket, and a shared backend must not be killable by one of them.
//! Enable it explicitly ([`ServerConfig::allow_remote_shutdown`], CLI
//! `--allow-remote-shutdown`); otherwise the command answers
//! `{"ok":false,"error":"shutdown disabled"}` and the server keeps
//! serving.
//!
//! **Admission control.** Two gates, one per resource. The connection
//! cap ([`ServerConfig::max_connections`]) bounds threads: an excess
//! connect gets one `busy` line and is closed. Queue-depth shedding
//! ([`ServerConfig::max_queue_per_worker`]) bounds the work backlog: a
//! job request arriving while the in-flight count is at the cap — or
//! while every worker is stalled — is answered with
//! `{"ok":false,"busy":true,"shed":true,"retry_after_ms":N,…}`, where
//! `N` is a backlog-drain estimate the dispatcher honours as a cooldown.

use crate::engine::Engine;
use crate::faults::ATTEST_BASIS;
use crate::job::Job;
use crate::json::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Connection-hardening and supervision knobs. The defaults assume an
/// untrusted LAN client: an idle or stalled peer is disconnected instead
/// of pinning a thread forever, a single frame cannot exhaust memory,
/// and a connection flood is rejected with a structured `busy` error
/// instead of spawning unbounded threads.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Disconnect a connection that sends no complete frame for this
    /// long, ms. 0 = wait forever (the pre-hardening behavior).
    pub idle_timeout_ms: u64,
    /// Maximum accepted frame length, bytes; longer frames get a
    /// structured error and the connection is closed.
    pub max_line_bytes: usize,
    /// Maximum concurrent connections; further connects get one
    /// structured `busy` rejection line and are closed. 0 = unlimited.
    pub max_connections: usize,
    /// A busy worker silent for longer than this, ms, counts as stalled
    /// in `health`/`ready` responses. 0 disables stall detection.
    pub stall_threshold_ms: u64,
    /// Whether the `shutdown` protocol command is honored. Off by
    /// default: any LAN client can reach the socket, and a shared
    /// backend must not be killable by one of them. When off, the
    /// command answers `{"ok":false,"error":"shutdown disabled"}`.
    pub allow_remote_shutdown: bool,
    /// Load shedding: maximum job requests in flight (queued or
    /// executing) per *live* worker before new work is shed with a
    /// structured `retry_after_ms` rejection. Stalled workers do not
    /// count as live, so a wedged pool sheds earlier. 0 disables
    /// shedding.
    pub max_queue_per_worker: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            idle_timeout_ms: 30_000,
            max_line_bytes: 64 * 1024,
            max_connections: 64,
            stall_threshold_ms: 30_000,
            allow_remote_shutdown: false,
            max_queue_per_worker: 16,
        }
    }
}

/// Shared admission state: how deep the work queue is and how long a
/// job has been taking lately. One instance per server, visible to
/// every connection thread.
#[derive(Debug)]
pub(crate) struct Admission {
    max_queue_per_worker: usize,
    /// Job requests accepted and not yet answered (queued + executing).
    inflight: AtomicUsize,
    /// EWMA of recent job service time, µs (0 = no sample yet). Feeds
    /// the `retry_after_ms` hints.
    avg_service_us: AtomicU64,
    /// Lifetime shed count, mirrored onto the obs registry and reported
    /// by `health`.
    shed: AtomicU64,
}

/// RAII claim on one admission slot: holds the in-flight count up while
/// the job runs and folds the observed service time into the EWMA on
/// release.
#[derive(Debug)]
pub(crate) struct AdmissionTicket<'a> {
    admission: &'a Admission,
    started: Instant,
}

impl Drop for AdmissionTicket<'_> {
    fn drop(&mut self) {
        let n = self.admission.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        tdsigma_obs::gauge("serve.admission_queue_depth").set(n as f64);
        self.admission.observe_service(self.started.elapsed());
    }
}

impl Admission {
    fn new(config: &ServerConfig) -> Self {
        Admission {
            max_queue_per_worker: config.max_queue_per_worker,
            inflight: AtomicUsize::new(0),
            avg_service_us: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    fn observe_service(&self, elapsed: Duration) {
        let sample = elapsed.as_micros() as u64;
        let old = self.avg_service_us.load(Ordering::Relaxed);
        // EWMA with α = 1/8; racy read-modify-write is fine for a hint.
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.avg_service_us.store(new, Ordering::Relaxed);
    }

    /// The smoothed service time, ms (0 = no sample yet).
    fn avg_service_ms(&self) -> u64 {
        self.avg_service_us.load(Ordering::Relaxed) / 1000
    }

    /// Job requests currently queued or executing.
    pub(crate) fn queue_depth(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// How long a turned-away peer should wait before retrying: roughly
    /// one backlog-drain interval, bounded so the hint is never absurd.
    fn retry_after_ms(&self, live_workers: usize) -> u64 {
        let per_job = self.avg_service_ms().max(25);
        let depth = self.queue_depth() as u64;
        (per_job * (depth + 1) / live_workers.max(1) as u64).clamp(50, 30_000)
    }

    /// Admission decision for one job request: bound the backlog by live
    /// workers, so a stalled pool sheds earlier and a dead pool sheds
    /// everything. `Err` carries the complete structured rejection to
    /// send back.
    fn admit(&self, workers: usize, stalled: usize) -> Result<AdmissionTicket<'_>, Json> {
        let live_workers = workers.saturating_sub(stalled);
        let depth = self.queue_depth();
        let cap = self.max_queue_per_worker * live_workers;
        if self.max_queue_per_worker > 0 && (live_workers == 0 || depth >= cap) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            tdsigma_obs::counter("serve.shed").inc();
            let message = if live_workers == 0 {
                format!("shedding load: all {workers} worker(s) stalled")
            } else {
                format!("shedding load: {depth} request(s) in flight (limit {cap})")
            };
            return Err(busy_response(
                &message,
                self.retry_after_ms(live_workers),
                &[("shed", Json::Bool(true))],
            ));
        }
        let n = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        tdsigma_obs::gauge("serve.admission_queue_depth").set(n as f64);
        Ok(AdmissionTicket {
            admission: self,
            started: Instant::now(),
        })
    }
}

/// A structured overload rejection: always `busy:true` and always a
/// computed `retry_after_ms`, plus caller-specific markers.
fn busy_response(message: &str, retry_after_ms: u64, extra: &[(&str, Json)]) -> Json {
    let mut obj = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.into())),
        ("busy".to_string(), Json::Bool(true)),
        (
            "retry_after_ms".to_string(),
            Json::Num(retry_after_ms as f64),
        ),
    ];
    for (k, v) in extra {
        obj.push(((*k).to_string(), v.clone()));
    }
    Json::Obj(obj)
}

/// The state every connection of one server shares: the engine, the
/// configured limits, the stop flag, the live connection count, the
/// admission state and the epoch `uptime_ms` runs against. A dispatcher
/// health-checking a fleet uses `uptime_ms`/`served_jobs` to tell a
/// freshly restarted backend from a long-lived one.
struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    stop: AtomicBool,
    active: AtomicUsize,
    started: Instant,
    admission: Admission,
    /// The bound address: a connection that accepts `shutdown` connects
    /// to it to wake the accept loop.
    addr: SocketAddr,
}

impl Shared {
    fn new(engine: Arc<Engine>, config: ServerConfig, addr: SocketAddr) -> Self {
        Shared {
            engine,
            admission: Admission::new(&config),
            config,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            started: Instant::now(),
            addr,
        }
    }
}

/// A running line-protocol server. One thread per connection; all
/// connections share the engine (and therefore its cache and pool).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (use port 0 to let the OS pick) with the given
    /// hardening knobs.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared::new(engine, config, listener.local_addr()?));
        Ok(Server { listener, shared })
    }

    /// The bound address (needed when binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` command arrives. Graceful drain: every
    /// connection thread (and therefore every in-flight job) is joined
    /// before returning.
    ///
    /// # Errors
    ///
    /// Propagates listener errors; per-connection I/O errors only end
    /// that connection.
    pub fn run(&self) -> io::Result<()> {
        let shared = &self.shared;
        let mut handles = Vec::new();
        for stream in self.listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = stream else { continue };
            reap_finished(&mut handles);
            // Connection cap: reject loudly instead of queueing silently,
            // so a flooded client knows to back off (and the cap cannot
            // be mistaken for a hang).
            let active = shared.active.load(Ordering::SeqCst);
            let cap = shared.config.max_connections;
            if cap > 0 && active >= cap {
                tdsigma_obs::counter("serve.busy_rejected").inc();
                let busy = busy_response(
                    &format!("server busy: {active} connections active (limit {cap})"),
                    shared
                        .admission
                        .retry_after_ms(shared.engine.workers().max(1)),
                    &[],
                );
                let _ = stream.write_all(busy.to_text().as_bytes());
                let _ = stream.write_all(b"\n");
                continue; // dropping the stream closes it
            }
            let n = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
            tdsigma_obs::gauge("serve.active_connections").set(n as f64);
            let shared = Arc::clone(shared);
            handles.push(thread::spawn(move || {
                let _ = serve_connection(stream, &shared);
                let n = shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
                tdsigma_obs::gauge("serve.active_connections").set(n as f64);
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Joins the connection threads that have already returned, so a
/// long-lived server holds one handle per *live* connection instead of
/// one per connection ever accepted. Live handles stay for the drain.
fn reap_finished(handles: &mut Vec<thread::JoinHandle<()>>) {
    let (done, live) = std::mem::take(handles)
        .into_iter()
        .partition(|h| h.is_finished());
    *handles = live;
    for h in done {
        let _ = h.join();
    }
}

/// What reading one frame produced.
enum Frame {
    /// A complete line (without the newline).
    Line(String),
    /// The peer closed the connection.
    Eof,
    /// No complete frame arrived within the idle timeout (also covers a
    /// frame stalled halfway).
    IdleTimeout,
    /// The frame exceeded the configured length bound.
    TooLong,
}

/// Reads one newline-terminated frame, honoring the idle timeout and
/// the length bound. The timeout applies between reads, so a peer that
/// goes silent — before a frame or stalled halfway through one — is
/// disconnected once it elapses.
fn read_frame(reader: &mut BufReader<TcpStream>, max_line_bytes: usize) -> io::Result<Frame> {
    let mut buf = Vec::new();
    // +1 so a frame of exactly max bytes (plus newline) still fits and
    // anything longer is detected as oversized rather than split.
    let mut limited = reader.by_ref().take(max_line_bytes as u64 + 1);
    match limited.read_until(b'\n', &mut buf) {
        Ok(0) => Ok(Frame::Eof),
        Ok(n) if n > max_line_bytes => Ok(Frame::TooLong),
        Ok(_) => {
            while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
                buf.pop();
            }
            Ok(Frame::Line(String::from_utf8_lossy(&buf).into_owned()))
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            Ok(Frame::IdleTimeout)
        }
        Err(e) => Err(e),
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let config = &shared.config;
    if config.idle_timeout_ms > 0 {
        let timeout = Some(Duration::from_millis(config.idle_timeout_ms));
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
    }
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader, config.max_line_bytes)? {
            Frame::Line(line) => line,
            Frame::Eof | Frame::IdleTimeout => break,
            Frame::TooLong => {
                // One structured complaint, then hang up: the rest of the
                // oversized frame is unread and unreadable in bounded
                // memory.
                let err = error_response(&format!(
                    "request line exceeds {} bytes",
                    config.max_line_bytes
                ));
                writer.write_all(err.to_text().as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handle_line(line.trim(), shared);
        writer.write_all(response.to_text().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if shutdown {
            shared.stop.store(true, Ordering::SeqCst);
            // The accept loop is blocked in `incoming()`; a throwaway
            // connection wakes it so it can observe the stop flag.
            let _ = TcpStream::connect(shared.addr);
            break;
        }
    }
    Ok(())
}

/// The commands a frame may carry, as the error for any other names them.
const COMMANDS: &str = r#""ping", "stats", "health", "ready", "run" or "shutdown""#;

/// Handles one request line; returns the response and whether the server
/// should shut down afterwards.
fn handle_line(line: &str, shared: &Shared) -> (Json, bool) {
    let request = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return (error_response(&format!("malformed JSON: {e}")), false),
    };
    let Some(cmd) = request.get("cmd") else {
        let message = format!("request needs a \"cmd\" (expected {COMMANDS})");
        return (error_response(&message), false);
    };
    let response = match cmd.as_str() {
        Some("ping") => ok_response(vec![("pong".into(), Json::Bool(true))]),
        Some("stats") => stats_response(shared),
        Some("health") => health_response(shared),
        Some("ready") => ready_response(shared),
        Some("run") => run_response(&request, shared),
        Some("shutdown") if shared.config.allow_remote_shutdown => {
            return (ok_response(vec![("bye".into(), Json::Bool(true))]), true)
        }
        Some("shutdown") => error_response("shutdown disabled"),
        _ => error_response(&format!("unknown command (expected {COMMANDS})")),
    };
    (response, false)
}

/// Executes a `{"cmd":"run","job":{…}}` request. The job arrives in its
/// canonical Hz-units JSON form ([`Job::to_json`]), so no unit conversion
/// happens between a dispatcher and this backend — the cache key
/// computed here is identical to the one the dispatcher computed. A job
/// [`Job::to_spec`] refuses is answered before admission; then the queue
/// depth may shed it; then it runs.
fn run_response(request: &Json, shared: &Shared) -> Json {
    let Some(job_json) = request.get("job") else {
        return error_response("run request needs a \"job\" object");
    };
    let job = match Job::from_json(job_json).and_then(|job| job.to_spec().map(|_| job)) {
        Ok(job) => job,
        Err(e) => return error_response(&e.to_string()),
    };
    let engine = &shared.engine;
    let stalled = engine.stalled_workers(shared.config.stall_threshold_ms);
    let ticket = match shared.admission.admit(engine.workers(), stalled) {
        Ok(ticket) => ticket,
        Err(rejection) => return rejection,
    };
    let result = engine.submit_one(&job);
    drop(ticket);
    match result {
        Ok(mut report) => {
            // Lying-backend fault site: perturb a report *value* after
            // compute, keeping the key intact. The attestation below is
            // computed over the lying bytes, so it still verifies — by
            // design, this corruption is only catchable by redundant
            // recomputation on the dispatching side.
            if let Some(delta) = engine.fault_plan().lying_report_delta(&job.key()) {
                report.sndr_db += delta;
                tdsigma_obs::counter("serve.lying_backend_injected").inc();
            }
            let attest = tdsigma_tech::fnv1a64(report.to_text().as_bytes(), ATTEST_BASIS);
            ok_response(vec![
                ("report".into(), report.to_json()),
                ("attest".into(), Json::Str(format!("{attest:016x}"))),
            ])
        }
        Err(e) => error_response(&e.to_string()),
    }
}

fn ok_response(mut fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![("ok".to_string(), Json::Bool(true))];
    obj.append(&mut fields);
    Json::Obj(obj)
}

fn error_response(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(message.into())),
    ])
}

/// The liveness watchdog's verdict: worker heartbeats, connection
/// pressure, and lifetime failure counts in one object. `status` is
/// `"degraded"` the moment any busy worker goes silent past the stall
/// threshold — the signal a supervisor alerts on.
fn health_response(shared: &Shared) -> Json {
    let engine = &shared.engine;
    tdsigma_obs::counter("serve.health_checks").inc();
    let beats = engine.heartbeats();
    let busy = beats.iter().filter(|h| h.busy).count();
    let max_age = beats
        .iter()
        .filter(|h| h.busy)
        .map(|h| h.age_ms)
        .max()
        .unwrap_or(0);
    let stalled = engine.stalled_workers(shared.config.stall_threshold_ms);
    let totals = engine.totals();
    let status = if stalled > 0 { "degraded" } else { "ok" };
    ok_response(vec![(
        "health".into(),
        Json::Obj(vec![
            ("status".into(), Json::Str(status.into())),
            (
                "fingerprint".into(),
                Json::Str(tdsigma_core::engine_fingerprint().into()),
            ),
            ("workers".into(), Json::Num(beats.len() as f64)),
            ("busy_workers".into(), Json::Num(busy as f64)),
            ("stalled_workers".into(), Json::Num(stalled as f64)),
            ("max_heartbeat_age_ms".into(), Json::Num(max_age as f64)),
            (
                "active_connections".into(),
                Json::Num(shared.active.load(Ordering::SeqCst) as f64),
            ),
            (
                "max_connections".into(),
                Json::Num(shared.config.max_connections as f64),
            ),
            ("jobs".into(), Json::Num(totals.jobs as f64)),
            ("failed".into(), Json::Num(totals.failed as f64)),
            (
                "cache_rejected".into(),
                Json::Num(engine.cache().rejected() as f64),
            ),
            (
                "uptime_ms".into(),
                Json::Num(shared.started.elapsed().as_millis() as f64),
            ),
            ("served_jobs".into(), Json::Num(totals.jobs as f64)),
            (
                "queue_depth".into(),
                Json::Num(shared.admission.queue_depth() as f64),
            ),
            (
                "shed".into(),
                Json::Num(shared.admission.shed.load(Ordering::Relaxed) as f64),
            ),
        ]),
    )])
}

/// Readiness: can this server usefully take another connection right
/// now? False while any worker is stalled or the connection cap is
/// reached, with a `reason` a load balancer can log.
fn ready_response(shared: &Shared) -> Json {
    let engine = &shared.engine;
    tdsigma_obs::counter("serve.health_checks").inc();
    let stalled = engine.stalled_workers(shared.config.stall_threshold_ms);
    let active = shared.active.load(Ordering::SeqCst);
    let at_cap = shared.config.max_connections > 0 && active >= shared.config.max_connections;
    let reason = if stalled > 0 {
        Some(format!("{stalled} worker(s) stalled"))
    } else if at_cap {
        Some(format!(
            "connection limit reached ({active}/{})",
            shared.config.max_connections
        ))
    } else {
        None
    };
    let mut fields = vec![
        ("ready".into(), Json::Bool(reason.is_none())),
        (
            "fingerprint".into(),
            Json::Str(tdsigma_core::engine_fingerprint().into()),
        ),
    ];
    if let Some(reason) = reason {
        fields.push(("reason".into(), Json::Str(reason)));
    }
    ok_response(fields)
}

fn stats_response(shared: &Shared) -> Json {
    let engine = &shared.engine;
    // A stats request is a natural checkpoint: push any buffered trace
    // lines to disk so an operator tailing the file sees current state.
    tdsigma_obs::flush_tracing();
    let totals = engine.totals();
    ok_response(vec![(
        "stats".into(),
        Json::Obj(vec![
            (
                "fingerprint".into(),
                Json::Str(tdsigma_core::engine_fingerprint().into()),
            ),
            ("workers".into(), Json::Num(engine.workers() as f64)),
            ("jobs".into(), Json::Num(totals.jobs as f64)),
            (
                "uptime_ms".into(),
                Json::Num(shared.started.elapsed().as_millis() as f64),
            ),
            ("served_jobs".into(), Json::Num(totals.jobs as f64)),
            ("cache_hits".into(), Json::Num(totals.cache_hits as f64)),
            ("executed".into(), Json::Num(totals.executed as f64)),
            ("failed".into(), Json::Num(totals.failed as f64)),
            (
                "cached_results".into(),
                Json::Num(engine.cache().len() as f64),
            ),
            (
                "cache_rejected".into(),
                Json::Num(engine.cache().rejected() as f64),
            ),
            ("obs".into(), obs_snapshot_json()),
        ]),
    )])
}

/// The live observability registry as JSON: every counter and gauge by
/// name, and per-span timing summaries from the histograms.
fn obs_snapshot_json() -> Json {
    let snap = tdsigma_obs::registry().snapshot();
    let counters = snap
        .counters
        .into_iter()
        .map(|(name, v)| (name, Json::Num(v as f64)))
        .collect();
    let gauges = snap
        .gauges
        .into_iter()
        .map(|(name, v)| (name, Json::Num(v)))
        .collect();
    let spans = snap
        .histograms
        .into_iter()
        .map(|(name, h)| {
            let obj = Json::Obj(vec![
                ("count".into(), Json::Num(h.count as f64)),
                ("total_ms".into(), Json::Num(h.total_ms())),
                ("mean_ms".into(), Json::Num(h.mean_ms())),
                ("p99_ms".into(), Json::Num(h.quantile_us(0.99) as f64 / 1e3)),
                ("max_ms".into(), Json::Num(h.max_ms())),
            ]);
            (name, obj)
        })
        .collect();
    Json::Obj(vec![
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
        ("spans".into(), Json::Obj(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::faults::FaultPlan;
    use crate::pool::{PoolConfig, Runner};
    use crate::report::JobReport;

    #[test]
    fn reap_drops_finished_connection_threads_and_keeps_live_ones() {
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let mut handles = vec![
            thread::spawn(|| {}),
            thread::spawn(move || {
                let _ = parked.recv();
            }),
        ];
        while !handles[0].is_finished() {
            thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handles);
        assert_eq!(handles.len(), 1, "the finished thread is joined");
        assert!(!handles[0].is_finished(), "the live one is kept");
        release.send(()).unwrap();
        while !handles[0].is_finished() {
            thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut handles);
        assert!(handles.is_empty());
    }

    /// An engine of `workers` threads and no retries whose runner answers
    /// each job after `delay` with an SNDR of 60 dB plus its seed.
    fn engine_with(workers: usize, faults: FaultPlan, delay: Duration) -> Arc<Engine> {
        let runner: Arc<Runner> = Arc::new(move |job: &Job| {
            thread::sleep(delay);
            Ok(JobReport {
                key: job.key(),
                job: job.clone(),
                fin_hz: job.input_frequency_hz(),
                sndr_db: 60.0 + job.seed as f64,
                enob: 9.7,
                power_mw: None,
                digital_fraction: None,
                area_mm2: None,
                fom_fj: None,
                timing_slack_ps: None,
            })
        });
        let pool = PoolConfig {
            workers,
            retries: 0,
            ..PoolConfig::default()
        };
        let config = EngineConfig {
            pool,
            cache_dir: None,
            faults,
        };
        Arc::new(Engine::with_runner(config, runner).unwrap())
    }

    fn test_engine() -> Arc<Engine> {
        engine_with(2, FaultPlan::none(), Duration::ZERO)
    }

    /// The state of a server around `engine` that was never bound.
    fn shared_with(engine: Arc<Engine>, config: ServerConfig) -> Shared {
        Shared::new(engine, config, "127.0.0.1:0".parse().unwrap())
    }

    /// [`shared_with`] the default limits and remote shutdown allowed.
    fn test_shared(engine: Arc<Engine>) -> Shared {
        let config = ServerConfig {
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        };
        shared_with(engine, config)
    }

    /// A `run` frame carrying `job`.
    fn run_frame(job: Json) -> String {
        Json::Obj(vec![
            ("cmd".into(), Json::Str("run".into())),
            ("job".into(), job),
        ])
        .to_text()
    }

    /// A change to a job, for tables of refused requests.
    type Edit = fn(&mut Job);

    /// A `run` frame for the paper's 40 nm sim job after `edit`.
    fn run_line(edit: impl FnOnce(&mut Job)) -> String {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        edit(&mut job);
        run_frame(job.to_json())
    }

    #[test]
    fn handle_line_answers_commands_jobs_and_garbage() {
        let shared = test_shared(test_engine());
        let (r, stop) = handle_line(r#"{"cmd":"ping"}"#, &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert!(!stop);

        let (r, _) = handle_line(&run_line(|j| j.seed = 2), &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let sndr = r
            .get("report")
            .and_then(|x| x.get("sndr_db"))
            .and_then(Json::as_f64);
        assert_eq!(sndr, Some(62.0));

        let (r, _) = handle_line("this is not json", &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        assert!(r.get("error").and_then(Json::as_str).is_some());

        // A frame without a command is answered, not run, and names the
        // commands there are; the connection keeps serving.
        let (r, stop) = handle_line(r#"{"kind":"sim","node":40,"bw_mhz":5}"#, &shared);
        assert!(!stop);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        let err = r.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(err.contains("\"cmd\"") && err.contains("\"run\""), "{err}");

        // A capture the analysis cannot use is refused before it runs.
        let (r, _) = handle_line(&run_line(|j| j.samples = 512), &shared);
        let err = r.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(
            err.starts_with("invalid job:") && err.contains("≥ 1024"),
            "{err}"
        );
        // So is a job too large to run: 2⁴⁰ samples would abort the
        // process on allocation, and a huge substep count would pin a
        // worker. The server answers and keeps serving.
        let too_large: [(Edit, &str); 2] = [
            (
                |j| j.samples = 1 << 40,
                "samples 1099511627776 exceeds the maximum 1048576",
            ),
            (
                |j| j.steps_per_cycle = 1_000_000_000,
                "invalid ADC spec: need at most 1024 simulation substeps per cycle",
            ),
        ];
        for (edit, says) in too_large {
            let (r, stop) = handle_line(&run_line(edit), &shared);
            assert!(!stop);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
            let err = r.get("error").and_then(Json::as_str).unwrap_or_default();
            assert_eq!(err, format!("invalid job: {says}"));
        }
        let (r, _) = handle_line(r#"{"cmd":"ping"}"#, &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            shared.engine.totals().jobs,
            1,
            "only the good job reached the engine"
        );

        let (r, stop) = handle_line(r#"{"cmd":"shutdown"}"#, &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert!(stop);
    }

    #[test]
    fn handle_line_refuses_unusable_tones_and_keeps_serving() {
        let shared = test_shared(test_engine());
        // Before the bound these ran and answered a report, except the
        // last three: 2⁵⁰ slices aborted the process allocating per-slice
        // state, a negative loop gain panicked in the VCO model and came
        // back as a retryable failure, and the three maxima at once would
        // have pinned a worker for about 18 h. (A non-finite number such as
        // `1e999` never parses as JSON.)
        let kvco = -(0.8 * 750e6 / 1.1);
        let refused: [(Edit, String); 8] = [
            (
                |j| j.amplitude_rel = 0.0,
                "amplitude_rel 0 must be in (0, 1] of full scale".to_string(),
            ),
            (
                |j| j.amplitude_rel = -0.5,
                "amplitude_rel -0.5 must be in (0, 1] of full scale".to_string(),
            ),
            (
                |j| j.amplitude_rel = 1.5,
                "amplitude_rel 1.5 must be in (0, 1] of full scale".to_string(),
            ),
            (
                |j| j.fin_hz = Some(0.0),
                "fin_hz 0 must be in (0, fs/2) = (0, 375000000)".to_string(),
            ),
            (
                |j| j.fin_hz = Some(375e6),
                "fin_hz 375000000 must be in (0, fs/2) = (0, 375000000)".to_string(),
            ),
            (
                |j| (j.slices, j.samples, j.steps_per_cycle) = (1 << 50, 2048, 4),
                "invalid ADC spec: n_slices 1125899906842624 must be in 1..=1024".to_string(),
            ),
            (
                |j| j.loop_gain = -1.0,
                format!("invalid ADC spec: kvco_hz_per_v {kvco} must be finite and positive"),
            ),
            (
                |j| (j.slices, j.samples, j.steps_per_cycle) = (1024, 1 << 20, 1024),
                "samples 1048576 × steps 1024 × slices 1024 exceeds the maximum work 268435456"
                    .to_string(),
            ),
        ];
        for (edit, says) in refused {
            let line = run_line(edit);
            let (r, stop) = handle_line(&line, &shared);
            assert!(!stop);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
            let err = r.get("error").and_then(Json::as_str).unwrap_or_default();
            assert_eq!(err, format!("invalid job: {says}"), "{line}");
        }
        let (r, _) = handle_line(r#"{"cmd":"ping"}"#, &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            shared.engine.totals().jobs,
            0,
            "no refused job reached the engine"
        );
    }

    #[test]
    fn shutdown_is_refused_unless_explicitly_allowed() {
        let shared = shared_with(test_engine(), ServerConfig::default());
        let (r, stop) = handle_line(r#"{"cmd":"shutdown"}"#, &shared);
        assert!(!stop, "gated shutdown must not stop the server");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            r.get("error").and_then(Json::as_str),
            Some("shutdown disabled")
        );
        // The connection (and server) keep serving afterwards.
        let (r, stop) = handle_line(r#"{"cmd":"ping"}"#, &shared);
        assert!(!stop);
        assert_eq!(r.get("pong").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn run_command_round_trips_a_canonical_job() {
        let shared = test_shared(test_engine());
        let job = Job {
            seed: 5,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let (r, stop) = handle_line(&run_frame(job.to_json()), &shared);
        assert!(!stop);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let report = r.get("report").expect("report object");
        // The backend computed the same cache address the sender did:
        // the job round-tripped bit-exactly.
        assert_eq!(
            report.get("key").and_then(Json::as_str),
            Some(job.key().as_str())
        );
        assert_eq!(report.get("sndr_db").and_then(Json::as_f64), Some(65.0));

        let (r, _) = handle_line(r#"{"cmd":"run"}"#, &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
        assert!(r
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("job")));
    }

    /// The fields readers outside this module depend on: the dispatcher's
    /// health probe, the readiness probes, the server-count checks of the
    /// benchmark and the client's report and attestation check.
    #[test]
    fn the_wire_fields_outside_readers_depend_on_are_present() {
        let shared = test_shared(test_engine());
        let (r, _) = handle_line(&run_line(|j| j.seed = 3), &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert!(r.get("report").and_then(|x| x.get("key")).is_some());
        assert_eq!(
            r.get("attest").and_then(Json::as_str).map(str::len),
            Some(16)
        );

        let (r, _) = handle_line(r#"{"cmd":"health"}"#, &shared);
        let health = r.get("health").expect("health object");
        assert_eq!(
            health.get("fingerprint").and_then(Json::as_str),
            Some(tdsigma_core::engine_fingerprint())
        );
        assert_eq!(health.get("workers").and_then(Json::as_u64), Some(2));
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert!(health.get("uptime_ms").and_then(Json::as_u64).is_some());
        assert_eq!(health.get("served_jobs").and_then(Json::as_u64), Some(1));

        let (r, _) = handle_line(r#"{"cmd":"ready"}"#, &shared);
        assert_eq!(r.get("ready").and_then(Json::as_bool), Some(true));

        // A second ask of the same job is a cache hit, not an execution.
        handle_line(&run_line(|j| j.seed = 3), &shared);
        let (r, _) = handle_line(r#"{"cmd":"stats"}"#, &shared);
        let stats = r.get("stats").expect("stats object");
        assert_eq!(stats.get("executed").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn stats_and_health_expose_uptime_and_served_jobs() {
        let shared = test_shared(test_engine());
        let (r, _) = handle_line(&run_line(|j| j.seed = 1), &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let (r, _) = handle_line(r#"{"cmd":"stats"}"#, &shared);
        let stats = r.get("stats").expect("stats object");
        assert_eq!(stats.get("served_jobs").and_then(Json::as_f64), Some(1.0));
        assert!(stats.get("uptime_ms").and_then(Json::as_f64).is_some());
        let (r, _) = handle_line(r#"{"cmd":"health"}"#, &shared);
        let health = r.get("health").expect("health object");
        assert_eq!(health.get("served_jobs").and_then(Json::as_f64), Some(1.0));
        assert!(health.get("uptime_ms").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn health_reports_ok_on_an_idle_engine() {
        let shared = test_shared(test_engine());
        let (r, stop) = handle_line(r#"{"cmd":"health"}"#, &shared);
        assert!(!stop);
        let health = r.get("health").expect("health object");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("workers").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            health.get("stalled_workers").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            health.get("max_connections").and_then(Json::as_f64),
            Some(64.0)
        );
    }

    #[test]
    fn health_degrades_and_ready_flips_when_a_worker_stalls() {
        let engine = engine_with(1, FaultPlan::none(), Duration::from_millis(250));
        let shared = shared_with(
            Arc::clone(&engine),
            ServerConfig {
                stall_threshold_ms: 50,
                ..ServerConfig::default()
            },
        );
        // Park the single worker in a slow job, then watch it trip the
        // 50 ms watchdog while still running.
        let bg = thread::spawn(move || engine.submit_one(&Job::sim(40.0, 750e6, 5e6)));
        std::thread::sleep(Duration::from_millis(150));
        let (r, _) = handle_line(r#"{"cmd":"health"}"#, &shared);
        let health = r.get("health").expect("health object");
        assert_eq!(
            health.get("status").and_then(Json::as_str),
            Some("degraded")
        );
        assert_eq!(
            health.get("stalled_workers").and_then(Json::as_f64),
            Some(1.0)
        );
        let (r, _) = handle_line(r#"{"cmd":"ready"}"#, &shared);
        assert_eq!(r.get("ready").and_then(Json::as_bool), Some(false));
        assert!(r
            .get("reason")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("stalled")));
        bg.join().unwrap().unwrap();
        // Recovered: back to ok/ready.
        std::thread::sleep(Duration::from_millis(20));
        let (r, _) = handle_line(r#"{"cmd":"health"}"#, &shared);
        assert_eq!(
            r.get("health")
                .and_then(|h| h.get("status"))
                .and_then(Json::as_str),
            Some("ok")
        );
        let (r, _) = handle_line(r#"{"cmd":"ready"}"#, &shared);
        assert_eq!(r.get("ready").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn ready_reports_connection_pressure() {
        let shared = shared_with(
            test_engine(),
            ServerConfig {
                max_connections: 2,
                ..ServerConfig::default()
            },
        );
        shared.active.store(2, Ordering::SeqCst);
        let (r, _) = handle_line(r#"{"cmd":"ready"}"#, &shared);
        assert_eq!(r.get("ready").and_then(Json::as_bool), Some(false));
        assert!(r
            .get("reason")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("connection limit")));
    }

    #[test]
    fn shedding_trips_on_queue_depth_and_reports_retry_after() {
        let shared = shared_with(
            test_engine(),
            ServerConfig {
                max_queue_per_worker: 1,
                ..ServerConfig::default()
            },
        );
        let admission = &shared.admission;
        // Fill the admission window by hand: 2 workers × 1 = 2 slots.
        let t1 = admission.admit(2, 0).unwrap();
        let _t2 = admission.admit(2, 0).unwrap();
        let shed = match admission.admit(2, 0) {
            Err(r) => r,
            Ok(_) => panic!("third request must be shed"),
        };
        assert_eq!(shed.get("busy").and_then(Json::as_bool), Some(true));
        assert_eq!(shed.get("shed").and_then(Json::as_bool), Some(true));
        // With no service samples yet the drain estimate (25 ms × 3 in
        // line ÷ 2 workers) clamps to the 50 ms floor.
        assert_eq!(
            shed.get("retry_after_ms").and_then(Json::as_u64),
            Some(50),
            "no samples: the floor of the clamp"
        );
        assert_eq!(admission.shed.load(Ordering::Relaxed), 1);
        // With every worker stalled, even an empty queue sheds.
        drop(t1);
        let stalled = admission.admit(2, 2);
        assert!(stalled.is_err(), "a fully stalled pool must shed");
        // Through the wire-level path the rejection reaches the client.
        let (r, _) = handle_line(&run_line(|j| j.seed = 1), &shared);
        assert_eq!(
            r.get("ok").and_then(Json::as_bool),
            Some(true),
            "one free slot admits the request: {}",
            r.to_text()
        );
    }

    #[test]
    fn health_reports_admission_counters() {
        let shared = test_shared(test_engine());
        // A fully stalled pool sheds even an empty queue.
        let workers = shared.engine.workers();
        shared.admission.admit(workers, workers).unwrap_err();
        let (r, _) = handle_line(r#"{"cmd":"health"}"#, &shared);
        let health = r.get("health").expect("health object");
        assert_eq!(health.get("queue_depth").and_then(Json::as_f64), Some(0.0));
        assert_eq!(health.get("shed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn client_and_deadline_keys_in_a_run_job_are_refused() {
        let shared = test_shared(test_engine());
        for (key, value) in [
            ("client", Json::Str("alice".into())),
            ("deadline_ms", Json::Num(60_000.0)),
        ] {
            let Json::Obj(mut fields) = Job::sim(40.0, 750e6, 5e6).to_json() else {
                unreachable!("a job is an object")
            };
            fields.push((key.into(), value));
            let (r, _) = handle_line(&run_frame(Json::Obj(fields)), &shared);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
            assert!(
                r.get("error")
                    .and_then(Json::as_str)
                    .is_some_and(|m| m.contains(&format!("unknown job field {key:?}"))),
                "{key} must be refused, not ignored: {}",
                r.to_text()
            );
        }
        assert_eq!(shared.engine.totals().jobs, 0);
    }

    #[test]
    fn connection_cap_rejects_with_structured_busy() {
        let engine = test_engine();
        let server = Server::bind_with(
            "127.0.0.1:0",
            engine,
            ServerConfig {
                max_connections: 1,
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run().unwrap());

        // First connection occupies the single slot.
        let mut first = TcpStream::connect(addr).unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        first.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        let mut pong = String::new();
        first_reader.read_line(&mut pong).unwrap();
        assert!(pong.contains("pong"), "slot holder must be served: {pong}");

        // Second connection is told why it was turned away, then closed.
        let second = TcpStream::connect(addr).unwrap();
        let mut line = String::new();
        BufReader::new(second).read_line(&mut line).unwrap();
        let busy = Json::parse(line.trim()).unwrap();
        assert_eq!(busy.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(busy.get("busy").and_then(Json::as_bool), Some(true));
        assert!(busy
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("busy")));

        // Free the slot, then shut down cleanly (retry while the server
        // notices the first connection closing).
        drop(first_reader);
        drop(first);
        let bye = loop {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            stream.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let response = Json::parse(line.trim()).unwrap();
            if response.get("busy").and_then(Json::as_bool) != Some(true) {
                break response;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(bye.get("bye").and_then(Json::as_bool), Some(true));
        handle.join().unwrap();
    }

    #[test]
    fn server_round_trips_over_tcp() {
        let engine = test_engine();
        let server = Server::bind_with(
            "127.0.0.1:0",
            engine,
            ServerConfig {
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = thread::spawn(move || server.run().unwrap());

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = |line: &str| -> Json {
            writeln!(stream, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            Json::parse(response.trim()).unwrap()
        };

        let pong = ask(r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        let report = ask(&run_line(|j| j.seed = 4));
        assert_eq!(
            report
                .get("report")
                .and_then(|r| r.get("sndr_db"))
                .and_then(Json::as_f64),
            Some(64.0)
        );
        let err = ask("{broken");
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        let stats = ask(r#"{"cmd":"stats"}"#);
        assert_eq!(
            stats
                .get("stats")
                .and_then(|s| s.get("jobs"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        let bye = ask(r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("bye").and_then(Json::as_bool), Some(true));
        handle.join().unwrap();
    }

    #[test]
    fn health_ready_and_stats_advertise_the_engine_fingerprint() {
        let shared = test_shared(test_engine());
        let ours = tdsigma_core::engine_fingerprint();
        let (r, _) = handle_line(r#"{"cmd":"health"}"#, &shared);
        assert_eq!(
            r.get("health")
                .and_then(|h| h.get("fingerprint"))
                .and_then(Json::as_str),
            Some(ours)
        );
        let (r, _) = handle_line(r#"{"cmd":"ready"}"#, &shared);
        assert_eq!(r.get("fingerprint").and_then(Json::as_str), Some(ours));
        let (r, _) = handle_line(r#"{"cmd":"stats"}"#, &shared);
        assert_eq!(
            r.get("stats")
                .and_then(|s| s.get("fingerprint"))
                .and_then(Json::as_str),
            Some(ours)
        );
        assert_eq!(
            r.get("stats")
                .and_then(|s| s.get("cache_rejected"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn retry_after_hint_is_clamped_to_sane_bounds() {
        let adm = Admission::new(&ServerConfig::default());
        // No service samples yet, empty queue, many live workers: the
        // raw estimate (25 ms / 64) would be sub-millisecond — the hint
        // floors at 50 ms so clients never hot-spin.
        assert_eq!(adm.retry_after_ms(64), 50);
        // Pathological backlog (120 s/job, 500 deep, one worker): the
        // raw estimate is a day — the hint caps at 30 s so a turned-away
        // peer still probes within a human attention span.
        adm.avg_service_us.store(120_000_000, Ordering::Relaxed);
        adm.inflight.store(500, Ordering::SeqCst);
        assert_eq!(adm.retry_after_ms(1), 30_000);
        // In between the hint is the backlog-drain estimate itself:
        // 1 s/job × (3+1) in line ÷ 2 workers = 2 s.
        adm.avg_service_us.store(1_000_000, Ordering::Relaxed);
        adm.inflight.store(3, Ordering::SeqCst);
        assert_eq!(adm.retry_after_ms(2), 2_000);
        // Zero live workers is treated as one, not a divide-by-zero.
        assert_eq!(adm.retry_after_ms(0), 4_000);
    }

    #[test]
    fn lying_backend_fault_perturbs_values_but_keeps_key_and_attestation() {
        let faults = FaultPlan {
            seed: 83,
            lying_backend_permille: 1000,
            ..FaultPlan::none()
        };
        let shared = test_shared(engine_with(2, faults, Duration::ZERO));
        let job = Job {
            seed: 5,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let (r, _) = handle_line(&run_frame(job.to_json()), &shared);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        let report_json = r.get("report").expect("report object");
        assert_eq!(
            report_json.get("key").and_then(Json::as_str),
            Some(job.key().as_str()),
            "a lying backend keeps the key intact — that is what makes it hard"
        );
        let sndr = report_json
            .get("sndr_db")
            .and_then(Json::as_f64)
            .expect("sndr_db");
        assert!(
            sndr >= 65.5,
            "the honest runner says 65.0; the lie adds at least 0.5 dB: {sndr}"
        );
        // The attestation is computed over the lying bytes, so it still
        // verifies — by design, wire attestation cannot catch a lying
        // backend; only redundant recomputation can.
        let report = JobReport::from_json(report_json).expect("parsable report");
        let expected = format!(
            "{:016x}",
            tdsigma_tech::fnv1a64(report.to_text().as_bytes(), crate::faults::ATTEST_BASIS)
        );
        assert_eq!(
            r.get("attest").and_then(Json::as_str),
            Some(expected.as_str())
        );
        assert!(tdsigma_obs::counter("serve.lying_backend_injected").get() >= 1);
    }
}
