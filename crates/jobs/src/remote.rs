//! Remote backend client: the dispatcher's side of the serve protocol.
//!
//! A [`RemoteClient`] speaks the [`crate::server`] line protocol to one
//! backend address: one connect attempt, one JSON request line out, one
//! JSON response line back, with explicit connect/read/write deadlines
//! so a dead or stalled peer costs a bounded amount of time — never a
//! hung sweep. There is no retry here: an unreachable peer is one
//! failure in the dispatcher's standing table, which decides when to
//! try it again.
//!
//! Jobs travel in their canonical Hz-units form (`{"cmd":"run","job":…}`,
//! see [`Job::to_json`]) so the backend computes the same content
//! address the dispatcher did; the client verifies `report.key` against
//! the job key on the way back, which catches a corrupt or misrouted
//! response frame before it can poison the local cache.
//!
//! Errors split into the two classes the failover policy needs
//! ([`RemoteError`]): `Backend` means *this peer* misbehaved (connect
//! refused, deadline missed, garbage frame) and the job deserves another
//! backend; `Job` means the job itself was rejected and would be
//! rejected identically everywhere, so failing over would only multiply
//! the error.
//!
//! No fault is injected here. Dropped, stalled and garbled exchanges are
//! tested against real peers on real sockets: the hostile listeners in
//! this module's tests, `serve` processes killed mid-sweep, and the
//! chaos suite's seeded hostile backend.

use crate::error::JobError;
use crate::job::Job;
use crate::json::Json;
use crate::report::JobReport;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Basis for the wire attestation crc64 computed by serve over the
/// canonical report text and re-verified by [`RemoteClient::run_job`].
/// Deliberately distinct from the cache artifact basis and the journal
/// envelope basis so an attestation can never be confused with either.
pub(crate) const ATTEST_BASIS: u64 = 0x7a30_9d4f_1bc8_55e1;

/// Deadlines for one backend connection.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// TCP connect deadline, ms.
    pub connect_timeout_ms: u64,
    /// Deadline for the response line, ms. Generous by default: a `run`
    /// request legitimately blocks while the backend executes the flow.
    pub read_timeout_ms: u64,
    /// Deadline for writing the request line, ms.
    pub write_timeout_ms: u64,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            connect_timeout_ms: 2_000,
            read_timeout_ms: 300_000,
            write_timeout_ms: 10_000,
        }
    }
}

/// Why a remote exchange failed — the distinction that drives failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The backend (or the network to it) failed: unreachable, deadline
    /// missed, connection dropped, malformed or misrouted response.
    /// The job is untainted — retry it on another backend or locally.
    Backend(String),
    /// The backend is healthy but full: it answered a structured
    /// overload rejection (`busy`, from shedding or the connection cap)
    /// with a computed
    /// `retry_after_ms`. Not a failure — the peer executed the protocol
    /// perfectly — so this must cool the backend down for the hinted
    /// interval rather than count as a strike against it.
    Busy {
        /// The rejection message (`shedding load: …`, `server busy: …`).
        message: String,
        /// The backend's own estimate of when to come back, ms.
        retry_after_ms: u64,
    },
    /// The backend executed the protocol correctly and rejected the job
    /// itself. Deterministic: every backend would answer the same, so
    /// this propagates to the caller instead of failing over.
    Job(JobError),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Backend(m) => write!(f, "backend error: {m}"),
            RemoteError::Busy {
                message,
                retry_after_ms,
            } => write!(
                f,
                "backend busy: {message} (retry after {retry_after_ms} ms)"
            ),
            RemoteError::Job(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// One backend's `health` answer, as the dispatcher consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendHealth {
    /// `"ok"` or `"degraded"` (a busy worker silent past the stall
    /// threshold).
    pub status: String,
    /// Worker threads in the backend's pool — the dispatcher sizes its
    /// in-flight budget from the fleet total.
    pub workers: usize,
    /// Milliseconds since the backend process bound its listener. A low
    /// number identifies a freshly restarted peer whose cache is cold.
    pub uptime_ms: u64,
    /// Jobs served since start; with `uptime_ms` this distinguishes a
    /// fresh restart from a long-lived backend at a glance.
    pub served_jobs: u64,
    /// The backend's engine fingerprint (see
    /// [`tdsigma_core::engine_fingerprint`]). Empty when the response
    /// carries none; anything different from the local value means its
    /// reports are not interchangeable with locally computed ones.
    pub fingerprint: String,
}

/// A client for one backend address. Cheap to clone; every exchange
/// opens a fresh connection, so a backend restart between two jobs is
/// invisible — there is no session state to lose.
#[derive(Debug, Clone)]
pub struct RemoteClient {
    addr: String,
    config: RemoteConfig,
}

impl RemoteClient {
    /// A client with explicit deadlines.
    pub fn with_config(addr: impl Into<String>, config: RemoteConfig) -> Self {
        RemoteClient {
            addr: addr.into(),
            config,
        }
    }

    /// The backend address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Executes `job` on the backend and returns its report.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Backend`] when the peer or network failed (retry
    /// elsewhere); [`RemoteError::Busy`] when the backend shed the
    /// request (cool down, then retry); [`RemoteError::Job`] when the
    /// backend rejected the job itself (deterministic — do not fail
    /// over).
    pub fn run_job(&self, job: &Job) -> Result<JobReport, RemoteError> {
        let key = job.key();
        let request = Json::Obj(vec![
            ("cmd".into(), Json::Str("run".into())),
            ("job".into(), job.to_json()),
        ]);
        let response = self.exchange(&request.to_text())?;
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(classify_protocol_error(&response));
        }
        let report_json = response
            .get("report")
            .ok_or_else(|| RemoteError::Backend("response missing \"report\"".into()))?;
        let report = JobReport::from_json(report_json)
            .map_err(|e| RemoteError::Backend(format!("unparseable report: {e}")))?;
        // A report for the wrong job means the frame was corrupted or
        // misrouted in transit; caching it would poison the store, so it
        // is rejected here where the job key is still in hand.
        if report.key != key {
            return Err(RemoteError::Backend(format!(
                "report key {} does not match job key {key}",
                report.key
            )));
        }
        // Wire attestation: the backend hashed the canonical report text
        // it sent; recomputing over the parsed report proves the payload
        // survived transit *and* re-serialization byte-for-byte. Every
        // admitted backend attests (the fingerprint excludes any binary
        // that predates it), so a missing attestation is as corrupt as a
        // wrong one.
        let ours = format!(
            "{:016x}",
            tdsigma_tech::fnv1a64(report.to_text().as_bytes(), ATTEST_BASIS)
        );
        match response.get("attest").and_then(Json::as_str) {
            Some(claimed) if claimed == ours => Ok(report),
            Some(claimed) => Err(RemoteError::Backend(format!(
                "report attestation {claimed} does not match recomputed {ours}"
            ))),
            None => Err(RemoteError::Backend("response missing \"attest\"".into())),
        }
    }

    /// Health-checks the backend via the `health` op.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Backend`] when the peer is unreachable or answers
    /// garbage — exactly the condition a strike should count.
    pub fn health(&self) -> Result<BackendHealth, RemoteError> {
        let response = self.exchange(r#"{"cmd":"health"}"#)?;
        let health = response
            .get("health")
            .ok_or_else(|| RemoteError::Backend("health response missing \"health\"".into()))?;
        let num = |k: &str| -> u64 {
            health.get(k).and_then(Json::as_f64).unwrap_or(0.0).max(0.0) as u64
        };
        Ok(BackendHealth {
            status: health
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            workers: num("workers") as usize,
            uptime_ms: num("uptime_ms"),
            served_jobs: num("served_jobs"),
            fingerprint: health
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }

    /// One request/response exchange on a fresh connection.
    fn exchange(&self, line: &str) -> Result<Json, RemoteError> {
        let stream = self.connect()?;
        let backend = |e: &std::io::Error, what: &str| {
            RemoteError::Backend(format!("{what} {}: {e}", self.addr))
        };
        let mut writer = stream
            .try_clone()
            .map_err(|e| backend(&e, "cloning stream to"))?;
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| backend(&e, "writing request to"))?;
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .map_err(|e| backend(&e, "reading response from"))?;
        if response.is_empty() {
            return Err(RemoteError::Backend(format!(
                "{} closed the connection without responding",
                self.addr
            )));
        }
        Json::parse(response.trim()).map_err(|e| {
            RemoteError::Backend(format!("malformed response from {}: {e}", self.addr))
        })
    }

    /// Connects once, under the connect deadline, and arms the read and
    /// write deadlines.
    fn connect(&self) -> Result<TcpStream, RemoteError> {
        let unreachable =
            |e: String| RemoteError::Backend(format!("{} unreachable: {e}", self.addr));
        let timeout = Duration::from_millis(self.config.connect_timeout_ms.max(1));
        let addrs = self
            .addr
            .to_socket_addrs()
            .map_err(|e| unreachable(format!("cannot resolve: {e}")))?;
        let mut last = String::from("no addresses resolved");
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    let deadline = |ms: u64| Some(Duration::from_millis(ms.max(1)));
                    stream
                        .set_read_timeout(deadline(self.config.read_timeout_ms))
                        .and_then(|()| {
                            stream.set_write_timeout(deadline(self.config.write_timeout_ms))
                        })
                        .map_err(|e| unreachable(e.to_string()))?;
                    return Ok(stream);
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(unreachable(last))
    }
}

/// Classifies a `{"ok":false,…}` protocol answer. A `busy` rejection is
/// a healthy-but-full backend (cool it down for `retry_after_ms`);
/// infrastructure-flavored messages are the backend's problem; a
/// validation rejection is the job's own and must not fail over.
fn classify_protocol_error(response: &Json) -> RemoteError {
    let message = response
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("backend answered ok=false with no error message")
        .to_string();
    if response.get("busy").and_then(Json::as_bool) == Some(true) {
        return RemoteError::Busy {
            message,
            retry_after_ms: response
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(250),
        };
    }
    if message.starts_with("invalid job:") {
        return RemoteError::Job(JobError::Invalid(
            message
                .strip_prefix("invalid job:")
                .unwrap_or(&message)
                .trim()
                .to_string(),
        ));
    }
    RemoteError::Backend(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::pool::{PoolConfig, Runner};
    use crate::server::{Server, ServerConfig};
    use std::sync::Arc;

    fn test_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let runner: Arc<Runner> = Arc::new(|job: &Job| {
            if job.node_nm == 13.0 {
                return Err(JobError::Invalid("unsupported node".into()));
            }
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
        let engine = Arc::new(
            Engine::with_runner(
                EngineConfig {
                    pool: PoolConfig {
                        workers: 2,
                        retries: 0,
                        ..PoolConfig::default()
                    },
                    cache_dir: None,
                },
                runner,
            )
            .unwrap(),
        );
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
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn shutdown(addr: std::net::SocketAddr) {
        let client = fast_client(addr);
        let _ = client.exchange(r#"{"cmd":"shutdown"}"#);
    }

    #[test]
    fn run_job_round_trips_and_verifies_the_key() {
        let (addr, handle) = test_server();
        let client = fast_client(addr);
        let job = Job {
            seed: 3,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let report = client.run_job(&job).expect("remote run");
        assert_eq!(report.key, job.key());
        assert_eq!(report.sndr_db, 63.0);
        let health = client.health().expect("health");
        assert_eq!(health.status, "ok");
        assert_eq!(health.workers, 2);
        assert_eq!(health.served_jobs, 1);
        assert_eq!(
            health.fingerprint,
            tdsigma_core::engine_fingerprint(),
            "an in-process backend advertises this process's fingerprint"
        );
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn job_rejection_is_not_a_backend_failure() {
        let (addr, handle) = test_server();
        let client = fast_client(addr);
        let bad = Job::sim(13.0, 750e6, 5e6);
        match client.run_job(&bad) {
            Err(RemoteError::Job(JobError::Failed { .. } | JobError::Invalid(_))) => {}
            other => panic!("expected a job-class error, got {other:?}"),
        }
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn unreachable_backend_is_a_backend_error() {
        // A port from the ephemeral range with nothing bound: connect
        // must fail fast (bounded by the timeout), not hang.
        let client = RemoteClient::with_config(
            "127.0.0.1:9",
            RemoteConfig {
                connect_timeout_ms: 200,
                ..RemoteConfig::default()
            },
        );
        match client.run_job(&Job::sim(40.0, 750e6, 5e6)) {
            Err(RemoteError::Backend(m)) => assert!(m.contains("unreachable"), "{m}"),
            other => panic!("expected Backend error, got {other:?}"),
        }
    }

    /// A hostile "backend" for wire-level edge cases: accepts one
    /// connection, reads the request line, then runs `script` against
    /// the raw socket (write a partial frame, stall, hang up…).
    fn hostile_backend(
        script: impl FnOnce(std::net::TcpStream) + Send + 'static,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let _ = reader.read_line(&mut line);
            script(stream);
        });
        (addr, handle)
    }

    fn fast_client(addr: std::net::SocketAddr) -> RemoteClient {
        RemoteClient::with_config(
            addr.to_string(),
            RemoteConfig {
                read_timeout_ms: 300,
                ..RemoteConfig::default()
            },
        )
    }

    #[test]
    fn short_frame_without_newline_is_a_backend_error() {
        // The peer sends half a response frame and closes: no newline
        // ever arrives, read_line returns the fragment, and parsing the
        // truncated JSON must be classified Backend (retry elsewhere).
        let (addr, handle) = hostile_backend(|mut stream| {
            let _ = stream.write_all(br#"{"ok":true,"repo"#);
            // dropping the stream closes it mid-frame
        });
        match fast_client(addr).run_job(&Job::sim(40.0, 750e6, 5e6)) {
            Err(RemoteError::Backend(m)) => {
                assert!(m.contains("malformed"), "short frame must fail parse: {m}");
            }
            other => panic!("expected Backend error, got {other:?}"),
        }
        handle.join().unwrap();
    }

    #[test]
    fn empty_close_without_response_is_a_backend_error() {
        let (addr, handle) = hostile_backend(drop);
        match fast_client(addr).run_job(&Job::sim(40.0, 750e6, 5e6)) {
            Err(RemoteError::Backend(m)) => {
                assert!(m.contains("without responding"), "{m}");
            }
            other => panic!("expected Backend error, got {other:?}"),
        }
        handle.join().unwrap();
    }

    #[test]
    fn mid_frame_stall_hits_the_read_deadline() {
        // The peer writes half a frame then goes silent far past the
        // client's read deadline: the exchange must fail in bounded time
        // with a Backend-class error, never hang the dispatcher.
        let (addr, handle) = hostile_backend(|mut stream| {
            let _ = stream.write_all(br#"{"ok":true,"#);
            let _ = stream.flush();
            std::thread::sleep(Duration::from_millis(2_000));
        });
        let started = std::time::Instant::now();
        match fast_client(addr).run_job(&Job::sim(40.0, 750e6, 5e6)) {
            Err(RemoteError::Backend(m)) => {
                assert!(
                    m.contains("reading response") || m.contains("malformed"),
                    "stall must surface as a read failure: {m}"
                );
            }
            other => panic!("expected Backend error, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_millis(1_500),
            "a mid-frame stall must be bounded by the read deadline, took {:?}",
            started.elapsed()
        );
        handle.join().unwrap();
    }

    /// The report the hostile backends below claim to have computed.
    fn test_report(job: &Job, sndr_db: f64) -> JobReport {
        JobReport {
            key: job.key(),
            job: job.clone(),
            fin_hz: job.input_frequency_hz(),
            sndr_db,
            enob: 9.7,
            power_mw: None,
            digital_fraction: None,
            area_mm2: None,
            fom_fj: None,
            timing_slack_ps: None,
        }
    }

    /// The attestation serve computes for `report`.
    fn attestation(report: &JobReport) -> String {
        format!(
            "{:016x}",
            tdsigma_tech::fnv1a64(report.to_text().as_bytes(), ATTEST_BASIS)
        )
    }

    /// One valid `{"ok":true,"report":...}` response line for `job`,
    /// with an optional attestation sibling.
    fn report_response_line(job: &Job, sndr_db: f64, attest: Option<&str>) -> String {
        let mut fields = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("report".to_string(), test_report(job, sndr_db).to_json()),
        ];
        if let Some(attest) = attest {
            fields.push(("attest".to_string(), Json::Str(attest.to_string())));
        }
        let mut line = Json::Obj(fields).to_text();
        line.push('\n');
        line
    }

    #[test]
    fn frame_split_across_many_writes_still_assembles() {
        // The converse case: a slow-but-live peer dribbling one valid
        // frame in many small writes must still be understood.
        let job = Job::sim(40.0, 750e6, 5e6);
        let attest = attestation(&test_report(&job, 61.0));
        let report_line = report_response_line(&job, 61.0, Some(&attest));
        let (addr, handle) = hostile_backend(move |mut stream| {
            for chunk in report_line.as_bytes().chunks(7) {
                let _ = stream.write_all(chunk);
                let _ = stream.flush();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let report = fast_client(addr)
            .run_job(&job)
            .expect("dribbled frame must assemble");
        assert_eq!(report.sndr_db, 61.0);
        handle.join().unwrap();
    }

    #[test]
    fn mismatched_attestation_is_a_backend_error() {
        // A wrong sibling means the payload was corrupted after the
        // backend summed it (or the backend is broken). An absent one —
        // or one whose key a bit flip garbled — proves nothing, and every
        // admitted backend attests. All are backend-class, so failover
        // takes over instead of caching an unchecked report.
        let job = Job {
            seed: 4,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let good = attestation(&test_report(&job, 64.0));
        let cases = [
            (
                report_response_line(&job, 64.0, Some("deadbeefdeadbeef")),
                "deadbeefdeadbeef",
            ),
            (report_response_line(&job, 64.0, None), "missing"),
            (
                report_response_line(&job, 64.0, Some(&good)).replace("\"attest\"", "\"attesu\""),
                "missing",
            ),
        ];
        for (line, needle) in cases {
            let (addr, handle) = hostile_backend(move |mut stream| {
                let _ = stream.write_all(line.as_bytes());
            });
            match fast_client(addr).run_job(&job) {
                Err(RemoteError::Backend(m)) => {
                    assert!(m.contains("attest"), "{m}");
                    assert!(m.contains(needle), "{m}");
                }
                other => panic!("expected an attestation failure, got {other:?}"),
            }
            handle.join().unwrap();
        }
    }

    #[test]
    fn self_computed_attestation_round_trips() {
        // A frame whose sibling is computed exactly the way serve does
        // it must verify — this pins the client and server to the same
        // bytes (canonical report text) and the same basis.
        let job = Job {
            seed: 4,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let attest = attestation(&test_report(&job, 64.0));
        let line = report_response_line(&job, 64.0, Some(&attest));
        let (addr, handle) = hostile_backend(move |mut stream| {
            let _ = stream.write_all(line.as_bytes());
        });
        let got = fast_client(addr).run_job(&job).expect("attested frame");
        assert_eq!(got.sndr_db, 64.0);
        handle.join().unwrap();
    }

    #[test]
    fn fuzzed_response_frames_fail_as_backend_errors_in_bounded_time() {
        // Seeded damage to one valid attested frame: a cut, a flipped
        // byte (invalid UTF-8 included), a duplicated frame, a stray
        // newline, or nothing at all. Every exchange ends within the
        // read deadline; it may succeed only with the original report.
        let job = Job {
            seed: 6,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        let original = test_report(&job, 66.0).to_text();
        let attest = attestation(&test_report(&job, 66.0));
        let frame = report_response_line(&job, 66.0, Some(&attest)).into_bytes();
        let mut rng = tdsigma_tech::Rng64::seed_from_u64(0xf4a3e);
        let (mut tried, mut refused) = (0, 0);
        while tried < 200 {
            let mut bytes = frame.clone();
            match rng.gen_range(5) {
                0 => bytes.truncate(rng.gen_range(frame.len())),
                1 => bytes[rng.gen_range(frame.len())] ^= 1 + rng.gen_range(255) as u8,
                2 => bytes.extend_from_slice(&frame),
                3 => bytes.insert(rng.gen_range(frame.len()), b'\n'),
                _ => bytes.clear(),
            }
            if bytes == frame {
                continue;
            }
            tried += 1;
            let (addr, handle) = hostile_backend(move |mut stream| {
                let _ = stream.write_all(&bytes);
            });
            let client = fast_client(addr);
            let started = std::time::Instant::now();
            match client.run_job(&job) {
                Ok(report) => assert_eq!(report.to_text(), original),
                Err(RemoteError::Backend(_)) => refused += 1,
                Err(other) => panic!("damage must be backend-class, got {other:?}"),
            }
            assert!(
                started.elapsed() < Duration::from_millis(client.config.read_timeout_ms),
                "took {:?}",
                started.elapsed()
            );
            handle.join().unwrap();
        }
        assert!(
            refused > tried / 2,
            "most damage must be refused: {refused}"
        );
    }

    #[test]
    fn busy_rejection_classifies_with_retry_hint() {
        let (addr, handle) = hostile_backend(|mut stream| {
            let _ = stream.write_all(
                b"{\"ok\":false,\"error\":\"shedding load: 9 request(s) in flight (limit 8)\",\
                  \"busy\":true,\"retry_after_ms\":450,\"shed\":true}\n",
            );
        });
        match fast_client(addr).run_job(&Job::sim(40.0, 750e6, 5e6)) {
            Err(RemoteError::Busy {
                message,
                retry_after_ms,
            }) => {
                assert!(message.contains("shedding"), "{message}");
                assert_eq!(retry_after_ms, 450);
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        handle.join().unwrap();
    }
}
