//! Overload suite: the serve admission layer under fire.
//!
//! Three invariants, asserted against a real protocol server:
//!
//! 1. **Rejections are structured.** Under a request flood every
//!    response is either a full report or `{"ok":false,"busy":true,
//!    "retry_after_ms":N,…}` — never a hang, never an unparseable
//!    frame, never a silent drop.
//! 2. **Accepted means finished.** Any job the server admits produces a
//!    report byte-identical to an unloaded run; shedding changes *who*
//!    gets served, never *what* they are served.
//! 3. **Dispatch absorbs shedding.** A flooded backend slows the fleet
//!    down but does not trip circuit breakers or fail jobs — busy
//!    rejections become cooldowns, and every job still completes.
//!
//! Traffic shapes (slow-client stalls, floods) follow a fixed schedule,
//! so every run of the suite replays the same storm.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tdsigma_jobs::{
    DispatchConfig, Dispatcher, Engine, EngineConfig, Job, JobReport, Json, PoolConfig, Runner,
    Server, ServerConfig,
};

/// Runs `f` on a worker thread and panics if it does not finish within
/// `secs` — converting a would-be hang into a loud test failure.
fn with_deadline<T: Send + 'static>(
    label: &str,
    secs: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => value,
        Err(_) => panic!("{label}: exceeded the {secs} s wall-clock bound (hang?)"),
    }
}

/// A deterministic runner slow enough that a flood actually queues:
/// the report is a pure function of the job, the sleep is not in it.
fn slow_runner(ms: u64) -> Arc<Runner> {
    Arc::new(move |job: &Job| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(JobReport {
            key: job.key(),
            job: job.clone(),
            fin_hz: job.input_frequency_hz(),
            sndr_db: 50.0 + job.seed as f64,
            enob: 8.0 + job.seed as f64 / 100.0,
            power_mw: None,
            digital_fraction: None,
            area_mm2: None,
            fom_fj: None,
            timing_slack_ps: None,
        })
    })
}

fn grid(n: u64) -> Vec<Job> {
    (0..n)
        .map(|seed| {
            let mut job = Job::sim(40.0, 750e6, 5e6);
            job.seed = seed;
            job
        })
        .collect()
}

fn engine(workers: usize, job_ms: u64) -> Engine {
    Engine::with_runner(
        EngineConfig {
            pool: PoolConfig {
                workers,
                retries: 0,
                backoff_base_ms: 1,
                backoff_max_ms: 8,
            },
            cache_dir: None,
        },
        slow_runner(job_ms),
    )
    .expect("engine")
}

/// Baseline report bytes per job key, computed on an unloaded engine.
fn baseline(jobs: &[Job]) -> BTreeMap<String, String> {
    engine(4, 0)
        .run_batch(jobs)
        .results
        .iter()
        .map(|r| {
            let report = r.as_ref().expect("unloaded run succeeds");
            (report.key.clone(), report.to_text())
        })
        .collect()
}

/// Spawns a capped server; returns its address and the join handle.
fn spawn_server(engine: Engine, config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind_with("127.0.0.1:0", Arc::new(engine), config).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    (
        addr,
        std::thread::spawn(move || server.run().expect("serve")),
    )
}

fn shutdown(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    writeln!(stream, "{{\"cmd\":\"shutdown\"}}").expect("send shutdown");
    let mut line = String::new();
    let _ = BufReader::new(stream).read_line(&mut line);
}

/// One request/response exchange on a fresh connection. `stall_ms`
/// reproduces the slow-client fault: the frame arrives in two pieces
/// with a pause in between, exercising the server's partial-read path.
fn exchange(addr: &str, frame: &str, stall_ms: u64) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let bytes = frame.as_bytes();
    if stall_ms > 0 && bytes.len() > 8 {
        stream.write_all(&bytes[..8]).expect("send head");
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(stall_ms));
        stream.write_all(&bytes[8..]).expect("send tail");
    } else {
        stream.write_all(bytes).expect("send");
    }
    stream.write_all(b"\n").expect("send newline");
    stream.flush().unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read response");
    Json::parse(response.trim()).expect("every response must be well-formed JSON")
}

fn run_frame(job: &Job) -> String {
    Json::Obj(vec![
        ("cmd".into(), Json::Str("run".into())),
        ("job".into(), job.to_json()),
    ])
    .to_text()
}

/// What one flooded request produced: a report, a structured busy
/// rejection, or (a test failure) anything else.
enum Outcome {
    Report(String, String),
    Rejected { retry_after_ms: u64 },
}

fn classify(response: &Json) -> Outcome {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        let report = response.get("report").expect("ok response carries report");
        let report = JobReport::from_json(report).expect("report parses");
        return Outcome::Report(report.key.clone(), report.to_text());
    }
    assert_eq!(
        response.get("busy").and_then(Json::as_bool),
        Some(true),
        "a rejected valid job must be flagged busy: {}",
        response.to_text()
    );
    let retry_after_ms = response
        .get("retry_after_ms")
        .and_then(Json::as_u64)
        .expect("busy rejection must carry retry_after_ms");
    Outcome::Rejected { retry_after_ms }
}

/// The flood: more concurrent clients than queue slots. Every response is
/// a report or a structured busy frame; every admitted job's report is
/// byte-identical to the unloaded baseline; the admission queue drains
/// to zero afterwards (nothing leaked, nothing dropped).
#[test]
fn flood_rejections_are_structured_and_admitted_jobs_complete() {
    with_deadline("request flood", 120, || {
        let jobs = grid(6);
        let expected = baseline(&jobs);
        let (addr, handle) = spawn_server(
            engine(2, 15),
            ServerConfig {
                max_queue_per_worker: 2,
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        );

        // Six concurrent clients, each replaying the whole grid twice.
        let mut threads = Vec::new();
        for _ in 0..6 {
            let addr = addr.clone();
            let jobs = jobs.clone();
            threads.push(std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for _round in 0..2 {
                    for job in &jobs {
                        outcomes.push(classify(&exchange(&addr, &run_frame(job), 0)));
                    }
                }
                outcomes
            }));
        }

        let mut reports = 0usize;
        let mut rejections = 0usize;
        for thread in threads {
            for outcome in thread.join().expect("client thread") {
                match outcome {
                    Outcome::Report(key, text) => {
                        reports += 1;
                        assert_eq!(
                            Some(&text),
                            expected.get(&key),
                            "an admitted job must return unloaded-run bytes"
                        );
                    }
                    Outcome::Rejected { retry_after_ms } => {
                        rejections += 1;
                        assert!(
                            (1..=30_000).contains(&retry_after_ms),
                            "retry_after_ms must be a sane bound, got {retry_after_ms}"
                        );
                    }
                }
            }
        }
        assert!(reports > 0, "the server must admit some of the flood");
        assert!(
            rejections > 0,
            "a 6-client flood against 2 workers x 2 queue slots must shed \
             (saw {reports} reports, {rejections} rejections)"
        );

        // Quiesced: the admission queue is empty and the shed counter
        // surfaced through `health` matches what clients saw.
        let health = exchange(&addr, r#"{"cmd":"health"}"#, 0);
        let health = health.get("health").expect("health object");
        assert_eq!(
            health.get("queue_depth").and_then(Json::as_f64),
            Some(0.0),
            "admission queue must drain to zero after the flood"
        );
        assert_eq!(
            health.get("shed").and_then(Json::as_f64),
            Some(rejections as f64),
            "every rejection must be observable in the health shed counter"
        );

        shutdown(&addr);
        handle.join().expect("server thread");
    });
}

/// The chaos soak: traffic shaped by a fixed schedule — slow-client
/// stalls (frames split with a pause) and floods (bursts of duplicate
/// requests) — against a tightly capped server. Deterministic; every
/// admitted report is byte-identical to the baseline.
#[test]
fn overload_soak_is_bounded_and_byte_identical_under_chaos_traffic() {
    with_deadline("overload soak", 120, || {
        let jobs = grid(8);
        let expected = baseline(&jobs);
        let (addr, handle) = spawn_server(
            engine(2, 10),
            ServerConfig {
                max_queue_per_worker: 2,
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        );

        let mut threads = Vec::new();
        for c in 0..3usize {
            let addr = addr.clone();
            let jobs = jobs.clone();
            threads.push(std::thread::spawn(move || {
                let (mut stalls, mut floods) = (0u64, 0u64);
                let mut outcomes = Vec::new();
                for (i, job) in jobs.iter().enumerate() {
                    let index = (c * jobs.len() + i) as u64;
                    let frame = run_frame(job);
                    // Slow client: every fifth frame dribbles in.
                    let stall = if index % 5 == 1 { 2 } else { 0 };
                    stalls += u64::from(stall > 0);
                    // Flood: every seventh frame arrives in a burst of 4.
                    let burst = if index % 7 == 3 { 4 } else { 1 };
                    floods += u64::from(burst > 1);
                    for _ in 0..burst {
                        outcomes.push(classify(&exchange(&addr, &frame, stall)));
                    }
                }
                (outcomes, stalls, floods)
            }));
        }

        let (mut reports, mut rejections) = (0usize, 0usize);
        let (mut stalls, mut floods) = (0u64, 0u64);
        for thread in threads {
            let (outcomes, s, f) = thread.join().expect("soak thread");
            stalls += s;
            floods += f;
            for outcome in outcomes {
                match outcome {
                    Outcome::Report(key, text) => {
                        reports += 1;
                        assert_eq!(
                            Some(&text),
                            expected.get(&key),
                            "chaos traffic must never change an answer"
                        );
                    }
                    Outcome::Rejected { .. } => rejections += 1,
                }
            }
        }
        assert!(stalls > 0, "the schedule must stall at least one frame");
        assert!(floods > 0, "the schedule must flood at least one request");
        assert!(reports > 0, "the soak must get real work through");
        // Rejections are allowed but not required here — what matters
        // is that the queue stayed bounded and drained.
        let _ = rejections;

        let health = exchange(&addr, r#"{"cmd":"health"}"#, 0);
        let health = health.get("health").expect("health object");
        assert_eq!(
            health.get("queue_depth").and_then(Json::as_f64),
            Some(0.0),
            "bounded admission: the queue must be empty once traffic stops"
        );

        shutdown(&addr);
        handle.join().expect("server thread");
    });
}

/// A flooded backend must not look dead to the dispatcher: busy
/// rejections become cooldowns (never breaker strikes), and the batch
/// completes — on the backend once it drains, or locally meanwhile.
#[test]
fn dispatcher_rides_out_a_flooded_backend_without_tripping_breakers() {
    with_deadline("dispatch vs flood", 120, || {
        let jobs = grid(10);
        let expected = baseline(&jobs);
        let (addr, handle) = spawn_server(
            engine(1, 20),
            ServerConfig {
                max_queue_per_worker: 1,
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        );

        // Background flood keeps the backend saturated while the
        // dispatcher works.
        let flood_addr = addr.clone();
        let flood_jobs = jobs.clone();
        let flooder = std::thread::spawn(move || {
            for round in 0..4 {
                for job in &flood_jobs {
                    let _ = exchange(&flood_addr, &run_frame(job), 0);
                    let _ = round;
                }
            }
        });

        let config = DispatchConfig {
            backends: vec![addr.clone()],
            local_in_rotation: true,
            ..DispatchConfig::default()
        };
        let dispatcher = Dispatcher::new(&config, slow_runner(0));
        let batch = Engine::with_runner(
            EngineConfig {
                pool: PoolConfig {
                    workers: 4,
                    retries: 0,
                    ..PoolConfig::default()
                },
                cache_dir: None,
            },
            dispatcher.into_runner(),
        )
        .expect("dispatch engine")
        .run_batch(&jobs);

        assert_eq!(batch.results.len(), jobs.len(), "no job may vanish");
        for (i, result) in batch.results.iter().enumerate() {
            let report = result
                .as_ref()
                .unwrap_or_else(|e| panic!("job {i}: a flood must never fail a job ({e})"));
            assert_eq!(
                Some(&report.to_text()),
                expected.get(&report.key),
                "job {i}: bytes diverge under load"
            );
        }
        let summary = dispatcher.summary();
        let backend = &summary.backends[0];
        assert!(
            !backend.breaker_open,
            "busy rejections must never open the breaker: {summary}"
        );
        assert_eq!(
            backend.failed, 0,
            "shedding is not a backend failure: {summary}"
        );

        flooder.join().expect("flooder thread");
        shutdown(&addr);
        handle.join().expect("server thread");
    });
}
