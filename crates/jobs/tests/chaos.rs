//! Chaos suite: the engine's resilience invariant under deterministic
//! fault injection.
//!
//! The headline invariant, asserted for every fault seed: a batch run
//! under an arbitrary [`FaultPlan`] either
//!
//! 1. completes with reports **bit-identical** to the fault-free run, or
//! 2. fails **loudly** with a structured [`JobError`] —
//!
//! and in both cases it does so **within a wall-clock bound**: it never
//! hangs, never silently drops a job, and never poisons the cache (a
//! corrupted artifact is rejected and recomputed, not served and not
//! fatal).
//!
//! Every test body runs under [`with_deadline`] so a regression that
//! introduces a hang fails the suite instead of stalling it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdsigma_jobs::{
    Engine, EngineConfig, FaultPlan, Job, JobError, JobReport, Json, PoolConfig, Runner, Server,
    ServerConfig,
};

/// The fault seeds the suite sweeps. CI runs exactly this fixed set so a
/// failure is reproducible by seed.
const CHAOS_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

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

/// A fast deterministic runner: the report is a pure function of the
/// job, so fault-free output is trivially reproducible and any
/// scheduling artifact would show up as a byte diff.
fn fake_runner() -> Arc<Runner> {
    Arc::new(|job: &Job| {
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

fn grid() -> Vec<Job> {
    (0..12u64)
        .map(|seed| {
            let mut job = Job::sim(40.0, 750e6, 5e6);
            job.seed = seed;
            job
        })
        .collect()
}

fn engine(faults: FaultPlan, retries: u32, cache_dir: Option<PathBuf>) -> Engine {
    Engine::with_runner(
        EngineConfig {
            pool: PoolConfig {
                workers: 4,
                retries,
                backoff_base_ms: 1,
                backoff_max_ms: 8,
            },
            cache_dir,
            faults,
        },
        fake_runner(),
    )
    .expect("engine")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdsigma_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Is this error one of the engine's defined failure modes (as opposed
/// to a panic, a hang, or a silently missing slot)?
fn is_structured(e: &JobError) -> bool {
    matches!(
        e,
        JobError::Invalid(_)
            | JobError::Failed { .. }
            | JobError::Transient(_)
            | JobError::Canceled
            | JobError::PoolClosed
            | JobError::Io { .. }
    ) && !e.to_string().is_empty()
}

#[test]
fn every_fault_seed_matches_fault_free_or_fails_structured() {
    with_deadline("chaos seed sweep", 120, || {
        let jobs = grid();
        let baseline: Vec<String> = engine(FaultPlan::none(), 0, None)
            .run_batch(&jobs)
            .results
            .iter()
            .map(|r| r.as_ref().expect("fault-free run succeeds").to_text())
            .collect();

        let mut total_faults = 0usize;
        let mut recovered = 0usize;
        for seed in CHAOS_SEEDS {
            let chaotic = engine(FaultPlan::chaos(seed), 3, None);
            let batch = chaotic.run_batch(&jobs);
            assert_eq!(batch.results.len(), jobs.len(), "seed {seed}: dropped jobs");
            for (i, result) in batch.results.iter().enumerate() {
                match result {
                    Ok(report) => {
                        assert_eq!(
                            report.to_text(),
                            baseline[i],
                            "seed {seed}, job {i}: recovery must be bit-identical"
                        );
                        recovered += 1;
                    }
                    Err(e) => assert!(
                        is_structured(e),
                        "seed {seed}, job {i}: unstructured error {e:?}"
                    ),
                }
            }
            total_faults += batch.metrics.faults_injected;
        }
        assert!(
            total_faults > 20,
            "the chaos plans must actually fire (saw {total_faults} faults)"
        );
        assert!(
            recovered > CHAOS_SEEDS.len() * grid().len() / 2,
            "retries should recover most jobs (recovered {recovered})"
        );
    });
}

#[test]
fn chaos_is_deterministic_per_seed() {
    with_deadline("chaos determinism", 60, || {
        let jobs = grid();
        let run = |seed: u64| -> Vec<Result<String, String>> {
            engine(FaultPlan::chaos(seed), 2, None)
                .run_batch(&jobs)
                .results
                .iter()
                .map(|r| match r {
                    Ok(report) => Ok(report.to_text()),
                    Err(e) => Err(e.to_string()),
                })
                .collect()
        };
        assert_eq!(run(13), run(13), "same seed, same outcomes — exactly");
    });
}

#[test]
fn corrupted_disk_cache_is_rejected_recomputed_and_stays_bit_identical() {
    with_deadline("cache rejection", 60, || {
        let dir = temp_dir("reject");
        let jobs = grid();
        let baseline: Vec<String> = engine(FaultPlan::none(), 0, Some(dir.clone()))
            .run_batch(&jobs)
            .results
            .iter()
            .map(|r| r.as_ref().expect("cold run succeeds").to_text())
            .collect();

        // Vandalize three artifacts three different ways.
        let damaged: Vec<PathBuf> = jobs[..3]
            .iter()
            .map(|job| dir.join(format!("{}.json", job.key())))
            .collect();
        let text = std::fs::read_to_string(&damaged[0]).unwrap();
        std::fs::write(&damaged[0], &text[..text.len() / 2]).unwrap(); // truncated
        std::fs::write(&damaged[1], "not json at all\n").unwrap(); // replaced
        let text = std::fs::read_to_string(&damaged[2]).unwrap();
        std::fs::write(&damaged[2], text.replacen("50", "51", 1)).unwrap(); // bit-flipped

        let fresh = engine(FaultPlan::none(), 0, Some(dir.clone()));
        let batch = fresh.run_batch(&jobs);
        let texts: Vec<String> = batch
            .results
            .iter()
            .map(|r| r.as_ref().expect("recomputation succeeds").to_text())
            .collect();
        assert_eq!(texts, baseline, "corruption must never change answers");
        assert_eq!(batch.metrics.cache_rejected, 3, "{:?}", batch.metrics);
        assert_eq!(batch.metrics.executed, 3, "exactly the damaged jobs rerun");
        assert_eq!(batch.metrics.cache_hits, jobs.len() - 3);
        for (job, path) in jobs.iter().zip(&damaged) {
            let parked = dir
                .join("rejected")
                .join(format!("{}.corrupt.json", job.key()));
            assert!(
                parked.exists(),
                "damaged artifact must be moved aside tagged corrupt, not deleted silently"
            );
            assert!(path.exists(), "recomputed artifact must be re-filed");
        }
        let rejected = std::fs::read_dir(dir.join("rejected")).unwrap().count();
        assert_eq!(rejected, 3, "exactly the damaged artifacts are rejected");

        // A third engine sees a fully healed store: zero rejections,
        // zero executions — the rejected files are never read back.
        let healed = engine(FaultPlan::none(), 0, Some(dir.clone()));
        let replay = healed.run_batch(&jobs);
        assert_eq!(replay.metrics.cache_rejected, 0);
        assert_eq!(replay.metrics.executed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn injected_write_corruption_cannot_poison_a_later_run() {
    with_deadline("write corruption", 60, || {
        let dir = temp_dir("poison");
        let jobs = grid();
        let baseline: Vec<String> = engine(FaultPlan::none(), 0, None)
            .run_batch(&jobs)
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().to_text())
            .collect();

        // A chaotic engine writes the cache; some artifacts land corrupt.
        let corruptor = FaultPlan {
            seed: 99,
            corrupt_artifact_permille: 400,
            ..FaultPlan::default()
        };
        engine(corruptor, 0, Some(dir.clone())).run_batch(&jobs);

        // A clean engine on the same store must reproduce the baseline:
        // corrupt artifacts are rejected + recomputed, intact ones hit.
        let clean = engine(FaultPlan::none(), 0, Some(dir.clone()));
        let batch = clean.run_batch(&jobs);
        let texts: Vec<String> = batch
            .results
            .iter()
            .map(|r| r.as_ref().expect("clean run succeeds").to_text())
            .collect();
        assert_eq!(texts, baseline, "a poisoned store must never alter results");
        assert!(
            batch.metrics.cache_rejected > 0,
            "a 40% corruption rate over 12 artifacts should hit at least one"
        );
        assert_eq!(
            batch.metrics.cache_rejected + batch.metrics.cache_hits,
            jobs.len(),
            "every job is either a hit or a rejection+recompute"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn serve_disconnects_idle_connections_and_stays_up() {
    with_deadline("idle timeout", 60, || {
        let server = Server::bind_with(
            "127.0.0.1:0",
            Arc::new(engine(FaultPlan::none(), 0, None)),
            ServerConfig {
                idle_timeout_ms: 150,
                max_line_bytes: 4096,
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run().expect("serve"));

        // A client that connects and sends nothing must be disconnected
        // by the idle timeout — not pin a server thread forever.
        let idle = TcpStream::connect(addr).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let started = Instant::now();
        let n = BufReader::new(idle)
            .read_line(&mut String::new())
            .expect("read");
        assert_eq!(n, 0, "server must close the idle connection (EOF)");
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "disconnect should come from the timeout, not instantly"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "idle disconnect must be prompt"
        );

        // A stalled frame (bytes but no newline, then silence) is
        // disconnected the same way.
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled.write_all(b"{\"cmd\":\"pi").expect("partial frame");
        stalled.flush().unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let n = BufReader::new(stalled)
            .read_line(&mut String::new())
            .expect("read");
        assert_eq!(n, 0, "server must drop a stalled frame");

        // The server is still healthy afterwards.
        let mut live = TcpStream::connect(addr).expect("connect");
        writeln!(live, "{{\"cmd\":\"ping\"}}").unwrap();
        let mut response = String::new();
        BufReader::new(live.try_clone().unwrap())
            .read_line(&mut response)
            .unwrap();
        let v = Json::parse(response.trim()).expect("well-formed");
        assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));

        writeln!(live, "{{\"cmd\":\"shutdown\"}}").unwrap();
        handle.join().expect("server thread");
    });
}

#[test]
fn serve_bounds_frame_length_and_survives_hostile_frames() {
    with_deadline("hostile frames", 60, || {
        let server = Server::bind_with(
            "127.0.0.1:0",
            Arc::new(engine(FaultPlan::none(), 0, None)),
            ServerConfig {
                idle_timeout_ms: 2_000,
                max_line_bytes: 1024,
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run().expect("serve"));

        // An oversized frame gets a structured complaint, then the
        // connection closes — bounded memory, no hang.
        let mut big = TcpStream::connect(addr).expect("connect");
        let huge = "x".repeat(1 << 20);
        // The server may hang up mid-send; that's a pass, not a failure.
        let _ = big.write_all(huge.as_bytes());
        let _ = big.write_all(b"\n");
        let mut response = String::new();
        big.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        if BufReader::new(big).read_line(&mut response).unwrap_or(0) > 0 {
            let v = Json::parse(response.trim()).expect("well-formed error");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
            assert!(
                v.get("error")
                    .and_then(Json::as_str)
                    .is_some_and(|m| m.contains("exceeds")),
                "{response}"
            );
        }

        // A fixed barrage of garbled and stalled frames between pings:
        // every one gets either a structured JSON error or a clean
        // disconnect.
        const GARBAGE: [&str; 3] = [
            "{\"cmd\":",                    // truncated JSON
            "\u{1}\u{2}binary\u{3}garbage", // non-JSON bytes
            "[1,2,",                        // unterminated array
        ];
        let mut garbled = 0;
        let mut stalled = 0;
        for i in 0..24usize {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            match i % 4 {
                0 => {
                    garbled += 1;
                    writeln!(stream, "{}", GARBAGE[i / 4 % 3]).expect("send");
                    let mut response = String::new();
                    let n = BufReader::new(stream)
                        .read_line(&mut response)
                        .expect("read");
                    if n > 0 {
                        let v = Json::parse(response.trim()).expect("well-formed error");
                        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
                    }
                }
                1 => {
                    stalled += 1;
                    stream.write_all(b"{\"cmd\"").expect("send prefix");
                    std::thread::sleep(Duration::from_millis(5));
                    drop(stream); // hang up mid-frame
                }
                _ => {
                    writeln!(stream, "{{\"cmd\":\"ping\"}}").expect("send");
                    let mut response = String::new();
                    BufReader::new(stream)
                        .read_line(&mut response)
                        .expect("read");
                    let v = Json::parse(response.trim()).expect("well-formed");
                    assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));
                }
            }
        }
        assert!(garbled > 0, "the barrage must have garbled some frames");
        assert!(stalled > 0, "the barrage must have stalled some frames");

        // Still standing: stats answers, then drain.
        let mut live = TcpStream::connect(addr).expect("connect");
        writeln!(live, "{{\"cmd\":\"stats\"}}").unwrap();
        let mut response = String::new();
        BufReader::new(live.try_clone().unwrap())
            .read_line(&mut response)
            .unwrap();
        let v = Json::parse(response.trim()).expect("well-formed");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        writeln!(live, "{{\"cmd\":\"shutdown\"}}").unwrap();
        handle.join().expect("server thread");
    });
}

#[test]
fn drain_under_chaos_cancels_queued_and_closes_cleanly() {
    with_deadline("drain", 60, || {
        let slow: Arc<Runner> = Arc::new(|job: &Job| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(JobReport {
                key: job.key(),
                job: job.clone(),
                fin_hz: 1e6,
                sndr_db: 60.0,
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
                        workers: 1,
                        retries: 1,
                        backoff_base_ms: 1,
                        ..PoolConfig::default()
                    },
                    cache_dir: None,
                    faults: FaultPlan {
                        seed: 3,
                        transient_permille: 200,
                        ..FaultPlan::default()
                    },
                },
                slow,
            )
            .unwrap(),
        );
        let runner_engine = Arc::clone(&engine);
        let jobs = grid();
        let batch = std::thread::spawn(move || runner_engine.run_batch(&jobs));
        std::thread::sleep(Duration::from_millis(25));
        engine.shutdown(); // graceful drain mid-batch

        let batch = batch.join().expect("batch thread");
        assert_eq!(batch.results.len(), grid().len(), "no job may vanish");
        let canceled = batch.metrics.canceled;
        let finished = batch.results.iter().filter(|r| r.is_ok()).count();
        assert!(finished > 0, "in-flight work must be allowed to finish");
        assert!(canceled > 0, "queued work must drain as canceled");
        for result in &batch.results {
            if let Err(e) = result {
                assert!(is_structured(e), "unstructured drain error: {e:?}");
            }
        }
        // After drain the engine refuses politely instead of hanging.
        let mut job = Job::sim(40.0, 750e6, 5e6);
        job.seed = 777;
        match engine.submit_one(&job) {
            Err(JobError::PoolClosed) => {}
            other => panic!("expected PoolClosed after drain, got {other:?}"),
        }
    });
}

/// Network chaos over the distributed dispatcher: with connection
/// drops, stalls and corrupt response frames injected at the dispatch
/// layer, every job must still produce bytes identical to the
/// fault-free run — failover, circuit breakers and the local fallback
/// absorb the damage without changing a single report.
#[test]
fn network_chaos_dispatch_reproduces_fault_free_bytes() {
    use tdsigma_jobs::{DispatchConfig, Dispatcher};
    with_deadline("network chaos dispatch", 120, || {
        let jobs = grid();
        let baseline: Vec<String> = engine(FaultPlan::none(), 0, None)
            .run_batch(&jobs)
            .results
            .iter()
            .map(|r| r.as_ref().expect("fault-free run succeeds").to_text())
            .collect();

        // Two real protocol servers over the same deterministic runner.
        let spawn = || {
            let server = Server::bind_with(
                "127.0.0.1:0",
                Arc::new(engine(FaultPlan::none(), 0, None)),
                ServerConfig {
                    allow_remote_shutdown: true,
                    ..ServerConfig::default()
                },
            )
            .expect("bind");
            let addr = server.local_addr().expect("addr");
            (
                addr,
                std::thread::spawn(move || server.run().expect("serve")),
            )
        };
        let (addr_a, handle_a) = spawn();
        let (addr_b, handle_b) = spawn();

        for seed in CHAOS_SEEDS {
            let config = DispatchConfig {
                backends: vec![addr_a.to_string(), addr_b.to_string()],
                faults: FaultPlan::chaos(seed),
                ..DispatchConfig::default()
            };
            let dispatcher = Dispatcher::new(&config, fake_runner());
            let batch = Engine::with_runner(
                EngineConfig {
                    pool: PoolConfig {
                        workers: 4,
                        retries: 0,
                        ..PoolConfig::default()
                    },
                    cache_dir: None,
                    faults: FaultPlan::none(),
                },
                dispatcher.into_runner(),
            )
            .expect("dispatch engine")
            .run_batch(&jobs);
            assert_eq!(batch.results.len(), jobs.len(), "seed {seed}: dropped jobs");
            for (i, result) in batch.results.iter().enumerate() {
                let report = result.as_ref().unwrap_or_else(|e| {
                    panic!("seed {seed} job {i}: network chaos must never fail a job ({e})")
                });
                assert_eq!(
                    report.to_text(),
                    baseline[i],
                    "seed {seed} job {i}: bytes diverge from the fault-free run"
                );
            }
        }

        for addr in [addr_a, addr_b] {
            let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
            writeln!(stream, "{{\"cmd\":\"shutdown\"}}").expect("send shutdown");
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
        }
        handle_a.join().expect("server a");
        handle_b.join().expect("server b");
    });
}
