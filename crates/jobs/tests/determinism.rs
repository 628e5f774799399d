//! Integration tests for the engine's headline guarantees, using the
//! real design-flow runner on reduced-size jobs:
//!
//! 1. **Scheduling invisibility** — one worker vs four workers produce
//!    byte-identical report JSON for the same batch.
//! 2. **Warm cache** — re-running a sweep against the same on-disk cache
//!    executes zero flows and replays byte-identical reports.
//! 3. **Serve** — concurrent TCP clients all get correct answers, and a
//!    malformed request gets a well-formed JSON error.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use tdsigma_jobs::{Engine, EngineConfig, Job, Json, PoolConfig, Server, ServerConfig};

/// A real-but-quick sim job (~ms): 2 slices, 2048 cycles, 4 substeps.
fn quick_job(seed: u64) -> Job {
    let mut job = Job::sim(40.0, 750e6, 5e6);
    job.slices = 2;
    job.samples = 2048;
    job.steps_per_cycle = 4;
    job.seed = seed;
    job
}

fn grid() -> Vec<Job> {
    let mut jobs = Vec::new();
    for seed in [1u64, 2, 3, 4] {
        for slices in [1usize, 2] {
            let mut job = quick_job(seed);
            job.slices = slices;
            jobs.push(job);
        }
    }
    jobs
}

fn engine(workers: usize, cache_dir: Option<PathBuf>) -> Engine {
    Engine::new(EngineConfig {
        pool: PoolConfig {
            workers,
            retries: 0,
            ..PoolConfig::default()
        },
        cache_dir,
    })
    .expect("engine")
}

fn report_texts(batch: &tdsigma_jobs::BatchReport) -> Vec<String> {
    batch
        .results
        .iter()
        .map(|r| r.as_ref().expect("job succeeds").to_text())
        .collect()
}

#[test]
fn one_worker_and_four_workers_are_bit_identical() {
    let jobs = grid();
    let serial = engine(1, None).run_batch(&jobs);
    let parallel = engine(4, None).run_batch(&jobs);
    assert_eq!(serial.metrics.executed, jobs.len());
    assert_eq!(parallel.metrics.executed, jobs.len());
    assert_eq!(
        report_texts(&serial),
        report_texts(&parallel),
        "worker count must be invisible in the results"
    );
}

#[test]
fn warm_disk_cache_executes_zero_flows() {
    let dir = std::env::temp_dir().join(format!("tdsigma_warm_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = grid();

    let cold = engine(4, Some(dir.clone())).run_batch(&jobs);
    assert_eq!(cold.metrics.executed, jobs.len());

    // A fresh engine on the same directory: everything replays from disk.
    let warm_engine = engine(4, Some(dir.clone()));
    let warm = warm_engine.run_batch(&jobs);
    assert_eq!(warm.metrics.executed, 0, "warm cache must execute nothing");
    assert_eq!(warm.metrics.cache_hits, jobs.len());
    assert_eq!(
        report_texts(&cold),
        report_texts(&warm),
        "cached replay must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_concurrent_clients_and_rejects_garbage() {
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::new(engine(4, None)),
        ServerConfig {
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.run().expect("serve"));

    let request = |line: String| -> Json {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("send");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("receive");
        Json::parse(response.trim()).expect("well-formed JSON response")
    };

    // Four concurrent clients asking for different dies.
    let clients: Vec<_> = (1..=4u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let line = format!(
                    r#"{{"cmd":"run","job":{}}}"#,
                    quick_job(seed).to_json().to_text()
                );
                let mut stream = TcpStream::connect(addr).expect("connect");
                writeln!(stream, "{line}").expect("send");
                let mut response = String::new();
                BufReader::new(stream)
                    .read_line(&mut response)
                    .expect("receive");
                let v = Json::parse(response.trim()).expect("well-formed JSON response");
                assert_eq!(
                    v.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "{response}"
                );
                let sndr = v
                    .get("report")
                    .and_then(|r| r.get("sndr_db"))
                    .and_then(Json::as_f64)
                    .expect("report has sndr");
                assert!(sndr.is_finite());
                (seed, sndr)
            })
        })
        .collect();
    let answers: Vec<(u64, f64)> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    assert_eq!(answers.len(), 4);

    // The server's answer matches a direct in-process execution.
    let direct = tdsigma_jobs::execute(&quick_job(1)).expect("direct");
    let served = answers
        .iter()
        .find(|(seed, _)| *seed == 1)
        .expect("seed 1 answered")
        .1;
    assert_eq!(
        direct.sndr_db, served,
        "serve must be bit-identical to in-process"
    );

    // Malformed requests get JSON errors, not dropped connections.
    let err = request("not even json".to_string());
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
    assert!(err.get("error").and_then(Json::as_str).is_some());
    // So does a frame without a command.
    let err = request(r#"{"node":40}"#.to_string());
    assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));

    let bye = request(r#"{"cmd":"shutdown"}"#.to_string());
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    server_thread.join().expect("server thread");
}
