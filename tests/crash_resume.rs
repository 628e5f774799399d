//! Kill -9 a sweep mid-run, then resume it.
//!
//! The crash-safety contract under test (see DESIGN.md):
//!   1. a resumed run re-executes only jobs with no cached artifact —
//!      completed work is absorbed from the cache, the only record of
//!      completion (deleting an artifact makes its job run again);
//!   2. the final `sweep.json` is byte-identical to an uninterrupted
//!      run of the same grid;
//!   3. a journal whose final record was torn by the crash replays
//!      cleanly (with a warning) instead of failing.
//!
//! The test drives the real binary: a control run establishes the
//! expected artifact, a second run is SIGKILLed once its cache shows
//! progress, the journal tail is deliberately mangled, and the resume
//! must reconcile and finish.

use std::process::Command;
use std::time::{Duration, Instant};

mod common;
use common::{bin, cached_artifacts, journal_path, metric, sweep_args, FAST_SAMPLES, SLOW_SAMPLES};

const RUN_ID: &str = "crash-resume-it";

#[test]
fn kill9_mid_sweep_then_resume_reproduces_the_report() {
    let root = std::env::temp_dir().join(format!("tdsigma_crash_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control = root.join("control");
    let crashed = root.join("crashed");
    std::fs::create_dir_all(&control).expect("mkdir control");
    std::fs::create_dir_all(&crashed).expect("mkdir crashed");

    // Control: the same grid, uninterrupted, in its own cache/journal.
    let out = Command::new(bin())
        .args(sweep_args(&control, "2", RUN_ID, SLOW_SAMPLES))
        .output()
        .expect("control run spawns");
    assert!(
        out.status.success(),
        "control run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = std::fs::read(control.join("sweep.json")).expect("control artifact");

    // Crash run: one worker serializes the jobs, so killing after the
    // first cached artifact is guaranteed to strand later jobs.
    let mut child = Command::new(bin())
        .args(sweep_args(&crashed, "1", RUN_ID, SLOW_SAMPLES))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("crash run spawns");
    let journal = journal_path(&crashed, RUN_ID);
    let deadline = Instant::now() + Duration::from_secs(120);
    let finished_before_kill = loop {
        let done = cached_artifacts(&crashed);
        if done >= 1 {
            break done;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("sweep exited ({status:?}) before the test could kill it — raise SLOW_SAMPLES");
        }
        assert!(Instant::now() < deadline, "no cache progress within 120 s");
        std::thread::sleep(Duration::from_millis(20));
    };
    child.kill().expect("SIGKILL");
    let status = child.wait().expect("reap");
    assert!(!status.success(), "killed process cannot report success");
    assert!(
        finished_before_kill < 4,
        "all 4 jobs finished before the kill; nothing was interrupted"
    );

    // A crash can also tear the final journal record mid-append. Mangle
    // the tail so the resume exercises torn-record tolerance too.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("journal exists");
        f.write_all(b"{\"crc64\":\"dead\",\"rec\":{\"t\":\"job_fin")
            .expect("append torn tail");
    }

    // Resume: jobs cached before the kill must come back as cache hits.
    let out = Command::new(bin())
        .args([
            "sweep",
            "--resume",
            RUN_ID,
            "--journal-dir",
            &crashed.join("journal").to_string_lossy(),
            "--cache-dir",
            &crashed.join("cache").to_string_lossy(),
            "--out",
            &crashed.to_string_lossy(),
            "--workers",
            "2",
        ])
        .output()
        .expect("resume run spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume failed:\n{stdout}\n{stderr}");
    assert!(
        stderr.contains("torn record"),
        "torn tail must be reported: {stderr}"
    );
    assert!(
        stdout.contains(&format!("resuming run {RUN_ID}")),
        "resume banner missing: {stdout}"
    );

    // No recompute: every job cached before the kill was served from
    // the cache, so at most (4 - finished) executed.
    let executed = metric(&stdout, "executed");
    let hits = metric(&stdout, "cache");
    assert!(
        hits >= finished_before_kill,
        "{hits} cache hits < {finished_before_kill} cached jobs:\n{stdout}"
    );
    assert!(
        executed <= 4 - finished_before_kill,
        "resume re-executed cached work \
         ({executed} executed, {finished_before_kill} already finished):\n{stdout}"
    );
    assert_eq!(executed + hits, 4, "every planned job accounted for");

    // Bit-identical artifact: resume converges on the control bytes.
    let resumed = std::fs::read(crashed.join("sweep.json")).expect("resumed artifact");
    assert_eq!(
        resumed,
        expected,
        "resumed sweep.json differs from uninterrupted run:\n{}",
        String::from_utf8_lossy(&resumed)
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// The cache, not the journal, says which jobs are done: after a
/// complete run loses one artifact, the resume banner counts three of
/// four jobs cached and the resume executes exactly the lost one.
#[test]
fn resume_after_a_lost_artifact_counts_and_reruns_only_that_job() {
    let run_id = "lost-artifact-it";
    let root = std::env::temp_dir().join(format!("tdsigma_lost_artifact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir root");
    let out = Command::new(bin())
        .args(sweep_args(&root, "2", run_id, FAST_SAMPLES))
        .output()
        .expect("first run spawns");
    assert!(out.status.success(), "first run failed");
    let expected = std::fs::read(root.join("sweep.json")).expect("first artifact");
    assert_eq!(cached_artifacts(&root), 4);

    let lost = std::fs::read_dir(root.join("cache"))
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("an artifact");
    std::fs::remove_file(&lost).expect("delete one artifact");

    let out = Command::new(bin())
        .args([
            "sweep",
            "--resume",
            run_id,
            "--journal-dir",
            &root.join("journal").to_string_lossy(),
            "--cache-dir",
            &root.join("cache").to_string_lossy(),
            "--out",
            &root.to_string_lossy(),
        ])
        .output()
        .expect("resume spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "resume failed:\n{stdout}");
    assert!(
        stdout.contains(&format!(
            "resuming run {run_id}: 3 of 4 jobs cached, resume #1"
        )),
        "the banner must count what the cache holds:\n{stdout}"
    );
    assert_eq!(metric(&stdout, "executed"), 1, "{stdout}");
    assert_eq!(metric(&stdout, "cache"), 3, "{stdout}");
    assert_eq!(
        cached_artifacts(&root),
        4,
        "the lost artifact is filed again"
    );
    let resumed = std::fs::read(root.join("sweep.json")).expect("resumed artifact");
    assert_eq!(resumed, expected, "same bytes after the re-run");
    let _ = std::fs::remove_dir_all(&root);
}
