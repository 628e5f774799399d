//! Engine-fingerprint integrity, against real processes.
//!
//! The version-skew contract under test (see DESIGN.md §15): results
//! produced by one engine build are never silently mixed with another's.
//!
//!   1. a warm cache written by a *different* engine fingerprint yields
//!      zero replayed reports — every foreign artifact is moved to
//!      `rejected/` tagged `foreign` (counted on the resilience line),
//!      the grid re-executes, and the final `sweep.json` is
//!      byte-identical to a fresh run; `tdsigma cache stats` counts the
//!      foreign and rejected artifacts and `tdsigma cache scrub` prunes
//!      them;
//!   2. `--resume` of a journal planned by a different engine fails
//!      loudly, and `--resume-force` downgrades that to a warning that
//!      re-executes everything — for `sweep` and `optimize` alike;
//!   3. `--resume --no-cache` re-executes every job instead of
//!      reconciling against cache artifacts it will not read (the
//!      warm-cache foreign-replay regression);
//!   4. a sweep over a fleet with one mismatched-fingerprint backend
//!      excludes it (`DEGRADED: version_skew`), completes on the
//!      matching backend, and still matches local bytes.
//!
//! Every scenario drives the real binary; foreign engines are simulated
//! with the `TDSIGMA_FINGERPRINT` override the fingerprint module honors
//! exactly for this purpose.

use std::process::Command;
use std::time::Duration;

mod common;
use common::{
    bin, journal_path, metric, optimize_args, spawn_serve, spawn_serve_with_env, sweep_args,
    wait_for_ready, FAST_SAMPLES,
};

/// A syntactically plausible but impossible fingerprint: the real one is
/// 16 lowercase hex digits of an FNV hash, which never collides with a
/// fixed vanity constant.
const FOREIGN_FP: &str = "aaaaaaaaaaaaaaaa";

/// Resume invocation of `command` rooted at `base` — the plan comes from
/// the journal, so only engine/state flags are passed.
fn resume_args(command: &str, base: &std::path::Path, run_id: &str, extra: &[&str]) -> Vec<String> {
    [command, "--resume", run_id, "--workers", "2"]
        .iter()
        .map(ToString::to_string)
        .chain(extra.iter().map(ToString::to_string))
        .chain([
            "--journal-dir".into(),
            base.join("journal").to_string_lossy().into_owned(),
            "--cache-dir".into(),
            base.join("cache").to_string_lossy().into_owned(),
            "--out".into(),
            base.to_string_lossy().into_owned(),
        ])
        .collect()
}

/// Pulls the count off a `label: N` row of `tdsigma cache stats` output.
fn stats_row(stdout: &str, label: &str) -> usize {
    for line in stdout.lines() {
        if let Some(rest) = line.trim_start().strip_prefix(label) {
            if let Ok(n) = rest.trim().parse() {
                return n;
            }
        }
    }
    panic!("no {label:?} row in cache stats output:\n{stdout}");
}

#[test]
fn foreign_engine_warm_cache_is_demoted_never_replayed_and_scrubbable() {
    let root = std::env::temp_dir().join(format!("tdsigma_vskew_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control = root.join("control");
    let dist = root.join("dist");
    std::fs::create_dir_all(&control).expect("mkdir control");
    std::fs::create_dir_all(&dist).expect("mkdir dist");

    // Warm `dist`'s cache as a foreign engine: every artifact is
    // stamped with the override fingerprint instead of the real one.
    let out = Command::new(bin())
        .args(sweep_args(&dist, "2", "vskew-warm-it", FAST_SAMPLES))
        .env("TDSIGMA_FINGERPRINT", FOREIGN_FP)
        .output()
        .expect("warming run spawns");
    assert!(
        out.status.success(),
        "warming run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        metric(&String::from_utf8_lossy(&out.stdout), "executed"),
        4,
        "warming run executes the whole grid"
    );
    let cache_dir = dist.join("cache").to_string_lossy().into_owned();
    let cache_cmd = |action: &str| {
        let out = Command::new(bin())
            .args(["cache", action, "--cache-dir", &cache_dir])
            .output()
            .expect("cache command spawns");
        assert!(out.status.success(), "cache {action} failed");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // The real engine sees every warm artifact as foreign before it
    // touches any of them.
    let stdout = cache_cmd("stats");
    assert_eq!(stats_row(&stdout, "foreign:"), 4, "{stdout}");
    assert_eq!(stats_row(&stdout, "fresh:"), 0, "{stdout}");

    // Control: the same grid with a cold cache under the real engine.
    let run_id = "vskew-cache-it";
    let out = Command::new(bin())
        .args(sweep_args(&control, "2", run_id, FAST_SAMPLES))
        .output()
        .expect("control run spawns");
    assert!(out.status.success(), "control run failed");
    let expected = std::fs::read(control.join("sweep.json")).expect("control artifact");

    // The real engine over the foreign warm cache: zero replayed
    // reports, every foreign artifact rejected and counted.
    let out = Command::new(bin())
        .args(sweep_args(&dist, "2", run_id, FAST_SAMPLES))
        .output()
        .expect("skewed-cache run spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "skewed-cache run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        metric(&stdout, "cache"),
        0,
        "a foreign warm cache must never produce a hit: {stdout}"
    );
    assert_eq!(metric(&stdout, "executed"), 4, "all jobs re-execute");
    assert!(
        stdout.contains("resilience: 4 cache artifacts rejected,"),
        "each rejected artifact is counted on the resilience line: {stdout}"
    );
    let mut parked: Vec<String> = std::fs::read_dir(dist.join("cache").join("rejected"))
        .expect("rejected/ exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    parked.retain(|name| name.ends_with(".foreign.json"));
    assert_eq!(parked.len(), 4, "rejections are tagged foreign: {parked:?}");
    let produced = std::fs::read(dist.join("sweep.json")).expect("skewed-cache artifact");
    assert_eq!(
        produced,
        expected,
        "re-executed sweep.json differs from the fresh run:\n{}",
        String::from_utf8_lossy(&produced)
    );

    // `cache stats` sees 4 fresh re-executed artifacts over 4 rejected
    // foreign ones; `cache scrub` empties rejected/ and keeps fresh.
    let stdout = cache_cmd("stats");
    assert_eq!(stats_row(&stdout, "fresh:"), 4, "{stdout}");
    assert_eq!(stats_row(&stdout, "foreign:"), 0, "{stdout}");
    assert_eq!(stats_row(&stdout, "rejected:"), 4, "{stdout}");

    let stdout = cache_cmd("scrub");
    assert!(
        stdout.contains("4 rejected") && stdout.contains("kept 4 fresh"),
        "scrub must report what it pruned and kept: {stdout}"
    );

    let stdout = cache_cmd("stats");
    assert_eq!(stats_row(&stdout, "fresh:"), 4, "{stdout}");
    assert_eq!(
        stats_row(&stdout, "rejected:"),
        0,
        "scrub must empty rejected/: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_across_an_engine_change_fails_loudly_unless_forced() {
    for command in ["sweep", "optimize"] {
        resume_across_an_engine_change(command);
    }
}

/// Plans and finishes a `command` run as a foreign engine, then resumes
/// it under the real one: refused without `--resume-force`, re-executed
/// from scratch with it.
fn resume_across_an_engine_change(command: &str) {
    let run_id = format!("vskew-resume-force-{command}");
    let root = std::env::temp_dir().join(format!(
        "tdsigma_vskew_force_{command}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let base = root.join("run");
    std::fs::create_dir_all(&base).expect("mkdir base");
    // How the command's first stdout lines count the jobs it submits.
    let (plan, jobs_marker) = match command {
        "sweep" => (sweep_args(&base, "2", &run_id, FAST_SAMPLES), "jobs"),
        _ => (optimize_args(&base, &run_id, "2048"), "job(s)"),
    };

    // Plan and finish the run as a foreign engine: journal and cache
    // both carry the override fingerprint.
    let out = Command::new(bin())
        .args(&plan)
        .env("TDSIGMA_FINGERPRINT", FOREIGN_FP)
        .output()
        .expect("foreign run spawns");
    assert!(out.status.success(), "{command}: foreign run failed");
    assert!(
        journal_path(&base, &run_id).exists(),
        "{command}: a clean run keeps its journal for --resume"
    );

    // The real engine refuses the resume: the journal's completion
    // claims point at artifacts it will reject, not replay.
    let out = Command::new(bin())
        .args(resume_args(command, &base, &run_id, &[]))
        .output()
        .expect("refused resume spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{command}: resume across an engine change must fail without --resume-force"
    );
    assert!(
        stderr.contains(&format!("planned by engine {FOREIGN_FP}")),
        "{command}: the error must name the planning engine: {stderr}"
    );
    assert!(
        stderr.contains("--resume-force"),
        "{command}: the error must point at the escape hatch: {stderr}"
    );

    // --resume-force re-executes everything under the current engine.
    let out = Command::new(bin())
        .args(resume_args(command, &base, &run_id, &["--resume-force"]))
        .output()
        .expect("forced resume spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{command}: forced resume failed: {stderr}"
    );
    assert!(
        stderr.contains("across an engine change"),
        "{command}: the force path must still warn: {stderr}"
    );
    // The banner counts what the run will replay, not what is on disk.
    let done = stdout
        .lines()
        .find(|l| l.starts_with("resuming "))
        .unwrap_or_default();
    assert!(
        done.contains(": 0 of "),
        "{command}: foreign artifacts are not cached work: {done:?}"
    );
    assert_eq!(
        metric(&stdout, "cache"),
        0,
        "{command}: no foreign artifact may be replayed: {stdout}"
    );
    assert_eq!(
        metric(&stdout, "executed"),
        metric(&stdout, jobs_marker),
        "{command}: every submitted job re-executes: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_with_no_cache_re_executes_instead_of_reconciling_the_journal() {
    let run_id = "vskew-nocache-it";
    let root = std::env::temp_dir().join(format!("tdsigma_vskew_nocache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let base = root.join("run");
    std::fs::create_dir_all(&base).expect("mkdir base");

    // A complete run under the current engine: warm cache, journal with
    // every job finished.
    let out = Command::new(bin())
        .args(sweep_args(&base, "2", run_id, FAST_SAMPLES))
        .output()
        .expect("first run spawns");
    assert!(out.status.success(), "first run failed");
    let expected = std::fs::read(base.join("sweep.json")).expect("first artifact");

    // Resuming with --no-cache must not count journaled completions as
    // done — their evidence is cache artifacts this run will not read.
    let out = Command::new(bin())
        .args(resume_args("sweep", &base, run_id, &["--no-cache"]))
        .output()
        .expect("no-cache resume spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "no-cache resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("cache disabled: re-executing all 4 jobs"),
        "the re-execution must be announced: {stdout}"
    );
    assert_eq!(
        metric(&stdout, "cache"),
        0,
        "no warm artifact may be replayed under --no-cache: {stdout}"
    );
    assert_eq!(metric(&stdout, "executed"), 4, "{stdout}");
    assert!(
        journal_path(&base, run_id).exists(),
        "--no-cache must not let the journal auto-GC reconcile the run away"
    );
    let produced = std::fs::read(base.join("sweep.json")).expect("resumed artifact");
    assert_eq!(
        produced, expected,
        "re-execution must reproduce the original bytes"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mismatched_fingerprint_backend_is_excluded_and_bytes_match_local() {
    let run_id = "vskew-backend-it";
    let root = std::env::temp_dir().join(format!("tdsigma_vskew_backend_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control = root.join("control");
    let dist = root.join("dist");
    std::fs::create_dir_all(&control).expect("mkdir control");
    std::fs::create_dir_all(&dist).expect("mkdir dist");

    let out = Command::new(bin())
        .args(sweep_args(&control, "2", run_id, FAST_SAMPLES))
        .output()
        .expect("control run spawns");
    assert!(out.status.success(), "control run failed");
    let expected = std::fs::read(control.join("sweep.json")).expect("control artifact");

    // One matching backend, one running as a "different binary".
    let (mut good, addr_good) = spawn_serve(&root.join("serve_good"), 1);
    let (mut bad, addr_bad) = spawn_serve_with_env(
        &root.join("serve_bad"),
        1,
        &[("TDSIGMA_FINGERPRINT", FOREIGN_FP)],
    );
    wait_for_ready(&addr_good, Duration::from_secs(30));
    wait_for_ready(&addr_bad, Duration::from_secs(30));

    let out = Command::new(bin())
        .args(sweep_args(
            &dist,
            &format!("{addr_good},{addr_bad}"),
            run_id,
            FAST_SAMPLES,
        ))
        .output()
        .expect("mixed-fleet sweep spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "a sweep must survive a mismatched backend:\n{stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "backend {addr_bad} excluded: engine fingerprint {FOREIGN_FP}"
        )),
        "the exclusion must be warned about on stderr: {stderr}"
    );
    assert!(
        stdout.contains("DEGRADED: version_skew"),
        "the dispatch summary must flag the skew: {stdout}"
    );
    let produced = std::fs::read(dist.join("sweep.json")).expect("mixed-fleet artifact");
    assert_eq!(
        produced,
        expected,
        "mixed-fleet sweep.json differs from the local run:\n{}",
        String::from_utf8_lossy(&produced)
    );

    good.kill().expect("stop good backend");
    let _ = good.wait();
    bad.kill().expect("stop bad backend");
    let _ = bad.wait();
    let _ = std::fs::remove_dir_all(&root);
}
