//! Smoke tests for the `tdsigma` CLI binary.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tdsigma")
}

#[test]
fn help_prints_usage() {
    let out = Command::new(bin()).arg("help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("design"));
}

#[test]
fn help_flag_spellings_all_work() {
    let rows: [&[&str]; 8] = [
        &["--help"],
        &["-h"],
        &["design", "--help"],
        &["sweep", "--help"],
        &["optimize", "-h"],
        &["serve", "--help"],
        &["cache", "--help"],
        &["nodes", "--help"],
    ];
    for args in rows {
        let out = Command::new(bin()).args(args).output().expect("runs");
        assert!(out.status.success(), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("USAGE"), "{args:?}");
        assert!(text.contains("sweep"), "{args:?}");
        assert!(text.contains("serve"), "{args:?}");
    }
}

#[test]
fn version_flag_prints_version() {
    for flag in ["--version", "-V", "version"] {
        let out = Command::new(bin()).arg(flag).output().expect("runs");
        assert!(out.status.success(), "{flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(env!("CARGO_PKG_VERSION")), "{flag}: {text}");
    }
}

#[test]
fn sweep_runs_grid_and_writes_artifact() {
    let dir = std::env::temp_dir().join("tdsigma_cli_sweep_test");
    let _ = std::fs::remove_dir_all(&dir);
    let journal_dir = dir.join("journal");
    let out = Command::new(bin())
        .args([
            "sweep",
            "--nodes",
            "40",
            "--slices",
            "1,2",
            "--samples",
            "2048",
            "--workers",
            "2",
            "--no-cache",
            "--run-id",
            "cli-smoke",
            "--journal-dir",
            journal_dir.to_str().expect("utf8 temp path"),
            "--out",
            dir.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SNDR[dB]"), "table header missing: {text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("batch: 2 jobs") && l.contains("2 executed, 0 cache hits")),
        "batch counts missing: {text}"
    );
    assert!(
        !text.lines().any(|l| l.starts_with("time:")),
        "durations belong to the stage breakdown: {text}"
    );
    assert_breakdown_has(&text, &["engine.batch", "job.attempt", "flow.transient"]);
    assert!(
        text.contains("effective parallelism"),
        "parallelism line missing: {text}"
    );
    let json = std::fs::read_to_string(dir.join("sweep.json")).expect("artifact");
    assert!(
        json.trim_start().starts_with('{'),
        "object artifact: {json}"
    );
    assert!(json.contains("\"run_id\":\"cli-smoke\""), "{json}");
    assert!(json.contains("\"reports\""), "{json}");
    assert!(json.contains("\"sndr_db\""));
    assert!(
        journal_dir.join("cli-smoke.jsonl").exists(),
        "sweep must write its journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts the stage breakdown in `stdout` has a row for each of
/// `stages`.
fn assert_breakdown_has(stdout: &str, stages: &[&str]) {
    for stage in stages {
        assert!(
            breakdown_count(stdout, stage).is_some(),
            "no {stage} row in the stage breakdown: {stdout}"
        );
    }
}

/// The `count` column of `stage`'s row in the stage breakdown.
fn breakdown_count(stdout: &str, stage: &str) -> Option<u64> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("stage breakdown"))
        .find_map(|l| {
            let mut cols = l.split_whitespace();
            if cols.next() != Some(stage) {
                return None;
            }
            cols.next()?.parse().ok()
        })
}

#[test]
fn stage_breakdown_counts_only_the_jobs_the_sweep_ran() {
    // The engine fingerprint simulates a golden vector too; that is not
    // a flow stage, so four sim jobs are four of each.
    let dir = std::env::temp_dir().join(format!("tdsigma_cli_stages_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(bin())
        .args([
            "sweep",
            "--nodes",
            "40,180",
            "--slices",
            "1,2",
            "--samples",
            "2048",
            "--workers",
            "2",
            "--no-cache",
            "--no-journal",
            "--out",
            dir.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    for stage in ["flow.transient", "flow.spectrum", "flow.tone_metrics"] {
        assert_eq!(breakdown_count(&text, stage), Some(4), "{stage}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retries_that_slept_show_a_backoff_row() {
    // Chaos seed 1 injects faults into this grid's first attempts; with
    // two retries every job still succeeds, after backoff sleeps.
    let dir = std::env::temp_dir().join(format!("tdsigma_cli_backoff_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(bin())
        .args([
            "sweep",
            "--nodes",
            "40",
            "--slices",
            "1,2",
            "--samples",
            "2048",
            "--workers",
            "2",
            "--no-cache",
            "--no-journal",
            "--chaos-seed",
            "1",
            "--retries",
            "2",
            "--out",
            dir.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    let batch = text
        .lines()
        .find(|l| l.starts_with("batch:"))
        .unwrap_or_else(|| panic!("no batch line: {text}"));
    assert!(!batch.contains(" 0 retried"), "no retry happened: {text}");
    assert_breakdown_has(&text, &["engine.batch", "job.attempt", "jobs.backoff"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_warning_prints_once_for_a_fleet_sweep() {
    // The fault plan is shared by the engine and the dispatcher; it must
    // be built (and announced) once, not once per consumer.
    let dir = std::env::temp_dir().join(format!("tdsigma_cli_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "sweep",
            "--workers",
            "127.0.0.1:1",
            "--chaos-seed",
            "1",
            "--nodes",
            "40",
            "--slices",
            "1",
            "--samples",
            "2048",
        ])
        .output()
        .expect("runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.matches("chaos mode on").count(), 1, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flag_is_rejected_with_the_supported_list() {
    for (cmd, flag) in [
        ("sweep", "--nodez"),
        ("design", "--mode"),
        ("serve", "--port"),
        // Removed with per-client quotas and deadline propagation.
        ("serve", "--quota-burst"),
        ("serve", "--quota-rps"),
        ("sweep", "--deadline-ms"),
        ("optimize", "--deadline-ms"),
    ] {
        let out = Command::new(bin())
            .args([cmd, flag, "40"])
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{cmd} {flag} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{cmd} {flag}: {err}");
        assert!(err.contains(flag), "{cmd} {flag}: {err}");
    }
    // The fleet supervisor is gone along with its subcommand.
    let out = Command::new(bin())
        .args(["fleet", "--children", "2"])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "fleet must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "fleet: {err}");
}

#[test]
fn degraded_sweep_without_a_journal_prints_no_resume_hint() {
    // Chaos seed 2 fails two of these six jobs with retries off; with
    // --no-journal there is nothing a --resume could replay.
    let dir = std::env::temp_dir().join(format!("tdsigma_cli_nojournal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = Command::new(bin())
        .current_dir(&dir)
        .args([
            "sweep",
            "--nodes",
            "40,180",
            "--slices",
            "1,2,4",
            "--samples",
            "2048",
            "--retries",
            "0",
            "--chaos-seed",
            "2",
            "--no-cache",
            "--no-journal",
        ])
        .output()
        .expect("runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "failed jobs exit 1: {err}");
    assert!(err.contains("degraded"), "{err}");
    assert!(
        !err.contains("--resume"),
        "no journal, no resume hint: {err}"
    );
    assert!(!dir.join("results/journal").exists(), "no journal written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn too_few_samples_are_rejected_before_any_job_runs() {
    let dir = std::env::temp_dir().join(format!("tdsigma_cli_samples_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for args in [
        &["design", "--samples", "512"][..],
        &[
            "sweep",
            "--nodes",
            "40",
            "--slices",
            "1",
            "--samples",
            "512",
        ][..],
    ] {
        let out = Command::new(bin())
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains("≥ 1024"), "names the minimum: {err}");
    }
    assert!(
        !dir.join("results").exists(),
        "a rejected input writes nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_samples_are_rejected_not_aborted() {
    let dir = std::env::temp_dir().join(format!("tdsigma_cli_oversize_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    // Powers of two above the band minimum: before the upper bound the
    // sweep passed planning and died allocating 8 TB (exit 134). So did
    // 2⁵⁰ slices, allocating per-slice state.
    for (args, says) in [
        (
            &["design", "--samples", "2097152"][..],
            "exceeds the maximum 1048576",
        ),
        (
            &["design", "--slices", "1125899906842624"][..],
            "n_slices 1125899906842624 must be in 1..=1024",
        ),
        (
            &[
                "sweep",
                "--kind",
                "sim",
                "--nodes",
                "40",
                "--slices",
                "4",
                "--amps",
                "0.5",
                "--samples",
                "1099511627776",
                "--no-cache",
                "--no-journal",
            ][..],
            "exceeds the maximum 1048576",
        ),
        (
            &[
                "sweep",
                "--kind",
                "sim",
                "--nodes",
                "40",
                "--slices",
                "1125899906842624",
                "--samples",
                "2048",
                "--no-cache",
                "--no-journal",
            ][..],
            "n_slices 1125899906842624 must be in 1..=1024",
        ),
    ] {
        let out = Command::new(bin())
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains(says), "names the bound: {err}");
    }
    assert!(
        !dir.join("results").exists(),
        "a rejected input writes nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_amplitudes_are_rejected_before_any_job_runs() {
    let dir = std::env::temp_dir().join(format!("tdsigma_cli_amps_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    // NaN and inf used to run and report `"failed":0` with SNDR 0, and
    // were journaled as `"amplitude_rel":null`, which no resume can read.
    for amp in ["nan", "inf", "0", "1.5", "-0.5"] {
        let out = Command::new(bin())
            .current_dir(&dir)
            .args([
                "sweep",
                "--kind",
                "sim",
                "--nodes",
                "40",
                "--slices",
                "1",
                "--amps",
                amp,
                "--samples",
                "2048",
                "--no-cache",
                "--no-journal",
            ])
            .output()
            .expect("runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{amp}: {err}");
        assert!(!err.contains("panicked"), "{amp}: {err}");
        assert!(
            err.contains("must be in (0, 1] of full scale"),
            "{amp} names the bound: {err}"
        );
    }
    assert!(
        !dir.join("results").exists(),
        "a rejected input writes nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nodes_lists_all_supported() {
    let out = Command::new(bin()).arg("nodes").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for node in ["500 nm", "180 nm", "40 nm", "22 nm"] {
        assert!(text.contains(node), "missing {node}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = Command::new(bin())
        .arg("frobnicate")
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

#[test]
fn design_rejects_bad_flags() {
    let out = Command::new(bin())
        .args(["design", "--node", "seven"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--node"), "{err}");

    let out = Command::new(bin())
        .args(["design", "--node"])
        .output()
        .expect("runs");
    assert!(!out.status.success());

    let out = Command::new(bin())
        .args(["design", "--node", "41"])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "41 nm is not a supported node");
}

#[test]
fn design_produces_all_artifacts() {
    let dir = std::env::temp_dir().join("tdsigma_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(bin())
        .args([
            "design",
            "--samples",
            "2048",
            "--out",
            dir.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for artifact in [
        "adc_top.v",
        "library.lef",
        "adc_top.fp",
        "adc_top.def",
        "adc_top.gds.txt",
        "layout.svg",
        "spectrum.csv",
        "report.json",
    ] {
        assert!(dir.join(artifact).exists(), "missing {artifact}");
    }
    let json = std::fs::read_to_string(dir.join("report.json")).expect("readable");
    assert!(json.contains("\"sndr_db\""));
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    let _ = std::fs::remove_dir_all(&dir);
}
