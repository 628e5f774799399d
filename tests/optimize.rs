//! End-to-end tests for `tdsigma optimize`: the determinism and
//! crash-recovery contracts of the design-space optimizer, driven
//! through the real binary.
//!
//! Contracts under test (see DESIGN.md §12):
//!   1. same seed + config → byte-identical `optimize.json`, even from
//!      a cold cache in a different directory;
//!   2. SIGKILL mid-search, then `--resume <run-id>` → the final
//!      artifact is byte-identical to an uninterrupted run, and the
//!      re-run absorbs completed evaluations as cache hits;
//!   3. `--dry-run` prints the generation-0 plan and executes nothing;
//!   4. a full-flow search writes the same `optimize.json` on one worker
//!      and on three, although its workers share one process-wide memo of
//!      layouts and race for its entries.

use std::process::Command;
use std::time::{Duration, Instant};

mod common;
use common::{bin, cached_artifacts, journal_path, metric, optimize_args};

/// Fast enough for a 16-evaluation budget to finish quickly.
const FAST: &str = "2048";
/// Slow enough that a poll loop catches the run mid-flight.
const SLOW: &str = "65536";

fn run_ok(args: &[String], dir: &std::path::Path) -> String {
    let out = Command::new(bin())
        .current_dir(dir)
        .args(args)
        .output()
        .expect("tdsigma spawns");
    assert!(
        out.status.success(),
        "optimize failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn same_seed_is_byte_identical_across_directories() {
    let root = std::env::temp_dir().join(format!("tdsigma_opt_det_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let a = root.join("a");
    let b = root.join("b");
    std::fs::create_dir_all(&a).expect("mkdir a");
    std::fs::create_dir_all(&b).expect("mkdir b");

    run_ok(&optimize_args(&a, "det", FAST), &a);
    run_ok(&optimize_args(&b, "det", FAST), &b);

    let art_a = std::fs::read(a.join("optimize.json")).expect("artifact a");
    let art_b = std::fs::read(b.join("optimize.json")).expect("artifact b");
    assert_eq!(
        art_a, art_b,
        "two cold runs of the same seed must write identical optimize.json"
    );
    // The artifact records the full generation history and the best spec.
    let text = String::from_utf8(art_a).expect("utf8");
    for field in ["\"generations\"", "\"best\"", "\"config\"", "\"candidate\""] {
        assert!(text.contains(field), "artifact missing {field}: {text}");
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill9_mid_optimize_then_resume_reproduces_the_artifact() {
    let root = std::env::temp_dir().join(format!("tdsigma_opt_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control = root.join("control");
    let crashed = root.join("crashed");
    std::fs::create_dir_all(&control).expect("mkdir control");
    std::fs::create_dir_all(&crashed).expect("mkdir crashed");

    // Control: uninterrupted run of the same config.
    run_ok(&optimize_args(&control, "opt-crash", SLOW), &control);
    let expected = std::fs::read(control.join("optimize.json")).expect("control artifact");

    // Crash run: SIGKILL once the cache holds at least one finished
    // evaluation (and the budget of 16 guarantees more remain).
    let mut child = Command::new(bin())
        .current_dir(&crashed)
        .args(optimize_args(&crashed, "opt-crash", SLOW))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("crash run spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if cached_artifacts(&crashed) >= 1 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("optimize exited ({status:?}) before the kill — raise SLOW");
        }
        assert!(Instant::now() < deadline, "no cache progress within 120 s");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL");
    let status = child.wait().expect("reap");
    assert!(!status.success(), "killed process cannot report success");
    assert!(
        !crashed.join("optimize.json").exists(),
        "the artifact must not exist before the run completes"
    );

    // Resume: the persisted config re-runs; cached evaluations come
    // back as cache hits.
    let resume_args: Vec<String> = ["optimize", "--resume", "opt-crash"]
        .iter()
        .map(ToString::to_string)
        .chain([
            "--journal-dir".into(),
            crashed.join("journal").to_string_lossy().into_owned(),
            "--cache-dir".into(),
            crashed.join("cache").to_string_lossy().into_owned(),
            "--out".into(),
            crashed.to_string_lossy().into_owned(),
        ])
        .collect();
    let stdout = run_ok(&resume_args, &crashed);
    assert!(
        stdout.contains("resuming optimize opt-crash"),
        "resume banner missing:\n{stdout}"
    );
    let hits: usize = stdout
        .lines()
        .filter(|l| l.contains("cache hit(s)"))
        .map(|l| metric(l, "cache"))
        .sum();
    assert!(
        hits >= 1,
        "resume must absorb completed evaluations from the cache:\n{stdout}"
    );

    let resumed = std::fs::read(crashed.join("optimize.json")).expect("resumed artifact");
    assert_eq!(
        resumed, expected,
        "resumed artifact must be byte-identical to the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn flow_search_is_byte_identical_across_worker_counts() {
    let root = std::env::temp_dir().join(format!("tdsigma_opt_flow_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut artifacts = Vec::new();
    for workers in ["1", "3"] {
        let dir = root.join(workers);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut args: Vec<String> = optimize_args(&dir, "flow-workers", FAST)
            .into_iter()
            .map(|a| if a == "sim" { "flow".into() } else { a })
            .collect();
        args.extend(["--workers".into(), workers.into()]);
        let stdout = run_ok(&args, &dir);
        assert!(stdout.contains("physical memo:"), "{stdout}");
        artifacts.push(std::fs::read(dir.join("optimize.json")).expect("artifact"));
    }
    assert!(
        String::from_utf8_lossy(&artifacts[0]).contains("\"timing_slack_ps\""),
        "a flow search reports layout results"
    );
    assert_eq!(
        artifacts[0], artifacts[1],
        "--workers 1 and --workers 3 must write identical optimize.json"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dry_run_previews_without_executing() {
    let root = std::env::temp_dir().join(format!("tdsigma_opt_dry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir");

    let mut args = optimize_args(&root, "dry", FAST);
    args.push("--dry-run".into());
    let stdout = run_ok(&args, &root);
    assert!(stdout.contains("dry run: nothing executed"), "{stdout}");
    assert!(stdout.contains("to execute"), "{stdout}");
    // Nothing ran: no journal, no artifact, no cache entries.
    assert!(
        !journal_path(&root, "dry").exists(),
        "dry run wrote a journal"
    );
    assert!(
        !root.join("optimize.json").exists(),
        "dry run wrote an artifact"
    );

    // Sweep --dry-run shares the same preview path.
    let sweep: Vec<String> = [
        "sweep",
        "--nodes",
        "40",
        "--slices",
        "1,2",
        "--samples",
        FAST,
        "--dry-run",
    ]
    .iter()
    .map(ToString::to_string)
    .chain([
        "--journal-dir".into(),
        root.join("journal").to_string_lossy().into_owned(),
        "--cache-dir".into(),
        root.join("cache").to_string_lossy().into_owned(),
        "--out".into(),
        root.to_string_lossy().into_owned(),
    ])
    .collect();
    let stdout = run_ok(&sweep, &root);
    assert!(
        stdout.contains("2 job(s): 2 unique") && stdout.contains("2 to execute"),
        "{stdout}"
    );
    assert!(
        !root.join("sweep.json").exists(),
        "dry sweep wrote an artifact"
    );

    let _ = std::fs::remove_dir_all(&root);
}
