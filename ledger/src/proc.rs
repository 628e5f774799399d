//! Running the shipped binaries as child processes and timing them as a
//! user would see them: spawn to first output line, spawn to exit, and
//! the peak resident set the kernel recorded.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// No single op may hold the ledger past its own time limit.
const OP_TIMEOUT: Duration = Duration::from_secs(120);

/// How often a running child's memory is read. The exit itself is not
/// polled: a thread blocks on it, so the timing is exact and the ledger
/// does not wake the machine a thousand times a second while it measures.
const RSS_POLL: Duration = Duration::from_millis(5);

/// One finished child process.
#[derive(Debug)]
pub struct Run {
    pub status: ExitStatus,
    /// Spawn to exit.
    pub elapsed: Duration,
    pub stdout: String,
    pub stderr: String,
    /// Highest `VmHWM` read while the child ran, KiB.
    pub peak_rss_kb: u64,
}

impl Run {
    /// `Ok` for a zero exit status, otherwise an error quoting the tail
    /// of standard error.
    pub fn check(&self, what: &str) -> Result<(), String> {
        if self.status.success() {
            return Ok(());
        }
        let tail: Vec<&str> = self.stderr.lines().rev().take(3).collect();
        Err(format!("{what}: {} ({})", self.status, tail.join(" / ")))
    }
}

/// Runs `cmd` to completion (killing it after [`OP_TIMEOUT`]).
pub fn run(cmd: &mut Command) -> std::io::Result<Run> {
    let started = Instant::now();
    let mut child = Reaped(
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?,
    );
    let pid = child.0.id();
    let out_reader = drain(child.0.stdout.take().expect("stdout is piped"));
    let err_reader = drain(child.0.stderr.take().expect("stderr is piped"));

    let (exit_tx, exit_rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let status = child.0.wait();
        let _ = exit_tx.send(started.elapsed());
        status
    });
    let mut peak_rss_kb = 0;
    let elapsed = loop {
        peak_rss_kb = peak_rss_kb.max(peak_rss_kib(pid).unwrap_or(0));
        match exit_rx.recv_timeout(RSS_POLL) {
            Ok(elapsed) => break elapsed,
            Err(mpsc::RecvTimeoutError::Disconnected) => break started.elapsed(),
            Err(mpsc::RecvTimeoutError::Timeout) if started.elapsed() > OP_TIMEOUT => {
                let _ = Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    };
    let status = waiter.join().expect("waiter thread")?;
    let stdout = out_reader.join().expect("stdout reader");
    Ok(Run {
        status,
        elapsed,
        stdout,
        stderr: err_reader.join().expect("stderr reader"),
        peak_rss_kb,
    })
}

/// Spawns `cmd` and returns the time to its first line of output; the
/// child is then killed. This is a command's set-up: what it does
/// before it reports starting its work.
pub fn first_line(cmd: &mut Command) -> Result<Duration, String> {
    let started = Instant::now();
    let mut child = Reaped(
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {:?}: {e}", cmd.get_program()))?,
    );
    let stdout = child.0.stdout.take().expect("stdout is piped");
    let (line_tx, line_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let _ = line_tx.send((read.map(|n| n > 0), started.elapsed()));
    });
    let first = line_rx.recv_timeout(OP_TIMEOUT);
    drop(child);
    reader.join().expect("stdout reader");
    match first {
        Ok((Ok(true), elapsed)) => Ok(elapsed),
        Ok((Ok(false), _)) => Err(format!("{:?} printed nothing", cmd.get_program())),
        Ok((Err(e), _)) => Err(e.to_string()),
        Err(_) => Err(format!(
            "{:?} printed nothing in {OP_TIMEOUT:?}",
            cmd.get_program()
        )),
    }
}

/// A child that is killed and reaped if the ledger lets go of it early.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Reads a pipe to its end on a thread of its own, so a chatty child
/// never blocks on a full pipe.
pub fn drain(mut pipe: impl Read + Send + 'static) -> thread::JoinHandle<String> {
    thread::spawn(move || {
        let mut text = String::new();
        let _ = pipe.read_to_string(&mut text);
        text
    })
}

/// The peak resident set (`VmHWM`) of a running process, KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status =
        std::fs::read_to_string(Path::new("/proc").join(pid.to_string()).join("status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_a_child_and_captures_its_output() {
        let run = run(Command::new("sh").args(["-c", "echo first; echo second; echo oops >&2"]))
            .expect("sh runs");
        assert!(run.status.success());
        assert_eq!(run.stdout, "first\nsecond\n");
        assert_eq!(run.stderr, "oops\n");
        assert!(run.check("sh").is_ok());
    }

    #[test]
    fn failing_child_reports_its_stderr() {
        let run = run(Command::new("sh").args(["-c", "echo broken >&2; exit 3"])).expect("sh runs");
        let err = run.check("sh").expect_err("exit 3 fails");
        assert!(err.contains("broken"), "{err}");
    }

    #[test]
    fn first_line_does_not_wait_for_the_child_to_finish() {
        let started = Instant::now();
        let t =
            first_line(Command::new("sh").args(["-c", "echo up; exec sleep 30"])).expect("a line");
        assert!(t < Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the child was killed"
        );
        assert!(first_line(Command::new("sh").args(["-c", "exit 0"])).is_err());
    }

    #[test]
    fn reads_own_peak_rss() {
        let kb = peak_rss_kib(std::process::id()).expect("procfs is mounted");
        assert!(kb > 0);
    }
}
