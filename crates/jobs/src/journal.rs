//! Write-ahead journal: the crash-recovery backbone of the job engine.
//!
//! A sweep's progress is recorded as an append-only JSON-lines file under
//! a journal directory (conventionally `results/journal/<run-id>.jsonl`).
//! Each line wraps one [`JournalRecord`] in a crc64 envelope:
//!
//! ```text
//! {"crc64":"<16 hex>","rec":{"t":"job_finished","key":"..."}}
//! ```
//!
//! The checksum is FNV-1a over the canonical serialization of `rec`
//! (which [`crate::Json`] guarantees is a parse/print fixed point), so a
//! record damaged anywhere — torn write, bit rot, hand editing — fails
//! verification.
//!
//! **Durability model.** Records are appended in batches via
//! [`Journal::append_all`]: one `write_all` of all lines followed by one
//! `sync_data`, so a batch is at most one fsync and a crash can only lose
//! records that were never acknowledged. The engine journals
//! `batch_planned` (with the full job list embedded) *before* submitting
//! anything, then one `job_finished`/`job_degraded` per outcome.
//!
//! **Replay invariants.** [`Journal::replay`] tolerates exactly one
//! damaged record, and only at the tail — the signature of a crash
//! mid-append. Damage anywhere else means the file was corrupted at
//! rest, and replay fails loudly with [`JobError::Invalid`] rather than
//! silently resuming from a hole. A replayed journal answers two
//! questions: what was planned (`jobs`, in original order) and what is
//! known complete (`finished`); resume re-runs the full planned list and
//! lets the content-addressed cache absorb the finished prefix, so the
//! cache — not the journal — stays the ground truth for results.

use crate::error::JobError;
use crate::job::Job;
use crate::json::Json;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use tdsigma_tech::fnv1a64;

/// Basis for journal record checksums (distinct from both the job-key
/// and cache-artifact bases, so no cross-protocol hash collisions).
const JOURNAL_CRC_BASIS: u64 = 0x51ed_270b_7fa5_35c9;

/// One durable fact about a run's progress.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A batch was planned: the full job list, in submission order, so a
    /// resume needs nothing but the journal to reconstruct the sweep.
    BatchPlanned {
        /// The run this journal belongs to.
        run_id: String,
        /// The engine fingerprint of the process that planned the batch
        /// (see [`tdsigma_core::engine_fingerprint`]). Empty when the
        /// record carries none; resume treats any mismatch, empty
        /// included, as a hard error unless forced.
        fingerprint: String,
        /// Every job in the batch, in original order.
        jobs: Vec<Job>,
    },
    /// A job was submitted to the pool (or is about to be).
    JobStarted {
        /// The job's content-addressed key.
        key: String,
    },
    /// A job completed and its report reached the cache.
    JobFinished {
        /// The job's content-addressed key.
        key: String,
    },
    /// A job exhausted its attempts; the error is recorded so a resumed
    /// run (and a post-mortem) can see *why* without the dead process.
    JobDegraded {
        /// The job's content-addressed key.
        key: String,
        /// Display form of the structured error.
        error: String,
        /// Whether the failure class is worth retrying on resume.
        retryable: bool,
    },
    /// A job's remote result was verified against a redundant
    /// recomputation (sampled verification).
    /// A resume must not pay for re-verifying it.
    JobVerified {
        /// The job's content-addressed key.
        key: String,
    },
    /// A `--resume` replayed this journal and continued the run.
    Resumed {
        /// Jobs already complete at resume time.
        completed: u64,
    },
}

impl JournalRecord {
    /// The record's canonical JSON body (the `rec` field of a line).
    pub fn to_json(&self) -> Json {
        let mut obj = Vec::new();
        match self {
            JournalRecord::BatchPlanned {
                run_id,
                fingerprint,
                jobs,
            } => {
                obj.push(("t".into(), Json::Str("batch_planned".into())));
                obj.push(("run_id".into(), Json::Str(run_id.clone())));
                // Emitted only when set, so pre-fingerprint records
                // re-serialize byte-identically and their crc envelopes
                // still verify on replay.
                if !fingerprint.is_empty() {
                    obj.push(("fingerprint".into(), Json::Str(fingerprint.clone())));
                }
                obj.push((
                    "jobs".into(),
                    Json::Arr(jobs.iter().map(Job::to_json).collect()),
                ));
            }
            JournalRecord::JobStarted { key } => {
                obj.push(("t".into(), Json::Str("job_started".into())));
                obj.push(("key".into(), Json::Str(key.clone())));
            }
            JournalRecord::JobFinished { key } => {
                obj.push(("t".into(), Json::Str("job_finished".into())));
                obj.push(("key".into(), Json::Str(key.clone())));
            }
            JournalRecord::JobDegraded {
                key,
                error,
                retryable,
            } => {
                obj.push(("t".into(), Json::Str("job_degraded".into())));
                obj.push(("key".into(), Json::Str(key.clone())));
                obj.push(("error".into(), Json::Str(error.clone())));
                obj.push(("retryable".into(), Json::Bool(*retryable)));
            }
            JournalRecord::JobVerified { key } => {
                obj.push(("t".into(), Json::Str("job_verified".into())));
                obj.push(("key".into(), Json::Str(key.clone())));
            }
            JournalRecord::Resumed { completed } => {
                obj.push(("t".into(), Json::Str("resumed".into())));
                obj.push(("completed".into(), Json::Num(*completed as f64)));
            }
        }
        Json::Obj(obj)
    }

    /// Parses a record body produced by [`JournalRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] on an unknown tag or missing field.
    pub fn from_json(v: &Json) -> Result<Self, JobError> {
        let tag = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or_else(|| JobError::Invalid("journal record missing tag 't'".into()))?;
        let key_of = |v: &Json| -> Result<String, JobError> {
            Ok(v.get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| JobError::Invalid(format!("journal {tag} record missing 'key'")))?
                .to_string())
        };
        match tag {
            "batch_planned" => {
                let run_id = v
                    .get("run_id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| JobError::Invalid("batch_planned missing 'run_id'".into()))?
                    .to_string();
                let fingerprint = v
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                let jobs = v
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| JobError::Invalid("batch_planned missing 'jobs'".into()))?
                    .iter()
                    .map(Job::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(JournalRecord::BatchPlanned {
                    run_id,
                    fingerprint,
                    jobs,
                })
            }
            "job_started" => Ok(JournalRecord::JobStarted { key: key_of(v)? }),
            "job_finished" => Ok(JournalRecord::JobFinished { key: key_of(v)? }),
            "job_degraded" => Ok(JournalRecord::JobDegraded {
                key: key_of(v)?,
                error: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                retryable: v.get("retryable").and_then(Json::as_bool).unwrap_or(false),
            }),
            "job_verified" => Ok(JournalRecord::JobVerified { key: key_of(v)? }),
            "resumed" => Ok(JournalRecord::Resumed {
                completed: v.get("completed").and_then(Json::as_u64).unwrap_or(0),
            }),
            other => Err(JobError::Invalid(format!(
                "unknown journal record tag {other:?}"
            ))),
        }
    }

    /// One journal line: the record body wrapped in its crc envelope,
    /// newline-terminated.
    fn to_line(&self) -> String {
        let rec = self.to_json();
        let body = rec.to_text();
        let crc = fnv1a64(body.as_bytes(), JOURNAL_CRC_BASIS);
        Json::Obj(vec![
            ("crc64".into(), Json::Str(format!("{crc:016x}"))),
            ("rec".into(), rec),
        ])
        .to_text()
            + "\n"
    }
}

/// Parses one journal line and verifies its checksum. The crc is checked
/// against the *re-serialized* parsed body, which is sound because the
/// JSON writer is a parse/print fixed point (see json.rs tests).
fn parse_line(line: &str) -> Result<JournalRecord, JobError> {
    let envelope = Json::parse(line)
        .map_err(|e| JobError::Invalid(format!("unparsable journal line: {e}")))?;
    let stated = envelope
        .get("crc64")
        .and_then(Json::as_str)
        .ok_or_else(|| JobError::Invalid("journal line missing crc64".into()))?;
    let rec = envelope
        .get("rec")
        .ok_or_else(|| JobError::Invalid("journal line missing rec".into()))?;
    let body = rec.to_text();
    let actual = format!("{:016x}", fnv1a64(body.as_bytes(), JOURNAL_CRC_BASIS));
    if stated != actual {
        return Err(JobError::Invalid(format!(
            "journal crc mismatch: line says {stated}, record hashes to {actual}"
        )));
    }
    JournalRecord::from_json(rec)
}

/// Checks that a run id is safe to splice into a filename: non-empty,
/// at most 64 chars, drawn from `[A-Za-z0-9._-]`, and not dot-only (so
/// `..` cannot escape the journal directory).
///
/// # Errors
///
/// Returns [`JobError::Invalid`] naming the offending id.
pub fn validate_run_id(run_id: &str) -> Result<(), JobError> {
    let ok_chars = run_id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if run_id.is_empty() || run_id.len() > 64 || !ok_chars || run_id.chars().all(|c| c == '.') {
        return Err(JobError::Invalid(format!(
            "invalid run id {run_id:?}: need 1-64 chars from [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

/// An open, append-only journal for one run.
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    path: PathBuf,
    run_id: String,
}

impl Journal {
    /// Creates a fresh journal for `run_id` under `dir` (created if
    /// missing). Fails if a journal for this run already exists — a
    /// crashed run must be continued with [`Journal::open_existing`],
    /// never silently overwritten.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for a bad run id; [`JobError::Io`] if the
    /// directory or file cannot be created (including `AlreadyExists`).
    pub fn create(dir: impl AsRef<Path>, run_id: &str) -> Result<Self, JobError> {
        validate_run_id(run_id)?;
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| JobError::io_at(dir, &e))?;
        let path = journal_path(dir, run_id);
        let file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| JobError::io_at(&path, &e))?;
        Ok(Journal {
            file,
            path,
            run_id: run_id.to_string(),
        })
    }

    /// Opens an existing journal for appending (the resume path).
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for a bad run id; [`JobError::Io`] if the
    /// journal file does not exist or cannot be opened.
    pub fn open_existing(dir: impl AsRef<Path>, run_id: &str) -> Result<Self, JobError> {
        validate_run_id(run_id)?;
        let path = journal_path(dir.as_ref(), run_id);
        let file = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| JobError::io_at(&path, &e))?;
        Ok(Journal {
            file,
            path,
            run_id: run_id.to_string(),
        })
    }

    /// The journal file on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run this journal records.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Appends one record durably (a one-element [`Journal::append_all`]).
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the write or fsync fails.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), JobError> {
        self.append_all(std::slice::from_ref(rec))
    }

    /// Appends a batch of records: one buffered write, one fsync. After
    /// this returns, the records survive process death.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the write or fsync fails. On error
    /// the tail of the file may hold a torn record — exactly the case
    /// replay tolerates.
    pub fn append_all(&mut self, recs: &[JournalRecord]) -> Result<(), JobError> {
        if recs.is_empty() {
            return Ok(());
        }
        let span = tdsigma_obs::span("journal.fsync")
            .attr("records", recs.len().to_string())
            .attr("run_id", self.run_id.clone());
        let mut buf = String::new();
        for rec in recs {
            buf.push_str(&rec.to_line());
        }
        self.file
            .write_all(buf.as_bytes())
            .map_err(|e| JobError::io_at(&self.path, &e))?;
        self.file
            .sync_data()
            .map_err(|e| JobError::io_at(&self.path, &e))?;
        tdsigma_obs::counter("jobs.journal_records").add(recs.len() as u64);
        drop(span);
        Ok(())
    }

    /// Replays a run's journal into a reconciled view of its progress.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for a bad run id or corruption anywhere but
    /// the final line; [`JobError::Io`] if the file cannot be read.
    pub fn replay(dir: impl AsRef<Path>, run_id: &str) -> Result<JournalReplay, JobError> {
        validate_run_id(run_id)?;
        let path = journal_path(dir.as_ref(), run_id);
        let span = tdsigma_obs::span("journal.replay").attr("run_id", run_id.to_string());
        let text = fs::read_to_string(&path).map_err(|e| JobError::io_at(&path, &e))?;
        let mut replay = JournalReplay {
            run_id: run_id.to_string(),
            fingerprint: String::new(),
            jobs: Vec::new(),
            started: HashSet::new(),
            finished: HashSet::new(),
            verified: HashSet::new(),
            degraded: HashMap::new(),
            resumes: 0,
            records: 0,
            torn_tail: false,
        };
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let last = i + 1 == lines.len();
            let rec = match parse_line(line) {
                Ok(rec) => rec,
                Err(_) if last => {
                    // A damaged *final* record is the expected signature
                    // of a crash mid-append: everything acknowledged by
                    // an fsync is intact above it. Tolerate and count.
                    replay.torn_tail = true;
                    tdsigma_obs::counter("jobs.journal_torn_tail").inc();
                    break;
                }
                Err(e) => {
                    // Mid-file damage is corruption at rest, not a torn
                    // append — refuse to guess what was lost.
                    return Err(JobError::Invalid(format!(
                        "journal {} corrupt at line {} (of {}): {e}",
                        path.display(),
                        i + 1,
                        lines.len()
                    )));
                }
            };
            replay.records += 1;
            match rec {
                JournalRecord::BatchPlanned {
                    jobs, fingerprint, ..
                } => {
                    replay.jobs = jobs;
                    replay.fingerprint = fingerprint;
                }
                JournalRecord::JobStarted { key } => {
                    replay.started.insert(key);
                }
                JournalRecord::JobFinished { key } => {
                    replay.finished.insert(key);
                }
                JournalRecord::JobVerified { key } => {
                    replay.verified.insert(key);
                }
                JournalRecord::JobDegraded { key, error, .. } => {
                    replay.degraded.insert(key, error);
                }
                JournalRecord::Resumed { .. } => replay.resumes += 1,
            }
        }
        drop(span);
        Ok(replay)
    }
}

/// The reconciled state of a run, produced by [`Journal::replay`].
#[derive(Debug, Clone)]
pub struct JournalReplay {
    /// The run id replayed.
    pub run_id: String,
    /// Engine fingerprint recorded by the planning process (empty when
    /// the plan record carries none).
    pub fingerprint: String,
    /// The planned batch, in original submission order.
    pub jobs: Vec<Job>,
    /// Keys of jobs known to have been submitted.
    pub started: HashSet<String>,
    /// Keys of jobs known complete (report reached the cache).
    pub finished: HashSet<String>,
    /// Keys whose results were already verified against a redundant
    /// recomputation; resume seeds the dispatcher with these so
    /// verification work is never repeated.
    pub verified: HashSet<String>,
    /// Keys that exhausted their attempts, with the recorded error.
    /// Degraded jobs are *not* treated as complete: resume retries them.
    pub degraded: HashMap<String, String>,
    /// How many times this run has already been resumed.
    pub resumes: u64,
    /// Intact records replayed.
    pub records: u64,
    /// Whether the final record was damaged (crash mid-append) and
    /// skipped.
    pub torn_tail: bool,
}

impl JournalReplay {
    /// Planned jobs with no `job_finished` record — the work a resumed
    /// run must still produce (the cache may still absorb some of it).
    pub fn incomplete_jobs(&self) -> Vec<Job> {
        self.jobs
            .iter()
            .filter(|j| !self.finished.contains(&j.key()))
            .cloned()
            .collect()
    }
}

fn journal_path(dir: &Path, run_id: &str) -> PathBuf {
    dir.join(format!("{run_id}.jsonl"))
}

/// Outcome of one [`gc_finished`] pass over a journal directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalGc {
    /// Run ids whose journals (and `.opt.json` side files) were removed.
    pub pruned: Vec<String>,
    /// Journals left in place (unfinished, protected, retained, or
    /// unreadable — GC never guesses).
    pub kept: usize,
}

/// Prunes journals of *finished* runs from `dir`, keeping the journal
/// directory bounded the way the prune of `rejected/` bounds the
/// cache. A run counts as finished only when its replay proves it:
/// a batch plan exists, every planned job has a `job_finished` record,
/// and the tail is not torn. Anything else — unfinished, corrupt,
/// unreadable, foreign files — is kept; deleting evidence is worse than
/// keeping an obsolete journal.
///
/// The newest `keep_newest` finished journals (by modification time)
/// survive for post-mortems, as does any run id listed in `protect`
/// (conventionally the run that is executing right now). A pruned run
/// also drops its `<run-id>.opt.json` resume token, and each removal
/// bumps the `jobs.journal_pruned` counter.
///
/// # Errors
///
/// Returns [`JobError::Io`] only if the directory itself cannot be
/// listed; per-file read or remove failures just leave that file in
/// place (it will be retried by the next pass).
pub fn gc_finished(
    dir: impl AsRef<Path>,
    keep_newest: usize,
    protect: &[&str],
) -> Result<JournalGc, JobError> {
    let dir = dir.as_ref();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        // A journal directory that was never created holds nothing to GC.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalGc::default()),
        Err(e) => return Err(JobError::io_at(dir, &e)),
    };
    let mut finished: Vec<(String, std::time::SystemTime)> = Vec::new();
    let mut kept = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(run_id) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".jsonl"))
        else {
            continue; // not a journal (e.g. an .opt.json side file)
        };
        if validate_run_id(run_id).is_err() || protect.contains(&run_id) {
            kept += 1;
            continue;
        }
        let complete = Journal::replay(dir, run_id)
            .map(|r| !r.jobs.is_empty() && !r.torn_tail && r.incomplete_jobs().is_empty())
            .unwrap_or(false);
        if !complete {
            kept += 1;
            continue;
        }
        let modified = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::UNIX_EPOCH);
        finished.push((run_id.to_string(), modified));
    }
    // Newest finished journals survive for post-mortems.
    finished.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut gc = JournalGc {
        pruned: Vec::new(),
        kept: kept + finished.len().min(keep_newest),
    };
    for (run_id, _) in finished.into_iter().skip(keep_newest) {
        if fs::remove_file(journal_path(dir, &run_id)).is_err() {
            gc.kept += 1;
            continue;
        }
        let _ = fs::remove_file(dir.join(format!("{run_id}.opt.json")));
        tdsigma_obs::counter("jobs.journal_pruned").inc();
        gc.pruned.push(run_id);
    }
    gc.pruned.sort();
    Ok(gc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tdsigma_journal_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn two_jobs() -> Vec<Job> {
        vec![Job::sim(40.0, 750e6, 5e6), Job::sim(28.0, 1.6e9, 10e6)]
    }

    #[test]
    fn records_roundtrip_through_lines() {
        let jobs = two_jobs();
        let recs = vec![
            JournalRecord::BatchPlanned {
                run_id: "r1".into(),
                fingerprint: "feedfacecafebeef".into(),
                jobs: jobs.clone(),
            },
            JournalRecord::BatchPlanned {
                run_id: "r1-prefingerprint".into(),
                fingerprint: String::new(),
                jobs: jobs.clone(),
            },
            JournalRecord::JobStarted { key: jobs[0].key() },
            JournalRecord::JobFinished { key: jobs[0].key() },
            JournalRecord::JobVerified { key: jobs[0].key() },
            JournalRecord::JobDegraded {
                key: jobs[1].key(),
                error: "transient failure: injected".into(),
                retryable: true,
            },
            JournalRecord::Resumed { completed: 1 },
        ];
        for rec in &recs {
            let line = rec.to_line();
            let back = parse_line(line.trim_end()).expect("line parses");
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn pre_fingerprint_batch_planned_lines_still_verify() {
        // A plan with no fingerprint serializes without the field at
        // all, so journals written by pre-fingerprint binaries and by
        // this one are byte-compatible and crc-stable in both
        // directions.
        let rec = JournalRecord::BatchPlanned {
            run_id: "old".into(),
            fingerprint: String::new(),
            jobs: two_jobs(),
        };
        let line = rec.to_line();
        assert!(
            !line.contains("fingerprint"),
            "empty fingerprint must not be emitted: {line}"
        );
        match parse_line(line.trim_end()).expect("old-format line verifies") {
            JournalRecord::BatchPlanned { fingerprint, .. } => {
                assert_eq!(fingerprint, "", "missing field reads back empty");
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn append_replay_reconstructs_progress() {
        let dir = temp_dir("roundtrip");
        let jobs = two_jobs();
        let mut j = Journal::create(&dir, "run-a").unwrap();
        j.append_all(&[
            JournalRecord::BatchPlanned {
                run_id: "run-a".into(),
                fingerprint: "0011223344556677".into(),
                jobs: jobs.clone(),
            },
            JournalRecord::JobStarted { key: jobs[0].key() },
            JournalRecord::JobStarted { key: jobs[1].key() },
        ])
        .unwrap();
        j.append(&JournalRecord::JobFinished { key: jobs[0].key() })
            .unwrap();

        let replay = Journal::replay(&dir, "run-a").unwrap();
        assert_eq!(replay.jobs, jobs);
        assert_eq!(replay.fingerprint, "0011223344556677");
        assert_eq!(replay.started.len(), 2);
        assert!(replay.finished.contains(&jobs[0].key()));
        assert!(!replay.torn_tail);
        let incomplete = replay.incomplete_jobs();
        assert_eq!(incomplete, vec![jobs[1].clone()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verified_records_replay_into_the_verified_set() {
        let dir = temp_dir("verified");
        let jobs = two_jobs();
        let mut j = Journal::create(&dir, "run-v").unwrap();
        j.append_all(&[
            JournalRecord::BatchPlanned {
                run_id: "run-v".into(),
                fingerprint: String::new(),
                jobs: jobs.clone(),
            },
            JournalRecord::JobFinished { key: jobs[0].key() },
            JournalRecord::JobVerified { key: jobs[0].key() },
        ])
        .unwrap();
        let replay = Journal::replay(&dir, "run-v").unwrap();
        assert!(replay.verified.contains(&jobs[0].key()));
        assert!(!replay.verified.contains(&jobs[1].key()));
        assert_eq!(
            replay.incomplete_jobs(),
            vec![jobs[1].clone()],
            "verification records must not affect completion accounting"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_tolerated() {
        let dir = temp_dir("torn");
        let jobs = two_jobs();
        let mut j = Journal::create(&dir, "run-torn").unwrap();
        j.append_all(&[
            JournalRecord::BatchPlanned {
                run_id: "run-torn".into(),
                fingerprint: String::new(),
                jobs: jobs.clone(),
            },
            JournalRecord::JobFinished { key: jobs[0].key() },
        ])
        .unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let path = j.path().to_path_buf();
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(b"{\"crc64\":\"0123456789abcdef\",\"rec\":{\"t\":\"job_fin")
            .unwrap();
        drop(raw);

        let replay = Journal::replay(&dir, "run-torn").unwrap();
        assert!(replay.torn_tail, "torn tail must be flagged");
        assert_eq!(replay.records, 2, "intact prefix fully replayed");
        assert!(replay.finished.contains(&jobs[0].key()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_fails_loudly() {
        let dir = temp_dir("midfile");
        let jobs = two_jobs();
        let mut j = Journal::create(&dir, "run-mid").unwrap();
        for key in [jobs[0].key(), jobs[1].key()] {
            j.append(&JournalRecord::JobFinished { key }).unwrap();
        }
        let path = j.path().to_path_buf();
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // Flip a hex digit inside the first record's key: still valid
        // JSON, but the crc no longer matches.
        lines[0] = lines[0].replacen(&jobs[0].key()[..8], "00000000", 1);
        fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = Journal::replay(&dir, "run-mid").expect_err("mid-file damage must fail");
        assert!(
            matches!(err, JobError::Invalid(_)),
            "expected Invalid, got {err:?}"
        );
        assert!(err.to_string().contains("line 1"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_to_clobber_an_existing_run() {
        let dir = temp_dir("clobber");
        let _first = Journal::create(&dir, "run-x").unwrap();
        let err = Journal::create(&dir, "run-x").expect_err("second create must fail");
        match err {
            JobError::Io { kind, .. } => {
                assert_eq!(kind, std::io::ErrorKind::AlreadyExists)
            }
            other => panic!("expected Io/AlreadyExists, got {other:?}"),
        }
        // But the crashed run can be reopened for append.
        Journal::open_existing(&dir, "run-x").expect("reopen for append");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_run_ids_are_rejected() {
        for bad in ["", "..", "a/b", "a\\b", "x".repeat(65).as_str(), "run id"] {
            assert!(
                validate_run_id(bad).is_err(),
                "run id {bad:?} must be rejected"
            );
        }
        for good in ["r1", "sweep-1700000000000-42", "a.b_c-d"] {
            assert!(validate_run_id(good).is_ok(), "run id {good:?} must pass");
        }
    }

    #[test]
    fn empty_append_is_a_noop() {
        let dir = temp_dir("empty");
        let mut j = Journal::create(&dir, "run-e").unwrap();
        j.append_all(&[]).unwrap();
        assert_eq!(fs::read_to_string(j.path()).unwrap(), "");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes a journal for `run_id` with both jobs planned and
    /// `finished_of_two` of them recorded finished.
    fn write_run(dir: &Path, run_id: &str, finished_of_two: usize) {
        let jobs = two_jobs();
        let mut j = Journal::create(dir, run_id).unwrap();
        let mut recs = vec![JournalRecord::BatchPlanned {
            run_id: run_id.into(),
            fingerprint: "1122334455667788".into(),
            jobs: jobs.clone(),
        }];
        for job in jobs.iter().take(finished_of_two) {
            recs.push(JournalRecord::JobFinished { key: job.key() });
        }
        j.append_all(&recs).unwrap();
    }

    #[test]
    fn gc_prunes_only_provably_finished_runs() {
        let dir = temp_dir("gc");
        write_run(&dir, "done-1", 2);
        write_run(&dir, "done-2", 2);
        write_run(&dir, "partial", 1);
        write_run(&dir, "current", 2);
        fs::write(dir.join("done-1.opt.json"), "{}").unwrap();
        fs::write(dir.join("stray.txt"), "not a journal").unwrap();

        let gc = gc_finished(&dir, 0, &["current"]).unwrap();
        assert_eq!(gc.pruned, vec!["done-1".to_string(), "done-2".to_string()]);
        assert!(!journal_path(&dir, "done-1").exists());
        assert!(
            !dir.join("done-1.opt.json").exists(),
            "resume token goes with its journal"
        );
        assert!(journal_path(&dir, "partial").exists(), "unfinished kept");
        assert!(journal_path(&dir, "current").exists(), "protected kept");
        assert!(dir.join("stray.txt").exists(), "foreign files untouched");
        assert_eq!(gc.kept, 2);

        // Idempotent: a second pass finds nothing new to prune.
        let again = gc_finished(&dir, 0, &["current"]).unwrap();
        assert!(again.pruned.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_retains_the_newest_finished_journals() {
        let dir = temp_dir("gc_retain");
        for i in 0..4 {
            write_run(&dir, &format!("run-{i}"), 2);
        }
        let gc = gc_finished(&dir, 3, &[]).unwrap();
        assert_eq!(gc.pruned.len(), 1, "only the overflow goes: {gc:?}");
        assert_eq!(gc.kept, 3);
        let survivors = fs::read_dir(&dir).unwrap().count();
        assert_eq!(survivors, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_corrupt_and_torn_journals() {
        let dir = temp_dir("gc_corrupt");
        write_run(&dir, "torn", 2);
        let mut raw = fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&dir, "torn"))
            .unwrap();
        raw.write_all(b"{\"crc64\":\"dead").unwrap();
        drop(raw);
        fs::write(journal_path(&dir, "garbage"), "not json at all\n").unwrap();

        let gc = gc_finished(&dir, 0, &[]).unwrap();
        assert!(gc.pruned.is_empty(), "evidence is never deleted: {gc:?}");
        assert_eq!(gc.kept, 2);

        let missing = gc_finished(dir.join("never-created"), 0, &[]).unwrap();
        assert_eq!(missing, JournalGc::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_jobs_are_retried_on_resume() {
        let dir = temp_dir("degraded");
        let jobs = two_jobs();
        let mut j = Journal::create(&dir, "run-d").unwrap();
        j.append_all(&[
            JournalRecord::BatchPlanned {
                run_id: "run-d".into(),
                fingerprint: String::new(),
                jobs: jobs.clone(),
            },
            JournalRecord::JobFinished { key: jobs[0].key() },
            JournalRecord::JobDegraded {
                key: jobs[1].key(),
                error: "job failed after 3 attempt(s): injected".into(),
                retryable: true,
            },
        ])
        .unwrap();
        let replay = Journal::replay(&dir, "run-d").unwrap();
        assert_eq!(replay.degraded.len(), 1);
        assert_eq!(
            replay.incomplete_jobs(),
            vec![jobs[1].clone()],
            "degraded jobs stay incomplete so resume retries them"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
