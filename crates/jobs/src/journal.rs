//! Write-ahead journal: the plan of a run, so `--resume` can finish it.
//!
//! A run's journal is an append-only JSON-lines file under a journal
//! directory (conventionally `results/journal/<run-id>.jsonl`). Each line
//! wraps one [`JournalRecord`] in a crc64 envelope:
//!
//! ```text
//! {"crc64":"<16 hex>","rec":{"t":"job_verified","key":"..."}}
//! ```
//!
//! The checksum is FNV-1a over the canonical serialization of `rec`
//! (which [`crate::Json`] guarantees is a parse/print fixed point), so a
//! record damaged anywhere — torn write, bit rot, hand editing — fails
//! verification.
//!
//! **What it records.** Intent, never completion: `batch_planned` (the
//! full job list, appended durably before anything is submitted),
//! `job_verified` (keys whose remote result passed a redundant
//! recomputation) and `resumed`. Whether a job is done is the
//! content-addressed cache's answer alone: resume re-runs the whole plan
//! and the cache absorbs every job whose artifact is present, so there is
//! no second record of completion to disagree with it. The
//! `job_started`, `job_finished` and `job_degraded` lines of older
//! journals are verified like any other line and then skipped.
//!
//! **Durability model.** Records are appended in batches via
//! [`Journal::append_all`]: one `write_all` of all lines followed by one
//! `sync_data`, so a batch is at most one fsync and a crash can only lose
//! records that were never acknowledged.
//!
//! **Replay invariants.** [`Journal::replay`] tolerates exactly one
//! damaged record, and only at the tail — the signature of a crash
//! mid-append. Damage anywhere else means the file was corrupted at
//! rest, and replay fails loudly with [`JobError::Invalid`] rather than
//! silently resuming from a hole. A replayed journal answers what resume
//! reads: the plan (`jobs`, in original order), the verified keys and how
//! often the run was resumed.

use crate::cache::ResultCache;
use crate::error::JobError;
use crate::job::Job;
use crate::json::Json;
use std::collections::HashSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use tdsigma_tech::fnv1a64;

/// Basis for journal record checksums (distinct from both the job-key
/// and cache-artifact bases, so no cross-protocol hash collisions).
const JOURNAL_CRC_BASIS: u64 = 0x51ed_270b_7fa5_35c9;

/// Per-job progress tags older binaries wrote. Replay verifies their
/// checksum and skips them: the cache is the only completion record.
const RETIRED_TAGS: [&str; 3] = ["job_started", "job_finished", "job_degraded"];

/// One durable fact about a run.
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
    /// A job's remote result was verified against a redundant
    /// recomputation (sampled verification).
    /// A resume must not pay for re-verifying it.
    JobVerified {
        /// The job's content-addressed key.
        key: String,
    },
    /// A `--resume` replayed this journal and continued the run.
    Resumed,
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
            JournalRecord::JobVerified { key } => {
                obj.push(("t".into(), Json::Str("job_verified".into())));
                obj.push(("key".into(), Json::Str(key.clone())));
            }
            JournalRecord::Resumed => {
                obj.push(("t".into(), Json::Str("resumed".into())));
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
            "job_verified" => Ok(JournalRecord::JobVerified {
                key: v
                    .get("key")
                    .and_then(Json::as_str)
                    .ok_or_else(|| JobError::Invalid("job_verified missing 'key'".into()))?
                    .to_string(),
            }),
            // Older journals also carry a `completed` count; resume does not need it.
            "resumed" => Ok(JournalRecord::Resumed),
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

/// Parses one journal line and verifies its checksum; `None` for a
/// verified line of a [`RETIRED_TAGS`] record. The crc is checked
/// against the *re-serialized* parsed body, which is sound because the
/// JSON writer is a parse/print fixed point (see json.rs tests).
fn parse_line(line: &str) -> Result<Option<JournalRecord>, JobError> {
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
    let tag = rec.get("t").and_then(Json::as_str);
    if tag.is_some_and(|t| RETIRED_TAGS.contains(&t)) {
        return Ok(None);
    }
    JournalRecord::from_json(rec).map(Some)
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

    /// Replays a run's journal into what a resume reads.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for a bad run id or corruption anywhere but
    /// the final line; [`JobError::Io`] if the file cannot be read.
    pub fn replay(dir: impl AsRef<Path>, run_id: &str) -> Result<JournalReplay, JobError> {
        validate_run_id(run_id)?;
        let path = journal_path(dir.as_ref(), run_id);
        let span = tdsigma_obs::span("journal.replay").attr("run_id", run_id.to_string());
        let bytes = fs::read(&path).map_err(|e| JobError::io_at(&path, &e))?;
        // A byte that is not UTF-8 damages only its own line: the lossy
        // decode turns it into U+FFFD, which fails that line's checksum.
        let text = String::from_utf8_lossy(&bytes);
        let mut replay = JournalReplay {
            run_id: run_id.to_string(),
            fingerprint: String::new(),
            jobs: Vec::new(),
            verified: HashSet::new(),
            resumes: 0,
            torn_tail: false,
        };
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let last = i + 1 == lines.len();
            match parse_line(line) {
                Ok(None) => {}
                Ok(Some(JournalRecord::BatchPlanned {
                    jobs, fingerprint, ..
                })) => {
                    replay.jobs = jobs;
                    replay.fingerprint = fingerprint;
                }
                Ok(Some(JournalRecord::JobVerified { key })) => {
                    replay.verified.insert(key);
                }
                Ok(Some(JournalRecord::Resumed)) => replay.resumes += 1,
                Err(_) if last => {
                    // A damaged *final* record is the expected signature
                    // of a crash mid-append: everything acknowledged by
                    // an fsync is intact above it. Tolerate and count.
                    replay.torn_tail = true;
                    tdsigma_obs::counter("jobs.journal_torn_tail").inc();
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
            }
        }
        drop(span);
        Ok(replay)
    }
}

/// What a resume reads from a run's journal, produced by
/// [`Journal::replay`]. It says nothing about which jobs finished: ask
/// the cache.
#[derive(Debug, Clone)]
pub struct JournalReplay {
    /// The run id replayed.
    pub run_id: String,
    /// Engine fingerprint recorded by the planning process (empty when
    /// the plan record carries none).
    pub fingerprint: String,
    /// The last planned batch, in original submission order.
    pub jobs: Vec<Job>,
    /// Keys whose results were already verified against a redundant
    /// recomputation; resume seeds the dispatcher with these so
    /// verification work is never repeated.
    pub verified: HashSet<String>,
    /// How many times this run has already been resumed.
    pub resumes: u64,
    /// Whether the final record was damaged (crash mid-append) and
    /// skipped.
    pub torn_tail: bool,
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
/// cache. A run counts as finished only when its replay and `cache`
/// prove it: a batch plan exists, the tail is not torn, and `cache`
/// holds an artifact it would replay ([`ResultCache::contains`]) for
/// every planned job, not a corrupt or foreign one. A memory-only cache proves
/// nothing, since it dies with the process, so with one nothing is
/// pruned. Anything else — unfinished, corrupt, unreadable, foreign
/// files — is kept; deleting evidence is worse than keeping an obsolete
/// journal.
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
    cache: &ResultCache,
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
        let complete = cache.disk_dir().is_some()
            && Journal::replay(dir, run_id).is_ok_and(|r| {
                !r.jobs.is_empty()
                    && !r.torn_tail
                    && r.jobs.iter().all(|j| cache.contains(&j.key()))
            });
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
    use crate::report::JobReport;
    use tdsigma_tech::Rng64;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tdsigma_journal_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn two_jobs() -> Vec<Job> {
        vec![Job::sim(40.0, 750e6, 5e6), Job::sim(28.0, 1.6e9, 10e6)]
    }

    fn plan(run_id: &str, jobs: &[Job]) -> JournalRecord {
        JournalRecord::BatchPlanned {
            run_id: run_id.into(),
            fingerprint: "1122334455667788".into(),
            jobs: jobs.to_vec(),
        }
    }

    #[test]
    fn records_roundtrip_through_lines() {
        let jobs = two_jobs();
        let recs = vec![
            plan("r1", &jobs),
            JournalRecord::BatchPlanned {
                run_id: "r1-prefingerprint".into(),
                fingerprint: String::new(),
                jobs: jobs.clone(),
            },
            JournalRecord::JobVerified { key: jobs[0].key() },
            JournalRecord::Resumed,
        ];
        for rec in &recs {
            let line = rec.to_line();
            let back = parse_line(line.trim_end()).expect("line parses");
            assert_eq!(back.as_ref(), Some(rec));
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
            Some(JournalRecord::BatchPlanned { fingerprint, .. }) => {
                assert_eq!(fingerprint, "", "missing field reads back empty");
            }
            other => panic!("wrong record: {other:?}"),
        }
    }

    #[test]
    fn replay_reads_the_last_plan_the_verified_keys_and_the_resumes() {
        let dir = temp_dir("roundtrip");
        let jobs = two_jobs();
        let mut j = Journal::create(&dir, "run-a").unwrap();
        j.append(&plan("run-a", &jobs[..1])).unwrap();
        j.append_all(&[
            JournalRecord::JobVerified { key: jobs[0].key() },
            JournalRecord::Resumed,
            plan("run-a", &jobs),
        ])
        .unwrap();

        let replay = Journal::replay(&dir, "run-a").unwrap();
        assert_eq!(replay.jobs, jobs, "a later plan replaces an earlier one");
        assert_eq!(replay.fingerprint, "1122334455667788");
        assert_eq!(replay.verified, HashSet::from([jobs[0].key()]));
        assert_eq!(replay.resumes, 1);
        assert!(!replay.torn_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A journal written by the binary before the cache became the only
    /// completion record: a plan, per-job progress lines, a resume
    /// stamped with its count, a second plan and a degraded job.
    const OLD_FORMAT: &str = r#"{"crc64":"e7cbddd1942ec510","rec":{"t":"batch_planned","run_id":"old","fingerprint":"d2450e728cc7af4c","jobs":[{"kind":"sim","node_nm":40,"slices":1,"fs_hz":750000000,"bw_hz":5000000,"samples":2048,"amplitude_rel":0.79,"fin_hz":null,"steps_per_cycle":0,"loop_gain":1,"vco_stages":0,"rdac_ohm":0,"seed":2017}]}}
{"crc64":"f049002ffe45a128","rec":{"t":"job_started","key":"a4da13c1f049c17f77a1779aca2eb631"}}
{"crc64":"2329ff9279633bb9","rec":{"t":"job_finished","key":"a4da13c1f049c17f77a1779aca2eb631"}}
{"crc64":"d8e85ddee2d55db8","rec":{"t":"resumed","completed":1}}
{"crc64":"e7cbddd1942ec510","rec":{"t":"batch_planned","run_id":"old","fingerprint":"d2450e728cc7af4c","jobs":[{"kind":"sim","node_nm":40,"slices":1,"fs_hz":750000000,"bw_hz":5000000,"samples":2048,"amplitude_rel":0.79,"fin_hz":null,"steps_per_cycle":0,"loop_gain":1,"vco_stages":0,"rdac_ohm":0,"seed":2017}]}}
{"crc64":"2329ff9279633bb9","rec":{"t":"job_finished","key":"a4da13c1f049c17f77a1779aca2eb631"}}
{"crc64":"608f8122ae06fcd2","rec":{"t":"job_degraded","key":"a4da13c1f049c17f77a1779aca2eb631","error":"job failed after 2 attempt(s): injected","retryable":true}}
"#;

    #[test]
    fn an_old_format_journal_replays_and_its_retired_lines_are_still_checked() {
        let dir = temp_dir("old_format");
        fs::create_dir_all(&dir).unwrap();
        fs::write(journal_path(&dir, "old"), OLD_FORMAT).unwrap();
        let replay = Journal::replay(&dir, "old").unwrap();
        let job = Job {
            slices: 1,
            samples: 2048,
            ..Job::sim(40.0, 750e6, 5e6)
        };
        assert_eq!(replay.jobs, vec![job.clone()]);
        assert_eq!(replay.jobs[0].key(), "a4da13c1f049c17f77a1779aca2eb631");
        assert_eq!(replay.fingerprint, "d2450e728cc7af4c");
        assert_eq!(replay.resumes, 1);
        assert!(replay.verified.is_empty() && !replay.torn_tail);

        // A retired line is verified before it is skipped: a damaged one
        // mid-file still fails the replay.
        let damaged = OLD_FORMAT.replacen(
            "\"job_started\",\"key\":\"a4",
            "\"job_started\",\"key\":\"b4",
            1,
        );
        fs::write(journal_path(&dir, "old"), damaged).unwrap();
        let err = Journal::replay(&dir, "old").expect_err("crc must still be checked");
        assert!(matches!(err, JobError::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("line 2"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_tolerated() {
        let dir = temp_dir("torn");
        let jobs = two_jobs();
        let mut j = Journal::create(&dir, "run-torn").unwrap();
        j.append(&plan("run-torn", &jobs)).unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let path = j.path().to_path_buf();
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(b"{\"crc64\":\"0123456789abcdef\",\"rec\":{\"t\":\"job_ver")
            .unwrap();
        drop(raw);

        let replay = Journal::replay(&dir, "run-torn").unwrap();
        assert!(replay.torn_tail, "torn tail must be flagged");
        assert_eq!(replay.jobs, jobs, "intact prefix fully replayed");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Damages a valid journal the ways storage can (byte flips,
    /// truncations, duplicated and reordered lines, one to three at a
    /// time) and holds replay to its contract on each: no panic, and `Ok`
    /// exactly when every line above the last is intact. Damage to the
    /// last line alone is a torn tail; damage above it is `Invalid`.
    #[test]
    fn replay_tolerates_damage_only_in_the_last_line() {
        let dir = temp_dir("fuzz");
        let jobs = two_jobs();
        let mut j = Journal::create(&dir, "fuzz").unwrap();
        j.append_all(&[
            plan("fuzz", &jobs),
            JournalRecord::JobVerified { key: jobs[1].key() },
            JournalRecord::Resumed,
            plan("fuzz", &jobs[..1]),
        ])
        .unwrap();
        let original = fs::read_to_string(j.path()).unwrap();
        let intact: HashSet<&str> = original.lines().collect();
        let mut rng = Rng64::seed_from_u64(0x006a_6f75_726e_616c);
        let (mut torn, mut refused) = (0, 0);
        for case in 0..600 {
            let mut bytes = original.as_bytes().to_vec();
            for _ in 0..1 + rng.gen_range(3) {
                let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
                let n = lines.len();
                match rng.gen_range(4) {
                    0 if n > 0 => {
                        let at = rng.gen_range(bytes.len());
                        bytes[at] ^= 1 + rng.gen_range(255) as u8;
                    }
                    1 => bytes.truncate(rng.gen_range(bytes.len() + 1)),
                    2 if n > 0 => {
                        lines.insert(rng.gen_range(n + 1), lines[rng.gen_range(n)]);
                        bytes = lines.concat();
                    }
                    _ if n > 0 => {
                        lines.swap(rng.gen_range(n), rng.gen_range(n));
                        bytes = lines.concat();
                    }
                    _ => {}
                }
            }
            fs::write(j.path(), &bytes).unwrap();
            let text = String::from_utf8_lossy(&bytes);
            let lines: Vec<&str> = text.lines().collect();
            let above_last_intact = lines.iter().rev().skip(1).all(|l| intact.contains(l));
            match Journal::replay(&dir, "fuzz") {
                Ok(replay) => {
                    assert!(above_last_intact, "case {case}: replayed {text}");
                    torn += usize::from(replay.torn_tail);
                }
                Err(JobError::Invalid(_)) => {
                    assert!(!above_last_intact, "case {case}: refused {text}");
                    refused += 1;
                }
                Err(e) => panic!("case {case}: expected Ok or Invalid, got {e:?}"),
            }
        }
        assert!(torn > 50 && refused > 50, "{torn} torn, {refused} refused");
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

    /// Files `job`'s report in `cache`, as a finished run would have.
    fn cache_result(cache: &ResultCache, job: &Job) {
        cache
            .put(&JobReport {
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
            .unwrap();
    }

    /// Writes a journal for `run_id` planning `jobs`.
    fn write_run(dir: &Path, run_id: &str, jobs: &[Job]) {
        Journal::create(dir, run_id)
            .unwrap()
            .append(&plan(run_id, jobs))
            .unwrap();
    }

    /// A journal directory, a disk cache holding only the first of
    /// [`two_jobs`], and a third job it also holds.
    fn gc_fixture(tag: &str) -> (PathBuf, ResultCache, Vec<Job>) {
        let root = temp_dir(tag);
        let cache = ResultCache::with_disk(root.join("cache")).unwrap();
        let mut jobs = two_jobs();
        jobs.push(Job {
            seed: 1,
            ..jobs[0].clone()
        });
        cache_result(&cache, &jobs[0]);
        cache_result(&cache, &jobs[2]);
        (root.join("journal"), cache, jobs)
    }

    #[test]
    fn gc_prunes_only_runs_the_cache_proves_finished() {
        let (dir, cache, jobs) = gc_fixture("gc");
        let done = [jobs[0].clone(), jobs[2].clone()];
        write_run(&dir, "done-1", &done);
        write_run(&dir, "done-2", &done);
        write_run(&dir, "partial", &jobs);
        write_run(&dir, "current", &done);
        fs::write(dir.join("done-1.opt.json"), "{}").unwrap();
        fs::write(dir.join("stray.txt"), "not a journal").unwrap();

        // A memory-only cache dies with its process: it proves nothing.
        let memory = ResultCache::in_memory();
        done.iter().for_each(|job| cache_result(&memory, job));
        assert!(gc_finished(&dir, &memory, 0, &[])
            .unwrap()
            .pruned
            .is_empty());

        let gc = gc_finished(&dir, &cache, 0, &["current"]).unwrap();
        assert_eq!(gc.pruned, vec!["done-1".to_string(), "done-2".to_string()]);
        assert!(!journal_path(&dir, "done-1").exists());
        assert!(
            !dir.join("done-1.opt.json").exists(),
            "resume token goes with its journal"
        );
        assert!(journal_path(&dir, "partial").exists(), "uncached job kept");
        assert!(journal_path(&dir, "current").exists(), "protected kept");
        assert!(dir.join("stray.txt").exists(), "foreign files untouched");
        assert_eq!(gc.kept, 2);

        // Idempotent: a second pass finds nothing new to prune.
        let again = gc_finished(&dir, &cache, 0, &["current"]).unwrap();
        assert!(again.pruned.is_empty());

        // Losing an artifact makes a run unfinished again.
        fs::remove_file(
            cache
                .disk_dir()
                .unwrap()
                .join(format!("{}.json", jobs[0].key())),
        )
        .unwrap();
        let cold = ResultCache::with_disk(cache.disk_dir().unwrap()).unwrap();
        write_run(&dir, "lost", &done);
        assert!(gc_finished(&dir, &cold, 0, &[]).unwrap().pruned.is_empty());
        let _ = fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn gc_keeps_a_run_whose_artifacts_this_engine_would_reject() {
        let (dir, cache, jobs) = gc_fixture("gc_foreign");
        let foreign = Job {
            seed: 7,
            ..jobs[0].clone()
        };
        let disk = cache.disk_dir().unwrap();
        let writer = ResultCache::with_disk(disk)
            .unwrap()
            .with_fingerprint("aaaaaaaaaaaaaaaa");
        cache_result(&writer, &foreign);
        write_run(&dir, "foreign", std::slice::from_ref(&foreign));
        let gc = gc_finished(&dir, &cache, 0, &[]).unwrap();
        assert!(gc.pruned.is_empty(), "a foreign artifact proves nothing");
        assert!(journal_path(&dir, "foreign").exists());
        assert!(
            disk.join(format!("{}.json", foreign.key())).exists(),
            "gc only reads the artifact"
        );
        let _ = fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn gc_retains_the_newest_finished_journals() {
        let (dir, cache, jobs) = gc_fixture("gc_retain");
        for i in 0..4 {
            write_run(&dir, &format!("run-{i}"), &jobs[..1]);
        }
        let gc = gc_finished(&dir, &cache, 3, &[]).unwrap();
        assert_eq!(gc.pruned.len(), 1, "only the overflow goes: {gc:?}");
        assert_eq!(gc.kept, 3);
        let survivors = fs::read_dir(&dir).unwrap().count();
        assert_eq!(survivors, 3);
        let _ = fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn gc_keeps_corrupt_and_torn_journals() {
        let (dir, cache, jobs) = gc_fixture("gc_corrupt");
        write_run(&dir, "torn", &jobs[..1]);
        let mut raw = fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&dir, "torn"))
            .unwrap();
        raw.write_all(b"{\"crc64\":\"dead").unwrap();
        drop(raw);
        fs::write(journal_path(&dir, "garbage"), "not json at all\n").unwrap();

        let gc = gc_finished(&dir, &cache, 0, &[]).unwrap();
        assert!(gc.pruned.is_empty(), "evidence is never deleted: {gc:?}");
        assert_eq!(gc.kept, 2);

        let missing = gc_finished(dir.join("never-created"), &cache, 0, &[]).unwrap();
        assert_eq!(missing, JournalGc::default());
        let _ = fs::remove_dir_all(dir.parent().unwrap());
    }
}
