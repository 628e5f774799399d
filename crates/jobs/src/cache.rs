//! Content-addressed result cache: in-memory map + on-disk JSON store.
//!
//! A report is filed under [`crate::Job::key`] — a stable hash of the
//! canonicalized job parameters — so any job that was ever executed with
//! the same parameters is answered without running a flow. The disk tier
//! (one `<key>.json` artifact per result, conventionally under
//! `results/cache/`) survives process restarts, which is what makes
//! re-running a whole sweep near-free.
//!
//! **An artifact this engine will not replay is rejected, never
//! trusted.** Every artifact ends in a `crc64:<hex> fp:<fingerprint>`
//! trailer: an FNV-1a checksum over the report line plus the
//! [engine fingerprint](tdsigma_core::engine_fingerprint) of the binary that
//! computed it. A key collides across engine versions by design (it
//! hashes job parameters only), so the stamp is what keeps a warm cache
//! from silently replaying another engine's numbers. There are two
//! reasons to refuse an artifact:
//!
//! * **corrupt** — unreadable, unparsable, missing or failing its
//!   checksum trailer (the pre-checksum single-line format included), or
//!   filed under the wrong key;
//! * **foreign** — the checksum verifies but the stamp is not this
//!   engine's (the unstamped interim format included).
//!
//! Either way the artifact moves to `<dir>/rejected/<key>.<reason>.json`,
//! is counted (see [`ResultCache::rejected`] and the
//! `jobs.cache_rejected.<reason>` counters), and the lookup reports a
//! miss, so damage and skew degrade to recomputation — never to a wrong
//! answer or an aborted batch. Lookups never read `rejected/`; it keeps
//! the newest 32 files for post-mortem or rollback and is pruned on
//! open. `tdsigma cache stats|scrub` ([`ResultCache::inspect`],
//! [`ResultCache::scrub`]) inventory and prune a cache directory.

use crate::error::JobError;
use crate::report::JobReport;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use tdsigma_core::engine_fingerprint;
use tdsigma_tech::fnv1a64;

/// Basis for artifact checksums (distinct from the job-key bases so a
/// key can never masquerade as its own checksum).
const CRC_BASIS: u64 = 0x6c62_272e_07bb_0142;

/// Subdirectory refused artifacts move to. Kept (not deleted) so an
/// operator can inspect a corrupt artifact or roll the binary back and
/// `mv` foreign ones home; `tdsigma cache scrub` empties it.
const REJECTED_DIR: &str = "rejected";

/// How many files `rejected/` keeps. Anything older is pruned when a
/// disk cache is opened, so recurring corruption or a fleet that rolls
/// its binary repeatedly cannot grow the directory without bound.
const REJECT_RETAIN: usize = 32;

/// Sequence number for per-writer temp files: with the pid it makes
/// every in-flight write's temp path unique, so concurrent writers of
/// one key (threads, processes sharing a `--cache-dir`) never collide.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Why an artifact was refused; the tag names its file in `rejected/`.
#[derive(Debug, Clone, Copy)]
enum Reject {
    /// Unreadable, unparsable, no or a mismatched checksum trailer, or
    /// filed under the wrong key.
    Corrupt,
    /// Intact (checksum verified) but stamped by a different engine
    /// fingerprint, or by none.
    Foreign,
}

/// What a lookup would do with one artifact: replay it, or reject it.
type Verdict = Result<(), Reject>;

impl Reject {
    fn tag(self) -> &'static str {
        match self {
            Reject::Corrupt => "corrupt",
            Reject::Foreign => "foreign",
        }
    }
}

/// A two-tier (memory + optional disk) result cache. All methods take
/// `&self`; the cache is safe to share across worker and server threads.
#[derive(Debug)]
pub struct ResultCache {
    mem: Mutex<HashMap<String, JobReport>>,
    dir: Option<PathBuf>,
    rejected: AtomicUsize,
    fingerprint: String,
}

impl ResultCache {
    /// A purely in-memory cache (dies with the process).
    pub fn in_memory() -> Self {
        ResultCache {
            mem: Mutex::new(HashMap::new()),
            dir: None,
            rejected: AtomicUsize::new(0),
            fingerprint: engine_fingerprint().to_string(),
        }
    }

    /// A cache backed by a directory of `<key>.json` artifacts; the
    /// directory is created if missing. Opening the cache also prunes
    /// `rejected/` down to the newest `REJECT_RETAIN` files (pruning is
    /// best-effort and never fails the open).
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the directory cannot be created.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Result<Self, JobError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| JobError::io_at(&dir, &e))?;
        prune_oldest(&dir.join(REJECTED_DIR), REJECT_RETAIN);
        Ok(ResultCache {
            dir: Some(dir),
            ..ResultCache::in_memory()
        })
    }

    /// Overrides the engine fingerprint this cache stamps and verifies.
    /// Tests use it to stage a cache "written by a different binary"
    /// without spawning one; production code should keep the default
    /// ([`tdsigma_core::engine_fingerprint`]).
    #[must_use]
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = fingerprint.into();
        self
    }

    /// The disk directory, if this cache has one.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Artifacts refused (corrupt or foreign) and moved to `rejected/`
    /// over this cache's lifetime.
    pub fn rejected(&self) -> usize {
        self.rejected.load(Ordering::SeqCst)
    }

    /// Looks up a result by job key: memory first, then disk (a disk hit
    /// is promoted into memory). A disk artifact this engine will not
    /// replay is rejected and reported as a miss.
    pub fn get(&self, key: &str) -> Option<JobReport> {
        if let Some(hit) = self.mem.lock().expect("cache lock").get(key) {
            return Some(hit.clone());
        }
        let (path, parsed) = self.verdict(key)?;
        match parsed {
            Ok(report) => {
                self.mem
                    .lock()
                    .expect("cache lock")
                    .insert(key.to_string(), report.clone());
                Some(report)
            }
            Err(reason) => {
                self.reject(&path, reason);
                None
            }
        }
    }

    /// Would [`ResultCache::get`] answer `key`? The same verdict — the
    /// memory tier, then the disk artifact checked against this engine —
    /// but read-only: it never moves, counts or promotes an artifact, so
    /// a dry run still writes nothing. A corrupt or foreign artifact is
    /// absent here, as the real run will reject it. This is the planning
    /// primitive of dry runs, resume banners and journal GC.
    pub fn contains(&self, key: &str) -> bool {
        if self.mem.lock().expect("cache lock").contains_key(key) {
            return true;
        }
        self.verdict(key).is_some_and(|(_, parsed)| parsed.is_ok())
    }

    /// Reads and checks `key`'s disk artifact: `None` if there is none.
    fn verdict(&self, key: &str) -> Option<(PathBuf, Result<JobReport, Reject>)> {
        let path = self.artifact_path(key)?;
        let parsed = match fs::read_to_string(&path) {
            Ok(text) => parse_artifact(&text, key, &self.fingerprint),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => Err(Reject::Corrupt),
        };
        Some((path, parsed))
    }

    /// Stores a result under its own key, in memory and (if configured)
    /// on disk. The disk write is atomic (a per-writer temp file +
    /// rename) so a concurrent reader never observes a torn artifact and
    /// concurrent writers of one key never trip over each other.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the disk write fails; the in-memory
    /// tier is updated regardless.
    pub fn put(&self, report: &JobReport) -> Result<(), JobError> {
        self.mem
            .lock()
            .expect("cache lock")
            .insert(report.key.clone(), report.clone());
        if let Some(path) = self.artifact_path(&report.key) {
            let bytes = artifact_text(report, &self.fingerprint);
            let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("json.{}.{seq}.tmp", std::process::id()));
            fs::write(&tmp, bytes).map_err(|e| JobError::io_at(&tmp, &e))?;
            if let Err(e) = fs::rename(&tmp, &path) {
                let _ = fs::remove_file(&tmp);
                return Err(JobError::io_at(&path, &e));
            }
        }
        Ok(())
    }

    /// Moves a refused artifact to `rejected/<key>.<reason>.json` (never
    /// consulted by lookups) and counts it. Best-effort: if the move
    /// fails the file is removed so it cannot be re-read either way.
    fn reject(&self, path: &Path, reason: Reject) {
        let moved = match (path.parent(), path.file_stem()) {
            (Some(dir), Some(key)) => {
                let rejected = dir.join(REJECTED_DIR);
                let name = format!("{}.{}.json", key.to_string_lossy(), reason.tag());
                fs::create_dir_all(&rejected).is_ok()
                    && fs::rename(path, rejected.join(name)).is_ok()
            }
            _ => false,
        };
        if !moved {
            let _ = fs::remove_file(path);
        }
        self.rejected.fetch_add(1, Ordering::SeqCst);
        tdsigma_obs::counter(&format!("jobs.cache_rejected.{}", reason.tag())).inc();
        if tdsigma_obs::tracing_enabled() {
            tdsigma_obs::event(
                "cache.reject",
                &[
                    ("artifact", path.display().to_string()),
                    ("reason", reason.tag().to_string()),
                    ("engine", self.fingerprint.clone()),
                ],
            );
        }
    }

    /// Number of results in the in-memory tier.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock").len()
    }

    /// True if the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn artifact_path(&self, key: &str) -> Option<PathBuf> {
        // Keys are hex strings produced by `Job::key`; refuse anything
        // else so a hostile serve request cannot traverse paths.
        if !key.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        self.dir.as_ref().map(|d| d.join(format!("{key}.json")))
    }

    /// Inventories a cache directory against `fingerprint` without
    /// mutating anything: every root artifact is read and classified,
    /// and `rejected/` is counted. This is the `tdsigma cache stats`
    /// primitive.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the directory cannot be read.
    pub fn inspect(dir: &Path, fingerprint: &str) -> Result<CacheStats, JobError> {
        let mut stats = CacheStats::default();
        for (_, verdict) in survey(dir, fingerprint)? {
            match verdict {
                Ok(()) => stats.fresh += 1,
                Err(Reject::Foreign) => stats.foreign += 1,
                Err(Reject::Corrupt) => stats.corrupt += 1,
            }
        }
        stats.rejected = files_in(&dir.join(REJECTED_DIR)).map_or(0, |f| f.len());
        Ok(stats)
    }

    /// Prunes a cache directory down to artifacts this engine can
    /// trust: foreign and corrupt root artifacts (leftover `*.tmp` files
    /// of killed writers included) and everything in `rejected/` are
    /// removed; fresh artifacts are kept. This is the `tdsigma cache
    /// scrub` primitive; run it while no writer is using the directory.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the directory cannot be read.
    pub fn scrub(dir: &Path, fingerprint: &str) -> Result<CacheScrub, JobError> {
        let mut scrub = CacheScrub::default();
        for (path, verdict) in survey(dir, fingerprint)? {
            let removed = match verdict {
                Ok(()) => {
                    scrub.fresh_kept += 1;
                    continue;
                }
                Err(Reject::Foreign) => &mut scrub.removed_foreign,
                Err(Reject::Corrupt) => &mut scrub.removed_corrupt,
            };
            if fs::remove_file(&path).is_ok() {
                *removed += 1;
            }
        }
        for (path, _) in files_in(&dir.join(REJECTED_DIR)).unwrap_or_default() {
            if fs::remove_file(&path).is_ok() {
                scrub.removed_rejected += 1;
            }
        }
        if scrub.removed() > 0 {
            tdsigma_obs::counter("jobs.cache_scrubbed").add(scrub.removed() as u64);
        }
        Ok(scrub)
    }
}

/// What [`ResultCache::inspect`] found in a cache directory.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Root artifacts that verify and match the given fingerprint.
    pub fresh: usize,
    /// Root artifacts that verify but carry a different fingerprint, or
    /// none (a lookup would reject them as foreign).
    pub foreign: usize,
    /// Root artifacts that are corrupt, checksum-less or misfiled, plus
    /// leftover `*.tmp` files (a lookup would reject them as corrupt).
    pub corrupt: usize,
    /// Files already moved to `rejected/`.
    pub rejected: usize,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fresh:    {:>6}", self.fresh)?;
        writeln!(f, "foreign:  {:>6}", self.foreign)?;
        writeln!(f, "corrupt:  {:>6}", self.corrupt)?;
        write!(f, "rejected: {:>6}", self.rejected)
    }
}

/// What [`ResultCache::scrub`] removed and kept.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheScrub {
    /// Verifying artifacts with the right fingerprint, left in place.
    pub fresh_kept: usize,
    /// Root artifacts removed for carrying a foreign fingerprint.
    pub removed_foreign: usize,
    /// Root artifacts removed as corrupt, plus leftover `*.tmp` files.
    pub removed_corrupt: usize,
    /// Files removed from `rejected/`.
    pub removed_rejected: usize,
}

impl CacheScrub {
    /// Total files removed.
    pub fn removed(&self) -> usize {
        self.removed_foreign + self.removed_corrupt + self.removed_rejected
    }
}

impl std::fmt::Display for CacheScrub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "removed {} ({} foreign, {} corrupt, {} rejected); kept {} fresh",
            self.removed(),
            self.removed_foreign,
            self.removed_corrupt,
            self.removed_rejected,
            self.fresh_kept
        )
    }
}

/// Every root `<hex-key>.json` artifact and leftover `*.tmp` file of a
/// cache directory, with the verdict a lookup would reach on it.
///
/// # Errors
///
/// Returns [`JobError::Io`] if the directory cannot be read.
fn survey(dir: &Path, fingerprint: &str) -> Result<Vec<(PathBuf, Verdict)>, JobError> {
    let files = files_in(dir).map_err(|e| JobError::io_at(dir, &e))?;
    Ok(files
        .into_iter()
        .filter_map(|(path, name)| {
            if name.ends_with(".tmp") {
                return Some((path, Err(Reject::Corrupt)));
            }
            let key = name.strip_suffix(".json")?;
            if key.is_empty() || !key.chars().all(|c| c.is_ascii_hexdigit()) {
                return None;
            }
            let verdict = match fs::read_to_string(&path) {
                Ok(text) => parse_artifact(&text, key, fingerprint).map(drop),
                Err(_) => Err(Reject::Corrupt),
            };
            Some((path, verdict))
        })
        .collect())
}

/// Regular files directly in `dir` with UTF-8 names, as sorted
/// (path, name) pairs.
fn files_in(dir: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut found: Vec<(PathBuf, String)> = fs::read_dir(dir)?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.is_file())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            Some((path, name))
        })
        .collect();
    found.sort();
    Ok(found)
}

/// Removes all but the newest `retain` files from `dir`. Ordering is by
/// (mtime, path) so files with identical timestamps still prune
/// deterministically. Best-effort: an unreadable directory or a failed
/// removal just prunes less.
fn prune_oldest(dir: &Path, retain: usize) {
    let mut files: Vec<(std::time::SystemTime, PathBuf)> = files_in(dir)
        .unwrap_or_default()
        .into_iter()
        .map(|(path, _)| {
            let mtime = fs::metadata(&path)
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            (mtime, path)
        })
        .collect();
    files.sort(); // oldest first
    let doomed = files.len().saturating_sub(retain);
    let pruned = files
        .into_iter()
        .take(doomed)
        .filter(|(_, path)| fs::remove_file(path).is_ok())
        .count();
    if pruned > 0 {
        tdsigma_obs::counter("jobs.cache_rejected_pruned").add(pruned as u64);
    }
}

/// Serializes one artifact: the report line followed by its checksum +
/// engine-fingerprint trailer.
fn artifact_text(report: &JobReport, fingerprint: &str) -> String {
    let line = report.to_text();
    let crc = fnv1a64(line.as_bytes(), CRC_BASIS);
    format!("{line}\ncrc64:{crc:016x} fp:{fingerprint}\n")
}

/// Parses and verifies one artifact against `fingerprint`. An artifact
/// is exactly two newline-terminated lines, so a cut, a lost or an extra
/// line is corrupt. The checksum is verified *before* the stamp: a
/// foreign verdict is a statement about intact bytes.
fn parse_artifact(text: &str, key: &str, fingerprint: &str) -> Result<JobReport, Reject> {
    let Some((line, trailer)) = text.strip_suffix('\n').and_then(|t| t.split_once('\n')) else {
        return Err(Reject::Corrupt); // empty, cut, or no checksum trailer
    };
    if trailer.contains('\n') {
        return Err(Reject::Corrupt);
    }
    let body = trailer.strip_prefix("crc64:").ok_or(Reject::Corrupt)?;
    let (stated, stamp) = match body.split_once(' ') {
        Some((crc, rest)) => (crc, Some(rest.strip_prefix("fp:").ok_or(Reject::Corrupt)?)),
        None => (body, None), // checksummed but unstamped
    };
    if stated != format!("{:016x}", fnv1a64(line.as_bytes(), CRC_BASIS)) {
        return Err(Reject::Corrupt);
    }
    let report = JobReport::from_text(line).map_err(|_| Reject::Corrupt)?;
    // Never serve an artifact filed under the wrong key (e.g. a
    // hand-renamed file): the report embeds its own address.
    if report.key != key {
        return Err(Reject::Corrupt);
    }
    if stamp != Some(fingerprint) {
        return Err(Reject::Foreign);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use tdsigma_tech::Rng64;

    fn report_for(job: &Job) -> JobReport {
        JobReport {
            key: job.key(),
            job: job.clone(),
            fin_hz: 1e6,
            sndr_db: 68.5,
            enob: 11.1,
            power_mw: None,
            digital_fraction: None,
            area_mm2: None,
            fom_fj: None,
            timing_slack_ps: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tdsigma_cache_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_roundtrip() {
        let cache = ResultCache::in_memory();
        let job = Job::sim(40.0, 750e6, 5e6);
        assert!(cache.get(&job.key()).is_none());
        cache.put(&report_for(&job)).unwrap();
        assert_eq!(cache.get(&job.key()).unwrap().sndr_db, 68.5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_survives_cache_instance() {
        let dir = temp_dir("persist");
        let job = Job::sim(40.0, 750e6, 5e6);
        {
            let cache = ResultCache::with_disk(&dir).unwrap();
            cache.put(&report_for(&job)).unwrap();
        }
        let fresh = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(fresh.len(), 0, "memory tier starts cold");
        let hit = fresh.get(&job.key()).expect("disk hit");
        assert_eq!(hit.key, job.key());
        assert_eq!(fresh.len(), 1, "disk hit promoted to memory");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_unreplayable_artifact_is_rejected_with_its_reason() {
        let job = Job::sim(40.0, 750e6, 5e6);
        let key = job.key();
        let report = report_for(&job);
        let ours = engine_fingerprint();
        let intact = artifact_text(&report, ours);
        let line = report.to_text();
        let crc = fnv1a64(line.as_bytes(), CRC_BASIS);
        let cases: [(&str, String, Reject); 6] = [
            (
                "truncated mid-record",
                intact[..intact.len() / 3].to_string(),
                Reject::Corrupt,
            ),
            (
                // Still parses and carries the right key: only the
                // checksum can catch this.
                "one digit flipped",
                intact.replacen("68.5", "68.6", 1),
                Reject::Corrupt,
            ),
            (
                // Nothing vouches for the bytes or the engine.
                "pre-checksum single line",
                format!("{line}\n"),
                Reject::Corrupt,
            ),
            (
                "filed under the wrong key",
                artifact_text(&report_for(&Job::sim(40.0, 750e6, 4e6)), ours),
                Reject::Corrupt,
            ),
            (
                "stamped by another engine",
                artifact_text(&report, "aaaaaaaaaaaaaaaa"),
                Reject::Foreign,
            ),
            (
                // Verifies, but cannot prove which engine wrote it.
                "checksummed but unstamped",
                format!("{line}\ncrc64:{crc:016x}\n"),
                Reject::Foreign,
            ),
        ];
        for (i, (what, bytes, reason)) in cases.into_iter().enumerate() {
            assert_ne!(
                bytes, intact,
                "{what}: case must actually damage the artifact"
            );
            let dir = temp_dir(&format!("reject_{i}"));
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("{key}.json"));
            fs::write(&path, &bytes).unwrap();
            let stats = ResultCache::inspect(&dir, ours).unwrap();
            let expected_stats = match reason {
                Reject::Corrupt => (0, 1),
                Reject::Foreign => (1, 0),
            };
            assert_eq!((stats.foreign, stats.corrupt), expected_stats, "{what}");

            let counter = format!("jobs.cache_rejected.{}", reason.tag());
            let counted_before = tdsigma_obs::counter(&counter).get();
            let cache = ResultCache::with_disk(&dir).unwrap();
            // The planning probe reaches the same verdict and leaves the
            // artifact where it is.
            assert!(!cache.contains(&key), "{what}: a preview must miss");
            assert!(path.exists(), "{what}: contains must not move it");
            assert_eq!(cache.rejected(), 0, "{what}: contains counts nothing");
            assert!(cache.get(&key).is_none(), "{what}: must miss");
            assert_eq!(cache.rejected(), 1, "{what}");
            assert!(
                tdsigma_obs::counter(&counter).get() > counted_before,
                "{what}: {counter}"
            );
            assert!(!path.exists(), "{what}: artifact must be moved aside");
            let parked = dir
                .join(REJECTED_DIR)
                .join(format!("{key}.{}.json", reason.tag()));
            assert_eq!(
                fs::read_to_string(&parked).ok().as_deref(),
                Some(bytes.as_str()),
                "{what}: bytes must land intact at {}",
                parked.display()
            );
            // The rejected file stays out of the lookup path for good:
            // it is counted once, and only a recompute makes the key hit.
            assert!(!cache.contains(&key), "{what}");
            assert!(cache.get(&key).is_none(), "{what}");
            assert_eq!(cache.rejected(), 1, "{what}: counted once");
            cache.put(&report).unwrap();
            let again = ResultCache::with_disk(&dir).unwrap();
            assert_eq!(again.get(&key).as_ref(), Some(&report), "{what}");
            assert_eq!(again.rejected(), 0, "{what}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn inspect_and_scrub_inventory_and_prune() {
        let dir = temp_dir("scrub");
        let fresh_job = Job::sim(40.0, 750e6, 5e6);
        let foreign_job = Job::sim(40.0, 750e6, 4e6);
        let corrupt_job = Job::sim(40.0, 750e6, 3e6);
        let cache = ResultCache::with_disk(&dir).unwrap();
        cache.put(&report_for(&fresh_job)).unwrap();
        ResultCache::with_disk(&dir)
            .unwrap()
            .with_fingerprint("bbbbbbbbbbbbbbbb")
            .put(&report_for(&foreign_job))
            .unwrap();
        fs::write(
            dir.join(format!("{}.json", corrupt_job.key())),
            report_for(&corrupt_job).to_text() + "\n",
        )
        .unwrap();
        // A killed writer's leftover temp file counts as corrupt.
        fs::write(dir.join("00ef.json.1.2.tmp"), "torn").unwrap();
        fs::create_dir_all(dir.join(REJECTED_DIR)).unwrap();
        fs::write(dir.join(REJECTED_DIR).join("00ab.foreign.json"), "parked").unwrap();
        fs::write(dir.join(REJECTED_DIR).join("00cd.corrupt.json"), "junk").unwrap();

        let fp = engine_fingerprint();
        let stats = ResultCache::inspect(&dir, fp).unwrap();
        assert_eq!(
            stats,
            CacheStats {
                fresh: 1,
                foreign: 1,
                corrupt: 2,
                rejected: 2,
            }
        );
        assert_eq!(
            stats.to_string(),
            "fresh:         1\nforeign:       1\ncorrupt:       2\nrejected:      2"
        );
        // Inspect never mutates: a second pass sees the same picture.
        assert_eq!(ResultCache::inspect(&dir, fp).unwrap(), stats);

        let scrub = ResultCache::scrub(&dir, fp).unwrap();
        assert_eq!(
            scrub,
            CacheScrub {
                fresh_kept: 1,
                removed_foreign: 1,
                removed_corrupt: 2,
                removed_rejected: 2,
            }
        );
        assert_eq!(
            scrub.to_string(),
            "removed 5 (1 foreign, 2 corrupt, 2 rejected); kept 1 fresh"
        );

        let after = ResultCache::inspect(&dir, fp).unwrap();
        assert_eq!(
            after,
            CacheStats {
                fresh: 1,
                ..CacheStats::default()
            },
            "only the fresh artifact survives the scrub"
        );
        // The surviving artifact still hits.
        let reopened = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(reopened.get(&fresh_job.key()).unwrap().sndr_db, 68.5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_corruption_round_trips_through_rejection() {
        let dir = temp_dir("faulty_writes");
        let job = Job::sim(40.0, 750e6, 5e6);
        {
            let cache = ResultCache::with_disk(&dir).unwrap();
            cache.put(&report_for(&job)).unwrap();
            // Damage the file under the open cache: the memory tier keeps
            // the good copy; only the disk lies.
            let path = dir.join(format!("{}.json", job.key()));
            let text = fs::read_to_string(&path).unwrap();
            fs::write(&path, text.replace(['{', '}'], "*")).unwrap();
            assert_eq!(cache.get(&job.key()).unwrap().sndr_db, 68.5);
        }
        let fresh = ResultCache::with_disk(&dir).unwrap();
        assert!(
            fresh.get(&job.key()).is_none(),
            "corrupted write must not come back as a hit"
        );
        assert_eq!(fresh.rejected(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Seeded damage to one valid artifact: a cut at a random byte, a
    /// flipped byte (invalid UTF-8 included), the checksum trailer
    /// dropped, a line duplicated, or nothing left. Returns the bytes and
    /// whether the damage lies only in the engine stamp, which is
    /// compared rather than checksummed and so reads as foreign.
    fn mutate(intact: &[u8], stamp: std::ops::Range<usize>, rng: &mut Rng64) -> (Vec<u8>, bool) {
        let mut bytes = intact.to_vec();
        let newline = intact.iter().position(|&b| b == b'\n').unwrap() + 1;
        match rng.gen_range(5) {
            0 => bytes.truncate(rng.gen_range(intact.len())),
            1 => {
                let at = rng.gen_range(intact.len());
                bytes[at] ^= 1 + rng.gen_range(255) as u8;
                let foreign = stamp.contains(&at) && std::str::from_utf8(&bytes).is_ok();
                return (bytes, foreign);
            }
            2 => bytes.truncate(newline),
            3 => {
                let line = if rng.gen_range(2) == 0 {
                    intact[..newline].to_vec()
                } else {
                    intact[newline..].to_vec()
                };
                bytes.extend_from_slice(&line);
            }
            _ => bytes.clear(),
        }
        (bytes, false)
    }

    #[test]
    fn fuzzed_artifacts_are_rejected_never_replayed() {
        let dir = temp_dir("fuzz");
        fs::create_dir_all(&dir).unwrap();
        let job = Job::sim(40.0, 750e6, 5e6);
        let key = job.key();
        let ours = engine_fingerprint();
        let intact = artifact_text(&report_for(&job), ours).into_bytes();
        let stamp_start = intact.len() - 1 - ours.len();
        let stamp = stamp_start..intact.len() - 1;
        assert_eq!(&intact[stamp.clone()], ours.as_bytes());
        let path = dir.join(format!("{key}.json"));
        let mut rng = Rng64::seed_from_u64(0x00ca_c4e5);
        let mut tried = 0;
        while tried < 400 {
            let (bytes, foreign) = mutate(&intact, stamp.clone(), &mut rng);
            if bytes == intact {
                continue;
            }
            tried += 1;
            fs::write(&path, &bytes).unwrap();
            let cache = ResultCache::with_disk(&dir).unwrap();
            assert!(
                cache.get(&key).is_none(),
                "replayed {:?}",
                String::from_utf8_lossy(&bytes)
            );
            let tag = if foreign { "foreign" } else { "corrupt" };
            let parked = dir.join(REJECTED_DIR).join(format!("{key}.{tag}.json"));
            assert_eq!(fs::read(&parked).ok(), Some(bytes), "{tag}");
            fs::remove_file(&parked).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_backlog_is_pruned_to_the_newest_on_open() {
        let dir = temp_dir("prune");
        let rejected = dir.join(REJECTED_DIR);
        fs::create_dir_all(&rejected).unwrap();
        let total = REJECT_RETAIN + 5;
        let epoch = std::time::SystemTime::UNIX_EPOCH;
        for i in 0..total {
            let tag = if i % 2 == 0 { "corrupt" } else { "foreign" };
            // Name order runs opposite to age, so only mtime ordering
            // picks the right survivors.
            let path = rejected.join(format!("{:032x}.{tag}.json", total - i));
            fs::write(&path, "junk").unwrap();
            let age = std::time::Duration::from_secs(1_000_000 + i as u64);
            fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(epoch + age)
                .unwrap();
        }
        let survivors = |dir: &Path| -> Vec<String> {
            files_in(dir)
                .unwrap()
                .into_iter()
                .map(|(_, name)| name)
                .collect()
        };
        ResultCache::with_disk(&dir).unwrap();
        let kept = survivors(&rejected);
        assert_eq!(kept.len(), REJECT_RETAIN);
        for pruned in 0..5 {
            let name_prefix = format!("{:032x}.", total - pruned);
            assert!(
                !kept.iter().any(|n| n.starts_with(&name_prefix)),
                "the oldest files go first: {name_prefix} survived"
            );
        }
        // A second open has nothing left to prune, and a cache opened on
        // a directory with no rejected/ at all opens cleanly.
        ResultCache::with_disk(&dir).unwrap();
        assert_eq!(survivors(&rejected), kept);
        let empty = temp_dir("prune_empty");
        ResultCache::with_disk(&empty).unwrap();
        assert!(!empty.join(REJECTED_DIR).exists());
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn concurrent_puts_of_one_key_all_succeed_and_hit() {
        // Several serve processes can share one cache dir and two serve
        // connections can run the same job: writers of one key must not
        // share a temp path, or the first rename wins and the rest fail.
        let dir = temp_dir("concurrent_put");
        let report = report_for(&Job::sim(40.0, 750e6, 5e6));
        let writers: Vec<ResultCache> = (0..8)
            .map(|_| ResultCache::with_disk(&dir).unwrap())
            .collect();
        let mut failed = 0;
        for _ in 0..200 {
            let start = std::sync::Barrier::new(writers.len());
            failed += std::thread::scope(|s| {
                let handles: Vec<_> = writers
                    .iter()
                    .map(|cache| {
                        s.spawn(|| {
                            start.wait();
                            cache.put(&report).is_err()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| usize::from(h.join().unwrap()))
                    .sum::<usize>()
            });
            let reader = ResultCache::with_disk(&dir).unwrap();
            assert_eq!(reader.get(&report.key).as_ref(), Some(&report));
            assert_eq!(reader.rejected(), 0);
        }
        assert_eq!(failed, 0, "concurrent puts of one key failed");
        let leftovers = files_in(&dir)
            .unwrap()
            .into_iter()
            .filter(|(_, name)| name.ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0, "every temp file was renamed into place");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_failure_from_tmp_write_is_structured_not_a_panic() {
        let dir = temp_dir("tmp_write");
        let cache = ResultCache::with_disk(&dir).unwrap();
        let job = Job::sim(40.0, 750e6, 5e6);
        // Pull the directory out from under the open cache: the temp
        // write fails with a real OS error regardless of privileges
        // (even as root, unlike a chmod-based read-only test).
        fs::remove_dir_all(&dir).unwrap();
        let err = cache.put(&report_for(&job)).expect_err("write must fail");
        match &err {
            JobError::Io { path, .. } => {
                let p = path.as_deref().expect("error names the failing path");
                assert!(p.ends_with(".tmp"), "unexpected path {p}");
            }
            other => panic!("expected structured Io error, got {other:?}"),
        }
        // The memory tier was updated before the disk write: the result
        // is merely uncached, not lost.
        assert_eq!(cache.get(&job.key()).unwrap().sndr_db, 68.5);
    }

    #[test]
    fn store_failure_from_rename_is_structured_not_a_panic() {
        let dir = temp_dir("rename_collision");
        let cache = ResultCache::with_disk(&dir).unwrap();
        let job = Job::sim(40.0, 750e6, 5e6);
        // Occupy the final artifact path with a non-empty directory so
        // the tmp write succeeds but the rename over it cannot.
        let path = dir.join(format!("{}.json", job.key()));
        fs::create_dir_all(path.join("occupied")).unwrap();
        let err = cache.put(&report_for(&job)).expect_err("rename must fail");
        match &err {
            JobError::Io { path: p, .. } => {
                let p = p.as_deref().expect("error names the failing path");
                assert!(p.ends_with(".json"), "unexpected path {p}");
            }
            other => panic!("expected structured Io error, got {other:?}"),
        }
        assert_eq!(cache.get(&job.key()).unwrap().sndr_db, 68.5);
        let stray = files_in(&dir).unwrap();
        assert!(
            stray.is_empty(),
            "a failed rename leaves no temp file: {stray:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_cache_dir_returns_structured_error() {
        // chmod-based read-only dirs don't bind as root (CI containers
        // often are); fall back to asserting the error shape only when
        // the OS actually enforces the mode.
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let dir = temp_dir("readonly");
            let cache = ResultCache::with_disk(&dir).unwrap();
            fs::set_permissions(&dir, fs::Permissions::from_mode(0o555)).unwrap();
            let job = Job::sim(40.0, 750e6, 5e6);
            let outcome = cache.put(&report_for(&job));
            fs::set_permissions(&dir, fs::Permissions::from_mode(0o755)).unwrap();
            match outcome {
                Err(JobError::Io { kind, path, .. }) => {
                    assert_eq!(kind, std::io::ErrorKind::PermissionDenied);
                    assert!(path.is_some(), "error must name the failing path");
                }
                Err(other) => panic!("expected Io error, got {other:?}"),
                // Running as root: the kernel ignores the mode bits and
                // the write goes through. Nothing to assert beyond "no
                // panic" — the collision tests above cover the error
                // shape deterministically.
                Ok(()) => {}
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn hostile_keys_never_touch_disk() {
        let dir = temp_dir("hostile");
        let cache = ResultCache::with_disk(&dir).unwrap();
        assert!(cache.get("../../etc/passwd").is_none());
        assert!(cache.get("a/b").is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
