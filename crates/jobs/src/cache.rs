//! Content-addressed result cache: in-memory map + on-disk JSON store.
//!
//! A report is filed under [`crate::Job::key`] — a stable hash of the
//! canonicalized job parameters — so any job that was ever executed with
//! the same parameters is answered without running a flow. The disk tier
//! (one `<key>.json` artifact per result, conventionally under
//! `results/cache/`) survives process restarts, which is what makes
//! re-running a whole sweep near-free.
//!
//! **Corruption is a defined state, not undefined behavior.** Every
//! artifact carries a `crc64:` trailer (FNV-1a over the report line); an
//! artifact that is unreadable, unparsable, checksum-mismatched, or filed
//! under the wrong key is **quarantined** — renamed to
//! `<key>.json.quarantine`, counted (see [`ResultCache::quarantined`]),
//! and treated as a miss so the job recomputes. Quarantined files are
//! never read back: lookups only ever open `<key>.json`.
//!
//! **Version skew is a defined state too.** The trailer also stamps the
//! [engine fingerprint](tdsigma_core::fingerprint) of the binary that
//! computed the result. A key collides across engine versions by design
//! (it hashes job parameters only), so without the stamp a warm cache
//! silently replays numbers from an older engine. An artifact whose
//! stamp does not match this process is **demoted** to the `stale/`
//! tier — moved to `<dir>/stale/<key>.json`, counted (see
//! [`ResultCache::stale`]), reported as a miss, and never replayed.
//! Unstamped artifacts from the pre-checksum era are quarantined
//! outright (counted separately, see [`ResultCache::legacy_rejected`]):
//! with no checksum there is nothing to trust. `tdsigma cache
//! stats|scrub` ([`ResultCache::inspect`], [`ResultCache::scrub`])
//! inventory and prune both tiers.

use crate::error::JobError;
use crate::faults::FaultPlan;
use crate::report::JobReport;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tdsigma_core::engine_fingerprint;
use tdsigma_tech::fnv1a64;

/// Basis for artifact checksums (distinct from the job-key bases so a
/// key can never masquerade as its own checksum).
const CRC_BASIS: u64 = 0x6c62_272e_07bb_0142;

/// Subdirectory where artifacts stamped by a different engine
/// fingerprint are demoted. Kept (not deleted) so an operator can roll
/// the binary back and `mv` them home; `tdsigma cache scrub` prunes.
const STALE_DIR: &str = "stale";

/// How many quarantined artifacts to retain for post-mortem inspection.
/// Anything older is pruned when a disk cache is opened, so a long-lived
/// cache directory with recurring corruption cannot grow without bound.
const QUARANTINE_RETAIN: usize = 32;

/// How many demoted `stale/` artifacts to retain for rollback recovery.
/// Like the quarantine tier, anything older is pruned on open: a fleet
/// that rolls its binary repeatedly would otherwise re-demote the whole
/// cache on every version flip and grow `stale/` without bound.
const STALE_RETAIN: usize = 32;

/// A two-tier (memory + optional disk) result cache. All methods take
/// `&self`; the cache is safe to share across worker and server threads.
#[derive(Debug)]
pub struct ResultCache {
    mem: Mutex<HashMap<String, JobReport>>,
    dir: Option<PathBuf>,
    quarantined: AtomicUsize,
    stale: AtomicUsize,
    legacy_rejected: AtomicUsize,
    quarantine_pruned: usize,
    stale_pruned: usize,
    faults: FaultPlan,
    fingerprint: String,
}

impl ResultCache {
    /// A purely in-memory cache (dies with the process).
    pub fn in_memory() -> Self {
        ResultCache {
            mem: Mutex::new(HashMap::new()),
            dir: None,
            quarantined: AtomicUsize::new(0),
            stale: AtomicUsize::new(0),
            legacy_rejected: AtomicUsize::new(0),
            quarantine_pruned: 0,
            stale_pruned: 0,
            faults: FaultPlan::none(),
            fingerprint: engine_fingerprint().to_string(),
        }
    }

    /// A cache backed by a directory of `<key>.json` artifacts; the
    /// directory is created if missing. Opening the cache also prunes
    /// accumulated `.quarantine` files down to the newest
    /// `QUARANTINE_RETAIN` and demoted `stale/` artifacts down to the
    /// newest `STALE_RETAIN` (pruning is best-effort and never fails
    /// the open).
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the directory cannot be created.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Result<Self, JobError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| JobError::io_at(&dir, &e))?;
        let quarantine_pruned = prune_quarantine(&dir, QUARANTINE_RETAIN);
        let stale_pruned = prune_stale(&dir.join(STALE_DIR), STALE_RETAIN);
        Ok(ResultCache {
            mem: Mutex::new(HashMap::new()),
            dir: Some(dir),
            quarantined: AtomicUsize::new(0),
            stale: AtomicUsize::new(0),
            legacy_rejected: AtomicUsize::new(0),
            quarantine_pruned,
            stale_pruned,
            faults: FaultPlan::none(),
            fingerprint: engine_fingerprint().to_string(),
        })
    }

    /// Installs a fault plan that may corrupt artifacts as they are
    /// written (exercises the quarantine path end to end).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
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

    /// Artifacts found corrupt and quarantined over this cache's
    /// lifetime.
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::SeqCst)
    }

    /// Artifacts stamped by a different engine fingerprint and demoted
    /// to the `stale/` tier over this cache's lifetime.
    pub fn stale(&self) -> usize {
        self.stale.load(Ordering::SeqCst)
    }

    /// Pre-checksum (unstamped, unchecksummed) artifacts rejected and
    /// quarantined over this cache's lifetime.
    pub fn legacy_rejected(&self) -> usize {
        self.legacy_rejected.load(Ordering::SeqCst)
    }

    /// Stale `.quarantine` files removed when this cache was opened.
    pub fn quarantine_pruned(&self) -> usize {
        self.quarantine_pruned
    }

    /// Demoted `stale/` artifacts removed when this cache was opened.
    pub fn stale_pruned(&self) -> usize {
        self.stale_pruned
    }

    /// Looks up a result by job key: memory first, then disk (a disk hit
    /// is promoted into memory). A corrupt disk artifact is quarantined,
    /// a pre-checksum one is rejected into quarantine, and one stamped by
    /// a different engine fingerprint is demoted to `stale/` — all three
    /// report as a miss, so damage and skew degrade to recomputation,
    /// never to a wrong answer or an aborted batch.
    pub fn get(&self, key: &str) -> Option<JobReport> {
        if let Some(hit) = self.mem.lock().expect("cache lock").get(key) {
            return Some(hit.clone());
        }
        let path = self.artifact_path(key)?;
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => {
                // Exists but unreadable: same treatment as corrupt.
                self.quarantine(&path);
                return None;
            }
        };
        let report = match parse_artifact(&text, key, &self.fingerprint) {
            Ok(report) => report,
            Err(ArtifactIssue::Corrupt(reason)) => {
                if tdsigma_obs::tracing_enabled() {
                    tdsigma_obs::event("cache.corrupt", &[("reason", reason.to_string())]);
                }
                self.quarantine(&path);
                return None;
            }
            Err(ArtifactIssue::Legacy) => {
                self.quarantine(&path);
                self.legacy_rejected.fetch_add(1, Ordering::SeqCst);
                tdsigma_obs::counter("jobs.cache_legacy_rejected").inc();
                return None;
            }
            Err(ArtifactIssue::Stale { stamped }) => {
                self.demote_stale(&path, &stamped);
                return None;
            }
        };
        self.mem
            .lock()
            .expect("cache lock")
            .insert(key.to_string(), report.clone());
        Some(report)
    }

    /// Cheap presence probe: true if `key` is in the memory tier or an
    /// artifact file exists on disk. Unlike [`ResultCache::get`] this
    /// never reads, parses, quarantines or promotes — it is the
    /// dry-run/planning primitive, so a preview of a 10k-job sweep costs
    /// 10k `stat` calls, not 10k artifact parses. A corrupt artifact
    /// therefore counts as present here and will only be quarantined
    /// (and re-executed) by the real run.
    pub fn contains(&self, key: &str) -> bool {
        if self.mem.lock().expect("cache lock").contains_key(key) {
            return true;
        }
        self.artifact_path(key).is_some_and(|p| p.exists())
    }

    /// Stores a result under its own key, in memory and (if configured)
    /// on disk. The disk write is atomic (temp file + rename) so a
    /// concurrent reader never observes a torn artifact.
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
            let intact = artifact_text(report, &self.fingerprint);
            let bytes = self
                .faults
                .corrupt_artifact(&report.key, &intact)
                .unwrap_or(intact);
            let tmp = path.with_extension("json.tmp");
            fs::write(&tmp, bytes).map_err(|e| JobError::io_at(&tmp, &e))?;
            fs::rename(&tmp, &path).map_err(|e| JobError::io_at(&path, &e))?;
        }
        Ok(())
    }

    /// Moves a damaged artifact aside as `<name>.quarantine` (never
    /// consulted by lookups) and counts it. Best-effort: if the rename
    /// fails the file is removed so it cannot be re-read either way.
    fn quarantine(&self, path: &Path) {
        let mut target = path.as_os_str().to_owned();
        target.push(".quarantine");
        if fs::rename(path, PathBuf::from(target)).is_err() {
            let _ = fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::SeqCst);
        tdsigma_obs::counter("jobs.cache_quarantined").inc();
        if tdsigma_obs::tracing_enabled() {
            tdsigma_obs::event(
                "cache.quarantine",
                &[("artifact", path.display().to_string())],
            );
        }
    }

    /// Moves an artifact stamped by a different engine into the
    /// `stale/` tier and counts it. The bytes are intact (checksum
    /// verified) — just from the wrong binary — so they are preserved
    /// rather than quarantined; lookups never descend into `stale/`.
    /// Best-effort: if the move fails the file is removed so it cannot
    /// be replayed either way.
    fn demote_stale(&self, path: &Path, stamped: &str) {
        let moved = path
            .parent()
            .and_then(|parent| {
                let tier = parent.join(STALE_DIR);
                fs::create_dir_all(&tier).ok()?;
                let name = path.file_name()?;
                fs::rename(path, tier.join(name)).ok()
            })
            .is_some();
        if !moved {
            let _ = fs::remove_file(path);
        }
        self.stale.fetch_add(1, Ordering::SeqCst);
        tdsigma_obs::counter("jobs.cache_stale").inc();
        if tdsigma_obs::tracing_enabled() {
            tdsigma_obs::event(
                "cache.stale",
                &[
                    ("artifact", path.display().to_string()),
                    ("stamped", stamped.to_string()),
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
    /// and the demoted/quarantined tiers are counted. This is the
    /// `tdsigma cache stats` primitive.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the directory cannot be read.
    pub fn inspect(dir: &Path, fingerprint: &str) -> Result<CacheStats, JobError> {
        let mut stats = CacheStats::default();
        for (path, name) in root_artifacts(dir)? {
            let key = name.trim_end_matches(".json");
            match classify_artifact(&path, key, fingerprint) {
                ArtifactClass::Fresh => stats.fresh += 1,
                ArtifactClass::Mismatched => stats.mismatched += 1,
                ArtifactClass::Suspect => stats.suspect += 1,
            }
        }
        stats.stale = count_files(&dir.join(STALE_DIR), |n| n.ends_with(".json"));
        stats.quarantined = count_files(dir, |n| n.ends_with(".quarantine"));
        Ok(stats)
    }

    /// Prunes a cache directory down to artifacts this engine can
    /// trust: root artifacts stamped by a foreign fingerprint, suspect
    /// (corrupt or pre-checksum) artifacts, the demoted `stale/` tier
    /// and accumulated `.quarantine` files are all removed; fresh
    /// artifacts are kept. This is the `tdsigma cache scrub` primitive.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Io`] if the directory cannot be read.
    pub fn scrub(dir: &Path, fingerprint: &str) -> Result<CacheScrub, JobError> {
        let mut scrub = CacheScrub::default();
        for (path, name) in root_artifacts(dir)? {
            let key = name.trim_end_matches(".json");
            match classify_artifact(&path, key, fingerprint) {
                ArtifactClass::Fresh => scrub.fresh_kept += 1,
                ArtifactClass::Mismatched => {
                    if fs::remove_file(&path).is_ok() {
                        scrub.removed_mismatched += 1;
                    }
                }
                ArtifactClass::Suspect => {
                    if fs::remove_file(&path).is_ok() {
                        scrub.removed_suspect += 1;
                    }
                }
            }
        }
        scrub.removed_stale = remove_files(&dir.join(STALE_DIR), |n| n.ends_with(".json"));
        scrub.removed_quarantine = remove_files(dir, |n| n.ends_with(".quarantine"));
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
    /// Root artifacts that verify but carry a different fingerprint
    /// (would be demoted to `stale/` on lookup).
    pub mismatched: usize,
    /// Root artifacts that are corrupt, unstamped (pre-checksum), or
    /// filed under the wrong key (would be quarantined on lookup).
    pub suspect: usize,
    /// Artifacts already demoted into the `stale/` tier.
    pub stale: usize,
    /// `.quarantine` files awaiting post-mortem or pruning.
    pub quarantined: usize,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fresh:       {:>6}", self.fresh)?;
        writeln!(f, "mismatched:  {:>6}", self.mismatched)?;
        writeln!(f, "suspect:     {:>6}", self.suspect)?;
        writeln!(f, "stale tier:  {:>6}", self.stale)?;
        write!(f, "quarantined: {:>6}", self.quarantined)
    }
}

/// What [`ResultCache::scrub`] removed and kept.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheScrub {
    /// Verifying artifacts with the right fingerprint, left in place.
    pub fresh_kept: usize,
    /// Root artifacts removed for carrying a foreign fingerprint.
    pub removed_mismatched: usize,
    /// Root artifacts removed as corrupt/unstamped/misfiled.
    pub removed_suspect: usize,
    /// Files removed from the demoted `stale/` tier.
    pub removed_stale: usize,
    /// `.quarantine` files removed.
    pub removed_quarantine: usize,
}

impl CacheScrub {
    /// Total files removed across all tiers.
    pub fn removed(&self) -> usize {
        self.removed_mismatched
            + self.removed_suspect
            + self.removed_stale
            + self.removed_quarantine
    }
}

impl std::fmt::Display for CacheScrub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "removed {} ({} mismatched, {} suspect, {} stale, {} quarantined); kept {} fresh",
            self.removed(),
            self.removed_mismatched,
            self.removed_suspect,
            self.removed_stale,
            self.removed_quarantine,
            self.fresh_kept
        )
    }
}

/// How a root artifact reads against a given engine fingerprint.
enum ArtifactClass {
    Fresh,
    Mismatched,
    Suspect,
}

fn classify_artifact(path: &Path, key: &str, fingerprint: &str) -> ArtifactClass {
    let Ok(text) = fs::read_to_string(path) else {
        return ArtifactClass::Suspect;
    };
    match parse_artifact(&text, key, fingerprint) {
        Ok(_) => ArtifactClass::Fresh,
        Err(ArtifactIssue::Stale { .. }) => ArtifactClass::Mismatched,
        Err(ArtifactIssue::Corrupt(_) | ArtifactIssue::Legacy) => ArtifactClass::Suspect,
    }
}

/// Root-level `<hex-key>.json` artifacts of a cache directory, as
/// (path, file name) pairs.
///
/// # Errors
///
/// Returns [`JobError::Io`] if the directory cannot be read.
fn root_artifacts(dir: &Path) -> Result<Vec<(PathBuf, String)>, JobError> {
    let entries = fs::read_dir(dir).map_err(|e| JobError::io_at(dir, &e))?;
    let mut found = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".json") else {
            continue;
        };
        if stem.is_empty() || !stem.chars().all(|c| c.is_ascii_hexdigit()) {
            continue;
        }
        found.push((path.clone(), name.to_string()));
    }
    found.sort();
    Ok(found)
}

fn count_files(dir: &Path, matches: impl Fn(&str) -> bool) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            e.path().is_file()
                && e.path()
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(&matches)
        })
        .count()
}

fn remove_files(dir: &Path, matches: impl Fn(&str) -> bool) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        let hit = path.is_file()
            && path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(&matches);
        if hit && fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Removes all but the newest `retain` quarantined artifacts from `dir`.
fn prune_quarantine(dir: &Path, retain: usize) -> usize {
    prune_oldest(
        dir,
        retain,
        ".quarantine",
        "jobs.cache_quarantine_pruned",
        "cache.quarantine_prune",
    )
}

/// Removes all but the newest `retain` demoted artifacts from the
/// `stale/` tier at `dir`.
fn prune_stale(dir: &Path, retain: usize) -> usize {
    prune_oldest(
        dir,
        retain,
        ".json",
        "jobs.cache_stale_pruned",
        "cache.stale_prune",
    )
}

/// Removes all but the newest `retain` files ending in `suffix` from
/// `dir`, bumping `counter` and emitting `event` when anything goes.
/// Ordering is by (mtime, name) so files with identical timestamps still
/// prune deterministically. Best-effort: an unreadable directory or a
/// failed removal just prunes less.
fn prune_oldest(dir: &Path, retain: usize, suffix: &str, counter: &str, event: &str) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut stale: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let matches = path.is_file()
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(suffix));
            if !matches {
                return None;
            }
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            Some((mtime, path))
        })
        .collect();
    if stale.len() <= retain {
        return 0;
    }
    stale.sort(); // oldest first; (mtime, path) breaks timestamp ties
    let doomed = stale.len() - retain;
    let mut pruned = 0usize;
    for (_, path) in stale.into_iter().take(doomed) {
        if fs::remove_file(&path).is_ok() {
            pruned += 1;
        }
    }
    if pruned > 0 {
        tdsigma_obs::counter(counter).add(pruned as u64);
        if tdsigma_obs::tracing_enabled() {
            tdsigma_obs::event(
                event,
                &[
                    ("dir", dir.display().to_string()),
                    ("pruned", pruned.to_string()),
                ],
            );
        }
    }
    pruned
}

/// Why an artifact was refused, and therefore where it goes: corrupt
/// and legacy artifacts are quarantined, stale ones are demoted.
#[derive(Debug)]
enum ArtifactIssue {
    /// Unparsable, checksum-mismatched, or filed under the wrong key.
    Corrupt(JobError),
    /// Pre-checksum single-line format: parses, but nothing vouches for
    /// the bytes or the engine that wrote them.
    Legacy,
    /// Intact (checksum verified) but stamped by a different engine
    /// fingerprint — or by none, for the checksummed-but-unstamped
    /// interim format.
    Stale {
        /// The fingerprint the artifact carries (`"unknown"` if the
        /// trailer predates stamping).
        stamped: String,
    },
}

impl From<JobError> for ArtifactIssue {
    fn from(e: JobError) -> Self {
        ArtifactIssue::Corrupt(e)
    }
}

/// Serializes one artifact: the report line followed by its checksum +
/// engine-fingerprint trailer.
fn artifact_text(report: &JobReport, fingerprint: &str) -> String {
    let line = report.to_text();
    let crc = fnv1a64(line.as_bytes(), CRC_BASIS);
    format!("{line}\ncrc64:{crc:016x} fp:{fingerprint}\n")
}

/// Parses and verifies one artifact against `fingerprint`,
/// distinguishing the three refusal states (see [`ArtifactIssue`]).
/// Note the checksum is verified *before* the fingerprint: a stale
/// classification is a statement about intact bytes.
fn parse_artifact(text: &str, key: &str, fingerprint: &str) -> Result<JobReport, ArtifactIssue> {
    let mut lines = text.lines();
    let line = lines
        .next()
        .ok_or_else(|| JobError::Invalid("empty artifact".into()))?;
    let Some(trailer) = lines.next() else {
        // Single-line pre-checksum format. It must still parse and
        // carry the right key to count as legacy rather than corrupt.
        let report = JobReport::from_text(line)?;
        if report.key != key {
            return Err(misfiled(key, &report.key).into());
        }
        return Err(ArtifactIssue::Legacy);
    };
    let body = trailer
        .strip_prefix("crc64:")
        .ok_or_else(|| JobError::Invalid(format!("malformed checksum trailer {trailer:?}")))?;
    let (stated, stamped) = match body.split_once(' ') {
        Some((crc, rest)) => {
            let fp = rest.strip_prefix("fp:").ok_or_else(|| {
                JobError::Invalid(format!("malformed fingerprint stamp {rest:?}"))
            })?;
            (crc, Some(fp))
        }
        // Checksummed-but-unstamped interim format (PRs 3–8).
        None => (body, None),
    };
    let actual = format!("{:016x}", fnv1a64(line.as_bytes(), CRC_BASIS));
    if stated != actual {
        return Err(JobError::Invalid(format!(
            "checksum mismatch: artifact says {stated}, content hashes to {actual}"
        ))
        .into());
    }
    let report = JobReport::from_text(line)?;
    // Never serve an artifact filed under the wrong key (e.g. a
    // hand-renamed file): the report embeds its own address.
    if report.key != key {
        return Err(misfiled(key, &report.key).into());
    }
    match stamped {
        Some(fp) if fp == fingerprint => Ok(report),
        Some(fp) => Err(ArtifactIssue::Stale {
            stamped: fp.to_string(),
        }),
        None => Err(ArtifactIssue::Stale {
            stamped: "unknown".to_string(),
        }),
    }
}

fn misfiled(key: &str, reported: &str) -> JobError {
    JobError::Invalid(format!(
        "artifact filed under {key} but reports key {reported}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

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
    fn mismatched_artifact_is_ignored() {
        let dir = temp_dir("mismatch");
        let cache = ResultCache::with_disk(&dir).unwrap();
        let job = Job::sim(40.0, 750e6, 5e6);
        cache.put(&report_for(&job)).unwrap();
        // File the artifact under a different (valid-hex) key.
        let other_key = "deadbeef".repeat(4);
        fs::copy(
            dir.join(format!("{}.json", job.key())),
            dir.join(format!("{other_key}.json")),
        )
        .unwrap();
        let fresh = ResultCache::with_disk(&dir).unwrap();
        assert!(fresh.get(&other_key).is_none(), "key mismatch must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_quarantined_and_counted() {
        let dir = temp_dir("quarantine");
        let job = Job::sim(40.0, 750e6, 5e6);
        let key = job.key();
        {
            let cache = ResultCache::with_disk(&dir).unwrap();
            cache.put(&report_for(&job)).unwrap();
        }
        // Truncate the artifact mid-record.
        let path = dir.join(format!("{key}.json"));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 3]).unwrap();

        let fresh = ResultCache::with_disk(&dir).unwrap();
        assert!(fresh.get(&key).is_none(), "corrupt artifact must miss");
        assert_eq!(fresh.quarantined(), 1);
        assert!(!path.exists(), "damaged file must be moved aside");
        assert!(
            dir.join(format!("{key}.json.quarantine")).exists(),
            "quarantine file must carry the .quarantine suffix"
        );
        // The quarantined bytes are never consulted again: a re-put then
        // a fresh lookup serves the new, intact artifact.
        fresh.put(&report_for(&job)).unwrap();
        let again = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(again.get(&key).unwrap().sndr_db, 68.5);
        assert_eq!(again.quarantined(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_detects_silent_bit_damage() {
        let dir = temp_dir("bitrot");
        let job = Job::sim(40.0, 750e6, 5e6);
        let cache = ResultCache::with_disk(&dir).unwrap();
        cache.put(&report_for(&job)).unwrap();
        // Flip one digit inside the JSON so it still parses and still
        // carries the right key — only the checksum can catch this.
        let path = dir.join(format!("{}.json", job.key()));
        let text = fs::read_to_string(&path).unwrap();
        let damaged = text.replacen("68.5", "68.6", 1);
        assert_ne!(text, damaged, "test must actually flip a value");
        fs::write(&path, damaged).unwrap();

        let fresh = ResultCache::with_disk(&dir).unwrap();
        assert!(fresh.get(&job.key()).is_none(), "bit damage must miss");
        assert_eq!(fresh.quarantined(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_checksum_less_artifacts_are_rejected() {
        let dir = temp_dir("legacy");
        let job = Job::sim(40.0, 750e6, 5e6);
        let report = report_for(&job);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}.json", job.key()));
        fs::write(&path, report.to_text() + "\n").unwrap();
        let cache = ResultCache::with_disk(&dir).unwrap();
        // PR 2's single-line format has no checksum and no fingerprint:
        // nothing vouches for the bytes, so it is quarantined — and
        // counted on its own counter, distinct from corruption.
        assert!(
            cache.get(&job.key()).is_none(),
            "unchecksummed artifact must not be trusted"
        );
        assert_eq!(cache.legacy_rejected(), 1);
        assert_eq!(cache.quarantined(), 1, "rejection lands in quarantine");
        assert_eq!(cache.stale(), 0);
        assert!(!path.exists(), "rejected file must be moved aside");
        assert!(path.with_extension("json.quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_artifact_is_demoted_not_replayed() {
        let dir = temp_dir("skew");
        let job = Job::sim(40.0, 750e6, 5e6);
        let key = job.key();
        {
            // Stage a cache "written by a different binary".
            let old = ResultCache::with_disk(&dir)
                .unwrap()
                .with_fingerprint("aaaaaaaaaaaaaaaa");
            old.put(&report_for(&job)).unwrap();
        }
        let cache = ResultCache::with_disk(&dir).unwrap();
        assert!(
            cache.get(&key).is_none(),
            "foreign-fingerprint artifact must never replay"
        );
        assert_eq!(cache.stale(), 1);
        assert_eq!(cache.quarantined(), 0, "intact bytes are not quarantined");
        assert!(!dir.join(format!("{key}.json")).exists());
        assert!(
            dir.join(STALE_DIR).join(format!("{key}.json")).exists(),
            "demoted artifact must land in the stale/ tier"
        );
        // The demoted file stays out of the lookup path permanently.
        assert!(!cache.contains(&key));
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stale(), 1, "already-demoted artifact counts once");
        // Re-putting with this engine's fingerprint makes the key fresh.
        cache.put(&report_for(&job)).unwrap();
        let again = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(again.get(&key).unwrap().sndr_db, 68.5);
        assert_eq!(again.stale(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksummed_but_unstamped_artifact_is_demoted() {
        // The interim format (crc trailer, no fp stamp) verifies but
        // cannot prove which engine wrote it: demote, don't quarantine.
        let dir = temp_dir("interim");
        let job = Job::sim(40.0, 750e6, 5e6);
        let report = report_for(&job);
        fs::create_dir_all(&dir).unwrap();
        let line = report.to_text();
        let crc = fnv1a64(line.as_bytes(), CRC_BASIS);
        fs::write(
            dir.join(format!("{}.json", job.key())),
            format!("{line}\ncrc64:{crc:016x}\n"),
        )
        .unwrap();
        let cache = ResultCache::with_disk(&dir).unwrap();
        assert!(cache.get(&job.key()).is_none());
        assert_eq!(cache.stale(), 1);
        assert_eq!(cache.quarantined(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_and_scrub_inventory_and_prune() {
        let dir = temp_dir("scrub");
        let fresh_job = Job::sim(40.0, 750e6, 5e6);
        let foreign_job = Job::sim(40.0, 750e6, 4e6);
        let legacy_job = Job::sim(40.0, 750e6, 3e6);
        let cache = ResultCache::with_disk(&dir).unwrap();
        cache.put(&report_for(&fresh_job)).unwrap();
        ResultCache::with_disk(&dir)
            .unwrap()
            .with_fingerprint("bbbbbbbbbbbbbbbb")
            .put(&report_for(&foreign_job))
            .unwrap();
        fs::write(
            dir.join(format!("{}.json", legacy_job.key())),
            report_for(&legacy_job).to_text() + "\n",
        )
        .unwrap();
        fs::create_dir_all(dir.join(STALE_DIR)).unwrap();
        fs::write(dir.join(STALE_DIR).join("00ab.json"), "parked").unwrap();
        fs::write(dir.join("00cd.json.quarantine"), "junk").unwrap();

        let fp = engine_fingerprint();
        let stats = ResultCache::inspect(&dir, fp).unwrap();
        assert_eq!(
            stats,
            CacheStats {
                fresh: 1,
                mismatched: 1,
                suspect: 1,
                stale: 1,
                quarantined: 1,
            }
        );
        // Inspect never mutates: a second pass sees the same picture.
        assert_eq!(ResultCache::inspect(&dir, fp).unwrap(), stats);

        let scrub = ResultCache::scrub(&dir, fp).unwrap();
        assert_eq!(scrub.fresh_kept, 1);
        assert_eq!(scrub.removed_mismatched, 1);
        assert_eq!(scrub.removed_suspect, 1);
        assert_eq!(scrub.removed_stale, 1);
        assert_eq!(scrub.removed_quarantine, 1);
        assert_eq!(scrub.removed(), 4);

        let after = ResultCache::inspect(&dir, fp).unwrap();
        assert_eq!(after.fresh, 1, "fresh artifact survives the scrub");
        assert_eq!(
            after.mismatched + after.suspect + after.stale + after.quarantined,
            0
        );
        // The surviving artifact still hits.
        let reopened = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(reopened.get(&fresh_job.key()).unwrap().sndr_db, 68.5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_corruption_round_trips_through_quarantine() {
        let dir = temp_dir("faulty_writes");
        let always_corrupt = FaultPlan {
            seed: 5,
            corrupt_artifact_permille: 1000,
            ..FaultPlan::default()
        };
        let job = Job::sim(40.0, 750e6, 5e6);
        {
            let cache = ResultCache::with_disk(&dir)
                .unwrap()
                .with_faults(always_corrupt);
            cache.put(&report_for(&job)).unwrap();
            // The memory tier keeps the good copy; only the disk lies.
            assert_eq!(cache.get(&job.key()).unwrap().sndr_db, 68.5);
        }
        let fresh = ResultCache::with_disk(&dir).unwrap();
        assert!(
            fresh.get(&job.key()).is_none(),
            "corrupted write must not come back as a hit"
        );
        assert_eq!(fresh.quarantined(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_backlog_is_pruned_to_retention_on_open() {
        let dir = temp_dir("prune");
        fs::create_dir_all(&dir).unwrap();
        let total = QUARANTINE_RETAIN + 5;
        for i in 0..total {
            fs::write(dir.join(format!("{i:032x}.json.quarantine")), "junk").unwrap();
        }
        let cache = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(cache.quarantine_pruned(), 5);
        let remaining = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().to_string_lossy().ends_with(".quarantine"))
            .count();
        assert_eq!(remaining, QUARANTINE_RETAIN);
        // A second open has nothing left to prune.
        let again = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(again.quarantine_pruned(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tier_backlog_is_pruned_to_retention_on_open() {
        let dir = temp_dir("stale_prune");
        let stale_dir = dir.join(STALE_DIR);
        fs::create_dir_all(&stale_dir).unwrap();
        let total = STALE_RETAIN + 7;
        for i in 0..total {
            fs::write(stale_dir.join(format!("{i:032x}.json")), "old-version junk").unwrap();
        }
        let cache = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(cache.stale_pruned(), 7);
        let remaining = fs::read_dir(&stale_dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().to_string_lossy().ends_with(".json"))
            .count();
        assert_eq!(remaining, STALE_RETAIN);
        // A second open has nothing left to prune, and a cache opened on
        // a directory with no stale/ tier at all reports zero.
        let again = ResultCache::with_disk(&dir).unwrap();
        assert_eq!(again.stale_pruned(), 0);
        let fresh = temp_dir("stale_prune_fresh");
        let empty = ResultCache::with_disk(&fresh).unwrap();
        assert_eq!(empty.stale_pruned(), 0);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&fresh);
    }

    #[test]
    fn store_failure_from_tmp_write_is_structured_not_a_panic() {
        let dir = temp_dir("tmp_collision");
        let cache = ResultCache::with_disk(&dir).unwrap();
        let job = Job::sim(40.0, 750e6, 5e6);
        // Occupy the tmp-file path with a directory: fs::write on it
        // fails with a real OS error regardless of privileges (even as
        // root, unlike a chmod-based read-only test).
        let tmp = dir.join(format!("{}.json.tmp", job.key()));
        fs::create_dir_all(&tmp).unwrap();
        let err = cache.put(&report_for(&job)).expect_err("write must fail");
        match &err {
            JobError::Io { path, .. } => {
                let p = path.as_deref().expect("error names the failing path");
                assert!(p.ends_with(".json.tmp"), "unexpected path {p}");
            }
            other => panic!("expected structured Io error, got {other:?}"),
        }
        // The memory tier was updated before the disk write: the result
        // is merely uncached, not lost.
        assert_eq!(cache.get(&job.key()).unwrap().sndr_db, 68.5);
        let _ = fs::remove_dir_all(&dir);
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
