//! Error type for job submission and execution.

use std::fmt;
use std::path::Path;

/// Everything that can go wrong between submitting a job and getting a
/// report back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job parameters are invalid (spec validation, unknown node,
    /// malformed request). Not retryable: the same input always fails.
    Invalid(String),
    /// The flow errored or panicked on every allowed attempt.
    Failed {
        /// Number of attempts made (1 = no retries were allowed/needed).
        attempts: u32,
        /// Message of the final failure.
        message: String,
    },
    /// A transient infrastructure failure (injected by a fault plan or
    /// surfaced by a flaky resource). Retryable by definition.
    Transient(String),
    /// The batch was cancelled before this job ran.
    Canceled,
    /// The worker pool is shut down.
    PoolClosed,
    /// Cache, journal or network I/O failure, carrying the OS error kind
    /// and (when known) the path that failed, so a `PermissionDenied` on
    /// a read-only cache dir is distinguishable from a full disk.
    Io {
        /// The OS error class ([`std::io::ErrorKind`]).
        kind: std::io::ErrorKind,
        /// The filesystem path the operation failed on, if known.
        path: Option<String>,
        /// The underlying error message.
        message: String,
    },
}

impl JobError {
    /// Wraps an [`std::io::Error`] with the path it occurred on, so the
    /// error taxonomy keeps both the OS error kind and the location.
    pub fn io_at(path: impl AsRef<Path>, e: &std::io::Error) -> Self {
        JobError::Io {
            kind: e.kind(),
            path: Some(path.as_ref().display().to_string()),
            message: e.to_string(),
        }
    }

    /// Whether re-running the job could plausibly succeed (panics and
    /// transient failures — not validation errors).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            JobError::Failed { .. } | JobError::Io { .. } | JobError::Transient(_)
        )
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Invalid(m) => write!(f, "invalid job: {m}"),
            JobError::Failed { attempts, message } => {
                write!(f, "job failed after {attempts} attempt(s): {message}")
            }
            JobError::Transient(m) => write!(f, "transient failure: {m}"),
            JobError::Canceled => f.write_str("job canceled"),
            JobError::PoolClosed => f.write_str("worker pool is closed"),
            JobError::Io {
                kind,
                path: Some(path),
                message,
            } => write!(f, "job I/O error ({kind:?}) at {path}: {message}"),
            JobError::Io {
                kind,
                path: None,
                message,
            } => write!(f, "job I/O error ({kind:?}): {message}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> Self {
        JobError::Io {
            kind: e.kind(),
            path: None,
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    #[test]
    fn io_errors_carry_kind_and_path() {
        let os = io::Error::new(io::ErrorKind::PermissionDenied, "denied by mode 0555");
        let e = JobError::io_at("/tmp/cache/abc.json", &os);
        match &e {
            JobError::Io { kind, path, .. } => {
                assert_eq!(*kind, io::ErrorKind::PermissionDenied);
                assert_eq!(path.as_deref(), Some("/tmp/cache/abc.json"));
            }
            other => panic!("expected Io, got {other:?}"),
        }
        let text = e.to_string();
        assert!(text.contains("PermissionDenied"), "{text}");
        assert!(text.contains("/tmp/cache/abc.json"), "{text}");
        assert!(text.contains("denied by mode"), "{text}");
    }

    #[test]
    fn from_io_error_keeps_the_kind() {
        let e: JobError = io::Error::new(io::ErrorKind::StorageFull, "disk full").into();
        match &e {
            JobError::Io { kind, path, .. } => {
                assert_eq!(*kind, io::ErrorKind::StorageFull);
                assert_eq!(*path, None);
            }
            other => panic!("expected Io, got {other:?}"),
        }
        assert!(e.is_retryable(), "I/O failures are retryable");
    }
}
