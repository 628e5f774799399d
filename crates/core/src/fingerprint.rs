//! The engine fingerprint: a version stamp that changes whenever the
//! numerics change.
//!
//! A [`crate::report::AdcReport`] (and downstream every jobs-engine
//! artifact) is a pure function of its inputs *and of the engine that
//! computed it*. The crate version alone cannot witness the second
//! dependency — an edit to the transient integrator or the spectrum
//! analysis changes every number without touching `Cargo.toml`. So the
//! fingerprint is computed empirically at startup: a tiny fixed **golden
//! micro-vector** runs through the real transient + spectrum path and
//! the resulting bits are FNV-hashed together with the crate version and
//! the artifact-schema version. Two binaries agree on the fingerprint
//! exactly when they would agree on every simulation result.
//!
//! Consumers (the jobs crate's cache, journal, serve protocol and
//! dispatcher) treat the fingerprint as an opaque token: equality means
//! "results are interchangeable", anything else means version skew.
//!
//! For testing and CI, `TDSIGMA_FINGERPRINT` overrides the computed
//! value for the whole process — the sanctioned way to *simulate* a
//! mismatched binary without building one.

use crate::error::CoreError;
use crate::sim::{tone, AdcSimulator};
use crate::spec::AdcSpec;
use std::sync::OnceLock;
use tdsigma_dsp::SpectrumScratch;
use tdsigma_tech::{fnv1a64, FNV1A64_BASIS};

/// Version of the on-disk artifact schema (cache artifacts, journal
/// records, sweep/optimize JSON). Bump on any layout change, and on any
/// deliberate change of the numerics (2: the ziggurat normal sampler),
/// so stamped artifacts from before it stop matching.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 2;

/// Environment variable that overrides the computed fingerprint for the
/// whole process (tests and CI simulate a mismatched binary with it).
pub const FINGERPRINT_ENV: &str = "TDSIGMA_FINGERPRINT";

static FINGERPRINT: OnceLock<String> = OnceLock::new();

/// The engine fingerprint of this process, computed once and cached.
///
/// The value is 16 lowercase hex digits (an FNV-1a 64-bit digest) unless
/// `FINGERPRINT_ENV` overrides it, in which case the override is
/// returned verbatim. Computing it costs one tiny golden-vector
/// simulation (~1k clock cycles of a 2-slice design) on first call.
pub fn engine_fingerprint() -> &'static str {
    FINGERPRINT.get_or_init(compute).as_str()
}

fn compute() -> String {
    if let Ok(forced) = std::env::var(FINGERPRINT_ENV) {
        if !forced.is_empty() {
            return forced;
        }
    }
    let mut hash = fnv1a64(env!("CARGO_PKG_VERSION").as_bytes(), FNV1A64_BASIS);
    hash = fnv1a64(&ARTIFACT_SCHEMA_VERSION.to_le_bytes(), hash);
    match golden_digest() {
        Ok(digest) => hash = fnv1a64(&digest.to_le_bytes(), hash),
        // A broken golden vector is itself a distinct (and alarming)
        // version: hash the failure so such a binary never matches a
        // healthy one.
        Err(e) => hash = fnv1a64(e.to_string().as_bytes(), hash),
    }
    format!("{hash:016x}")
}

/// Runs the golden micro-vector — a fixed tiny 40 nm design point through
/// the transient simulator and the spectrum analysis — and digests the
/// resulting float bits. Any numeric change anywhere on that path
/// (integration, noise draws, windowing, FFT, SNDR integration) lands in
/// the digest.
fn golden_digest() -> Result<u64, CoreError> {
    let mut spec = AdcSpec::paper_40nm()?;
    spec.n_slices = 2;
    spec.steps_per_cycle = 4;
    let spec = spec.validated()?;
    let mut sim = AdcSimulator::new(spec.clone())?;
    let amplitude = 0.5 * spec.full_scale_v();
    // `run_tone`'s transient outside the `flow.*` spans: the fingerprint
    // is not a flow stage, and a run's stage breakdown must count only
    // the jobs it ran.
    let capture = sim.run_unspanned(tone(2.5e6, amplitude), GOLDEN_SAMPLES);
    let analysis = capture.analyze_unspanned(spec.bw_hz, &mut SpectrumScratch::new());
    Ok(fnv1a64(
        &analysis.sndr_db.to_bits().to_le_bytes(),
        FNV1A64_BASIS,
    ))
}

/// Clock cycles captured by the golden micro-vector: long enough that
/// the spectrum analysis has in-band bins, short enough that startup
/// stays sub-millisecond territory.
const GOLDEN_SAMPLES: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        let a = engine_fingerprint();
        let b = engine_fingerprint();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn golden_digest_is_deterministic() {
        let a = golden_digest().expect("golden vector must simulate");
        let b = golden_digest().expect("golden vector must simulate");
        assert_eq!(a, b, "same binary, same golden bits");
    }

    #[test]
    fn digest_feeds_the_fingerprint() {
        // Unless the env override is active, the fingerprint must be the
        // 16-hex-digit digest form.
        if std::env::var(FINGERPRINT_ENV).is_err() {
            let fp = engine_fingerprint();
            assert_eq!(fp.len(), 16, "fnv digest renders as 16 hex chars: {fp}");
            assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }
}
