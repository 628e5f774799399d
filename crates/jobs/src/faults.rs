//! Deterministic fault injection for the job engine.
//!
//! A [`FaultPlan`] is a seeded description of which faults to inject
//! where: worker panics, transient retryable errors, artificial job
//! latency, corrupted cache artifacts, dropped, stalled or corrupted
//! dispatch exchanges, and a lying backend. Version skew has no site
//! here: a backend started under the `TDSIGMA_FINGERPRINT` override is a
//! real foreign engine. The plan is compiled in always and consulted on the
//! hot paths, but an empty plan ([`FaultPlan::none`], the default)
//! reduces every check to a handful of integer compares — no RNG is
//! ever constructed.
//!
//! The load-bearing property is **determinism independent of
//! scheduling**: every decision is a pure function of `(plan seed, fault
//! site, job key, attempt)`, hashed into a dedicated [`Rng64`] stream.
//! Two runs with the same plan inject the same faults at the same
//! places no matter how many workers raced for the jobs, which is what
//! lets the chaos suite assert byte-identical recovery.

use tdsigma_tech::{fnv1a64, Rng64, FNV1A64_BASIS};

/// Where a fault decision is being made. Each site hashes into an
/// independent decision stream so that, e.g., raising the panic rate
/// does not reshuffle which attempts get latency. The discriminants
/// seed those streams, so they are fixed: a retired site's number
/// (5, 9, 10, 11, 12) is never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Panic = 1,
    Transient = 2,
    Latency = 3,
    Artifact = 4,
    ConnDrop = 6,
    NetStall = 7,
    Response = 8,
    LyingBackend = 13,
}

/// A fault injected before a job attempt runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptFault {
    /// The worker panics mid-job (exercises `catch_unwind` isolation).
    Panic,
    /// The attempt fails with a retryable [`crate::JobError::Transient`].
    Transient,
}

/// A fault injected into one remote dispatch exchange (the client side
/// of the serve protocol). These are the network analogue of
/// [`AttemptFault`]: the dispatcher's failover/fallback machinery must
/// absorb all of them without losing or duplicating a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The connection to the backend is dropped before the request is
    /// written (partition / peer crash between health check and use).
    ConnDrop,
    /// The backend stalls for this many ms before its response arrives
    /// (a wedged peer; caught by the client's read deadline).
    Stall(u64),
    /// The response frame arrives corrupted and fails to parse.
    CorruptResponse,
}

/// A seeded, deterministic fault-injection plan. All rates are permille
/// (0–1000); the zero plan injects nothing and costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for every decision stream. Two plans with equal rates but
    /// different seeds inject faults in different places.
    pub seed: u64,
    /// Chance a job attempt panics inside the worker.
    pub panic_permille: u16,
    /// Chance a job attempt fails with a transient retryable error.
    pub transient_permille: u16,
    /// Upper bound on artificial latency added to an attempt, ms
    /// (actual latency is drawn uniformly from `[0, max]`).
    pub latency_ms_max: u64,
    /// Chance a cache artifact is written corrupted (truncated, garbled
    /// or emptied) instead of intact.
    pub corrupt_artifact_permille: u16,
    /// Chance a remote dispatch connection is dropped before the request
    /// is written.
    pub conn_drop_permille: u16,
    /// Chance a remote dispatch response frame arrives corrupted.
    pub response_corrupt_permille: u16,
    /// Stall injected before a remote dispatch response is read, ms
    /// (applied to ~30 % of exchanges when non-zero; 0 disables).
    pub net_stall_ms: u64,
    /// Chance a serve backend perturbs a report's *values* after compute
    /// while keeping the report key intact — a lying backend. This is
    /// exactly the corruption class that wire attestation and engine
    /// fingerprints cannot catch (the liar attests its own wrong bytes):
    /// only redundant recomputation can.
    /// Not part of [`FaultPlan::chaos`]: silently changing result values
    /// breaks the byte-identity invariant every other class preserves,
    /// so it must stay opt-in for the integrity suite.
    pub lying_backend_permille: u16,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The standard chaotic mix used by `tdsigma sweep --chaos-seed N`
    /// and the chaos suite: every fault class enabled at rates low
    /// enough that a retry budget of 3 usually (but not always) wins.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_permille: 120,
            transient_permille: 200,
            latency_ms_max: 3,
            corrupt_artifact_permille: 150,
            conn_drop_permille: 150,
            response_corrupt_permille: 150,
            net_stall_ms: 5,
            lying_backend_permille: 0,
        }
    }

    /// True if no fault class is enabled (the zero-cost fast path).
    pub fn is_empty(&self) -> bool {
        self.panic_permille == 0
            && self.transient_permille == 0
            && self.latency_ms_max == 0
            && self.corrupt_artifact_permille == 0
            && self.conn_drop_permille == 0
            && self.response_corrupt_permille == 0
            && self.net_stall_ms == 0
            && self.lying_backend_permille == 0
    }

    /// The fault (if any) to inject into attempt `attempt` of the job
    /// addressed by `key`. Panic takes precedence over transient so the
    /// two rates never mask each other's determinism.
    pub fn attempt_fault(&self, key: &str, attempt: u32) -> Option<AttemptFault> {
        if self.hit(Site::Panic, key, attempt, self.panic_permille) {
            return Some(AttemptFault::Panic);
        }
        if self.hit(Site::Transient, key, attempt, self.transient_permille) {
            return Some(AttemptFault::Transient);
        }
        None
    }

    /// Artificial latency for this attempt, ms (0 when disabled).
    pub fn attempt_latency_ms(&self, key: &str, attempt: u32) -> u64 {
        if self.latency_ms_max == 0 {
            return 0;
        }
        let mut rng = self.stream(Site::Latency, key, attempt);
        rng.gen_range(self.latency_ms_max as usize + 1) as u64
    }

    /// If this artifact write should be corrupted, returns the corrupted
    /// bytes to write instead; `None` means write the real `text`.
    /// Rotates between truncation, mid-string garbling, and emptying.
    pub fn corrupt_artifact(&self, key: &str, text: &str) -> Option<String> {
        if !self.hit(Site::Artifact, key, 0, self.corrupt_artifact_permille) {
            return None;
        }
        let mut rng = self.stream(Site::Artifact, key, 1);
        Some(match rng.gen_range(3) {
            0 => {
                // Truncated mid-record (snapped to a char boundary).
                let mut cut = text.len() / 2;
                while cut > 0 && !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text[..cut].to_string()
            }
            1 => {
                // Structurally broken: braces flipped to stars.
                text.replace(['{', '}'], "*")
            }
            _ => String::new(), // zero-length artifact
        })
    }

    /// The fault (if any) to inject into one remote dispatch exchange,
    /// addressed by `key` (conventionally `"<backend>|<job key>"`, so the
    /// same job draws independently per backend) and `attempt`. Drop
    /// takes precedence over stall over corruption, so raising one rate
    /// never reshuffles the others' decisions.
    pub fn net_fault(&self, key: &str, attempt: u32) -> Option<NetFault> {
        if self.hit(Site::ConnDrop, key, attempt, self.conn_drop_permille) {
            return Some(NetFault::ConnDrop);
        }
        if self.net_stall_ms > 0 && self.hit(Site::NetStall, key, attempt, 300) {
            return Some(NetFault::Stall(self.net_stall_ms));
        }
        if self.hit(Site::Response, key, attempt, self.response_corrupt_permille) {
            return Some(NetFault::CorruptResponse);
        }
        None
    }

    /// The perturbation (if any) a lying backend applies to the report
    /// for job `key`: a deterministic non-zero delta added to one of the
    /// report's metric values *after* compute, with the report key left
    /// intact. Keyed on the job key alone (no attempt) so the same job
    /// is lied about identically every time this backend serves it —
    /// which is what makes redundant-verification comparisons stable.
    pub fn lying_report_delta(&self, key: &str) -> Option<f64> {
        if !self.hit(Site::LyingBackend, key, 0, self.lying_backend_permille) {
            return None;
        }
        let mut rng = self.stream(Site::LyingBackend, key, 1);
        // 0.5..=10.4 dB: always large enough to survive the report's
        // fixed-precision formatting, never absurd enough to trip range
        // validation on the honest side.
        Some(0.5 + rng.gen_range(100) as f64 / 10.0)
    }

    /// One permille draw from the decision stream for `(site, key,
    /// attempt)`.
    fn hit(&self, site: Site, key: &str, attempt: u32, permille: u16) -> bool {
        if permille == 0 {
            return false;
        }
        if permille >= 1000 {
            return true;
        }
        self.stream(site, key, attempt).gen_range(1000) < permille as usize
    }

    /// The dedicated RNG stream for one decision point.
    fn stream(&self, site: Site, key: &str, attempt: u32) -> Rng64 {
        let mut h = fnv1a64(key.as_bytes(), FNV1A64_BASIS ^ self.seed);
        h = h
            .wrapping_mul(31)
            .wrapping_add(site as u64)
            .wrapping_mul(31)
            .wrapping_add(attempt as u64);
        Rng64::seed_from_u64(h)
    }
}

/// Basis for the wire attestation crc64 computed by serve over the
/// canonical report text and re-verified by `RemoteClient`. Deliberately
/// distinct from the cache artifact basis and the journal envelope basis
/// so an attestation can never be confused with either.
pub(crate) const ATTEST_BASIS: u64 = 0x7a30_9d4f_1bc8_55e1;

/// Basis for the sampled-verification draw: a report key hashes under
/// this basis to decide whether the result is redundantly re-executed.
/// Keyed on the report key alone — no RNG state, no clock — so the same
/// keys are verified on every run and on `--resume`.
pub(crate) const VERIFY_BASIS: u64 = 0x2f63_b1a8_9e47_d025;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for attempt in 1..=100 {
            assert_eq!(plan.attempt_fault("abc123", attempt), None);
            assert_eq!(plan.attempt_latency_ms("abc123", attempt), 0);
        }
        assert_eq!(plan.corrupt_artifact("abc123", "{}"), None);
        assert_eq!(plan.net_fault("peer|abc123", 1), None);
        assert_eq!(plan.lying_report_delta("abc123"), None);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::chaos(42);
        let b = FaultPlan::chaos(42);
        for attempt in 1..=50 {
            for key in ["deadbeef", "cafebabe", "0123abcd"] {
                assert_eq!(a.attempt_fault(key, attempt), b.attempt_fault(key, attempt));
                assert_eq!(
                    a.attempt_latency_ms(key, attempt),
                    b.attempt_latency_ms(key, attempt)
                );
            }
        }
        for i in 0..50 {
            let key = format!("peer:4017|{i:08x}");
            assert_eq!(a.net_fault(&key, 1), b.net_fault(&key, 1));
        }
        assert_eq!(
            a.corrupt_artifact("deadbeef", "{\"x\":1}"),
            b.corrupt_artifact("deadbeef", "{\"x\":1}")
        );
    }

    #[test]
    fn different_seeds_inject_differently() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let decisions = |p: &FaultPlan| -> Vec<Option<AttemptFault>> {
            (1..=200)
                .map(|i| p.attempt_fault(&format!("{i:08x}"), 1))
                .collect()
        };
        assert_ne!(decisions(&a), decisions(&b), "seed must matter");
    }

    #[test]
    fn chaos_plan_actually_fires_every_class() {
        let plan = FaultPlan::chaos(2017);
        assert!(!plan.is_empty(), "chaos plan is never empty");
        let mut panics = 0;
        let mut transients = 0;
        let mut latencies = 0;
        let mut corruptions = 0;
        for i in 0..500u32 {
            let key = format!("{i:08x}");
            match plan.attempt_fault(&key, 1) {
                Some(AttemptFault::Panic) => panics += 1,
                Some(AttemptFault::Transient) => transients += 1,
                None => {}
            }
            if plan.attempt_latency_ms(&key, 1) > 0 {
                latencies += 1;
            }
            if plan.corrupt_artifact(&key, "{\"k\":\"v\"}").is_some() {
                corruptions += 1;
            }
        }
        assert!(panics > 10, "panic class silent: {panics}");
        assert!(transients > 20, "transient class silent: {transients}");
        assert!(latencies > 100, "latency class silent: {latencies}");
        assert!(corruptions > 20, "corruption class silent: {corruptions}");
        let mut drops = 0;
        let mut stalls = 0;
        let mut garbles = 0;
        for i in 0..500u32 {
            match plan.net_fault(&format!("peer|{i:08x}"), 1) {
                Some(NetFault::ConnDrop) => drops += 1,
                Some(NetFault::Stall(ms)) => {
                    assert_eq!(ms, plan.net_stall_ms);
                    stalls += 1;
                }
                Some(NetFault::CorruptResponse) => garbles += 1,
                None => {}
            }
        }
        assert!(drops > 20, "conn-drop class silent: {drops}");
        assert!(stalls > 50, "net-stall class silent: {stalls}");
        assert!(garbles > 20, "corrupt-response class silent: {garbles}");
        assert_eq!(
            plan.lying_backend_permille, 0,
            "value corruption must stay opt-in, not part of default chaos"
        );
    }

    #[test]
    fn lying_backend_fires_deterministically_when_enabled() {
        let plan = FaultPlan {
            seed: 83,
            lying_backend_permille: 400,
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty(), "enabled class must register");
        let deltas: Vec<(u32, f64)> = (0..100u32)
            .filter_map(|i| plan.lying_report_delta(&format!("{i:08x}")).map(|d| (i, d)))
            .collect();
        assert!(!deltas.is_empty(), "enabled lying backend must fire");
        for &(_, d) in &deltas {
            assert!(
                d >= 0.5,
                "delta must survive fixed-precision formatting: {d}"
            );
        }
        let again: Vec<(u32, f64)> = (0..100u32)
            .filter_map(|i| plan.lying_report_delta(&format!("{i:08x}")).map(|d| (i, d)))
            .collect();
        assert_eq!(deltas, again, "decisions must be pure");
        assert_eq!(
            FaultPlan::chaos(83).lying_backend_permille,
            0,
            "value corruption breaks byte-identity; it must stay opt-in"
        );
    }

    #[test]
    fn corruption_variants_are_actually_corrupt() {
        let plan = FaultPlan {
            seed: 9,
            corrupt_artifact_permille: 1000,
            ..FaultPlan::default()
        };
        let text = "{\"key\":\"abc\",\"sndr_db\":68.5}";
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u32 {
            let key = format!("{i:08x}");
            let corrupted = plan.corrupt_artifact(&key, text).expect("rate is 1000");
            assert_ne!(corrupted, text, "corruption must change the bytes");
            seen.insert(corrupted);
        }
        assert!(seen.len() >= 2, "should rotate corruption styles");
    }
}
