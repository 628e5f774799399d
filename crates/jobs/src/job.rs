//! The unit of work: a fully-parameterized, deterministic design job.
//!
//! A [`Job`] is a *value* — plain numbers, no handles — so that two jobs
//! with the same parameters are interchangeable. That is what makes the
//! engine's guarantees possible: the content-addressed cache keys on the
//! canonicalized parameters ([`Job::key`]), results are bit-identical
//! whether the batch ran on one worker or sixteen, and a request arriving
//! over the `serve` line protocol is exactly as executable as one built
//! in-process.
//!
//! Whether a job can run at all is decided once, by [`Job::to_spec`]:
//! every entry point (CLI planning, serve admission, [`crate::execute()`])
//! calls it, and a job it accepts has no field left that can make the
//! simulator abort, panic or wrap.

use crate::error::JobError;
use crate::json::Json;
use tdsigma_core::flow::coherent_input_hz;
use tdsigma_core::sim::ANALYSIS_WINDOW;
use tdsigma_core::spec::AdcSpec;
use tdsigma_dsp::metrics::ToneAnalysis;
use tdsigma_tech::{fnv1a64, NodeId, Technology, FNV1A64_BASIS};

/// The longest capture one job may ask for: 2²⁰ samples, 64× the
/// largest workload (16384). The capture is allocated up front and the
/// transient runs `samples × steps_per_cycle` steps, so an unbounded
/// request from a peer would abort the process or pin a worker.
pub const MAX_SAMPLES: usize = 1 << 20;

/// The most transient work one job may ask for: 2²⁸ slice-substeps
/// (`samples × steps_per_cycle × slices`). The slice, sample and step
/// bounds each hold alone, so without this one a single job could ask for
/// all three maxima: 2⁴⁰ slice-substeps, about 18 h of one worker and
/// 1 GiB of slice codes (2²⁸ runs in about 16 s on one core of a
/// 2-vCPU VM). 2²⁸ is 64× the largest job the binaries and the
/// ledger build (16 slices × 16384 samples × 16 steps = 2²², `sim_sweep`)
/// and 32× the slow capture of the crash-resume tests (2 slices × 2¹⁸
/// samples × 16 steps), and it still admits a [`MAX_SAMPLES`] capture at
/// the default 8 slices and 16 steps.
pub const MAX_WORK: usize = 1 << 28;

/// The largest seed a job may carry: 2⁵³, the last integer a JSON
/// number (an `f64`) holds exactly. A larger one would be rounded on the
/// wire and in the journal, so the backend's report key and the resumed
/// job would not match the planned one.
pub const MAX_SEED: u64 = 1 << 53;

/// The keys of a job's canonical JSON form, in [`Job::to_json`] order:
/// the only keys [`Job::from_json`] accepts.
const JOB_FIELDS: [&str; 13] = [
    "kind",
    "node_nm",
    "slices",
    "fs_hz",
    "bw_hz",
    "samples",
    "amplitude_rel",
    "fin_hz",
    "steps_per_cycle",
    "loop_gain",
    "vco_stages",
    "rdac_ohm",
    "seed",
];

/// What the job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Schematic-level behavioral simulation of one tone: fast, returns
    /// SNDR/ENOB only. The workhorse of design-space sweeps.
    SimTone,
    /// The complete Fig.-9 flow (netlist → power plan → APR → extraction
    /// → post-layout sim): slow, returns the full Table-3 row.
    FullFlow,
}

impl JobKind {
    /// Stable protocol name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::SimTone => "sim",
            JobKind::FullFlow => "flow",
        }
    }

    /// Parses a protocol name.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] for anything but `"sim"` / `"flow"`.
    pub fn parse(s: &str) -> Result<Self, JobError> {
        match s {
            "sim" => Ok(JobKind::SimTone),
            "flow" => Ok(JobKind::FullFlow),
            other => Err(JobError::Invalid(format!(
                "unknown job kind {other:?} (expected \"sim\" or \"flow\")"
            ))),
        }
    }
}

/// One design-flow invocation: a spec, flow options, and a deterministic
/// RNG seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Simulation-only or full flow.
    pub kind: JobKind,
    /// Technology node gate length, nm (must name a supported node).
    pub node_nm: f64,
    /// Slice count.
    pub slices: usize,
    /// Sampling clock, Hz.
    pub fs_hz: f64,
    /// Signal bandwidth, Hz.
    pub bw_hz: f64,
    /// Captured clock cycles (power of two for coherent FFT).
    pub samples: usize,
    /// Input amplitude relative to full scale (0–1).
    pub amplitude_rel: f64,
    /// Input tone target frequency, Hz; `None` → coherent tone near BW/5
    /// (the paper's operating point).
    pub fin_hz: Option<f64>,
    /// Simulation substeps per clock cycle; 0 → the spec default.
    pub steps_per_cycle: usize,
    /// Loop-gain multiplier (the paper's SQNR knob); 1.0 → nominal.
    pub loop_gain: f64,
    /// Ring-VCO stages per VCO; 0 → the spec default.
    pub vco_stages: usize,
    /// DAC branch resistance, Ω (the feedback-current knob the design-
    /// space optimizer searches); 0.0 → the spec default (22 kΩ).
    pub rdac_ohm: f64,
    /// RNG seed for mismatch and noise draws (one seed = one die).
    pub seed: u64,
}

impl Job {
    /// A simulation job at the paper's default operating point for the
    /// given node/clock/bandwidth.
    pub fn sim(node_nm: f64, fs_hz: f64, bw_hz: f64) -> Self {
        Job {
            kind: JobKind::SimTone,
            node_nm,
            slices: 8,
            fs_hz,
            bw_hz,
            samples: 8192,
            amplitude_rel: 0.79,
            fin_hz: None,
            steps_per_cycle: 0,
            loop_gain: 1.0,
            vco_stages: 0,
            rdac_ohm: 0.0,
            seed: 2017,
        }
    }

    /// A full-flow job at the paper's default operating point.
    pub fn flow(node_nm: f64, fs_hz: f64, bw_hz: f64) -> Self {
        Job {
            kind: JobKind::FullFlow,
            samples: 16_384,
            ..Job::sim(node_nm, fs_hz, bw_hz)
        }
    }

    /// The canonicalized parameter string this job is addressed by.
    ///
    /// Floats are rendered as their exact IEEE-754 bit patterns, so two
    /// jobs share a canonical form iff every parameter is bit-equal —
    /// no formatting or rounding ambiguity can alias distinct jobs.
    pub fn canonical(&self) -> String {
        format!(
            "v2;kind={};node={:016x};slices={};fs={:016x};bw={:016x};samples={};amp={:016x};\
             fin={};steps={};gain={:016x};stages={};rdac={:016x};seed={}",
            self.kind.as_str(),
            self.node_nm.to_bits(),
            self.slices,
            self.fs_hz.to_bits(),
            self.bw_hz.to_bits(),
            self.samples,
            self.amplitude_rel.to_bits(),
            self.fin_hz
                .map_or("none".to_string(), |f| format!("{:016x}", f.to_bits())),
            self.steps_per_cycle,
            self.loop_gain.to_bits(),
            self.vco_stages,
            self.rdac_ohm.to_bits(),
            self.seed,
        )
    }

    /// The 128-bit content-address of this job (32 hex chars): two
    /// independent FNV-1a passes over [`Job::canonical`]. Keys both the
    /// in-memory map and the on-disk artifact store.
    pub fn key(&self) -> String {
        let canon = self.canonical();
        let a = fnv1a64(canon.as_bytes(), FNV1A64_BASIS);
        let b = fnv1a64(canon.as_bytes(), 0x9ae1_6a3b_2f90_404f);
        format!("{a:016x}{b:016x}")
    }

    /// The one validity predicate for a job: checks it and materializes
    /// the [`AdcSpec`] it describes. The capture must be a power of two
    /// the spectrum analysis can use ([`ToneAnalysis::min_samples`]) and
    /// at most [`MAX_SAMPLES`]; the tone a finite amplitude in (0, 1] of
    /// full scale and, if set, a finite frequency in (0, fs/2). The knobs
    /// are set on the spec directly and [`AdcSpec::validated`] bounds them
    /// once; their product with the capture is bounded by [`MAX_WORK`].
    /// CLI planning, serve (ahead of admission) and
    /// [`crate::execute()`] all call this, so a job that cannot run fails
    /// as [`JobError::Invalid`] instead of aborting, panicking or
    /// reporting a meaningless result.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] naming the bound that was exceeded, the
    /// minimum sample count for the band, or the unsupported node.
    pub fn to_spec(&self) -> Result<AdcSpec, JobError> {
        let invalid = |message: String| Err(JobError::Invalid(message));
        if self.samples > MAX_SAMPLES {
            return invalid(format!(
                "samples {} exceeds the maximum {MAX_SAMPLES}",
                self.samples
            ));
        }
        if self.seed > MAX_SEED {
            return invalid(format!("seed {} exceeds the maximum {MAX_SEED}", self.seed));
        }
        // NaN fails every comparison, so it lands in the error branch.
        if !(self.amplitude_rel > 0.0 && self.amplitude_rel <= 1.0) {
            return invalid(format!(
                "amplitude_rel {} must be in (0, 1] of full scale",
                self.amplitude_rel
            ));
        }
        if let Some(fin) = self.fin_hz {
            if !(fin > 0.0 && fin < self.fs_hz / 2.0) {
                return invalid(format!(
                    "fin_hz {fin} must be in (0, fs/2) = (0, {})",
                    self.fs_hz / 2.0
                ));
            }
        }
        let band = format!("fs {} MHz / bw {} MHz", self.fs_hz / 1e6, self.bw_hz / 1e6);
        match ToneAnalysis::min_samples(self.fs_hz, self.bw_hz, ANALYSIS_WINDOW) {
            Some(min) if self.samples >= min && self.samples.is_power_of_two() => {}
            Some(min) => {
                return invalid(format!(
                    "samples {} cannot be analyzed at {band}: need a power of two ≥ {min}",
                    self.samples
                ))
            }
            None => return invalid(format!("no capture length resolves the band at {band}")),
        }
        let rejected = |e: &dyn std::fmt::Display| JobError::Invalid(e.to_string());
        let node = NodeId::from_gate_length(self.node_nm).map_err(|e| rejected(&e))?;
        let tech = Technology::for_node(node).map_err(|e| rejected(&e))?;
        let mut spec = AdcSpec::nominal(tech, self.fs_hz, self.bw_hz);
        spec.n_slices = self.slices;
        if self.vco_stages != 0 {
            spec.vco_stages = self.vco_stages;
        }
        if self.loop_gain != 1.0 {
            spec.kvco_hz_per_v *= self.loop_gain;
        }
        if self.steps_per_cycle != 0 {
            spec.steps_per_cycle = self.steps_per_cycle;
        }
        if self.rdac_ohm != 0.0 {
            spec.rdac_ohm = self.rdac_ohm;
        }
        spec.seed = self.seed;
        let spec = spec.validated().map_err(|e| rejected(&e))?;
        let work = [spec.steps_per_cycle, spec.n_slices]
            .into_iter()
            .try_fold(self.samples, usize::checked_mul);
        match work {
            Some(work) if work <= MAX_WORK => Ok(spec),
            _ => invalid(format!(
                "samples {} × steps {} × slices {} exceeds the maximum work {MAX_WORK}",
                self.samples, spec.steps_per_cycle, spec.n_slices
            )),
        }
    }

    /// The coherent input frequency the job will actually simulate: the
    /// target (or BW/5) snapped to a non-zero FFT bin of the capture
    /// ([`coherent_input_hz`]).
    pub fn input_frequency_hz(&self) -> f64 {
        coherent_input_hz(self.fin_hz, self.fs_hz, self.bw_hz, self.samples)
    }

    /// This job as a canonical JSON object (Hz units, every field).
    pub fn to_json(&self) -> Json {
        let values = [
            Json::Str(self.kind.as_str().into()),
            Json::Num(self.node_nm),
            Json::Num(self.slices as f64),
            Json::Num(self.fs_hz),
            Json::Num(self.bw_hz),
            Json::Num(self.samples as f64),
            Json::Num(self.amplitude_rel),
            self.fin_hz.map_or(Json::Null, Json::Num),
            Json::Num(self.steps_per_cycle as f64),
            Json::Num(self.loop_gain),
            Json::Num(self.vco_stages as f64),
            Json::Num(self.rdac_ohm),
            Json::Num(self.seed as f64),
        ];
        Json::Obj(
            JOB_FIELDS
                .map(String::from)
                .into_iter()
                .zip(values)
                .collect(),
        )
    }

    /// Parses the canonical JSON form written by [`Job::to_json`]. Every
    /// field is required except `fin_hz` (absent or `null` → `None`) and
    /// `rdac_ohm` (absent → 0.0), and a key `to_json` does not write is
    /// refused, so a misspelt or leftover field cannot silently fall back
    /// to a default.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] on missing, mistyped or unknown fields.
    pub fn from_json(v: &Json) -> Result<Self, JobError> {
        if let Json::Obj(fields) = v {
            if let Some((k, _)) = fields
                .iter()
                .find(|(k, _)| !JOB_FIELDS.contains(&k.as_str()))
            {
                return Err(JobError::Invalid(format!(
                    "unknown job field {k:?} (known: {})",
                    JOB_FIELDS.join(", ")
                )));
            }
        }
        let missing = |k: &str| JobError::Invalid(format!("job field {k:?} missing or mistyped"));
        let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or_else(|| missing(k));
        let int = |k: &str| v.get(k).and_then(Json::as_u64).ok_or_else(|| missing(k));
        Ok(Job {
            kind: JobKind::parse(
                v.get("kind")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("kind"))?,
            )?,
            node_nm: num("node_nm")?,
            slices: int("slices")? as usize,
            fs_hz: num("fs_hz")?,
            bw_hz: num("bw_hz")?,
            samples: int("samples")? as usize,
            amplitude_rel: num("amplitude_rel")?,
            fin_hz: match v.get("fin_hz") {
                Some(Json::Null) | None => None,
                Some(x) => Some(x.as_f64().ok_or_else(|| missing("fin_hz"))?),
            },
            steps_per_cycle: int("steps_per_cycle")? as usize,
            loop_gain: num("loop_gain")?,
            vco_stages: int("vco_stages")? as usize,
            // Absent in pre-v2 journals: 0.0 = spec default,
            // which is exactly what those jobs meant.
            rdac_ohm: match v.get("rdac_ohm") {
                Some(Json::Null) | None => 0.0,
                Some(x) => x.as_f64().ok_or_else(|| missing("rdac_ohm"))?,
            },
            seed: int("seed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_and_parameter_sensitive() {
        let job = Job::sim(40.0, 750e6, 5e6);
        let k1 = job.key();
        assert_eq!(k1.len(), 32);
        assert_eq!(k1, job.clone().key(), "key must be deterministic");

        let mut other = job.clone();
        other.seed += 1;
        assert_ne!(k1, other.key(), "seed must change the address");
        let mut other = job.clone();
        other.amplitude_rel = 0.790000001;
        assert_ne!(k1, other.key(), "any bit change must change the address");
        let mut other = job.clone();
        other.kind = JobKind::FullFlow;
        assert_ne!(k1, other.key(), "kind must change the address");
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let mut job = Job::flow(180.0, 250e6, 1.4e6);
        job.fin_hz = Some(1.23e6);
        job.seed = 424_242;
        let text = job.to_json().to_text();
        let back = Job::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(job, back);
        assert_eq!(job.key(), back.key());

        let job2 = Job::sim(40.0, 750e6, 5e6);
        let back2 = Job::from_json(&Json::parse(&job2.to_json().to_text()).unwrap()).unwrap();
        assert_eq!(job2, back2);
    }

    #[test]
    fn from_json_refuses_every_key_to_json_does_not_write() {
        let Json::Obj(fields) = Job::sim(40.0, 750e6, 5e6).to_json() else {
            unreachable!("a job is an object")
        };
        // Misspelt optional fields, a MHz-units key and a leftover request
        // field: none may silently read as a default.
        for stray in ["fin_hzz", "rdac_ohms", "slcies", "fin_mhz", "deadline_ms"] {
            let mut with = fields.clone();
            with.push((stray.into(), Json::Num(1.0)));
            match Job::from_json(&Json::Obj(with)) {
                Err(JobError::Invalid(m)) => {
                    assert!(
                        m.starts_with(&format!("unknown job field {stray:?}")),
                        "{m}"
                    );
                }
                other => panic!("{stray} must be refused, got {other:?}"),
            }
        }
        // A misspelling that replaces a required field is refused too.
        let typo: Vec<_> = fields
            .into_iter()
            .map(|(k, v)| (if k == "slices" { "slcies".into() } else { k }, v))
            .collect();
        assert!(Job::from_json(&Json::Obj(typo)).is_err());
    }

    #[test]
    fn to_spec_applies_knobs() {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        job.slices = 4;
        job.loop_gain = 1.5;
        job.steps_per_cycle = 8;
        job.seed = 99;
        let spec = job.to_spec().unwrap();
        assert_eq!(spec.n_slices, 4);
        assert_eq!(spec.steps_per_cycle, 8);
        assert_eq!(spec.seed, 99);
        let base = Job::sim(40.0, 750e6, 5e6).to_spec().unwrap();
        assert!((spec.kvco_hz_per_v / base.kvco_hz_per_v - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rdac_knob_applies_and_rekeys() {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        let base_key = job.key();
        let base_fs = job.to_spec().unwrap().full_scale_v();
        job.rdac_ohm = 11_000.0;
        assert_ne!(job.key(), base_key, "rdac must change the address");
        let spec = job.to_spec().unwrap();
        assert_eq!(spec.rdac_ohm, 11_000.0);
        assert!((spec.full_scale_v() - 2.0 * base_fs).abs() < 1e-12);
        // Pre-v2 JSON without the field parses to the spec default.
        let pre_v2 = r#"{"kind":"sim","node_nm":40,"slices":8,"fs_hz":750000000,
            "bw_hz":5000000,"samples":8192,"amplitude_rel":0.79,"fin_hz":null,
            "steps_per_cycle":0,"loop_gain":1,"vco_stages":0,"seed":2017}"#;
        let back = Job::from_json(&Json::parse(pre_v2).unwrap()).unwrap();
        assert_eq!(back.rdac_ohm, 0.0);
        assert_eq!(back.key(), base_key);
    }

    #[test]
    fn invalid_node_is_invalid_not_failed() {
        let job = Job::sim(41.0, 750e6, 5e6);
        match job.to_spec() {
            Err(JobError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn to_spec_names_the_minimum_samples_for_the_band() {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        for ok in [1024, 2048, 8192] {
            job.samples = ok;
            assert!(job.to_spec().is_ok(), "{ok}");
        }
        for bad in [512, 3000] {
            job.samples = bad;
            match job.to_spec() {
                Err(JobError::Invalid(m)) => assert!(m.contains("≥ 1024"), "{m}"),
                other => panic!("expected Invalid for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn to_spec_bounds_samples_from_above() {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        job.samples = MAX_SAMPLES;
        assert!(job.to_spec().is_ok());
        // Powers of two above the minimum, so only the upper bound can
        // refuse them.
        for huge in [MAX_SAMPLES * 2, 1 << 40] {
            job.samples = huge;
            match job.to_spec() {
                Err(JobError::Invalid(m)) => {
                    assert_eq!(m, format!("samples {huge} exceeds the maximum 1048576"));
                }
                other => panic!("expected Invalid for {huge}, got {other:?}"),
            }
        }
    }

    #[test]
    fn to_spec_refuses_unusable_amplitudes() {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        for ok in [1.0, 0.79, 1e-6, f64::MIN_POSITIVE] {
            job.amplitude_rel = ok;
            assert!(job.to_spec().is_ok(), "{ok}");
        }
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -0.5,
            1.5,
        ] {
            job.amplitude_rel = bad;
            match job.to_spec() {
                Err(JobError::Invalid(m)) => {
                    assert_eq!(
                        m,
                        format!("amplitude_rel {bad} must be in (0, 1] of full scale")
                    );
                }
                other => panic!("expected Invalid for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn to_spec_refuses_unusable_input_frequencies() {
        let mut job = Job::sim(40.0, 750e6, 5e6);
        for ok in [None, Some(1e6), Some(1.0), Some(374.9e6)] {
            job.fin_hz = ok;
            assert!(job.to_spec().is_ok(), "{ok:?}");
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1e6, 375e6, 1e12] {
            job.fin_hz = Some(bad);
            match job.to_spec() {
                Err(JobError::Invalid(m)) => {
                    assert_eq!(
                        m,
                        format!("fin_hz {bad} must be in (0, fs/2) = (0, 375000000)")
                    );
                }
                other => panic!("expected Invalid for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_job_that_passes_to_spec_replays_from_its_json() {
        // A NaN or infinite amplitude used to run, and was journaled as
        // `"amplitude_rel":null`, which `from_json` cannot read back.
        let mut job = Job::sim(40.0, 750e6, 5e6);
        for amp in [f64::NAN, f64::INFINITY] {
            job.amplitude_rel = amp;
            assert!(job.to_spec().is_err());
            assert!(Job::from_json(&Json::parse(&job.to_json().to_text()).unwrap()).is_err());
        }
        job.amplitude_rel = 1.0;
        // A seed past 2⁵³ was written rounded, so the artifact named a
        // die other than the one simulated.
        job.seed = MAX_SEED + 1;
        assert!(job.to_spec().is_err());
        job.seed = MAX_SEED;
        job.fin_hz = Some(2.5e6);
        assert!(job.to_spec().is_ok());
        let back = Job::from_json(&Json::parse(&job.to_json().to_text()).unwrap()).unwrap();
        assert_eq!(back, job);
    }

    #[test]
    fn input_frequency_snaps_to_bin() {
        let job = Job::sim(40.0, 750e6, 5e6);
        let fin = job.input_frequency_hz();
        let bin = fin * job.samples as f64 / job.fs_hz;
        assert!((bin - bin.round()).abs() < 1e-9);
        assert!((fin - 1e6).abs() < 200e3, "near BW/5: {fin}");
    }
}
