//! The typed search space: which spec knobs the optimizer may turn, and
//! how a point in the unit hypercube maps onto a concrete [`Job`].
//!
//! Both strategies work in `[0, 1]^5` — a node index, a slice count, a
//! VCO stage count, a loop-gain multiplier and a DAC branch resistance —
//! and only [`SearchSpace::decode`] knows how to turn that vector into a
//! physical [`Candidate`]. Integer dimensions snap by rounding;
//! resistance is log-uniform (the natural metric for a value spanning a
//! 4× range); the node dimension is categorical over an explicit list.
//! The mapping is total: any unit vector decodes to *some* candidate,
//! and candidates the spec validator rejects simply score as infeasible.

use tdsigma_jobs::{Job, JobKind, Json};
use tdsigma_tech::{NodeId, Technology};

/// Number of encoded dimensions (node, slices, stages, gain, rdac).
pub const DIMS: usize = 5;

/// The searchable region of the spec space.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Candidate technology nodes, by gate length in nm (categorical).
    pub nodes: Vec<f64>,
    /// Slice count range, inclusive.
    pub slices: (usize, usize),
    /// Ring-VCO stages per VCO, inclusive.
    pub vco_stages: (usize, usize),
    /// Loop-gain multiplier range (scales `kvco_hz_per_v`).
    pub loop_gain: (f64, f64),
    /// DAC branch resistance range, Ω (sampled log-uniformly).
    pub rdac_ohm: (f64, f64),
    /// Fixed sampling clock and bandwidth, Hz. `None` → each node runs
    /// at its paper operating point (40 nm: 750 MHz / 5 MHz; 180 nm:
    /// 250 MHz / 1.4 MHz) or, for other nodes, the fastest clock the
    /// node's logic supports with margin at OSR 75.
    pub fs_bw_hz: Option<(f64, f64)>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            nodes: vec![40.0, 180.0],
            slices: (2, 16),
            vco_stages: (3, 5),
            loop_gain: (0.5, 2.0),
            rdac_ohm: (11_000.0, 44_000.0),
            fs_bw_hz: None,
        }
    }
}

/// One concrete design point drawn from a [`SearchSpace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Technology node gate length, nm.
    pub node_nm: f64,
    /// Slice count.
    pub slices: usize,
    /// Ring-VCO stages per VCO.
    pub vco_stages: usize,
    /// Loop-gain multiplier.
    pub loop_gain: f64,
    /// DAC branch resistance, Ω.
    pub rdac_ohm: f64,
}

impl SearchSpace {
    /// Validates ranges (non-empty node list, lo ≤ hi everywhere,
    /// positive resistances and gains).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason.
    pub(crate) fn validated(self) -> Result<Self, String> {
        if self.nodes.is_empty() {
            return Err("search space needs at least one node".into());
        }
        if self.slices.0 == 0 || self.slices.0 > self.slices.1 {
            return Err(format!("bad slices range {:?}", self.slices));
        }
        if self.vco_stages.0 < 2 || self.vco_stages.0 > self.vco_stages.1 {
            return Err(format!("bad vco_stages range {:?}", self.vco_stages));
        }
        if self.loop_gain.0 <= 0.0 || self.loop_gain.0 > self.loop_gain.1 {
            return Err(format!("bad loop_gain range {:?}", self.loop_gain));
        }
        if self.rdac_ohm.0 <= 0.0 || self.rdac_ohm.0 > self.rdac_ohm.1 {
            return Err(format!("bad rdac_ohm range {:?}", self.rdac_ohm));
        }
        if let Some((fs, bw)) = self.fs_bw_hz {
            if fs <= 0.0 || bw <= 0.0 || bw * 8.0 > fs {
                return Err(format!("bad fixed clock fs={fs} Hz, bw={bw} Hz"));
            }
        }
        Ok(self)
    }

    /// Decodes a unit vector into a candidate (total: always succeeds).
    pub(crate) fn decode(&self, x: &[f64]) -> Candidate {
        let u = |i: usize| x.get(i).copied().unwrap_or(0.5).clamp(0.0, 1.0);
        let node_idx = ((u(0) * self.nodes.len() as f64) as usize).min(self.nodes.len() - 1);
        let int_dim =
            |(lo, hi): (usize, usize), u: f64| lo + ((hi - lo) as f64 * u).round() as usize;
        let (glo, ghi) = self.loop_gain;
        let (rlo, rhi) = self.rdac_ohm;
        Candidate {
            node_nm: self.nodes[node_idx],
            slices: int_dim(self.slices, u(1)),
            vco_stages: int_dim(self.vco_stages, u(2)),
            loop_gain: glo + (ghi - glo) * u(3),
            rdac_ohm: (rlo.ln() + (rhi.ln() - rlo.ln()) * u(4)).exp(),
        }
    }

    /// Encodes a candidate back into the unit cube (the warm-start path;
    /// degenerate dimensions encode to 0.5). Values outside the space
    /// clamp to its boundary.
    pub(crate) fn encode(&self, c: &Candidate) -> Vec<f64> {
        let node_idx = self.nodes.iter().position(|&n| n == c.node_nm).unwrap_or(0);
        let cat = (node_idx as f64 + 0.5) / self.nodes.len() as f64;
        let int_dim = |(lo, hi): (usize, usize), v: usize| {
            if hi == lo {
                0.5
            } else {
                ((v.clamp(lo, hi) - lo) as f64) / ((hi - lo) as f64)
            }
        };
        let lin = |(lo, hi): (f64, f64), v: f64| {
            if hi == lo {
                0.5
            } else {
                ((v.clamp(lo, hi)) - lo) / (hi - lo)
            }
        };
        let log = |(lo, hi): (f64, f64), v: f64| {
            if hi == lo {
                0.5
            } else {
                (v.clamp(lo, hi).ln() - lo.ln()) / (hi.ln() - lo.ln())
            }
        };
        vec![
            cat,
            int_dim(self.slices, c.slices),
            int_dim(self.vco_stages, c.vco_stages),
            lin(self.loop_gain, c.loop_gain),
            log(self.rdac_ohm, c.rdac_ohm),
        ]
    }

    /// The paper-shaped warm-start candidate: the first node in the
    /// list at 8 slices, 4 stages, nominal gain and the 22 kΩ DAC —
    /// clamped into the space. Seeding generation 0 with this point
    /// guarantees the search never reports worse than the paper's
    /// design point when that point lies inside the space.
    pub fn default_candidate(&self) -> Candidate {
        let clamp_int = |(lo, hi): (usize, usize), v: usize| v.clamp(lo, hi);
        let clamp_f = |(lo, hi): (f64, f64), v: f64| v.clamp(lo, hi);
        Candidate {
            node_nm: self.nodes[0],
            slices: clamp_int(self.slices, 8),
            vco_stages: clamp_int(self.vco_stages, 4),
            loop_gain: clamp_f(self.loop_gain, 1.0),
            rdac_ohm: clamp_f(self.rdac_ohm, 22_000.0),
        }
    }

    /// The sampling clock and bandwidth a candidate at `node_nm` runs
    /// at (see [`SearchSpace::fs_bw_hz`]).
    pub(crate) fn node_clock(&self, node_nm: f64) -> (f64, f64) {
        if let Some(fixed) = self.fs_bw_hz {
            return fixed;
        }
        if node_nm == 40.0 {
            return (750e6, 5e6);
        }
        if node_nm == 180.0 {
            return (250e6, 1.4e6);
        }
        // Generic rule for other nodes: the fastest clock both the
        // clocked logic (12 FO4 per period, a 20% margin over the
        // validator's 10) and the worst-case ring VCO (f0 = fs/5 at the
        // space's largest stage count) support, capped at the paper's
        // 750 MHz, at OSR 75. Rounded to 1 MHz / 10 kHz so job keys
        // stay human-readable.
        let limit = NodeId::from_gate_length(node_nm)
            .ok()
            .and_then(|id| Technology::for_node(id).ok())
            .map(|tech| {
                let logic = 1.0 / (12.0 * tech.fo4_delay_ps() * 1e-12);
                let ring = 5.0 * tech.ring_max_frequency_hz(self.vco_stages.1);
                0.85 * logic.min(ring)
            })
            .unwrap_or(750e6);
        let fs = (limit.min(750e6) / 1e6).floor() * 1e6;
        let bw = (fs / 150.0 / 1e4).floor() * 1e4;
        (fs, bw)
    }

    /// This space as a canonical JSON object.
    pub(crate) fn to_json(&self) -> Json {
        let pair_f = |(a, b): (f64, f64)| Json::Arr(vec![Json::Num(a), Json::Num(b)]);
        let pair_u =
            |(a, b): (usize, usize)| Json::Arr(vec![Json::Num(a as f64), Json::Num(b as f64)]);
        let mut obj = vec![
            (
                "nodes".into(),
                Json::Arr(self.nodes.iter().map(|&n| Json::Num(n)).collect()),
            ),
            ("slices".into(), pair_u(self.slices)),
            ("vco_stages".into(), pair_u(self.vco_stages)),
            ("loop_gain".into(), pair_f(self.loop_gain)),
            ("rdac_ohm".into(), pair_f(self.rdac_ohm)),
        ];
        if let Some((fs, bw)) = self.fs_bw_hz {
            obj.push(("fs_hz".into(), Json::Num(fs)));
            obj.push(("bw_hz".into(), Json::Num(bw)));
        }
        Json::Obj(obj)
    }

    /// Parses the JSON form written by `SearchSpace::to_json` (also
    /// the `--space FILE` format; absent fields keep their defaults).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on mistyped fields or invalid
    /// ranges.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut space = SearchSpace::default();
        let pair = |v: &Json, k: &str| -> Result<(f64, f64), String> {
            match v.as_arr() {
                Some([a, b]) => Ok((
                    a.as_f64()
                        .ok_or_else(|| format!("{k}[0] must be a number"))?,
                    b.as_f64()
                        .ok_or_else(|| format!("{k}[1] must be a number"))?,
                )),
                _ => Err(format!("field {k:?} must be a [lo, hi] pair")),
            }
        };
        if let Some(nodes) = v.get("nodes") {
            space.nodes = nodes
                .as_arr()
                .ok_or("field \"nodes\" must be an array")?
                .iter()
                .map(|n| {
                    n.as_f64()
                        .ok_or("nodes entries must be numbers".to_string())
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(x) = v.get("slices") {
            let (a, b) = pair(x, "slices")?;
            space.slices = (a as usize, b as usize);
        }
        if let Some(x) = v.get("vco_stages") {
            let (a, b) = pair(x, "vco_stages")?;
            space.vco_stages = (a as usize, b as usize);
        }
        if let Some(x) = v.get("loop_gain") {
            space.loop_gain = pair(x, "loop_gain")?;
        }
        if let Some(x) = v.get("rdac_ohm") {
            space.rdac_ohm = pair(x, "rdac_ohm")?;
        }
        match (v.get("fs_hz"), v.get("bw_hz")) {
            (Some(fs), Some(bw)) => {
                space.fs_bw_hz = Some((
                    fs.as_f64().ok_or("fs_hz must be a number")?,
                    bw.as_f64().ok_or("bw_hz must be a number")?,
                ));
            }
            (None, None) => {}
            _ => return Err("fs_hz and bw_hz must be given together".into()),
        }
        space.validated()
    }
}

impl Candidate {
    /// Materializes this candidate as a [`Job`] of the given kind,
    /// fidelity and die seed, clocked per the space's node rule.
    pub(crate) fn to_job(
        &self,
        space: &SearchSpace,
        kind: JobKind,
        samples: usize,
        seed: u64,
    ) -> Job {
        let (fs_hz, bw_hz) = space.node_clock(self.node_nm);
        let mut job = match kind {
            JobKind::SimTone => Job::sim(self.node_nm, fs_hz, bw_hz),
            JobKind::FullFlow => Job::flow(self.node_nm, fs_hz, bw_hz),
        };
        job.slices = self.slices;
        job.vco_stages = self.vco_stages;
        job.loop_gain = self.loop_gain;
        job.rdac_ohm = self.rdac_ohm;
        job.samples = samples;
        job.seed = seed;
        job
    }

    /// This candidate as a canonical JSON object (for `optimize.json`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("node_nm".into(), Json::Num(self.node_nm)),
            ("slices".into(), Json::Num(self.slices as f64)),
            ("vco_stages".into(), Json::Num(self.vco_stages as f64)),
            ("loop_gain".into(), Json::Num(self.loop_gain)),
            ("rdac_ohm".into(), Json::Num(self.rdac_ohm)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_covers_the_space_and_is_total() {
        let space = SearchSpace::default();
        let lo = space.decode(&[0.0; 5]);
        assert_eq!(lo.node_nm, 40.0);
        assert_eq!(lo.slices, 2);
        assert_eq!(lo.vco_stages, 3);
        assert!((lo.loop_gain - 0.5).abs() < 1e-12);
        assert!((lo.rdac_ohm - 11_000.0).abs() < 1e-6);
        let hi = space.decode(&[1.0; 5]);
        assert_eq!(hi.node_nm, 180.0);
        assert_eq!(hi.slices, 16);
        assert!((hi.rdac_ohm - 44_000.0).abs() < 1e-6);
        // Out-of-range and short vectors still decode.
        let c = space.decode(&[2.0, -1.0]);
        assert_eq!(c.node_nm, 180.0);
        assert_eq!(c.slices, 2);
    }

    #[test]
    fn encode_decode_roundtrips_the_warm_start() {
        let space = SearchSpace::default();
        let c = space.default_candidate();
        assert_eq!(c.slices, 8);
        assert_eq!(c.vco_stages, 4);
        let back = space.decode(&space.encode(&c));
        assert_eq!(back, c, "warm start must survive the encoding");
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let space = SearchSpace {
            fs_bw_hz: Some((500e6, 3e6)),
            ..SearchSpace::default()
        };
        let text = space.to_json().to_text();
        let back = SearchSpace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, space);
    }

    #[test]
    fn invalid_spaces_are_rejected() {
        assert!(SearchSpace {
            nodes: vec![],
            ..SearchSpace::default()
        }
        .validated()
        .is_err());
        assert!(SearchSpace {
            slices: (8, 4),
            ..SearchSpace::default()
        }
        .validated()
        .is_err());
        assert!(SearchSpace {
            rdac_ohm: (-1.0, 44e3),
            ..SearchSpace::default()
        }
        .validated()
        .is_err());
    }

    #[test]
    fn node_clock_uses_paper_points_and_scales_elsewhere() {
        let space = SearchSpace::default();
        assert_eq!(space.node_clock(40.0), (750e6, 5e6));
        assert_eq!(space.node_clock(180.0), (250e6, 1.4e6));
        // 65 nm: derived, valid, and below the 40 nm paper clock's OSR.
        let (fs, bw) = space.node_clock(65.0);
        assert!(fs > 0.0 && bw > 0.0);
        assert!(fs / (2.0 * bw) >= 4.0, "OSR must stay usable");
        let c = Candidate {
            node_nm: 65.0,
            slices: 8,
            vco_stages: 4,
            loop_gain: 1.0,
            rdac_ohm: 22_000.0,
        };
        let job = c.to_job(&space, JobKind::SimTone, 2048, 1);
        assert!(job.to_spec().is_ok(), "derived clock must validate");
    }

    #[test]
    fn candidate_jobs_carry_every_knob() {
        let space = SearchSpace::default();
        let c = Candidate {
            node_nm: 40.0,
            slices: 12,
            vco_stages: 5,
            loop_gain: 1.5,
            rdac_ohm: 15_000.0,
        };
        let job = c.to_job(&space, JobKind::FullFlow, 4096, 7);
        assert_eq!(job.slices, 12);
        assert_eq!(job.vco_stages, 5);
        assert_eq!(job.rdac_ohm, 15_000.0);
        assert_eq!(job.samples, 4096);
        assert_eq!(job.seed, 7);
        let other = Candidate {
            rdac_ohm: 16_000.0,
            ..c
        };
        assert_ne!(
            job.key(),
            other.to_job(&space, JobKind::FullFlow, 4096, 7).key(),
            "distinct candidates must address distinct jobs"
        );
    }
}
