//! Clocked regenerative comparator model.
//!
//! Models both the paper's proposed NOR3-based comparator (§2.2.1, Fig. 6b)
//! and the conventional strongARM reference (Fig. 6a). Electrically they are
//! the same regenerative sampler — the paper's point is that the NOR3
//! version keeps working at low input common mode where the NAND3 version
//! of Weaver et al. \[16\] dies. The common-mode validity window is therefore
//! part of the model: outside it the comparator's gain collapses and its
//! decisions become noise-dominated.

use crate::noise::SimRng;
use std::fmt;

/// Input common-mode range over which a comparator flavour regenerates
/// correctly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommonModeWindow {
    /// Lowest valid input common mode, volts.
    pub min_v: f64,
    /// Highest valid input common mode, volts.
    pub max_v: f64,
}

impl CommonModeWindow {
    /// True if `vcm` lies inside the window.
    #[inline]
    pub fn contains(&self, vcm_v: f64) -> bool {
        (self.min_v <= vcm_v) & (vcm_v <= self.max_v)
    }
}

/// Parameters of a clocked comparator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorParams {
    /// Static input-referred offset, volts (a mismatch draw in practice).
    pub offset_v: f64,
    /// Input-referred rms noise per decision, volts.
    pub noise_rms_v: f64,
    /// Differential-input magnitude below which the comparator may
    /// metastabilise and output a coin flip, volts.
    pub metastability_window_v: f64,
    /// Valid input common-mode window.
    pub cm_window: CommonModeWindow,
}

impl ComparatorParams {
    /// An ideal comparator: no offset, no noise, no metastability, rail-to-
    /// rail common mode.
    pub fn ideal() -> Self {
        ComparatorParams {
            offset_v: 0.0,
            noise_rms_v: 0.0,
            metastability_window_v: 0.0,
            cm_window: CommonModeWindow {
                min_v: f64::NEG_INFINITY,
                max_v: f64::INFINITY,
            },
        }
    }
}

/// A clocked comparator with a stored decision (the SAFF's SR latch keeps
/// the output while the comparator resets — paper Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct ClockedComparator {
    params: ComparatorParams,
    decision: bool,
    decisions: u64,
    metastable_events: u64,
}

impl ClockedComparator {
    /// Creates a comparator with the given parameters.
    pub fn new(params: ComparatorParams) -> Self {
        ClockedComparator {
            params,
            decision: false,
            decisions: 0,
            metastable_events: 0,
        }
    }

    /// The frozen parameters.
    pub fn params(&self) -> &ComparatorParams {
        &self.params
    }

    /// Samples the differential input `(vp − vn)` on a clock edge and
    /// stores the decision. Returns the new decision.
    ///
    /// When the input common mode `(vp + vn)/2` lies outside the valid
    /// window, the comparator has no regenerative gain: the decision
    /// becomes a pure coin flip (this is how the NAND3 comparator of \[16\]
    /// fails at the 0.25 V buffer common mode, motivating the NOR3 design).
    #[inline]
    pub fn sample(&mut self, vp_v: f64, vn_v: f64, rng: &mut SimRng) -> bool {
        self.decisions += 1;
        let vcm = 0.5 * (vp_v + vn_v);
        if !self.params.cm_window.contains(vcm) {
            return self.coin_flip(rng);
        }
        let mut vdiff = vp_v - vn_v + self.params.offset_v;
        if self.params.noise_rms_v > 0.0 {
            vdiff += rng.gaussian(self.params.noise_rms_v);
        }
        if vdiff.abs() < self.params.metastability_window_v {
            return self.coin_flip(rng);
        }
        self.decision = vdiff > 0.0;
        self.decision
    }

    /// A decision with no regenerative gain behind it: a coin flip,
    /// counted as metastable. Out of line, so the common path of
    /// [`Self::sample`] stays small enough to inline into a caller's
    /// loop.
    #[cold]
    fn coin_flip(&mut self, rng: &mut SimRng) -> bool {
        self.metastable_events += 1;
        self.decision = rng.uniform() < 0.5;
        self.decision
    }

    /// The currently latched decision (held between clock edges by the SR
    /// latch).
    pub fn latched(&self) -> bool {
        self.decision
    }

    /// Total decisions taken.
    pub fn decision_count(&self) -> u64 {
        self.decisions
    }

    /// Decisions that fell in the metastability window or outside the valid
    /// common mode.
    pub fn metastable_count(&self) -> u64 {
        self.metastable_events
    }
}

impl fmt::Display for ClockedComparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "comparator (offset {:+.2} mV, noise {:.2} mV rms, {} decisions)",
            self.params.offset_v * 1e3,
            self.params.noise_rms_v * 1e3,
            self.decisions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_comparator_is_a_sign_function() {
        let mut rng = SimRng::new(1);
        let mut cmp = ClockedComparator::new(ComparatorParams::ideal());
        assert!(cmp.sample(0.3, 0.2, &mut rng));
        assert!(!cmp.sample(0.2, 0.3, &mut rng));
        assert_eq!(cmp.decision_count(), 2);
        assert_eq!(cmp.metastable_count(), 0);
    }

    #[test]
    fn latched_value_persists() {
        let mut rng = SimRng::new(1);
        let mut cmp = ClockedComparator::new(ComparatorParams::ideal());
        cmp.sample(1.0, 0.0, &mut rng);
        assert!(cmp.latched());
        assert!(cmp.latched()); // reading does not reset
    }

    #[test]
    fn offset_biases_decisions() {
        let mut rng = SimRng::new(1);
        let mut params = ComparatorParams::ideal();
        params.offset_v = 0.010; // +10 mV
        let mut cmp = ClockedComparator::new(params);
        // 5 mV negative input still decides high because of the offset.
        assert!(cmp.sample(0.0, 0.005, &mut rng));
        // 15 mV negative input overcomes the offset.
        assert!(!cmp.sample(0.0, 0.015, &mut rng));
    }

    #[test]
    fn noise_flips_marginal_decisions() {
        let mut rng = SimRng::new(42);
        let mut params = ComparatorParams::ideal();
        params.noise_rms_v = 0.005;
        let mut cmp = ClockedComparator::new(params);
        // Input exactly at threshold: decisions split ~50/50.
        let highs = (0..10_000)
            .filter(|_| cmp.sample(0.25, 0.25, &mut rng))
            .count();
        assert!((4_500..5_500).contains(&highs), "got {highs}");
        // Input 3σ above threshold: nearly always high.
        let highs = (0..10_000)
            .filter(|_| cmp.sample(0.265, 0.25, &mut rng))
            .count();
        assert!(highs > 9_900, "got {highs}");
    }

    #[test]
    fn metastability_window_randomises() {
        let mut rng = SimRng::new(7);
        let mut params = ComparatorParams::ideal();
        params.metastability_window_v = 0.001;
        let mut cmp = ClockedComparator::new(params);
        let highs = (0..10_000)
            .filter(|_| cmp.sample(0.2500001, 0.25, &mut rng))
            .count();
        assert!((4_000..6_000).contains(&highs), "got {highs}");
        assert_eq!(cmp.metastable_count(), 10_000);
    }

    #[test]
    fn out_of_common_mode_kills_the_decision() {
        // A NAND3-style comparator valid only above 0.6 V CM fails at the
        // paper's 0.25 V buffer common mode.
        let mut rng = SimRng::new(3);
        let mut params = ComparatorParams::ideal();
        params.cm_window = CommonModeWindow {
            min_v: 0.6,
            max_v: 1.2,
        };
        let mut cmp = ClockedComparator::new(params);
        // Strong differential input, but CM = 0.25 V → coin flips.
        let highs = (0..10_000)
            .filter(|_| cmp.sample(0.40, 0.10, &mut rng))
            .count();
        assert!((4_000..6_000).contains(&highs), "got {highs}");
        assert_eq!(cmp.metastable_count(), 10_000);
        // Same comparator at 0.9 V CM works perfectly.
        assert!(cmp.sample(1.05, 0.75, &mut rng));
        assert_eq!(cmp.metastable_count(), 10_000);
    }

    #[test]
    fn common_mode_window_contains() {
        let w = CommonModeWindow {
            min_v: 0.1,
            max_v: 0.5,
        };
        assert!(w.contains(0.25));
        assert!(w.contains(0.1));
        assert!(!w.contains(0.6));
        assert!(!w.contains(0.05));
    }

    #[test]
    fn display_reports_offset() {
        let mut params = ComparatorParams::ideal();
        params.offset_v = 0.002;
        let cmp = ClockedComparator::new(params);
        assert!(cmp.to_string().contains("+2.00 mV"));
    }
}
