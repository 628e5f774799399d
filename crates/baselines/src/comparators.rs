//! Comparator common-mode ablation (paper §2.2.1).
//!
//! The proposed ADC's buffers output a ~0.25·VDD common mode. The paper
//! argues the NAND3-based comparator of \[16\] cannot regenerate there
//! while the proposed NOR3 comparator behaves identically to a strongARM.
//! This testbench quantifies that: for a sweep of input common modes, we
//! measure the probability that a comparator resolves a small differential
//! input correctly.

use std::fmt;
use tdsigma_circuit::{ClockedComparator, ComparatorParams, SimRng};
use tdsigma_core::sim::ComparatorFlavor;

/// One point of a common-mode sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmSweepPoint {
    /// Input common mode, volts.
    pub vcm_v: f64,
    /// Fraction of decisions that matched the input polarity (0.5 = coin
    /// flip, 1.0 = perfect).
    pub accuracy: f64,
}

impl fmt::Display for CmSweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CM {:.2} V → {:.1} % correct",
            self.vcm_v,
            self.accuracy * 100.0
        )
    }
}

/// Sweeps the input common mode for a comparator flavour at supply
/// `vdd_v`, applying a ±`vdiff_v` differential input with realistic noise,
/// `trials` decisions per point.
///
/// # Panics
///
/// Panics if `trials` is zero or `points` < 2.
pub fn sweep_common_mode(
    flavor: ComparatorFlavor,
    vdd_v: f64,
    vdiff_v: f64,
    points: usize,
    trials: usize,
    seed: u64,
) -> Vec<CmSweepPoint> {
    assert!(trials > 0, "need at least one trial");
    assert!(points >= 2, "need at least two sweep points");
    let mut rng = SimRng::new(seed);
    let mut out = Vec::with_capacity(points);
    for i in 0..points {
        let vcm = vdd_v * i as f64 / (points - 1) as f64;
        let mut cmp = ClockedComparator::new(ComparatorParams {
            offset_v: 0.0,
            noise_rms_v: 0.3e-3,
            metastability_window_v: 20e-6,
            cm_window: flavor.cm_window(vdd_v),
        });
        let mut correct = 0usize;
        for t in 0..trials {
            let positive = t % 2 == 0;
            let half = if positive {
                vdiff_v / 2.0
            } else {
                -vdiff_v / 2.0
            };
            let decision = cmp.sample(vcm + half, vcm - half, &mut rng);
            if decision == positive {
                correct += 1;
            }
        }
        out.push(CmSweepPoint {
            vcm_v: vcm,
            accuracy: correct as f64 / trials as f64,
        });
    }
    out
}

/// Accuracy of a flavour at the ADC's actual buffer common mode
/// (0.23·VDD), interpolated from a sweep.
pub fn accuracy_at_buffer_cm(flavor: ComparatorFlavor, vdd_v: f64, seed: u64) -> f64 {
    let sweep = sweep_common_mode(flavor, vdd_v, 0.02, 45, 2_000, seed);
    let target = 0.23 * vdd_v;
    sweep
        .iter()
        .min_by(|a, b| {
            (a.vcm_v - target)
                .abs()
                .partial_cmp(&(b.vcm_v - target).abs())
                .expect("finite")
        })
        .expect("sweep is non-empty")
        .accuracy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nor3_works_at_low_cm_nand3_does_not() {
        let nor3 = accuracy_at_buffer_cm(ComparatorFlavor::Nor3, 1.1, 7);
        let nand3 = accuracy_at_buffer_cm(ComparatorFlavor::Nand3, 1.1, 7);
        assert!(nor3 > 0.99, "NOR3 accuracy {nor3}");
        assert!(nand3 < 0.6, "NAND3 must coin-flip at 0.25 V CM: {nand3}");
    }

    #[test]
    fn nor3_matches_strongarm_in_its_window() {
        // §2.2.1: "functionally identical to the strongARM comparator".
        let nor3 = accuracy_at_buffer_cm(ComparatorFlavor::Nor3, 1.1, 3);
        let sa = accuracy_at_buffer_cm(ComparatorFlavor::StrongArm, 1.1, 3);
        assert!((nor3 - sa).abs() < 0.01, "NOR3 {nor3} vs strongARM {sa}");
    }

    #[test]
    fn nand3_works_at_high_cm() {
        let sweep = sweep_common_mode(ComparatorFlavor::Nand3, 1.1, 0.02, 23, 1_000, 5);
        let high = sweep.iter().find(|p| p.vcm_v > 0.8).expect("high-CM point");
        assert!(high.accuracy > 0.99, "{high}");
    }

    #[test]
    fn sweep_shape() {
        let sweep = sweep_common_mode(ComparatorFlavor::Nor3, 1.1, 0.02, 12, 100, 1);
        assert_eq!(sweep.len(), 12);
        assert_eq!(sweep[0].vcm_v, 0.0);
        assert!((sweep[11].vcm_v - 1.1).abs() < 1e-12);
        assert!(sweep.iter().all(|p| (0.0..=1.0).contains(&p.accuracy)));
        assert!(sweep[0].to_string().contains("correct"));
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = sweep_common_mode(ComparatorFlavor::Nor3, 1.1, 0.02, 5, 0, 1);
    }
}
