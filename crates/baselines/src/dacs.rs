//! DAC architecture comparison (paper §2.2.2, Fig. 8).
//!
//! The paper replaces the conventional current-steering DAC with a
//! resistor DAC because (a) current sources are not standard cells and
//! need a hand-crafted bias network, and (b) resistors match far better
//! raw. This module quantifies (b) by Monte-Carlo: the INL of an N-level
//! thermometer DAC under element mismatch, for both element types.

use std::fmt;
use tdsigma_circuit::{MismatchModel, SimRng};

/// The two DAC element types of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DacArchitecture {
    /// Fig. 8b: inverter + resistor (proposed).
    Resistor,
    /// Fig. 8a: biased current-steering cell (conventional).
    CurrentSteering,
}

impl DacArchitecture {
    /// Raw element matching (relative 1-σ). Poly resistors match to
    /// ~0.5 %; minimum-area current sources to a few percent (and degrade
    /// with output-voltage sensitivity).
    pub(crate) fn element_sigma(self) -> f64 {
        match self {
            DacArchitecture::Resistor => 0.005,
            DacArchitecture::CurrentSteering => 0.03,
        }
    }

    /// True if the element exists in (or can be trivially added to) a
    /// digital standard-cell library.
    pub fn is_synthesis_friendly(self) -> bool {
        matches!(self, DacArchitecture::Resistor)
    }

    /// True if the architecture needs an analog bias-distribution network
    /// (the part the paper calls "highly synthesis unfriendly").
    pub fn needs_bias_network(self) -> bool {
        matches!(self, DacArchitecture::CurrentSteering)
    }
}

impl fmt::Display for DacArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DacArchitecture::Resistor => "resistor DAC (proposed)",
            DacArchitecture::CurrentSteering => "current-steering DAC",
        };
        f.write_str(s)
    }
}

/// Monte-Carlo result for one DAC architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct DacMonteCarlo {
    /// Architecture analysed.
    pub architecture: DacArchitecture,
    /// Levels per DAC.
    pub levels: usize,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Mean worst-case INL across trials, in LSB.
    pub mean_inl_lsb: f64,
    /// 99th-percentile worst-case INL, in LSB.
    pub p99_inl_lsb: f64,
}

impl DacMonteCarlo {
    /// Runs the Monte-Carlo: `trials` DACs of `levels` unit elements with
    /// the architecture's raw matching; reports worst-case INL statistics.
    ///
    /// # Panics
    ///
    /// Panics if `levels` < 2 or `trials` == 0.
    pub fn run(architecture: DacArchitecture, levels: usize, trials: usize, seed: u64) -> Self {
        assert!(levels >= 2, "a DAC needs at least 2 levels");
        assert!(trials > 0, "need at least one trial");
        let model = MismatchModel::new(architecture.element_sigma());
        let mut rng = SimRng::new(seed);
        let mut worst_inls: Vec<f64> = Vec::with_capacity(trials);
        for _ in 0..trials {
            let elements: Vec<f64> = model
                .draw_many(&mut rng, levels)
                .into_iter()
                .map(|d| 1.0 + d)
                .collect();
            let total: f64 = elements.iter().sum();
            let lsb = total / levels as f64;
            // Thermometer transfer: code k outputs the sum of the first k
            // elements; INL is the deviation from the end-point line.
            let mut acc = 0.0;
            let mut worst: f64 = 0.0;
            for (k, e) in elements.iter().enumerate() {
                acc += e;
                let ideal = (k + 1) as f64 * lsb;
                worst = worst.max(((acc - ideal) / lsb).abs());
            }
            worst_inls.push(worst);
        }
        worst_inls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mean = worst_inls.iter().sum::<f64>() / trials as f64;
        let p99 = worst_inls[((trials as f64 * 0.99) as usize).min(trials - 1)];
        DacMonteCarlo {
            architecture,
            levels,
            trials,
            mean_inl_lsb: mean,
            p99_inl_lsb: p99,
        }
    }
}

impl fmt::Display for DacMonteCarlo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}-level, INL mean {:.4} LSB, p99 {:.4} LSB",
            self.architecture, self.levels, self.mean_inl_lsb, self.p99_inl_lsb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistors_match_better_than_current_sources() {
        let res = DacMonteCarlo::run(DacArchitecture::Resistor, 8, 500, 11);
        let cur = DacMonteCarlo::run(DacArchitecture::CurrentSteering, 8, 500, 11);
        assert!(
            cur.mean_inl_lsb > 4.0 * res.mean_inl_lsb,
            "current sources must be ≥4x worse: {} vs {}",
            cur.mean_inl_lsb,
            res.mean_inl_lsb
        );
        assert!(res.p99_inl_lsb >= res.mean_inl_lsb);
    }

    #[test]
    fn resistor_dac_inl_is_sub_lsb() {
        let res = DacMonteCarlo::run(DacArchitecture::Resistor, 8, 500, 3);
        assert!(res.p99_inl_lsb < 0.1, "raw resistor matching: {res}");
    }

    #[test]
    fn synthesis_friendliness_flags() {
        assert!(DacArchitecture::Resistor.is_synthesis_friendly());
        assert!(!DacArchitecture::Resistor.needs_bias_network());
        assert!(!DacArchitecture::CurrentSteering.is_synthesis_friendly());
        assert!(DacArchitecture::CurrentSteering.needs_bias_network());
    }

    #[test]
    fn inl_grows_with_levels() {
        let small = DacMonteCarlo::run(DacArchitecture::Resistor, 4, 400, 5);
        let large = DacMonteCarlo::run(DacArchitecture::Resistor, 64, 400, 5);
        assert!(large.mean_inl_lsb > small.mean_inl_lsb);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DacMonteCarlo::run(DacArchitecture::Resistor, 8, 100, 9);
        let b = DacMonteCarlo::run(DacArchitecture::Resistor, 8, 100, 9);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 2 levels")]
    fn one_level_panics() {
        let _ = DacMonteCarlo::run(DacArchitecture::Resistor, 1, 10, 1);
    }

    #[test]
    fn display_mentions_architecture() {
        let res = DacMonteCarlo::run(DacArchitecture::Resistor, 8, 10, 1);
        assert!(res.to_string().contains("resistor DAC"));
    }
}
