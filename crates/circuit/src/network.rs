//! Resistive summing node with RC dynamics and thermal noise.
//!
//! The proposed ADC's V_CTRL nodes are pure resistive summing junctions:
//! the input resistor (from V_IN) and the DAC resistor (from the DAC
//! inverter's output) meet at the VCO control node, whose capacitance is
//! the VCO's input capacitance plus extracted wire parasitics. This module
//! solves that node exactly (first-order exponential step per time step)
//! and injects the resistors' `kT/C` thermal noise.

use crate::noise::SimRng;
use std::fmt;

/// Identifier of a branch added to a [`SummingNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchId(usize);

/// One resistive branch: a resistor from the node to a driven voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Branch {
    resistance_ohm: f64,
    drive_v: f64,
}

/// A node where several resistors sum currents into a capacitance.
///
/// ```
/// use tdsigma_circuit::{SimRng, SummingNode};
///
/// // The ADC's control node: input resistor vs DAC resistor.
/// let mut rng = SimRng::new(0);
/// let mut node = SummingNode::new(0.0, 0.0);
/// node.add_branch(1_000.0, 0.55);   // input R to the input voltage
/// let dac = node.add_branch(5_500.0, 1.1); // DAC Thevenin branch
/// node.advance(1e-9, &mut rng);
/// let v_high = node.voltage();
/// node.set_drive(dac, 0.0);         // DAC flips
/// node.advance(1e-9, &mut rng);
/// assert!(v_high > node.voltage()); // the node followed the feedback
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SummingNode {
    branches: Vec<Branch>,
    cap_f: f64,
    v: f64,
    thermal_noise: bool,
}

impl SummingNode {
    /// Creates a node with capacitance `cap_f` farads at `initial_v` volts.
    ///
    /// A zero capacitance is allowed and makes the node settle instantly
    /// (ideal resistive divider).
    ///
    /// # Panics
    ///
    /// Panics if `cap_f` is negative or not finite.
    pub fn new(cap_f: f64, initial_v: f64) -> Self {
        assert!(
            cap_f.is_finite() && cap_f >= 0.0,
            "capacitance must be >= 0"
        );
        SummingNode {
            branches: Vec::new(),
            cap_f,
            v: initial_v,
            thermal_noise: false,
        }
    }

    /// Enables `kT/C` thermal-noise injection.
    pub fn with_thermal_noise(mut self) -> Self {
        self.thermal_noise = true;
        self
    }

    /// Adds a resistive branch to a driven voltage; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `resistance_ohm` is not positive.
    pub fn add_branch(&mut self, resistance_ohm: f64, drive_v: f64) -> BranchId {
        assert!(
            resistance_ohm.is_finite() && resistance_ohm > 0.0,
            "resistance must be positive"
        );
        self.branches.push(Branch {
            resistance_ohm,
            drive_v,
        });
        BranchId(self.branches.len() - 1)
    }

    /// Updates the voltage driving a branch (e.g. the DAC inverter flipping
    /// between VREFP and ground).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this node.
    pub fn set_drive(&mut self, id: BranchId, drive_v: f64) {
        self.branches[id.0].drive_v = drive_v;
    }

    /// The Thevenin equivalent resistance of all branches in parallel, Ω.
    ///
    /// # Panics
    ///
    /// Panics if no branches have been added.
    pub(crate) fn parallel_resistance_ohm(&self) -> f64 {
        assert!(!self.branches.is_empty(), "node has no branches");
        1.0 / self
            .branches
            .iter()
            .map(|b| 1.0 / b.resistance_ohm)
            .sum::<f64>()
    }

    /// The voltage the node settles to with the current drives, volts.
    ///
    /// # Panics
    ///
    /// Panics if no branches have been added.
    pub fn target_voltage(&self) -> f64 {
        assert!(!self.branches.is_empty(), "node has no branches");
        let gsum: f64 = self.branches.iter().map(|b| 1.0 / b.resistance_ohm).sum();
        let isum: f64 = self
            .branches
            .iter()
            .map(|b| b.drive_v / b.resistance_ohm)
            .sum();
        isum / gsum
    }

    /// The RC time constant, seconds (0 for a capacitance-free node).
    pub fn time_constant_s(&self) -> f64 {
        if self.cap_f == 0.0 {
            0.0
        } else {
            self.parallel_resistance_ohm() * self.cap_f
        }
    }

    /// Advances the node by `dt_s` seconds using the exact exponential
    /// solution of the first-order RC system, injecting thermal noise if
    /// enabled.
    pub fn advance(&mut self, dt_s: f64, rng: &mut SimRng) {
        let target = self.target_voltage();
        let tau = self.time_constant_s();
        if tau == 0.0 {
            self.v = target;
            return;
        }
        let a = (-dt_s / tau).exp();
        self.v = target + (self.v - target) * a;
        if self.thermal_noise {
            // Discretised Ornstein-Uhlenbeck: stationary variance kT/C.
            let kt_over_c =
                tdsigma_tech::BOLTZMANN * tdsigma_tech::NOMINAL_TEMPERATURE_K / self.cap_f;
            let sigma = (kt_over_c * (1.0 - a * a)).sqrt();
            self.v += rng.gaussian(sigma);
        }
    }

    /// Current node voltage, volts.
    pub fn voltage(&self) -> f64 {
        self.v
    }

    /// Forces the node voltage (initial-condition setting).
    pub fn set_voltage(&mut self, v: f64) {
        self.v = v;
    }
}

impl fmt::Display for SummingNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {:.4} V ({} branches, C {:.2} fF)",
            self.v,
            self.branches.len(),
            self.cap_f * 1e15
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divider_settles_to_weighted_mean() {
        let mut rng = SimRng::new(0);
        let mut node = SummingNode::new(0.0, 0.0);
        node.add_branch(1_000.0, 1.0);
        node.add_branch(1_000.0, 0.0);
        node.advance(1e-9, &mut rng);
        assert!((node.voltage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_divider() {
        let mut rng = SimRng::new(0);
        let mut node = SummingNode::new(0.0, 0.0);
        node.add_branch(1_000.0, 1.2); // strong pull to 1.2 V
        node.add_branch(11_000.0, 0.0); // weak pull to ground
        node.advance(1e-9, &mut rng);
        // v = 1.2·(1/1k) / (1/1k + 1/11k) = 1.2·11/12 = 1.1
        assert!((node.voltage() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn rc_settling_follows_exponential() {
        let mut rng = SimRng::new(0);
        let mut node = SummingNode::new(1e-12, 0.0); // 1 pF
        node.add_branch(1_000.0, 1.0); // tau = 1 ns
        let tau = node.time_constant_s();
        assert!((tau - 1e-9).abs() < 1e-15);
        node.advance(1e-9, &mut rng); // one tau
        let expected = 1.0 - (-1.0f64).exp();
        assert!((node.voltage() - expected).abs() < 1e-9);
    }

    #[test]
    fn exponential_step_is_exact_regardless_of_dt() {
        // Settling over 5 ns must give the same result in 1 or 100 steps.
        let run = |steps: usize| {
            let mut rng = SimRng::new(0);
            let mut node = SummingNode::new(1e-12, 0.2);
            node.add_branch(2_000.0, 0.8);
            let dt = 5e-9 / steps as f64;
            for _ in 0..steps {
                node.advance(dt, &mut rng);
            }
            node.voltage()
        };
        assert!((run(1) - run(100)).abs() < 1e-12);
    }

    #[test]
    fn drive_update_moves_target() {
        let mut rng = SimRng::new(0);
        let mut node = SummingNode::new(0.0, 0.0);
        let _in = node.add_branch(11_000.0, 0.5);
        let dac = node.add_branch(1_000.0, 1.1);
        node.advance(1e-9, &mut rng);
        let v_high = node.voltage();
        node.set_drive(dac, 0.0);
        node.advance(1e-9, &mut rng);
        let v_low = node.voltage();
        assert!(v_high > v_low + 0.5, "DAC flip must move the node");
    }

    #[test]
    fn thermal_noise_variance_is_kt_over_c() {
        let cap = 1e-15; // 1 fF → kT/C ≈ (64 µV)²
        let mut rng = SimRng::new(5);
        let mut node = SummingNode::new(cap, 0.5).with_thermal_noise();
        node.add_branch(10_000.0, 0.5);
        let tau = node.time_constant_s();
        // Sample well past the correlation time.
        let mut values = Vec::new();
        for _ in 0..20_000 {
            node.advance(3.0 * tau, &mut rng);
            values.push(node.voltage());
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / values.len() as f64;
        let expected = tdsigma_tech::BOLTZMANN * 300.0 / cap;
        assert!(
            (var / expected - 1.0).abs() < 0.1,
            "kT/C variance: got {var}, expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "no branches")]
    fn target_without_branches_panics() {
        let node = SummingNode::new(0.0, 0.0);
        let _ = node.target_voltage();
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_panics() {
        let mut node = SummingNode::new(0.0, 0.0);
        node.add_branch(0.0, 1.0);
    }

    #[test]
    fn display_shows_voltage() {
        let node = SummingNode::new(1e-15, 0.55);
        assert!(node.to_string().contains("0.55"));
    }
}
