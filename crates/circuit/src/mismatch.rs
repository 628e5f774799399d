//! Device mismatch sampling (Pelgrom-style).
//!
//! Matching of identically drawn devices is limited by local variation whose
//! standard deviation scales as `A / sqrt(W·L)`. The paper's central
//! robustness claim is that the TD architecture high-pass shapes both VCO
//! mismatch and comparator offset; this module supplies the per-instance
//! deviations the simulator injects so that claim can be *tested* rather
//! than assumed.

use crate::noise::SimRng;
use std::fmt;

/// A mismatch model: relative 1-σ deviation of a parameter across
/// identically drawn instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchModel {
    sigma: f64,
}

impl MismatchModel {
    /// Creates a model with the given relative 1-σ (e.g. `0.02` = 2 %).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and >= 0"
        );
        MismatchModel { sigma }
    }

    /// Draws one instance's relative deviation (multiply a nominal parameter
    /// by `1 + draw`).
    pub fn draw(&self, rng: &mut SimRng) -> f64 {
        rng.gaussian(self.sigma)
    }

    /// Draws `n` instance deviations.
    pub fn draw_many(&self, rng: &mut SimRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.draw(rng)).collect()
    }
}

impl fmt::Display for MismatchModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mismatch σ = {:.2} %", self.sigma * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_draws_zero() {
        let mut rng = SimRng::new(1);
        let m = MismatchModel::new(0.0);
        for _ in 0..10 {
            assert_eq!(m.draw(&mut rng), 0.0);
        }
    }

    #[test]
    fn sigma_is_respected() {
        let mut rng = SimRng::new(2);
        let m = MismatchModel::new(0.05);
        let draws = m.draw_many(&mut rng, 100_000);
        let var = draws.iter().map(|x| x * x).sum::<f64>() / draws.len() as f64;
        assert!((var.sqrt() - 0.05).abs() < 0.002, "sigma {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "sigma must be finite")]
    fn negative_sigma_panics() {
        let _ = MismatchModel::new(-0.1);
    }

    #[test]
    fn draw_many_length() {
        let mut rng = SimRng::new(3);
        assert_eq!(MismatchModel::new(0.01).draw_many(&mut rng, 7).len(), 7);
    }

    #[test]
    fn display_in_percent() {
        assert_eq!(MismatchModel::new(0.025).to_string(), "mismatch σ = 2.50 %");
    }
}
