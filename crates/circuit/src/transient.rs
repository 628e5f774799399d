//! Clocking and fixed-step transient bookkeeping.
//!
//! Time-keeping here is **drift-free by construction**: a clock never
//! accumulates `time += dt` across steps (repeated FP addition drifts
//! by an ulp every few steps, enough to move an edge by a whole step
//! over a 10⁷-step transient). Instead it counts steps in an integer
//! and derives time as `base + steps · dt`, and — when the caller
//! declares a fixed step grid via [`Clock::with_steps_per_period`] —
//! derives the clock phase from `step mod steps_per_period` in pure
//! integer arithmetic, so edges can neither skip nor double-fire no
//! matter how long the run is.

use std::fmt;

/// What happened to a clock during the last step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// No transition.
    None,
    /// Low → high transition.
    Rising,
    /// High → low transition.
    Falling,
}

/// A square-wave clock with optional RMS cycle-to-cycle jitter.
///
/// Two phase-derivation modes:
///
/// * **Fixed grid** ([`with_steps_per_period`](Clock::with_steps_per_period)):
///   the caller promises exactly `n` equal steps per period, and the
///   level is a pure function of the integer step counter. This is the
///   mode the ADC simulator uses; it is exact forever.
/// * **Generic**: phase comes from `time / period` with time derived as
///   `base + steps · dt` at the current step size (the counter rebases
///   when `dt` changes). This bounds the time error of a constant-dt
///   run to one rounding of the product (no cumulative drift), though
///   the float phase division can still place an edge one step off
///   when a step lands exactly on a duty boundary — the fixed grid has
///   no such ambiguity.
#[derive(Debug, Clone, PartialEq)]
pub struct Clock {
    period_s: f64,
    duty: f64,
    /// Steps taken at the current step size (generic mode), or total
    /// steps (fixed-grid mode).
    steps: u64,
    /// The step size the integer counter is counting in (generic mode).
    dt_s: f64,
    /// Time accumulated before the current `dt_s` regime began.
    time_base_s: f64,
    /// Fixed-grid mode: steps per clock period.
    steps_per_period: Option<u64>,
    /// Fixed-grid mode: `steps mod steps_per_period`, kept by counting
    /// so that a step costs no integer division.
    grid_index: u64,
    /// Fixed-grid mode: number of step indices within a period whose
    /// phase falls in the high half (`j / n < duty`).
    high_steps: u64,
    level: bool,
    rising_edges: u64,
}

impl Clock {
    /// Creates a clock of frequency `freq_hz` with 50 % duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive.
    pub fn new(freq_hz: f64) -> Self {
        assert!(freq_hz > 0.0, "clock frequency must be positive");
        Clock {
            period_s: 1.0 / freq_hz,
            duty: 0.5,
            steps: 0,
            dt_s: 0.0,
            time_base_s: 0.0,
            steps_per_period: None,
            grid_index: 0,
            high_steps: 0,
            level: true, // phase 0 is the high half
            rising_edges: 0,
        }
    }

    /// Sets the duty cycle (fraction of the period spent high).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < duty < 1`.
    pub fn with_duty(mut self, duty: f64) -> Self {
        assert!(duty > 0.0 && duty < 1.0, "duty must be in (0, 1)");
        self.duty = duty;
        if let Some(n) = self.steps_per_period {
            self.high_steps = Self::high_step_count(n, duty);
        }
        self
    }

    /// Declares a fixed step grid of exactly `n` equal steps per clock
    /// period. From then on the level is derived from the integer step
    /// counter (`step mod n`) and [`advance`](Clock::advance) ignores
    /// the `dt_s` value it is passed — edges land on exact step indices
    /// regardless of run length.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_steps_per_period(mut self, n: u64) -> Self {
        assert!(n > 0, "need at least one step per period");
        self.steps_per_period = Some(n);
        self.grid_index = self.steps % n;
        self.high_steps = Self::high_step_count(n, self.duty);
        self
    }

    /// How many of the `n` step indices within a period sit in the high
    /// phase — the integer image of `phase < duty` on the step grid.
    fn high_step_count(n: u64, duty: f64) -> u64 {
        (0..n).filter(|&j| (j as f64 / n as f64) < duty).count() as u64
    }

    /// Clock frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        1.0 / self.period_s
    }

    /// Clock period in seconds.
    pub fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Current level.
    pub fn level(&self) -> bool {
        self.level
    }

    /// Rising edges seen so far.
    pub fn rising_edge_count(&self) -> u64 {
        self.rising_edges
    }

    /// Total steps advanced so far.
    pub fn step_count(&self) -> u64 {
        self.steps
    }

    /// Advances one step of `dt_s` and reports any edge that occurred.
    ///
    /// In fixed-grid mode (`with_steps_per_period`) the `dt_s` value is
    /// ignored: the phase advances by exactly one grid step. In generic
    /// mode, `dt_s` must be smaller than half a period for edges not to
    /// be skipped; the ADC simulator steps 8–64× per clock period.
    #[inline]
    pub fn advance(&mut self, dt_s: f64) -> EdgeKind {
        let new_level = if let Some(n) = self.steps_per_period {
            self.steps += 1;
            let next = self.grid_index + 1;
            self.grid_index = if next == n { 0 } else { next };
            self.grid_index < self.high_steps
        } else {
            // Generic mode: keep time as base + k·dt so a constant-dt
            // run cannot drift; a dt change rebases the counter.
            if dt_s.to_bits() != self.dt_s.to_bits() {
                self.time_base_s = self.time_s();
                self.dt_s = dt_s;
                self.steps = 0;
            }
            self.steps += 1;
            let phase = (self.time_s() / self.period_s).fract();
            phase < self.duty
        };
        let edge = match (self.level, new_level) {
            (false, true) => EdgeKind::Rising,
            (true, false) => EdgeKind::Falling,
            _ => EdgeKind::None,
        };
        if edge == EdgeKind::Rising {
            self.rising_edges += 1;
        }
        self.level = new_level;
        edge
    }

    /// Elapsed time in seconds (generic mode: `base + steps · dt`).
    fn time_s(&self) -> f64 {
        self.time_base_s + self.steps as f64 * self.dt_s
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "clock {:.3} MHz, duty {:.0} %",
            self.frequency_hz() / 1e6,
            self.duty * 100.0
        )
    }
}

/// Configuration of a fixed-step transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Simulation step, seconds.
    pub dt_s: f64,
    /// Total simulated time, seconds.
    pub duration_s: f64,
    /// Exact step count when built from an integer grid
    /// ([`per_cycle`](TransientConfig::per_cycle)); `None` for a config
    /// assembled from raw floats.
    exact_steps: Option<usize>,
}

impl TransientConfig {
    /// Creates a config from a raw step size and duration.
    ///
    /// [`step_count`](TransientConfig::step_count) on such a config is
    /// the *rounded* quotient of the two floats; prefer
    /// [`per_cycle`](TransientConfig::per_cycle), which carries the
    /// exact integer count.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    pub fn from_durations(dt_s: f64, duration_s: f64) -> Self {
        assert!(dt_s > 0.0, "step size must be positive");
        assert!(duration_s > 0.0, "duration must be positive");
        TransientConfig {
            dt_s,
            duration_s,
            exact_steps: None,
        }
    }

    /// Creates a config that takes `steps_per_cycle` steps per period of a
    /// `clock_hz` clock and runs for `n_cycles` cycles.
    ///
    /// The step count is carried exactly as `steps_per_cycle · n_cycles`
    /// — it does not round-trip through the derived floats, so awkward
    /// clock frequencies (say 1/3 GHz, where neither `dt` nor the
    /// duration is representable) still report the exact count.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero/negative.
    pub fn per_cycle(clock_hz: f64, steps_per_cycle: usize, n_cycles: usize) -> Self {
        assert!(clock_hz > 0.0, "clock frequency must be positive");
        assert!(steps_per_cycle > 0, "need at least one step per cycle");
        assert!(n_cycles > 0, "need at least one cycle");
        let period = 1.0 / clock_hz;
        TransientConfig {
            dt_s: period / steps_per_cycle as f64,
            duration_s: period * n_cycles as f64,
            exact_steps: Some(steps_per_cycle * n_cycles),
        }
    }

    /// Total number of steps: exact for [`per_cycle`](Self::per_cycle)
    /// configs, otherwise the rounded `duration / dt` quotient.
    pub fn step_count(&self) -> usize {
        self.exact_steps
            .unwrap_or_else(|| (self.duration_s / self.dt_s).round() as usize)
    }
}

impl fmt::Display for TransientConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transient {:.2} µs @ dt {:.1} ps ({} steps)",
            self.duration_s * 1e6,
            self.dt_s * 1e12,
            self.step_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_produces_expected_edges() {
        let mut clk = Clock::new(1e6); // 1 µs period
        let dt = 1e-8; // 100 steps/period
        let mut rising = 0;
        let mut falling = 0;
        for _ in 0..1000 {
            match clk.advance(dt) {
                EdgeKind::Rising => rising += 1,
                EdgeKind::Falling => falling += 1,
                EdgeKind::None => {}
            }
        }
        // 10 periods → 9-10 rising (start is high) and 10 falling edges.
        assert!((9..=10).contains(&rising), "rising {rising}");
        assert!((9..=10).contains(&falling), "falling {falling}");
        assert_eq!(clk.rising_edge_count() as i32, rising);
    }

    #[test]
    fn duty_cycle_respected() {
        let mut clk = Clock::new(1e6).with_duty(0.25);
        let dt = 1e-9;
        let mut high = 0usize;
        let n = 10_000;
        for _ in 0..n {
            clk.advance(dt);
            if clk.level() {
                high += 1;
            }
        }
        let duty = high as f64 / n as f64;
        assert!((duty - 0.25).abs() < 0.01, "duty {duty}");
    }

    #[test]
    fn fixed_grid_matches_generic_phase() {
        // The integer-derived level must reproduce the float-derived
        // level step for step. The comparison only holds where the
        // float path is itself exact — a power-of-two frequency and
        // grid (every k·dt and phase representable) and duty values no
        // grid index lands on — because everywhere else the float
        // path's boundary rounding is precisely the bug the fixed grid
        // removes.
        for spp in [4u64, 8, 16] {
            for duty in [0.26, 0.49, 0.76] {
                let fs = (1u64 << 30) as f64;
                let dt = 1.0 / fs / spp as f64;
                let mut fixed = Clock::new(fs).with_duty(duty).with_steps_per_period(spp);
                let mut generic = Clock::new(fs).with_duty(duty);
                for step in 0..10_000 {
                    let ef = fixed.advance(dt);
                    let eg = generic.advance(dt);
                    assert_eq!(
                        fixed.level(),
                        generic.level(),
                        "spp {spp} duty {duty} step {step}"
                    );
                    assert_eq!(ef, eg, "spp {spp} duty {duty} step {step}");
                }
            }
        }
    }

    #[test]
    fn fixed_grid_is_drift_free_over_ten_million_steps() {
        // The headline regression: 10⁷ steps at 16 steps/period must
        // produce *exactly* one rising edge per period — accumulated-
        // float time-keeping drifts an edge by a step at this length.
        let spp = 16u64;
        let steps = 10_000_000u64;
        let mut clk = Clock::new(750e6).with_steps_per_period(spp);
        let dt = 1.0 / 750e6 / spp as f64;
        let mut high = 0u64;
        for _ in 0..steps {
            clk.advance(dt);
            if clk.level() {
                high += 1;
            }
        }
        assert_eq!(clk.rising_edge_count(), steps / spp);
        assert_eq!(clk.step_count(), steps);
        // Exactly half the grid indices are high at duty 0.5.
        assert_eq!(high, steps / 2);
    }

    #[test]
    fn generic_constant_dt_is_drift_free() {
        // time = k·dt (not Σdt): at 10⁷ steps the edge count is exact.
        // A power-of-two frequency makes period, dt, and every k·dt
        // product exactly representable, so this isolates the
        // accumulation behavior from phase-division rounding (which
        // only the fixed-grid mode removes for arbitrary frequencies).
        let spp = 8u64;
        let steps = 10_000_000u64;
        let fs = (1u64 << 30) as f64;
        let mut clk = Clock::new(fs);
        let dt = 1.0 / fs / spp as f64;
        for _ in 0..steps {
            clk.advance(dt);
        }
        assert_eq!(clk.rising_edge_count(), steps / spp);
    }

    #[test]
    fn generic_mode_rebases_on_dt_change() {
        let mut clk = Clock::new(1e6);
        for _ in 0..105 {
            clk.advance(1e-8); // 1.05 µs simulated → wrap at 1 µs seen
        }
        assert_eq!(clk.rising_edge_count(), 1);
        for _ in 0..210 {
            clk.advance(5e-9); // another 1.05 µs at a finer step
        }
        assert_eq!(clk.rising_edge_count(), 2);
    }

    #[test]
    fn fixed_grid_duty_is_exact_on_grid() {
        // duty 0.25 on a 16-step grid: indices 0..4 high.
        let mut clk = Clock::new(1e6).with_steps_per_period(16).with_duty(0.25);
        let mut high = 0;
        for _ in 0..16_000 {
            clk.advance(0.0); // dt ignored in fixed-grid mode
            if clk.level() {
                high += 1;
            }
        }
        assert_eq!(high, 4_000);
    }

    #[test]
    fn starts_high() {
        let clk = Clock::new(1e9);
        assert!(clk.level());
    }

    #[test]
    #[should_panic(expected = "duty must be in")]
    fn bad_duty_panics() {
        let _ = Clock::new(1e6).with_duty(1.0);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn bad_frequency_panics() {
        let _ = Clock::new(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_per_period_panics() {
        let _ = Clock::new(1e6).with_steps_per_period(0);
    }

    #[test]
    fn per_cycle_config() {
        let cfg = TransientConfig::per_cycle(750e6, 16, 4096);
        assert_eq!(cfg.step_count(), 16 * 4096);
        assert!((cfg.dt_s - 1.0 / 750e6 / 16.0).abs() < 1e-20);
    }

    #[test]
    fn per_cycle_step_count_is_exact_at_awkward_frequencies() {
        // 1/3 GHz: neither the period nor dt is representable, and the
        // rounded float quotient can land on the wrong integer. The
        // count must come from the integers that built the config.
        for (hz, spc, cycles) in [
            (1e9 / 3.0, 12usize, 1_000_003usize),
            (1e9 / 3.0, 7, 999_999),
            (333_333_333.0, 13, 131_071),
            (1e9 / 7.0, 11, 1 << 20),
        ] {
            let cfg = TransientConfig::per_cycle(hz, spc, cycles);
            assert_eq!(cfg.step_count(), spc * cycles, "{hz} Hz {spc}×{cycles}");
        }
    }

    #[test]
    fn from_durations_rounds() {
        let cfg = TransientConfig::from_durations(1e-9, 1e-6);
        assert_eq!(cfg.step_count(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        let _ = TransientConfig::per_cycle(1e6, 0, 10);
    }

    #[test]
    fn displays() {
        assert!(Clock::new(750e6).to_string().contains("750.000 MHz"));
        assert!(TransientConfig::per_cycle(1e6, 10, 100)
            .to_string()
            .contains("steps"));
    }
}
