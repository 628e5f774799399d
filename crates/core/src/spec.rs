//! The ADC specification: every architectural knob of the proposed design.
//!
//! The paper emphasises that the architecture "allows easy adaptations to
//! different specifications": more slices for quantizer resolution, a
//! faster clock for bandwidth, more DAC current or VCO gain for SQNR.
//! `AdcSpec` is exactly that knob set, with validation and the two
//! reference designs of Table 3.

use crate::error::CoreError;
use tdsigma_tech::{NodeId, Technology};

/// Most simulation substeps per clock period a spec may ask for. The
/// paper specs use 16 and the experiments 8–64; the transient's cost is
/// linear in this, so the bound keeps one run's work finite.
pub const MAX_STEPS_PER_CYCLE: usize = 1024;

/// Most slices a spec may ask for: 64× the largest workload's 16. The
/// simulator allocates per-slice state up front, so an unbounded count
/// would abort the process.
pub const MAX_SLICES: usize = 1024;

/// Most ring stages per VCO: a slice code sums one tap XOR per stage in
/// a `u8`, so a longer ring would wrap it.
pub const MAX_VCO_STAGES: usize = u8::MAX as usize;

/// Full specification of one ADC instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AdcSpec {
    /// Target technology.
    pub tech: Technology,
    /// Number of slices. The output adder sums `n_slices × vco_stages`
    /// thermometer bits, so the output code spans
    /// `n_slices · vco_stages + 1` levels; averaging independent slices
    /// adds ≈ 10·log10(n_slices) dB of SNDR.
    pub n_slices: usize,
    /// Sampling clock, Hz.
    pub fs_hz: f64,
    /// Signal bandwidth, Hz.
    pub bw_hz: f64,
    /// Ring-VCO stages per VCO (the paper's Fig. 5 cell uses 4).
    pub vco_stages: usize,
    /// VCO centre frequency, Hz.
    pub vco_f0_hz: f64,
    /// VCO tuning gain, Hz/V.
    pub kvco_hz_per_v: f64,
    /// Input resistor value, Ω (4 low-resistivity fragments: 1 kΩ).
    pub rin_ohm: f64,
    /// DAC branch resistance, Ω (two series 11 kΩ resistor cells of 4
    /// high-resistivity fragments each: 22 kΩ per thermometer branch).
    pub rdac_ohm: f64,
    /// DAC reference voltage, V (the node's supply).
    pub vrefp_v: f64,
    /// Input common mode voltage, V.
    pub input_cm_v: f64,
    /// VCO control node common mode (the VCO's nominal supply), V.
    pub vctrl_cm_v: f64,
    /// Relative 1-σ VCO centre-frequency mismatch.
    pub vco_mismatch_sigma: f64,
    /// Relative 1-σ mismatch of one DAC branch. Each branch is 8 series
    /// fragments (two 4-fragment resistor cells), so the branch matches
    /// √8 better than a single fragment (§2.2.2: resistors "exhibit high
    /// raw matching") — no calibration or DEM anywhere.
    pub dac_mismatch_sigma: f64,
    /// Comparator input-referred offset 1-σ, V.
    pub comparator_offset_sigma_v: f64,
    /// Comparator input-referred noise, V rms.
    pub comparator_noise_v: f64,
    /// VCO white-FM phase noise (relative frequency deviation per √Hz).
    pub phase_noise_per_sqrt_hz: f64,
    /// Enable kT/C thermal noise on the control nodes.
    pub thermal_noise: bool,
    /// Sampling-clock RMS jitter, seconds (common to all slices — a clock
    /// tree property). The TD architecture is first-order insensitive to
    /// it; the `abl_jitter` experiment quantifies the margin.
    pub clock_jitter_rms_s: f64,
    /// Extra control-node capacitance before extraction, F (device input
    /// capacitance; wire capacitance is added by the post-layout flow).
    pub node_cap_f: f64,
    /// Include the on-chip thermometer-to-binary ones-counter back end
    /// (adder tree + output register) in the generated netlist.
    pub include_output_adder: bool,
    /// Simulation substeps per clock period.
    pub steps_per_cycle: usize,
    /// RNG seed (mismatch draws + noise).
    pub seed: u64,
}

impl AdcSpec {
    /// The paper's 40 nm design point (Table 3 row 1): 750 MHz clock,
    /// 5 MHz bandwidth, 8 slices.
    ///
    /// # Errors
    ///
    /// Propagates technology-resolution errors.
    pub fn paper_40nm() -> Result<Self, CoreError> {
        let tech = Technology::for_node(NodeId::N40)?;
        AdcSpec::for_technology(tech, 750e6, 5e6)
    }

    /// The paper's 180 nm design point (Table 3 row 2): 250 MHz clock,
    /// 1.4 MHz bandwidth, 8 slices — the *same* netlist migrated to the
    /// older node.
    ///
    /// # Errors
    ///
    /// Propagates technology-resolution errors.
    pub fn paper_180nm() -> Result<Self, CoreError> {
        let tech = Technology::for_node(NodeId::N180)?;
        AdcSpec::for_technology(tech, 250e6, 1.4e6)
    }

    /// Derives a sensible spec for any technology, clock and bandwidth —
    /// the design-porting story of the paper: only the clock and the
    /// analog biases change with the node; the netlist is identical.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if the clock exceeds what the
    /// node's ring oscillator can support or the OSR is unusably low.
    pub fn for_technology(tech: Technology, fs_hz: f64, bw_hz: f64) -> Result<Self, CoreError> {
        AdcSpec::nominal(tech, fs_hz, bw_hz).validated()
    }

    /// [`AdcSpec::for_technology`] before validation: for a caller that
    /// sets more knobs, then validates once.
    pub fn nominal(tech: Technology, fs_hz: f64, bw_hz: f64) -> Self {
        let vdd = tech.vdd().value();
        let vco_f0_hz = fs_hz / 5.0;
        // With the input and DAC common modes both at VDD/2, the resistive
        // divider parks the control nodes at VDD/2 — the VCO's nominal
        // operating point.
        let vctrl_cm_v = vdd * 0.5;
        AdcSpec {
            n_slices: 8,
            fs_hz,
            bw_hz,
            vco_stages: 4,
            vco_f0_hz,
            // Loop gain: one thermometer-DAC LSB must slew the slice's
            // phase difference by about one quantizer step (π / stages)
            // per clock. Swept in `abl_scalability`; 0.8·fs/VDD is the
            // robust optimum.
            kvco_hz_per_v: 0.8 * fs_hz / vdd,
            rin_ohm: 1_000.0,
            rdac_ohm: 22_000.0,
            vrefp_v: vdd,
            input_cm_v: vdd / 2.0,
            vctrl_cm_v,
            // An 8-inverter pseudo-differential ring averages the device
            // mismatch of its stages (Pelgrom: σ_ring ≈ σ_device / √8).
            vco_mismatch_sigma: tech.min_device_sigma() / 3.0,
            dac_mismatch_sigma: 0.005 / (8.0f64).sqrt(),
            comparator_offset_sigma_v: 0.01,
            comparator_noise_v: 0.3e-3,
            // White-FM phase noise floor; roughly node-independent relative
            // to f0 for inverter rings.
            phase_noise_per_sqrt_hz: 2.0e-9,
            thermal_noise: true,
            clock_jitter_rms_s: 0.2e-12,
            include_output_adder: true,
            node_cap_f: 10e-15,
            steps_per_cycle: 16,
            seed: 2017,
            tech,
        }
    }

    /// Validates internal consistency and bounds every knob, so no spec
    /// that passes can make the simulator panic or allocate without limit.
    /// NaN fails every `!(x > 0.0)`-style test below.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] with a human-readable reason.
    pub fn validated(self) -> Result<Self, CoreError> {
        let fail = |reason: &str| {
            Err(CoreError::InvalidSpec {
                reason: reason.to_string(),
            })
        };
        let positive = [
            ("fs_hz", self.fs_hz),
            ("bw_hz", self.bw_hz),
            ("vco_f0_hz", self.vco_f0_hz),
            ("kvco_hz_per_v", self.kvco_hz_per_v),
            ("rin_ohm", self.rin_ohm),
            ("rdac_ohm", self.rdac_ohm),
            ("vrefp_v", self.vrefp_v),
        ];
        if let Some((name, x)) = positive.iter().find(|(_, x)| !(x.is_finite() && *x > 0.0)) {
            return fail(&format!("{name} {x} must be finite and positive"));
        }
        let spreads = [
            self.input_cm_v,
            self.vctrl_cm_v,
            self.vco_mismatch_sigma,
            self.dac_mismatch_sigma,
            self.comparator_offset_sigma_v,
            self.comparator_noise_v,
            self.phase_noise_per_sqrt_hz,
            self.clock_jitter_rms_s,
            self.node_cap_f,
        ];
        if !spreads.iter().all(|x| x.is_finite() && *x >= 0.0) {
            return fail(
                "common modes, noise, mismatch and jitter must be finite and non-negative",
            );
        }
        for (name, n, max) in [
            ("n_slices", self.n_slices, MAX_SLICES),
            ("vco_stages", self.vco_stages, MAX_VCO_STAGES),
        ] {
            if !(1..=max).contains(&n) {
                return fail(&format!("{name} {n} must be in 1..={max}"));
            }
        }
        if self.oversampling_ratio() < 4.0 {
            return fail("OSR below 4: widen the clock or narrow the bandwidth");
        }
        if self.vco_f0_hz >= self.fs_hz {
            return fail("VCO centre frequency must be below the sampling clock");
        }
        let ring_max = self.tech.ring_max_frequency_hz(self.vco_stages);
        if self.vco_f0_hz > ring_max {
            return fail("VCO centre frequency exceeds the ring's capability at this node");
        }
        // The clocked logic (SAFF, latches) must close timing: a clock
        // period shorter than ~10 FO4 is not realisable at the node.
        if 1.0 / self.fs_hz < 10.0 * self.tech.fo4_delay_ps() * 1e-12 {
            return fail("sampling clock too fast for the node's logic (needs 10 FO4 per period)");
        }
        if self.vrefp_v > self.tech.vdd().value() * 1.001 {
            return fail("VREFP must be positive and within the supply");
        }
        if self.steps_per_cycle < 4 {
            return fail("need at least 4 simulation substeps per cycle");
        }
        if self.steps_per_cycle > MAX_STEPS_PER_CYCLE {
            return fail(&format!(
                "need at most {MAX_STEPS_PER_CYCLE} simulation substeps per cycle"
            ));
        }
        if self.clock_jitter_rms_s > 0.1 / self.fs_hz {
            return fail("clock jitter must be well below the period");
        }
        Ok(self)
    }

    /// Oversampling ratio `fs / (2·BW)`.
    pub fn oversampling_ratio(&self) -> f64 {
        self.fs_hz / (2.0 * self.bw_hz)
    }

    /// Differential full-scale input amplitude, V.
    ///
    /// Each slice is a self-contained first-order loop: its own control
    /// nodes, input resistors and a thermometer resistor DAC of
    /// `vco_stages` inverter+resistor branches per side (§2.2.2:
    /// "synthesize a DAC through proper instantiation" of the fragment
    /// cell). The DAC can cancel at most `stages·VREFP·Rin/Rdac` of
    /// differential input, so that is the edge of stable modulation —
    /// identical for every slice.
    pub fn full_scale_v(&self) -> f64 {
        self.vco_stages as f64 * self.vrefp_v * self.rin_ohm / self.rdac_ohm
    }

    /// Returns a copy with a different slice count (the paper's "simply
    /// add more slices" knob).
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn with_slices(mut self, n: usize) -> Result<Self, CoreError> {
        self.n_slices = n;
        self.validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_build() {
        let s40 = AdcSpec::paper_40nm().unwrap();
        assert_eq!(s40.fs_hz, 750e6);
        assert_eq!(s40.bw_hz, 5e6);
        assert!((s40.oversampling_ratio() - 75.0).abs() < 1e-9);
        assert_eq!(s40.n_slices, 8);

        let s180 = AdcSpec::paper_180nm().unwrap();
        assert_eq!(s180.fs_hz, 250e6);
        assert!((s180.oversampling_ratio() - 89.28).abs() < 0.01);
    }

    #[test]
    fn full_scale_is_set_by_resistor_ratio() {
        let s = AdcSpec::paper_40nm().unwrap();
        // 4 branches × 1.1 V × 1k / 22k = 200 mV differential.
        assert!((s.full_scale_v() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn knobs_rescale() {
        let s = AdcSpec::paper_40nm().unwrap();
        let more = s.with_slices(16).unwrap();
        assert_eq!(more.n_slices, 16);
    }

    #[test]
    fn dac_resistance_knob_rescales_full_scale() {
        let s = AdcSpec::paper_40nm().unwrap();
        let fs0 = s.full_scale_v();
        let hot = AdcSpec {
            rdac_ohm: 11_000.0,
            ..s.clone()
        };
        assert!((hot.validated().unwrap().full_scale_v() - 2.0 * fs0).abs() < 1e-12);
        assert!(AdcSpec {
            rdac_ohm: -1.0,
            ..s
        }
        .validated()
        .is_err());
    }

    #[test]
    fn invalid_specs_rejected() {
        let s = AdcSpec::paper_40nm().unwrap();
        assert!(s.clone().with_slices(0).is_err());
        // OSR too low.
        let t40 = Technology::for_node(NodeId::N40).unwrap();
        assert!(AdcSpec::for_technology(t40, 750e6, 200e6).is_err());
        // A 20 GHz clock is far beyond 180 nm logic (10 FO4 = 500 ps).
        let t180 = Technology::for_node(NodeId::N180).unwrap();
        assert!(AdcSpec::for_technology(t180, 20e9, 100e6).is_err());
    }

    #[test]
    fn validation_messages_are_specific() {
        let mut s = AdcSpec::paper_40nm().unwrap();
        s.vrefp_v = 5.0;
        match s.validated() {
            Err(CoreError::InvalidSpec { reason }) => assert!(reason.contains("VREFP")),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn substep_count_is_bounded_on_both_sides() {
        let mut s = AdcSpec::paper_40nm().unwrap();
        for ok in [4, 64, MAX_STEPS_PER_CYCLE] {
            s.steps_per_cycle = ok;
            assert!(s.clone().validated().is_ok(), "{ok}");
        }
        for (bad, says) in [(3, "at least 4"), (MAX_STEPS_PER_CYCLE + 1, "at most 1024")] {
            s.steps_per_cycle = bad;
            match s.clone().validated() {
                Err(CoreError::InvalidSpec { reason }) => {
                    assert!(reason.contains(says), "{reason}")
                }
                other => panic!("expected InvalidSpec for {bad}, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_knob_is_finite_and_every_count_bounded() {
        let base = AdcSpec::paper_40nm().unwrap();
        let verdict = |edit: &dyn Fn(&mut AdcSpec)| {
            let mut spec = base.clone();
            edit(&mut spec);
            spec.validated().map(|_| ()).map_err(|e| e.to_string())
        };
        let refused = |edit: &dyn Fn(&mut AdcSpec), says: &str| {
            let err = verdict(edit).unwrap_err();
            assert!(err.contains(says), "{err}");
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            refused(&|s| s.kvco_hz_per_v = bad, "kvco_hz_per_v");
            refused(&|s| s.rdac_ohm = bad, "rdac_ohm");
            refused(&|s| s.fs_hz = bad, "fs_hz");
        }
        for bad in [f64::NAN, f64::INFINITY, -1e-3] {
            refused(&|s| s.vco_mismatch_sigma = bad, "mismatch");
        }
        let edge = |s: &mut AdcSpec| {
            s.vco_mismatch_sigma = 0.0;
            s.n_slices = MAX_SLICES;
        };
        assert_eq!(verdict(&edge), Ok(()));
        refused(
            &|s| s.n_slices = MAX_SLICES + 1,
            "n_slices 1025 must be in 1..=1024",
        );
        refused(&|s| s.n_slices = 1 << 50, "n_slices 1125899906842624");
        refused(&|s| s.vco_stages = 0, "vco_stages 0 must be in 1..=255");
        refused(&|s| s.vco_stages = MAX_VCO_STAGES + 1, "vco_stages 256");
    }

    #[test]
    fn osr_definition() {
        let s = AdcSpec::paper_40nm().unwrap();
        assert_eq!(s.oversampling_ratio(), 750e6 / 10e6);
    }
}
