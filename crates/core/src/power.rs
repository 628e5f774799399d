//! Power estimation: activity-based digital switching plus static/bias
//! analog power.
//!
//! The split follows the paper's Fig. 15 exactly: "digital" is everything
//! that switches (VCOs, buffers, SAFFs, XOR/latches, clock tree, DAC
//! inverters, wire capacitance, leakage); "analog" is the static resistor
//! network current and the buffer bias.
//!
//! The absolute scale of digital power is calibrated once against the
//! paper's 40 nm point (see `DIGITAL_CALIBRATION`); the *scaling* between
//! nodes then follows purely from the technology model (`C·V²·f` with
//! per-node cell capacitances, supplies and clock rates) — which is the
//! claim under test.

use crate::sim::Activity;
use crate::spec::AdcSpec;
use std::fmt;
use tdsigma_tech::{CellClass, DriveStrength};

/// Multiplier absorbing the difference between a raw gate-level `C·V²·f`
/// estimate and reality (reduced internal swings, partial activity,
/// clock gating), calibrated once so the 40 nm reference design dissipates
/// ≈1 mW of digital power as in the paper's Table 3. Applied identically
/// at every node, so inter-node *ratios* come purely from the technology
/// model.
pub(crate) const DIGITAL_CALIBRATION: f64 = 0.47;

/// Buffer bias current per buffer per volt of supply, amperes/volt. The
/// bias scales with VDD (gm-set), so analog power scales *less* than
/// digital — the mechanism behind the paper's Fig. 15 share shift.
pub(crate) const BUFFER_BIAS_A_PER_V: f64 = 3.3e-6;

/// Detailed power breakdown, watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Ring-VCO switching.
    pub vco_w: f64,
    /// Buffer switching.
    pub buffer_logic_w: f64,
    /// SAFF (comparator + SR latch) switching.
    pub saff_w: f64,
    /// XOR + retiming latch + local inverters.
    pub retime_xor_w: f64,
    /// Clock tree and clock loads.
    pub clock_w: f64,
    /// DAC inverter switching.
    pub dac_w: f64,
    /// Extracted wire capacitance switching (post-layout only).
    pub wire_w: f64,
    /// Leakage.
    pub leakage_w: f64,
    /// Static resistor-network dissipation (input + DAC resistors).
    pub resistor_network_w: f64,
    /// Buffer bias current.
    pub buffer_bias_w: f64,
}

impl PowerBreakdown {
    /// Total digital power (the paper's Fig. 15 "Digital" wedge).
    pub(crate) fn digital_w(&self) -> f64 {
        self.vco_w
            + self.buffer_logic_w
            + self.saff_w
            + self.retime_xor_w
            + self.clock_w
            + self.dac_w
            + self.wire_w
            + self.leakage_w
    }

    /// Total analog power (the "Analog" wedge).
    pub(crate) fn analog_w(&self) -> f64 {
        self.resistor_network_w + self.buffer_bias_w
    }

    /// Total power.
    pub fn total_w(&self) -> f64 {
        self.digital_w() + self.analog_w()
    }

    /// Digital fraction of total (0–1).
    pub fn digital_fraction(&self) -> f64 {
        self.digital_w() / self.total_w()
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} mW total ({:.0}% digital / {:.0}% analog)",
            self.total_w() * 1e3,
            100.0 * self.digital_fraction(),
            100.0 * (1.0 - self.digital_fraction())
        )
    }
}

/// Estimates power from a simulation's activity counters.
///
/// `wire_cap_f` is the total extracted wire capacitance (0 for
/// schematic-level estimates); `leakage_nw` the summed cell leakage from
/// the catalog.
///
/// # Panics
///
/// Panics if the activity records no simulated time.
pub fn estimate(
    spec: &AdcSpec,
    activity: &Activity,
    wire_cap_f: f64,
    leakage_nw: f64,
) -> PowerBreakdown {
    assert!(activity.duration_s > 0.0, "activity has no duration");
    let t = activity.duration_s;
    let vdd = spec.tech.vdd().value();
    let catalog = spec.tech.catalog();
    let energy = |class: CellClass, drive: DriveStrength| -> f64 {
        catalog
            .cell_for(class, drive)
            .expect("catalog covers all classes")
            .switch_energy_fj()
            * 1e-15
    };

    let e_inv1 = energy(CellClass::Inverter, DriveStrength::X1);
    let e_inv2 = energy(CellClass::Inverter, DriveStrength::X2);
    let e_nor3 = energy(CellClass::Nor3, DriveStrength::X4);
    let e_nor2 = energy(CellClass::Nor2, DriveStrength::X1);
    let e_xor = energy(CellClass::Xor2, DriveStrength::X1);
    let e_latch = energy(CellClass::Latch, DriveStrength::X1);
    let e_buf4 = energy(CellClass::Buffer, DriveStrength::X4);

    // The VCO inverters swing to the control-node voltage, not VDD.
    let vctrl_sq = (spec.vctrl_cm_v / vdd).powi(2);
    // Buffers run from VBUF ≈ half supply.
    let vbuf_sq = 0.55f64.powi(2);

    // Each counted VCO edge is one tap transition; every stage has two
    // differential nodes toggling at the same rate.
    let vco_transitions = activity.vco_edges as f64 * spec.vco_stages as f64 * 2.0;
    let vco_w = vco_transitions * e_inv1 * vctrl_sq / t;

    // Buffers follow the last-stage outputs: 4 X2 inverters per buffer,
    // two buffers per slice, toggling at the VCO output rate. Tap edges
    // per VCO pair = vco_edges / slices; buffer transitions ≈ 4 × that.
    let buffer_logic_w = activity.vco_edges as f64 * 4.0 * e_inv2 * vbuf_sq / t;

    // SAFF: each decision exercises the NOR3 pair and the SR latch.
    let saff_w = activity.comparator_decisions as f64 * (2.0 * e_nor3 + e_nor2) / t;

    // XOR + retiming latch + DB inverter toggle with the slice bit.
    let retime_xor_w = activity.d_toggles as f64 * (e_xor + e_latch + e_inv2) / t;

    // Clock: the spine buffers plus per-slice clock loads (two comparator
    // CLK pins, the clock inverter, the latch enable) every cycle.
    let clk_loads_per_cycle = 3.0 * e_buf4 + spec.n_slices as f64 * 4.0 * e_inv1;
    let clock_w = activity.clk_cycles as f64 * 2.0 * clk_loads_per_cycle / t;

    // DAC inverters swing the full reference.
    let dac_w = activity.dac_toggles as f64 * 2.0 * e_inv2 * (spec.vrefp_v / vdd).powi(2) / t;

    // Wire capacitance switches at a blended activity: clock nets at fs,
    // VCO nets at f0, data at bit-toggle rate. Use a 0.15 activity factor
    // at the clock rate.
    let wire_w = wire_cap_f * vdd * vdd * spec.fs_hz * 0.15;

    let leakage_w = leakage_nw * 1e-9;

    let resistor_network_w = activity.resistor_energy_j / t;
    // One buffer per ring tap: 2 VCOs × stages taps per slice.
    let n_buffers = (2 * spec.vco_stages * spec.n_slices) as f64;
    let buffer_bias_w = n_buffers * BUFFER_BIAS_A_PER_V * vdd * vdd;

    PowerBreakdown {
        vco_w: vco_w * DIGITAL_CALIBRATION,
        buffer_logic_w: buffer_logic_w * DIGITAL_CALIBRATION,
        saff_w: saff_w * DIGITAL_CALIBRATION,
        retime_xor_w: retime_xor_w * DIGITAL_CALIBRATION,
        clock_w: clock_w * DIGITAL_CALIBRATION,
        dac_w: dac_w * DIGITAL_CALIBRATION,
        wire_w: wire_w * DIGITAL_CALIBRATION,
        leakage_w,
        resistor_network_w,
        buffer_bias_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::AdcSimulator;

    fn activity_for(spec: &AdcSpec) -> Activity {
        let mut s = spec.clone();
        s.steps_per_cycle = 8;
        let mut sim = AdcSimulator::new(s).unwrap();
        sim.run_metered(|_| 0.0, 1024).1
    }

    #[test]
    fn forty_nm_power_is_milliwatt_class() {
        let spec = AdcSpec::paper_40nm().unwrap();
        let activity = activity_for(&spec);
        let p = estimate(&spec, &activity, 0.0, 500.0);
        let total_mw = p.total_w() * 1e3;
        assert!(
            (0.8..2.5).contains(&total_mw),
            "40 nm total should be mW-class like the paper's 1.37 mW: {total_mw}"
        );
    }

    #[test]
    fn power_rises_at_older_node() {
        let s40 = AdcSpec::paper_40nm().unwrap();
        let s180 = AdcSpec::paper_180nm().unwrap();
        let p40 = estimate(&s40, &activity_for(&s40), 0.0, 500.0);
        let p180 = estimate(&s180, &activity_for(&s180), 0.0, 50.0);
        let ratio = p180.total_w() / p40.total_w();
        assert!(
            (2.0..8.0).contains(&ratio),
            "paper sees 4.0x more power at 180 nm; got {ratio:.2}x"
        );
        // Digital grows faster than analog → digital share rises with the
        // older node (73% at 40 nm vs 88% at 180 nm in Fig. 15).
        assert!(
            p180.digital_fraction() > p40.digital_fraction(),
            "digital share must rise at the older node: {} vs {}",
            p180.digital_fraction(),
            p40.digital_fraction()
        );
    }

    #[test]
    fn digital_dominates_at_both_nodes() {
        for spec in [
            AdcSpec::paper_40nm().unwrap(),
            AdcSpec::paper_180nm().unwrap(),
        ] {
            let p = estimate(&spec, &activity_for(&spec), 0.0, 500.0);
            let frac = p.digital_fraction();
            assert!(
                (0.5..0.95).contains(&frac),
                "digital fraction out of band at {}: {frac}",
                spec.tech.id()
            );
        }
    }

    #[test]
    fn wire_cap_adds_to_digital() {
        let spec = AdcSpec::paper_40nm().unwrap();
        let activity = activity_for(&spec);
        let without = estimate(&spec, &activity, 0.0, 0.0);
        let with = estimate(&spec, &activity, 100e-15, 0.0);
        assert!(with.digital_w() > without.digital_w());
        assert_eq!(with.analog_w(), without.analog_w());
        assert!(with.wire_w > 0.0);
    }

    #[test]
    fn breakdown_sums_consistently() {
        let spec = AdcSpec::paper_40nm().unwrap();
        let p = estimate(&spec, &activity_for(&spec), 10e-15, 300.0);
        let sum = p.vco_w
            + p.buffer_logic_w
            + p.saff_w
            + p.retime_xor_w
            + p.clock_w
            + p.dac_w
            + p.wire_w
            + p.leakage_w
            + p.resistor_network_w
            + p.buffer_bias_w;
        assert!((sum - p.total_w()).abs() < 1e-12);
        assert!(p.digital_fraction() > 0.0 && p.digital_fraction() < 1.0);
        assert!(p.to_string().contains("mW total"));
    }

    #[test]
    #[should_panic(expected = "no duration")]
    fn empty_activity_panics() {
        let spec = AdcSpec::paper_40nm().unwrap();
        let _ = estimate(&spec, &Activity::default(), 0.0, 0.0);
    }
}
