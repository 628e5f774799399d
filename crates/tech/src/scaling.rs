//! Scaling-trend extraction — the data behind the paper's Fig. 1.
//!
//! [`ScalingTrend`] selects one quantity from the trend table and produces
//! the `(gate length, value)` series that Fig. 1a (VDD, intrinsic gain) and
//! Fig. 1b (fT, FO4 delay) plot, plus summary statistics used in the
//! experiment harness.

use crate::itrs::NODE_TABLE;
use std::fmt;

/// One quantity whose trend across technology nodes can be extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingTrend {
    /// Power-supply voltage (Fig. 1a, right axis).
    SupplyVoltage,
    /// Transistor intrinsic gain `gm·ro` (Fig. 1a, left axis).
    IntrinsicGain,
    /// Transit frequency fT (Fig. 1b, left axis).
    TransitFrequency,
    /// Fan-out-of-4 delay (Fig. 1b, right axis).
    Fo4Delay,
    /// Switching energy of a minimum inverter (derived; drives Table 3 power).
    SwitchEnergy,
    /// Standard-cell row height (derived; drives Table 3 area).
    RowHeight,
}

impl ScalingTrend {
    /// Human-readable axis label with unit.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ScalingTrend::SupplyVoltage => "Power supply [V]",
            ScalingTrend::IntrinsicGain => "Transistor intrinsic gain",
            ScalingTrend::TransitFrequency => "fT [GHz]",
            ScalingTrend::Fo4Delay => "FO4 delay [ps]",
            ScalingTrend::SwitchEnergy => "Inverter switching energy [fJ]",
            ScalingTrend::RowHeight => "Std-cell row height [nm]",
        }
    }

    /// Extracts the series across all table nodes, oldest first.
    pub fn series(self) -> Vec<TrendPoint> {
        NODE_TABLE
            .iter()
            .map(|r| TrendPoint {
                gate_length_nm: r.gate_length_nm,
                value: match self {
                    ScalingTrend::SupplyVoltage => r.vdd_v,
                    ScalingTrend::IntrinsicGain => r.intrinsic_gain,
                    ScalingTrend::TransitFrequency => r.ft_ghz,
                    ScalingTrend::Fo4Delay => r.fo4_ps,
                    ScalingTrend::SwitchEnergy => r.inv_cin_ff * 2.5 * r.vdd_v * r.vdd_v,
                    ScalingTrend::RowHeight => r.m1_pitch_nm * r.row_tracks,
                },
            })
            .collect()
    }

    /// Ratio of the oldest node's value to the newest node's value.
    ///
    /// For FO4 this is ≈ 23× (140 ps / 6 ps), quantifying the timing-
    /// resolution improvement the time-domain architecture exploits.
    pub fn improvement_ratio(self) -> f64 {
        let series = self.series();
        let first = series.first().expect("table is non-empty").value;
        let last = series.last().expect("table is non-empty").value;
        first / last
    }
}

impl fmt::Display for ScalingTrend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One `(gate length, value)` sample of a scaling trend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendPoint {
    /// Node gate length in nanometres.
    pub gate_length_nm: f64,
    /// Trend value in the unit given by [`ScalingTrend::label`].
    pub value: f64,
}

impl fmt::Display for TrendPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} nm, {:.3})", self.gate_length_nm, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_endpoints() {
        let vdd = ScalingTrend::SupplyVoltage.series();
        assert_eq!(vdd.first().unwrap().value, 5.0);
        assert_eq!(vdd.last().unwrap().value, 1.0);
        let gain = ScalingTrend::IntrinsicGain.series();
        assert_eq!(gain.first().unwrap().value, 180.0);
        assert_eq!(gain.last().unwrap().value, 6.0);
    }

    #[test]
    fn fig1b_endpoints() {
        let ft = ScalingTrend::TransitFrequency.series();
        assert_eq!(ft.first().unwrap().value, 16.0);
        assert_eq!(ft.last().unwrap().value, 400.0);
        let fo4 = ScalingTrend::Fo4Delay.series();
        assert_eq!(fo4.first().unwrap().value, 140.0);
        assert_eq!(fo4.last().unwrap().value, 6.0);
    }

    #[test]
    fn improvement_ratios_match_paper_narrative() {
        // Timing resolution improves ~23x from 500 nm to 22 nm.
        let fo4 = ScalingTrend::Fo4Delay.improvement_ratio();
        assert!(fo4 > 20.0 && fo4 < 30.0, "got {fo4}");
        // Intrinsic gain degrades 30x (the VD-AMS crisis).
        let gain = ScalingTrend::IntrinsicGain.improvement_ratio();
        assert!(gain > 25.0 && gain < 35.0, "got {gain}");
    }

    #[test]
    fn series_has_one_point_per_node() {
        for trend in [
            ScalingTrend::SupplyVoltage,
            ScalingTrend::IntrinsicGain,
            ScalingTrend::TransitFrequency,
            ScalingTrend::Fo4Delay,
            ScalingTrend::SwitchEnergy,
            ScalingTrend::RowHeight,
        ] {
            assert_eq!(trend.series().len(), NODE_TABLE.len());
        }
    }

    #[test]
    fn derived_trends_are_monotonic() {
        for trend in [ScalingTrend::SwitchEnergy, ScalingTrend::RowHeight] {
            let s = trend.series();
            for pair in s.windows(2) {
                assert!(
                    pair[1].value < pair[0].value,
                    "{trend} must shrink monotonically: {} then {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn labels_are_nonempty() {
        assert!(ScalingTrend::Fo4Delay.to_string().contains("FO4"));
        assert!(!ScalingTrend::RowHeight.label().is_empty());
    }
}
