//! Static linearity metrology: INL from DC transfer sweeps.
//!
//! Apply DC levels, record the mean output code, fit the best straight
//! line, report the worst deviation in LSB. This is the lab method for
//! oversampling converters, whose "code" is an average.

use std::fmt;

/// One point of a DC transfer sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPoint {
    /// Applied input (any unit; volts in practice).
    pub input: f64,
    /// Measured mean output code.
    pub output: f64,
}

/// Result of a linearity analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct InlReport {
    /// Per-point INL in LSB (same order as the sweep).
    pub inl_lsb: Vec<f64>,
    /// Worst absolute INL, LSB.
    pub max_inl_lsb: f64,
    /// Best-fit gain (codes per input unit).
    pub gain: f64,
    /// Best-fit offset (codes).
    pub offset: f64,
    /// LSB size used for normalisation (codes).
    pub lsb: f64,
}

impl fmt::Display for InlReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "INL {:.3} LSB max over {} points (gain {:.4}, offset {:.2})",
            self.max_inl_lsb,
            self.inl_lsb.len(),
            self.gain,
            self.offset
        )
    }
}

/// Computes best-fit-line INL from a DC transfer sweep.
///
/// `lsb` is the output-code step corresponding to one LSB (for a
/// `levels`-level converter spanning the sweep, `(max−min)/(levels−1)`).
///
/// # Panics
///
/// Panics if fewer than 3 points are given or `lsb` is not positive.
pub fn transfer_inl(points: &[TransferPoint], lsb: f64) -> InlReport {
    assert!(points.len() >= 3, "need at least 3 sweep points");
    assert!(lsb > 0.0, "LSB must be positive");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.input).sum();
    let sy: f64 = points.iter().map(|p| p.output).sum();
    let sxx: f64 = points.iter().map(|p| p.input * p.input).sum();
    let sxy: f64 = points.iter().map(|p| p.input * p.output).sum();
    let gain = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let offset = (sy - gain * sx) / n;
    let inl_lsb: Vec<f64> = points
        .iter()
        .map(|p| (p.output - (gain * p.input + offset)) / lsb)
        .collect();
    let max_inl_lsb = inl_lsb.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    InlReport {
        inl_lsb,
        max_inl_lsb,
        gain,
        offset,
        lsb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_transfer_has_zero_inl() {
        let points: Vec<TransferPoint> = (0..21)
            .map(|i| TransferPoint {
                input: i as f64 * 0.1 - 1.0,
                output: 16.0 + 8.0 * (i as f64 * 0.1 - 1.0),
            })
            .collect();
        let report = transfer_inl(&points, 1.0);
        assert!(report.max_inl_lsb < 1e-9, "{report}");
        assert!((report.gain - 8.0).abs() < 1e-9);
        assert!((report.offset - 16.0).abs() < 1e-9);
    }

    #[test]
    fn bowed_transfer_shows_inl() {
        // Quadratic bow of 0.5 LSB at the centre.
        let points: Vec<TransferPoint> = (0..41)
            .map(|i| {
                let x = i as f64 / 40.0 * 2.0 - 1.0;
                TransferPoint {
                    input: x,
                    output: 16.0 + 16.0 * x + 0.5 * (1.0 - x * x),
                }
            })
            .collect();
        let report = transfer_inl(&points, 1.0);
        assert!(
            (report.max_inl_lsb - 0.33).abs() < 0.1,
            "bow minus best-fit ≈ 1/3 LSB: {report}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 3 sweep points")]
    fn too_few_points_panics() {
        let _ = transfer_inl(
            &[
                TransferPoint {
                    input: 0.0,
                    output: 0.0,
                },
                TransferPoint {
                    input: 1.0,
                    output: 1.0,
                },
            ],
            1.0,
        );
    }

    #[test]
    fn displays() {
        let points: Vec<TransferPoint> = (0..5)
            .map(|i| TransferPoint {
                input: i as f64,
                output: i as f64,
            })
            .collect();
        assert!(transfer_inl(&points, 1.0).to_string().contains("INL"));
    }
}
