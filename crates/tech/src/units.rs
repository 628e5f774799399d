//! Unit newtypes and physical constants.
//!
//! `Technology` returns the gate length and the supply typed
//! ([`Nanometers`], [`Volts`]), so a length cannot be passed where a
//! voltage is meant; the rest of the workspace uses unit-suffixed names.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Returns the raw `f64` value.
            pub fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                Self(v)
            }
        }
    };
}

unit_newtype!(
    /// A length in nanometres.
    Nanometers,
    "nm"
);
unit_newtype!(
    /// A voltage in volts.
    Volts,
    "V"
);

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Nominal junction temperature in kelvin used for thermal-noise figures.
pub const NOMINAL_TEMPERATURE_K: f64 = 300.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let a = Volts(1.0) + Volts(0.2);
        assert!((a.value() - 1.2).abs() < 1e-12);
        let b = a * 2.0;
        assert!((b.value() - 2.4).abs() < 1e-12);
        let c = b / 2.0;
        assert!((c.value() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(Nanometers(40.0).to_string(), "40 nm");
        assert_eq!(Volts(1.1).to_string(), "1.1 V");
    }
}
