//! In-house radix-2 decimation-in-time FFT.
//!
//! The offline crate set has no FFT library, so this module provides one:
//! an iterative, in-place, power-of-two complex FFT with its inverse, plus a
//! real-input convenience wrapper. Accuracy is validated in the tests
//! against a direct O(n²) DFT, Parseval's theorem, and analytic transforms.

use std::f64::consts::PI;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A complex number, kept minimal on purpose (only what the FFT and
/// spectrum code need).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub(crate) const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}` — a unit phasor at angle `theta` radians.
    pub(crate) fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Complex conjugate; the tests build Hermitian spectra with it.
    #[cfg(test)]
    pub(crate) fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplies by a real scalar.
    pub(crate) fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

/// In-place forward FFT of a power-of-two-length buffer.
///
/// Uses the convention `X[k] = Σ x[n]·e^{-2πi·kn/N}` (no normalisation on
/// the forward transform).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (including zero).
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT (normalised by `1/N`).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (including zero).
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = v.scale(1.0 / n);
    }
}

/// Forward FFT of real samples; returns the full complex spectrum.
///
/// # Panics
///
/// Panics if `samples.len()` is not a power of two (including zero).
pub fn fft_real(samples: &[f64]) -> Vec<Complex> {
    let mut buf: Vec<Complex> = samples.iter().map(|&x| Complex::from_real(x)).collect();
    fft_in_place(&mut buf);
    buf
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && n > 0,
        "FFT length must be a power of two, got {n}"
    );
    bit_reverse(data);
    // Iterative butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::from_real(1.0);
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

fn bit_reverse(data: &mut [Complex]) {
    let n = data.len();
    if n <= 1 {
        return; // trivial permutation; also avoids a 64-bit shift below
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// Reusable state for repeated forward FFTs: the twiddle factors for each
/// butterfly stage plus a conversion buffer for real input, so the per-call
/// cost is the butterflies alone — no allocation, no `cis` evaluations.
///
/// # Bit-exactness
///
/// The cached twiddles are produced by the *same* repeated-multiplication
/// chain (`w ← w·wlen`, starting from `1`) that [`fft_in_place`] evaluates
/// inline, not by fresh `cis(j·ang)` calls — the chained products and the
/// directly-evaluated phasors differ in the last few ulps, and the golden
/// fixtures check spectra to the bit. Every transform through a scratch is
/// therefore bit-identical to the allocating free functions.
///
/// The scratch is lazily sized: the first call at a given length builds the
/// table (n−1 twiddles, stage-major), and subsequent calls at that length
/// reuse it. A call at a different length rebuilds.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    len: usize,
    twiddles: Vec<Complex>,
    buf: Vec<Complex>,
}

impl FftScratch {
    fn prepare(&mut self, n: usize) {
        if self.len == n {
            return;
        }
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT length must be a power of two, got {n}"
        );
        // Stage-major layout: stage `len` (2, 4, …, n) contributes its
        // len/2 running twiddles at offset len/2 − 1; total n − 1 entries.
        self.twiddles.clear();
        self.twiddles.reserve(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut w = Complex::from_real(1.0);
            for _ in 0..len / 2 {
                self.twiddles.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        self.len = n;
    }

    /// In-place forward FFT using the cached twiddles. Bit-identical to
    /// [`fft_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a power of two (including zero).
    pub(crate) fn fft_in_place(&mut self, data: &mut [Complex]) {
        self.prepare(data.len());
        bit_reverse(data);
        let n = data.len();
        let mut len = 2;
        let mut off = 0;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[off..off + half];
            let mut i = 0;
            while i < n {
                for j in 0..half {
                    let u = data[i + j];
                    let v = data[i + j + half] * stage[j];
                    data[i + j] = u + v;
                    data[i + j + half] = u - v;
                }
                i += len;
            }
            off += half;
            len <<= 1;
        }
    }

    /// Forward FFT of real samples into the scratch's internal buffer;
    /// returns the full complex spectrum as a borrow. Bit-identical to
    /// [`fft_real`] without its per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` is not a power of two (including zero).
    pub(crate) fn fft_real(&mut self, samples: &[f64]) -> &[Complex] {
        self.buf.clear();
        self.buf
            .extend(samples.iter().map(|&x| Complex::from_real(x)));
        let mut buf = std::mem::take(&mut self.buf);
        self.fft_in_place(&mut buf);
        self.buf = buf;
        &self.buf
    }
}

/// Direct O(n²) DFT, used as the reference implementation in tests and
/// available for odd-length buffers.
pub fn dft_reference(samples: &[Complex]) -> Vec<Complex> {
    let n = samples.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (i, &x) in samples.iter().enumerate() {
                acc = acc + x * Complex::cis(-2.0 * PI * (k * i) as f64 / n as f64);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!(
            (a - b).abs() < tol,
            "complex values differ: {a} vs {b} (tol {tol})"
        );
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::from_real(1.0);
        fft_in_place(&mut data);
        for v in &data {
            assert_close(*v, Complex::from_real(1.0), 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k = 5;
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&samples);
        // cos splits into bins k and n-k with magnitude n/2 each.
        assert!((spec[k].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (i, v) in spec.iter().enumerate() {
            if i != k && i != n - k {
                assert!(v.abs() < 1e-9, "leakage at bin {i}: {}", v.abs());
            }
        }
    }

    #[test]
    fn matches_reference_dft() {
        let n = 32;
        let samples: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut fast = samples.clone();
        fft_in_place(&mut fast);
        let slow = dft_reference(&samples);
        for (a, b) in fast.iter().zip(&slow) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let original: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let mut buf = original.clone();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        for (a, b) in buf.iter().zip(&original) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 256;
        let samples: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let time_energy: f64 = samples.iter().map(|x| x * x).sum();
        let spec = fft_real(&samples);
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn linearity() {
        let n = 16;
        let a: Vec<Complex> = (0..n).map(|i| Complex::from_real(i as f64)).collect();
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.0, (i as f64).cos()))
            .collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum.clone();
        fft_in_place(&mut fa);
        fft_in_place(&mut fb);
        fft_in_place(&mut fsum);
        for i in 0..n {
            assert_close(fsum[i], fa[i] + fb[i], 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut data = vec![Complex::ZERO; 12];
        fft_in_place(&mut data);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn empty_panics() {
        let mut data: Vec<Complex> = vec![];
        fft_in_place(&mut data);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert!((Complex::cis(PI / 2.0) - Complex::new(0.0, 1.0)).abs() < 1e-12);
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{}", Complex::new(1.0, 2.0)), "1+2i");
    }

    #[test]
    fn scratch_fft_is_bit_identical_to_free_functions() {
        // The cached-twiddle path must reproduce the allocating path to
        // the bit — the golden spectrum fixtures depend on it. One scratch
        // is reused across sizes (forcing re-plans) and across repeated
        // calls at the same size (exercising table reuse).
        let mut scratch = FftScratch::default();
        for n in [1usize, 2, 8, 64, 256, 1 << 12] {
            let samples: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37).sin() + 0.25 * (i as f64 * 2.1).cos())
                .collect();
            let reference = fft_real(&samples);
            for _ in 0..2 {
                let got = scratch.fft_real(&samples).to_vec();
                assert_eq!(scratch.len, n);
                assert_eq!(got.len(), reference.len());
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n}");
                }
            }
            // The complex in-place entry point too.
            let mut buf: Vec<Complex> = samples.iter().map(|&x| Complex::new(x, -x)).collect();
            let mut expect = buf.clone();
            fft_in_place(&mut expect);
            scratch.fft_in_place(&mut buf);
            for (a, b) in buf.iter().zip(&expect) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn scratch_rejects_non_power_of_two() {
        let mut scratch = FftScratch::default();
        let _ = scratch.fft_real(&[0.0; 12]);
    }

    #[test]
    fn large_transform_is_accurate() {
        // 2^16 points, the paper-scale FFT size.
        let n = 1 << 16;
        let k = 997;
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k as f64 * i as f64 / n as f64).sin())
            .collect();
        let spec = fft_real(&samples);
        assert!((spec[k].abs() - n as f64 / 2.0).abs() / (n as f64 / 2.0) < 1e-9);
    }
}
