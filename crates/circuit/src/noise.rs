//! Reproducible stochastic plumbing: a seeded RNG with the Gaussian and
//! band-limited samplers the behavioral models need.

use std::fmt;
use std::sync::OnceLock;
use tdsigma_tech::Rng64;

/// The simulation RNG. A thin wrapper over a seeded [`Rng64`]
/// (xoshiro256\*\*) that adds Gaussian sampling (a 256-layer
/// Marsaglia–Tsang ziggurat) so simulations are exactly reproducible
/// from a `u64` seed.
pub struct SimRng {
    inner: Rng64,
    seed: u64,
    /// The ziggurat tables, looked up once at construction so no draw
    /// pays for the process-wide lazy initialisation check.
    zig: &'static Ziggurat,
}

/// Number of ziggurat layers: the low 8 bits of a draw pick one.
const ZIG_LAYERS: usize = 256;
/// Start of the normal tail for 256 layers (Marsaglia & Tsang, 2000).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every layer, tail included, under the unnormalised density
/// `exp(-x²/2)`.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// Layer edges of the ziggurat. `x[i]` is the right edge of layer `i`
/// (`x[0] = v/f(r)` is the virtual width of the base strip, `x[1] = r`,
/// decreasing to `x[256] = 0`) and `f[i] = exp(-x[i]²/2)`.
struct Ziggurat {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

/// The tables, built once per process by the standard recurrence: each
/// layer `i ≥ 1` spans `f[i]..f[i+1]` vertically and has area `v`, so
/// `f[i+1] = f[i] + v/x[i]`.
#[inline]
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        let mut f = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..ZIG_LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + pdf(x[i])).ln()).sqrt();
        }
        for i in 0..ZIG_LAYERS {
            f[i] = pdf(x[i]);
        }
        f[ZIG_LAYERS] = 1.0;
        Ziggurat { x, f }
    })
}

/// One ziggurat attempt's draw from `inner`: `(layer, u, x = u·x[layer])`.
#[inline]
fn zig_attempt(inner: &mut Rng64, zig: &Ziggurat) -> (usize, f64, f64) {
    let bits = inner.next_u64();
    let layer = (bits & 0xff) as usize;
    let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
    (layer, u, u * zig.x[layer])
}

impl SimRng {
    /// Creates an RNG from a seed. The same seed always produces the same
    /// simulation.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Rng64::seed_from_u64(seed),
            seed,
            zig: ziggurat(),
        }
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen_f64()
    }

    /// Standard-normal sample (mean 0, σ 1) from a 256-layer ziggurat.
    ///
    /// Stream consumption, which the simulator's draw-order contract
    /// relies on: each attempt takes one `next_u64`, whose low 8 bits
    /// pick the layer and whose high 53 bits give a signed uniform in
    /// `[-1, 1)`. About 98.5 % of attempts return right there. An attempt
    /// in a layer's wedge takes one more uniform and an `exp`, and starts
    /// a fresh attempt if it is rejected; one in the base layer beyond
    /// `r` draws uniform pairs from the exponential tail until one is
    /// accepted.
    ///
    /// The first attempt's rectangle test is inlined into the caller;
    /// everything after it lives in the cold `normal_slow`, which
    /// finishes that same attempt, so the split consumes the stream
    /// exactly as one loop would.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let zig = self.zig;
        let (layer, u, x) = zig_attempt(&mut self.inner, zig);
        if x.abs() < zig.x[layer + 1] {
            return x;
        }
        self.normal_slow(zig, layer, u, x)
    }

    /// The rest of an attempt whose rectangle test failed (tail or
    /// wedge), then fresh attempts until one is accepted.
    #[cold]
    fn normal_slow(&mut self, zig: &Ziggurat, mut layer: usize, mut u: f64, mut x: f64) -> f64 {
        loop {
            if layer == 0 {
                return self.normal_tail(u < 0.0);
            }
            // Wedge: a uniform height measured down from the layer's top
            // edge `f[layer + 1]`, accepted under the density.
            let y = zig.f[layer + 1] + (zig.f[layer] - zig.f[layer + 1]) * self.inner.gen_f64();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
            (layer, u, x) = zig_attempt(&mut self.inner, zig);
            if x.abs() < zig.x[layer + 1] {
                return x;
            }
        }
    }

    /// A normal conditioned on `|x| > r`, by Marsaglia's exponential
    /// pair: `x = -ln(u₁)/r`, `y = -ln(u₂)`, accepted when `2y > x²`.
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // `1 - u` lies in (0, 1], so both logarithms are finite.
            let x = -(1.0 - self.inner.gen_f64()).ln() / ZIG_R;
            let y = -(1.0 - self.inner.gen_f64()).ln();
            if 2.0 * y > x * x {
                return if negative { -(ZIG_R + x) } else { ZIG_R + x };
            }
        }
    }

    /// Gaussian sample with explicit standard deviation.
    #[inline]
    pub fn gaussian(&mut self, sigma: f64) -> f64 {
        self.standard_normal() * sigma
    }

    /// Fills `out` with standard normals: exactly the values, and the
    /// stream consumption, of `out.len()` repeated
    /// [`Self::standard_normal`] calls.
    ///
    /// The generator state is copied into a local for the fill, so it
    /// stays in registers across draws instead of making a store and a
    /// reload per draw; it is handed back to `self` around the rare slow
    /// path and at the end. The tables are read through one hoisted
    /// reference.
    #[inline]
    pub fn fill_standard_normals(&mut self, out: &mut [f64]) {
        let zig = self.zig;
        let mut inner = self.inner.clone();
        for z in out {
            let (layer, u, x) = zig_attempt(&mut inner, zig);
            *z = if x.abs() < zig.x[layer + 1] {
                x
            } else {
                self.inner = inner;
                let x = self.normal_slow(zig, layer, u, x);
                inner = self.inner.clone();
                x
            };
        }
        self.inner = inner;
    }
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("seed", &self.seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, SQRT_2};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(17);
        let mut b = SimRng::new(17);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 2);
    }

    #[test]
    fn fill_matches_scalar_draws_exactly() {
        // The fill must consume the stream identically to scalar calls
        // at every length.
        for len in [0usize, 1, 2, 3, 7, 16, 63, 64, 65, 200] {
            let mut scalar = SimRng::new(1234 + len as u64);
            let mut batched = SimRng::new(1234 + len as u64);
            let expect: Vec<f64> = (0..len).map(|_| scalar.standard_normal()).collect();
            let mut got = vec![0.0; len];
            batched.fill_standard_normals(&mut got);
            for (e, g) in expect.iter().zip(&got) {
                assert_eq!(e.to_bits(), g.to_bits(), "len {len}");
            }
            // Both RNGs must agree on every subsequent draw (uniform
            // stream fully in sync).
            for _ in 0..5 {
                assert_eq!(
                    scalar.standard_normal().to_bits(),
                    batched.standard_normal().to_bits()
                );
                assert_eq!(scalar.uniform().to_bits(), batched.uniform().to_bits());
            }
        }
        // Back-to-back fills continue one stream.
        let mut scalar = SimRng::new(77);
        let mut batched = SimRng::new(77);
        let expect: Vec<f64> = (0..8).map(|_| scalar.standard_normal()).collect();
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 5];
        batched.fill_standard_normals(&mut a);
        batched.fill_standard_normals(&mut b);
        let got: Vec<f64> = a.into_iter().chain(b).collect();
        for (e, g) in expect.iter().zip(&got) {
            assert_eq!(e.to_bits(), g.to_bits());
        }
    }

    /// The sampler as one loop, frozen from before the inlined fast
    /// path was split off. `paths` counts returns from the rectangle,
    /// the wedge and the tail.
    fn standard_normal_one_loop(rng: &mut SimRng, paths: &mut [u64; 3]) -> f64 {
        let zig = ziggurat();
        loop {
            let bits = rng.inner.next_u64();
            let layer = (bits & 0xff) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            let x = u * zig.x[layer];
            if x.abs() < zig.x[layer + 1] {
                paths[0] += 1;
                return x;
            }
            if layer == 0 {
                paths[2] += 1;
                loop {
                    let t = -(1.0 - rng.inner.gen_f64()).ln() / ZIG_R;
                    let y = -(1.0 - rng.inner.gen_f64()).ln();
                    if 2.0 * y > t * t {
                        return if u < 0.0 { -(ZIG_R + t) } else { ZIG_R + t };
                    }
                }
            }
            let y = zig.f[layer + 1] + (zig.f[layer] - zig.f[layer + 1]) * rng.inner.gen_f64();
            if y < (-0.5 * x * x).exp() {
                paths[1] += 1;
                return x;
            }
        }
    }

    #[test]
    fn split_sampler_matches_the_one_loop_sampler_bit_for_bit() {
        for seed in [1u64, 2, 3, 2017, 0x5eed_cafe] {
            let mut split = SimRng::new(seed);
            let mut frozen = SimRng::new(seed);
            let mut paths = [0u64; 3];
            for k in 0..1_000_000 {
                let want = standard_normal_one_loop(&mut frozen, &mut paths);
                let got = split.standard_normal();
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} draw {k}");
            }
            // Both slow paths ran: ≈1.5 % wedge attempts and ≈250 tail
            // draws per 10⁶ are expected.
            assert!(paths[1] > 1000, "seed {seed}: wedge hit {} times", paths[1]);
            assert!(paths[2] > 100, "seed {seed}: tail hit {} times", paths[2]);
            assert_eq!(
                split.inner.next_u64(),
                frozen.inner.next_u64(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fill_matches_scalar_draws_through_the_wedge_and_the_tail() {
        // The fill keeps the generator state in a local and hands it
        // back around the slow path, so every position of a slow draw
        // in a fill must be checked: first, last, and the tail. Seeds
        // are found by replaying the frozen one-loop sampler, whose
        // counters say which path returned each draw.
        const LEN: usize = 8;
        let path_of = |seed: u64| -> [usize; LEN] {
            let mut rng = SimRng::new(seed);
            std::array::from_fn(|_| {
                let mut paths = [0u64; 3];
                standard_normal_one_loop(&mut rng, &mut paths);
                paths.iter().position(|&p| p == 1).expect("one path")
            })
        };
        // [wedge first, wedge last, tail anywhere]
        let mut seeds: [Option<u64>; 3] = [None; 3];
        for seed in 0..200_000u64 {
            let paths = path_of(seed);
            let hits = [paths[0] == 1, paths[LEN - 1] == 1, paths.contains(&2)];
            for (slot, hit) in seeds.iter_mut().zip(hits) {
                if hit && slot.is_none() {
                    *slot = Some(seed);
                }
            }
            if seeds.iter().all(Option::is_some) {
                break;
            }
        }
        for seed in seeds.map(|s| s.expect("a seed for every slow path")) {
            // One fill of LEN, and the same draws as fills split around
            // every position.
            for split in 0..=LEN {
                let mut scalar = SimRng::new(seed);
                let mut batched = SimRng::new(seed);
                let want: Vec<f64> = (0..LEN).map(|_| scalar.standard_normal()).collect();
                let mut got = [0.0; LEN];
                let (a, b) = got.split_at_mut(split);
                batched.fill_standard_normals(a);
                batched.fill_standard_normals(b);
                for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "seed {seed} split {split} draw {k}"
                    );
                }
                // The streams stay in step afterwards.
                for _ in 0..5 {
                    assert_eq!(
                        scalar.standard_normal().to_bits(),
                        batched.standard_normal().to_bits()
                    );
                    assert_eq!(scalar.uniform().to_bits(), batched.uniform().to_bits());
                }
                assert_eq!(scalar.inner.next_u64(), batched.inner.next_u64());
            }
        }
    }

    /// Complementary error function (the Numerical Recipes Chebyshev
    /// fit, fractional error below 1.2e-7 everywhere).
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let c = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ];
        let poly = c.iter().rev().fold(0.0, |acc, &ci| acc * t + ci);
        let r = t * (-z * z + poly).exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    /// Standard normal CDF Φ.
    fn phi(x: f64) -> f64 {
        0.5 * erfc(-x / SQRT_2)
    }

    #[test]
    fn ziggurat_tables_close_the_recurrence() {
        let zig = ziggurat();
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges decrease");
        assert_eq!(zig.x[ZIG_LAYERS], 0.0);
        // The recurrence fixes layers 1..=254; the top layer's area
        // falls out of it and must still be `v`.
        let top = zig.x[ZIG_LAYERS - 1] * (1.0 - zig.f[ZIG_LAYERS - 1]);
        assert!((top / ZIG_V - 1.0).abs() < 1e-6, "top layer area {top}");
        // Base strip: the rectangle up to r plus the tail beyond it,
        // ∫_r^∞ exp(-x²/2) dx = √(π/2)·erfc(r/√2).
        let base = ZIG_R * zig.f[1] + (PI / 2.0).sqrt() * erfc(ZIG_R / SQRT_2);
        assert!((base / ZIG_V - 1.0).abs() < 1e-6, "base strip area {base}");
    }

    #[test]
    fn normal_moments_ks_and_lag1_autocorrelation() {
        // 2²⁰ draws from a fixed seed. Each moment's tolerance is about
        // five standard errors of its estimator under a true N(0, 1):
        // √(1/n) for the mean, √(2/n) the variance, √(6/n) the skewness
        // and √(24/n) the excess kurtosis.
        let n = 1usize << 20;
        let nf = n as f64;
        let mut rng = SimRng::new(2017);
        let mut z: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = z.iter().sum::<f64>() / nf;
        let central = |k: i32| z.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / nf;
        let var = central(2);
        let skew = central(3) / var.powf(1.5);
        let kurt = central(4) / (var * var) - 3.0;
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.007, "variance {var}");
        assert!(skew.abs() < 0.012, "skewness {skew}");
        assert!(kurt.abs() < 0.025, "excess kurtosis {kurt}");

        // Lag-1 autocorrelation of independent draws is ≈ N(0, 1/n).
        let lag1 = z
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / ((nf - 1.0) * var);
        assert!(lag1.abs() < 3.0 / nf.sqrt(), "lag-1 autocorrelation {lag1}");

        // Kolmogorov–Smirnov against Φ, below the asymptotic 1 %
        // critical value 1.628/√n.
        z.sort_by(f64::total_cmp);
        let d = z
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = phi(x);
                (cdf - i as f64 / nf).max((i + 1) as f64 / nf - cdf)
            })
            .fold(0.0, f64::max);
        assert!(d < 1.628 / nf.sqrt(), "KS statistic {d}");
    }

    #[test]
    fn tail_beyond_r_has_the_normal_mass() {
        // 4·10⁶ draws expect ≈ 1032 beyond |x| > r with σ ≈ 32, so the
        // 10 % band is ≈ 3σ wide, and a dead tail path would leave the
        // count near zero.
        let n = 4_000_000u32;
        let mut rng = SimRng::new(42);
        let (mut beyond, mut positive) = (0u32, 0u32);
        for _ in 0..n {
            let x = rng.standard_normal();
            if x.abs() > ZIG_R {
                beyond += 1;
                positive += u32::from(x > 0.0);
            }
        }
        // 2·(1 − Φ(r)) = erfc(r/√2).
        let expect = f64::from(n) * erfc(ZIG_R / SQRT_2);
        let ratio = f64::from(beyond) / expect;
        assert!(
            (ratio - 1.0).abs() < 0.10,
            "{beyond} draws beyond r, expected {expect:.0}"
        );
        // Both signs of the tail are reachable, in like measure.
        let share = f64::from(positive) / f64::from(beyond);
        assert!((0.4..0.6).contains(&share), "positive tail share {share}");
    }

    #[test]
    fn gaussian_sigma_scales() {
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let var = (0..n)
            .map(|_| rng.gaussian(3.0))
            .map(|x| x * x)
            .sum::<f64>()
            / n as f64;
        assert!((var - 9.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn debug_shows_seed_not_state() {
        let rng = SimRng::new(42);
        assert_eq!(format!("{rng:?}"), "SimRng { seed: 42 }");
    }
}
