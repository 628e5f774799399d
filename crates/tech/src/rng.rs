//! Dependency-free deterministic pseudo-random number generation.
//!
//! The workspace runs in fully offline environments, so it cannot rely on
//! the `rand` crate. This module provides the one generator every
//! stochastic subsystem (mismatch draws, phase noise, simulated-annealing
//! placement, Monte-Carlo sweeps) builds on: **xoshiro256\*\*** seeded via
//! **SplitMix64** — the exact construction recommended by Blackman &
//! Vigna (<https://prng.di.unimi.it/>). It is fast (four 64-bit words of
//! state, a handful of ALU ops per draw), passes BigCrush, and — crucially
//! for this repo — produces an identical stream for an identical `u64`
//! seed on every platform, which is what makes simulations, layouts and
//! job-cache keys reproducible.

/// A seedable xoshiro256\*\* generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: [u64; 4],
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed. The four state words are
    /// expanded with SplitMix64 so that nearby seeds (0, 1, 2, …) still
    /// yield decorrelated streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng64 { state }
    }

    /// The next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent deterministic sub-stream.
    ///
    /// The child generator is a pure function of the parent's *current*
    /// state and `stream_id` — the parent is not advanced — so a consumer
    /// can hand out any number of decorrelated streams (one per optimizer
    /// generation, one per candidate, …) without the streams sharing a
    /// sequence or depending on the order they are drawn from.
    pub fn split(&self, stream_id: u64) -> Rng64 {
        // Fold the four state words and the stream id into one 64-bit
        // seed. Each word gets a distinct rotation so permuted states
        // cannot alias, and the stream id is spread by a SplitMix64-style
        // odd multiplier before mixing.
        let folded = self.state[0]
            ^ self.state[1].rotate_left(17)
            ^ self.state[2].rotate_left(31)
            ^ self.state[3].rotate_left(47)
            ^ stream_id.wrapping_mul(0xA076_1D64_78BD_642F);
        Rng64::seed_from_u64(folded)
    }

    /// Uniform `f64` in `[0, 1)` with the full 53 bits of mantissa.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses the widening-multiply technique (Lemire) with a rejection step
    /// so the distribution is exactly uniform for every `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_range requires a non-empty range");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n && low < n.wrapping_neg() {
                // Fast path: no bias possible in this slot.
                return (m >> 64) as usize;
            }
            // Rejection threshold: 2^64 mod n.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }
}

/// The standard 64-bit FNV offset basis.
pub const FNV1A64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `data`, starting from `basis`. The one content hash
/// of the workspace: job keys, cache and journal checksums, wire
/// attestations, fault-injection streams and the engine fingerprint all
/// build on it, each under its own basis so their digests never collide
/// by construction. Chaining works by passing a previous digest as the
/// next basis.
pub fn fnv1a64(data: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b"", FNV1A64_BASIS), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a", FNV1A64_BASIS), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar", FNV1A64_BASIS), 0x8594_4171_f739_67e8);
        // Chaining through the basis equals hashing the concatenation.
        assert_eq!(
            fnv1a64(b"bar", fnv1a64(b"foo", FNV1A64_BASIS)),
            fnv1a64(b"foobar", FNV1A64_BASIS)
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nearby_seeds_decorrelate() {
        let mut a = Rng64::seed_from_u64(0);
        let mut b = Rng64::seed_from_u64(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval_and_covers_it() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
        }
        assert!(min < 0.01 && max > 0.99, "poor coverage: [{min}, {max}]");
    }

    #[test]
    fn gen_range_is_unbiased_enough() {
        let mut rng = Rng64::seed_from_u64(3);
        let n = 7usize;
        let mut counts = vec![0usize; n];
        let draws = 70_000;
        for _ in 0..draws {
            counts[rng.gen_range(n)] += 1;
        }
        let expected = draws / n;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn split_is_deterministic_and_pure() {
        let parent = Rng64::seed_from_u64(42);
        let mut a = parent.split(7);
        let mut b = parent.split(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64(), "same stream id, same stream");
        }
        // Splitting takes &self: the parent state is untouched, so a
        // split after other splits yields the same stream.
        let _ = parent.split(1);
        let mut c = parent.split(7);
        let mut d = Rng64::seed_from_u64(42).split(7);
        for _ in 0..100 {
            assert_eq!(c.next_u64(), d.next_u64());
        }
    }

    #[test]
    fn split_streams_decorrelate() {
        let parent = Rng64::seed_from_u64(0);
        let mut a = parent.split(0);
        let mut b = parent.split(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent stream ids must not collide");
        // A split stream must also differ from its parent's own sequence.
        let mut p = Rng64::seed_from_u64(0);
        let mut s = parent.split(0);
        let same = (0..64).filter(|_| p.next_u64() == s.next_u64()).count();
        assert_eq!(same, 0, "child must not shadow the parent stream");
    }

    #[test]
    fn split_depends_on_parent_state() {
        let fresh = Rng64::seed_from_u64(9);
        let mut advanced = Rng64::seed_from_u64(9);
        for _ in 0..10 {
            advanced.next_u64();
        }
        let mut a = fresh.split(3);
        let mut b = advanced.split(3);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "split must key on the current state");
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut rng = Rng64::seed_from_u64(11);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_f64()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.002, "variance {var}");
    }
}
