//! Deterministic random-number generation.
//!
//! Every stochastic choice in the workspace (e.g., em3d's 15%-remote graph
//! wiring, barnes' particle distribution) flows through [`DetRng`], which is
//! seeded from the experiment configuration. Identical configurations
//! therefore produce bit-identical simulations — a property the integration
//! tests assert.
//!
//! The generator is a self-contained xoshiro256** seeded through
//! splitmix64, so the workspace carries no external RNG dependency and
//! the stream is stable across toolchains.

/// A small, fast, deterministic RNG with convenience helpers.
///
/// # Example
///
/// ```
/// use rnuma_sim::DetRng;
///
/// let mut a = DetRng::seeded(7);
/// let mut b = DetRng::seeded(7);
/// assert_eq!(a.index(100), b.index(100));
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    state: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seeded(seed: u64) -> DetRng {
        // Expand the seed with splitmix64 (the reference seeding
        // procedure for the xoshiro family).
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit draw (xoshiro256** step).
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

    /// A uniform index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        self.range_u64(0, bound as u64) as usize
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Debiased modulo: reject draws from the final partial span.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let draw = self.next_u64();
            if draw <= zone {
                return lo + draw % span;
            }
        }
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.unit() < p
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seeded(42);
        let mut b = DetRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1 << 40), b.range_u64(0, 1 << 40));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seeded(1);
        let mut b = DetRng::seeded(2);
        let same = (0..64).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn index_stays_in_bounds() {
        let mut r = DetRng::seeded(3);
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seeded(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seeded(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = DetRng::seeded(6);
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        DetRng::seeded(0).index(0);
    }
}
