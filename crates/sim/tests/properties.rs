//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use rnuma_sim::{Cdf, Cycles, DetRng, Resource};

proptest! {
    /// A resource never grants before the request time and never
    /// double-books: grant times are non-decreasing and separated by at
    /// least the previous occupancy when requests arrive in time order.
    #[test]
    fn resource_grants_are_serialized(reqs in prop::collection::vec((0u64..10_000, 1u64..100), 1..200)) {
        let mut reqs = reqs;
        reqs.sort_by_key(|&(t, _)| t);
        let mut r = Resource::new();
        let mut prev_grant = Cycles::ZERO;
        let mut prev_occ = Cycles::ZERO;
        for (t, occ) in reqs {
            let g = r.acquire(Cycles(t), Cycles(occ));
            prop_assert!(g >= Cycles(t));
            prop_assert!(g >= prev_grant + prev_occ);
            prev_grant = g;
            prev_occ = Cycles(occ);
        }
    }

    /// Full reference model of [`Resource::acquire`]: grant time,
    /// `next_free` and the wait accounting all match a direct
    /// recomputation for arbitrary (not necessarily time-ordered)
    /// request sequences — the contract behind the branchless fast path.
    #[test]
    fn resource_accounting_matches_reference_model(
        reqs in prop::collection::vec((0u64..10_000, 0u64..100), 0..300)
    ) {
        let mut r = Resource::new();
        let (mut next_free, mut wait) = (0u64, 0u64);
        for &(t, occ) in &reqs {
            let g = r.acquire(Cycles(t), Cycles(occ));
            let expect = t.max(next_free);
            prop_assert_eq!(g, Cycles(expect));
            wait += expect - t;
            next_free = expect + occ;
            prop_assert_eq!(r.next_free(), Cycles(next_free));
        }
        prop_assert_eq!(r.total_wait(), Cycles(wait));
    }

    /// Monotonicity and occupancy exclusion: each grant starts at or
    /// after the previous transaction's release, so occupancy intervals
    /// never overlap — even when requests arrive out of time order.
    #[test]
    fn resource_occupancy_intervals_never_overlap(
        reqs in prop::collection::vec((0u64..5_000, 1u64..64), 1..200)
    ) {
        let mut r = Resource::new();
        let mut prev_release = 0u64;
        for &(t, occ) in &reqs {
            let g = r.acquire(Cycles(t), Cycles(occ));
            prop_assert!(g >= Cycles(t), "grant before request");
            prop_assert!(g.0 >= prev_release, "occupancy overlap");
            prev_release = g.0 + occ;
        }
    }

    /// Busy time equals the sum of occupancies regardless of contention:
    /// requests that all arrive at time 0 keep the resource busy until
    /// the sum of their occupancies.
    #[test]
    fn resource_busy_is_sum_of_occupancy(occs in prop::collection::vec(0u64..1000, 0..100)) {
        let mut r = Resource::new();
        let mut total = 0u64;
        for occ in &occs {
            r.acquire(Cycles(0), Cycles(*occ));
            total += occ;
        }
        prop_assert_eq!(r.next_free(), Cycles(total));
    }

    /// CDF y-values are within [0,1], monotone, and end at 1 for nonzero
    /// total weight.
    #[test]
    fn cdf_is_a_distribution(weights in prop::collection::vec(0u64..10_000, 1..300)) {
        let nonzero = weights.iter().any(|&w| w > 0);
        let cdf = Cdf::from_weights("prop", weights);
        let mut prev = 0.0;
        for &(x, y) in cdf.points() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&x));
            prop_assert!((0.0..=1.0 + 1e-12).contains(&y));
            prop_assert!(y + 1e-12 >= prev);
            prev = y;
        }
        if nonzero {
            prop_assert!((cdf.points().last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }

    /// The CDF's top-fraction reader is monotone in the fraction.
    #[test]
    fn cdf_top_reader_is_monotone(weights in prop::collection::vec(1u64..1000, 1..100),
                                  a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let cdf = Cdf::from_weights("prop", weights);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(cdf.weight_of_top(lo) <= cdf.weight_of_top(hi) + 1e-12);
    }

    /// Cycle arithmetic respects ordering.
    #[test]
    fn cycles_ordering(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let (ca, cb) = (Cycles(a), Cycles(b));
        prop_assert_eq!(ca.max(cb).0, a.max(b));
        prop_assert_eq!(ca.min(cb).0, a.min(b));
        prop_assert_eq!(ca.saturating_sub(cb).0, a.saturating_sub(b));
        prop_assert_eq!((ca + cb).0, a + b);
    }

    /// Deterministic RNG streams replay exactly.
    #[test]
    fn rng_replays(seed in any::<u64>()) {
        let mut a = DetRng::seeded(seed);
        let mut b = DetRng::seeded(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.range_u64(0, 1 << 50), b.range_u64(0, 1 << 50));
        }
    }
}
