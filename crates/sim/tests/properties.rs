//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use rnuma_sim::{Cdf, Cycles, DetRng, Histogram, Resource};

proptest! {
    /// A resource never grants before the request time and never
    /// double-books: grant times are non-decreasing and separated by at
    /// least the previous occupancy when requests arrive in time order.
    #[test]
    fn resource_grants_are_serialized(reqs in prop::collection::vec((0u64..10_000, 1u64..100), 1..200)) {
        let mut reqs = reqs;
        reqs.sort_by_key(|&(t, _)| t);
        let mut r = Resource::new("prop");
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
    /// `next_free`, and the queued/wait/busy accounting all match a
    /// direct recomputation for arbitrary (not necessarily time-ordered)
    /// request sequences — the contract behind the branchless fast path.
    #[test]
    fn resource_accounting_matches_reference_model(
        reqs in prop::collection::vec((0u64..10_000, 0u64..100), 0..300)
    ) {
        let mut r = Resource::new("prop");
        let mut next_free = 0u64;
        let (mut queued, mut wait, mut busy) = (0u64, 0u64, 0u64);
        for &(t, occ) in &reqs {
            let g = r.acquire(Cycles(t), Cycles(occ));
            let expect = t.max(next_free);
            prop_assert_eq!(g, Cycles(expect));
            if expect > t {
                queued += 1;
                wait += expect - t;
            }
            next_free = expect + occ;
            busy += occ;
            prop_assert_eq!(r.next_free(), Cycles(next_free));
        }
        prop_assert_eq!(r.grants(), reqs.len() as u64);
        prop_assert_eq!(r.queued(), queued);
        prop_assert_eq!(r.total_wait(), Cycles(wait));
        prop_assert_eq!(r.busy(), Cycles(busy));
    }

    /// Monotonicity and occupancy exclusion: each grant starts at or
    /// after the previous transaction's release, so occupancy intervals
    /// never overlap — even when requests arrive out of time order.
    #[test]
    fn resource_occupancy_intervals_never_overlap(
        reqs in prop::collection::vec((0u64..5_000, 1u64..64), 1..200)
    ) {
        let mut r = Resource::new("prop");
        let mut prev_release = 0u64;
        for &(t, occ) in &reqs {
            let g = r.acquire(Cycles(t), Cycles(occ));
            prop_assert!(g >= Cycles(t), "grant before request");
            prop_assert!(g.0 >= prev_release, "occupancy overlap");
            prev_release = g.0 + occ;
        }
    }

    /// Busy time equals the sum of occupancies regardless of contention.
    #[test]
    fn resource_busy_is_sum_of_occupancy(occs in prop::collection::vec(0u64..1000, 0..100)) {
        let mut r = Resource::new("prop");
        let mut total = 0u64;
        for occ in &occs {
            r.acquire(Cycles(0), Cycles(*occ));
            total += occ;
        }
        prop_assert_eq!(r.busy(), Cycles(total));
        prop_assert_eq!(r.grants(), occs.len() as u64);
    }

    /// Histogram count/min/max/mean agree with a direct computation.
    #[test]
    fn histogram_matches_reference(samples in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut h = Histogram::new("prop");
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
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

use rnuma_sim::fault::{FaultKind, FaultPlan};
use std::fmt::Write as _;

/// Every fault kind, in the spec grammar's vocabulary.
const ALL_KINDS: [FaultKind; 2] = [FaultKind::CapturePressure, FaultKind::SweepAbort];

/// Two plans are behaviorally equivalent iff they make the same firing
/// decisions, in order, for every kind.
fn assert_same_decisions(mut a: FaultPlan, mut b: FaultPlan) -> Result<(), String> {
    for kind in ALL_KINDS {
        for n in 0..96u64 {
            let (fa, fb) = (a.should_fire(kind), b.should_fire(kind));
            if fa != fb {
                return Err(format!("decision {n} for {kind} diverged: {fa} vs {fb}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The `RNUMA_FAULTS` grammar round-trips: a plan assembled from
    /// random `seed=`/`kind@N`/`kind~P` components, rendered
    /// as a spec string (comma- or whitespace-separated) and parsed
    /// back, makes exactly the same firing decisions as the same plan
    /// built through the `FaultPlan` builder API.
    #[test]
    fn rendered_fault_specs_parse_back_equivalent(
        seed in any::<u64>(),
        events in prop::collection::vec((0usize..2, 0u64..64), 0..8),
        rates in prop::collection::vec((0usize..2, 0u64..1001), 0..6),
        spaces in 0usize..2,
    ) {
        let sep = if spaces == 1 { ' ' } else { ',' };
        let mut built = FaultPlan::new(seed);
        let mut spec = format!("seed={seed}");
        for &(k, i) in &events {
            let kind = ALL_KINDS[k];
            built = built.at(kind, i);
            let _ = write!(spec, "{sep}{}@{i}", kind.label());
        }
        for &(k, permille) in &rates {
            let kind = ALL_KINDS[k];
            let p = permille as f64 / 1000.0;
            built = built.rate(kind, p);
            let _ = write!(spec, "{sep}{}~{p}", kind.label());
        }
        let parsed = FaultPlan::parse(&spec);
        prop_assert!(parsed.is_ok(), "rendered spec {:?} rejected", spec);
        let verdict = assert_same_decisions(built, parsed.unwrap());
        prop_assert!(
            verdict.is_ok(),
            "spec {:?}: {}",
            spec,
            verdict.unwrap_err()
        );
    }

    /// One malformed token anywhere in an otherwise valid spec rejects
    /// the whole plan with an error naming the token — the warn-once
    /// path `FaultPlan::from_env` takes, never a partial plan.
    #[test]
    fn malformed_tokens_reject_the_whole_spec(
        seed in any::<u64>(),
        good in prop::collection::vec((0usize..2, 0u64..64), 0..4),
        bad_idx in 0usize..11,
        prepend in 0usize..2,
    ) {
        let bad = [
            "banana",
            "bogus@1",
            "abort@x",
            "abort@",
            "pressure~2.0",
            "pressure~-0.5",
            "pressure~x",
            "~0.5",
            "@1",
            "seed=abc",
            "hang@0",
        ][bad_idx];
        let mut spec = format!("seed={seed}");
        for &(k, i) in &good {
            let _ = write!(spec, ",{}@{i}", ALL_KINDS[k].label());
        }
        let spec = if prepend == 1 {
            format!("{bad},{spec}")
        } else {
            format!("{spec},{bad}")
        };
        let err = FaultPlan::parse(&spec);
        prop_assert!(err.is_err(), "malformed spec {spec:?} parsed");
        prop_assert!(
            err.unwrap_err().contains(bad),
            "the diagnostic must name the offending token"
        );
    }
}
