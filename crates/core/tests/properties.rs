//! Property-based tests for the `RNUMA_FAULTS` grammar
//! ([`SweepAbort::parse`]).

use proptest::prelude::*;
use rnuma::SweepAbort;
use std::fmt::Write as _;

/// Two abort points are behaviorally equivalent iff they make the same
/// firing decisions, in order.
fn assert_same_decisions(a: &SweepAbort, b: &SweepAbort) -> Result<(), String> {
    for n in 0..96u64 {
        let (fa, fb) = (a.should_fire(), b.should_fire());
        if fa != fb {
            return Err(format!("decision {n} diverged: {fa} vs {fb}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The `RNUMA_FAULTS` grammar round-trips: random `abort@N` events,
    /// rendered as a spec string (comma- or whitespace-separated) and
    /// parsed back, make exactly the same firing decisions as the same
    /// events passed to [`SweepAbort::at`].
    #[test]
    fn rendered_fault_specs_parse_back_equivalent(
        events in prop::collection::vec(0u64..64, 0..8),
        spaces in 0usize..2,
    ) {
        let sep = if spaces == 1 { " " } else { "," };
        let spec = events
            .iter()
            .map(|i| format!("abort@{i}"))
            .collect::<Vec<_>>()
            .join(sep);
        let parsed = SweepAbort::parse(&spec);
        prop_assert!(parsed.is_ok(), "rendered spec {:?} rejected", spec);
        let verdict = assert_same_decisions(&SweepAbort::at(&events), &parsed.unwrap());
        prop_assert!(
            verdict.is_ok(),
            "spec {:?}: {}",
            spec,
            verdict.unwrap_err()
        );
    }

    /// One malformed token anywhere in an otherwise valid spec rejects
    /// the whole spec with an error naming the token — the warn-once
    /// path `SweepAbort::from_env` takes, never a partial abort list.
    #[test]
    fn malformed_tokens_reject_the_whole_spec(
        good in prop::collection::vec(0u64..64, 0..4),
        bad_idx in 0usize..14,
        prepend in 0usize..2,
    ) {
        let bad = [
            "banana",
            "bogus@1",
            "abort@x",
            "abort@",
            "abort@-1",
            "abort~0.5",
            "pressure@1",
            "pressure~0.2",
            "pressure~x",
            "~0.5",
            "@1",
            "seed=7",
            "seed=abc",
            "hang@0",
        ][bad_idx];
        let mut spec = String::new();
        for i in &good {
            let _ = write!(spec, "abort@{i},");
        }
        let spec = if prepend == 1 {
            format!("{bad},{spec}")
        } else {
            format!("{spec}{bad}")
        };
        let err = SweepAbort::parse(&spec);
        prop_assert!(err.is_err(), "malformed spec {spec:?} parsed");
        prop_assert!(
            err.unwrap_err().contains(bad),
            "the diagnostic must name the offending token"
        );
    }
}
