//! Deterministic fault injection for the execution layer.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of faults: each
//! *injection point* in the execution layer (capture-time allocation
//! pressure, sweep abort) asks the plan [`FaultPlan::should_fire`] at
//! every decision, and the plan answers from either an explicit
//! `kind@index` event list or a per-kind probability derived from the
//! plan seed via [`DetRng`]. Identical plans therefore produce
//! identical fault schedules — the property the `fault_recovery` suite
//! is built on: a capture under pressure must still produce metrics
//! bit-identical to a fault-free run, and a sweep aborted mid-run must
//! resume to a bit-identical result.
//!
//! Plans are configured programmatically or through the `RNUMA_FAULTS`
//! environment variable (see [`FaultPlan::parse`] for the grammar).
//! Faults that actually fired are recorded in a [`FaultLog`] by the
//! component that absorbed them, so tests and operators can distinguish
//! "no fault occurred" from "fault occurred and was healed".

use crate::DetRng;
use std::fmt;

/// An injection point in the execution layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Capture-time allocation pressure: the trace interner's dedup
    /// table "fails to grow" and interning degrades for the rest of the
    /// capture.
    CapturePressure,
    /// The sweep driver aborts mid-run after a completed cell — the
    /// checkpoint/resume injection point.
    SweepAbort,
}

/// Every kind, in counter order.
const KINDS: [FaultKind; 2] = [FaultKind::CapturePressure, FaultKind::SweepAbort];

impl FaultKind {
    /// The spec-grammar token for this kind (also the display form).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CapturePressure => "pressure",
            FaultKind::SweepAbort => "abort",
        }
    }

    fn from_label(s: &str) -> Option<FaultKind> {
        KINDS.iter().copied().find(|k| k.label() == s)
    }

    fn slot(self) -> usize {
        KINDS.iter().position(|&k| k == self).unwrap_or_else(|| {
            panic!("FaultKind::{self:?} ({self}) is missing from the KINDS table")
        })
    }

    /// A per-kind salt so the probabilistic streams of different kinds
    /// are independent even under one seed.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; fixed forever for reproducibility.
        match self {
            FaultKind::CapturePressure => 0x2D35_8DCC_AA6C_78A5,
            FaultKind::SweepAbort => 0x9E6C_63D0_A0FF_9527,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A deterministic, seeded fault schedule.
///
/// Decisions are counted per kind: the `n`-th call to
/// [`should_fire`](Self::should_fire) for a kind fires if the plan
/// carries an explicit `kind@n` event, or — when the kind has a rate —
/// with that probability, derived purely from `(seed, kind, n)` so the
/// schedule is independent of thread interleaving.
///
/// # Example
///
/// ```
/// use rnuma_sim::fault::{FaultKind, FaultPlan};
///
/// let mut plan = FaultPlan::parse("seed=7,abort@1").unwrap();
/// assert!(!plan.should_fire(FaultKind::SweepAbort)); // decision 0
/// assert!(plan.should_fire(FaultKind::SweepAbort)); // decision 1
/// assert!(!plan.should_fire(FaultKind::SweepAbort)); // decision 2
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<(FaultKind, u64)>,
    rates: [f64; KINDS.len()],
    counters: [u64; KINDS.len()],
}

impl FaultPlan {
    /// An empty plan (never fires) under the given seed.
    #[must_use]
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
            rates: [0.0; KINDS.len()],
            counters: [0; KINDS.len()],
        }
    }

    /// Adds an explicit event: the `index`-th decision for `kind` fires.
    #[must_use]
    pub fn at(mut self, kind: FaultKind, index: u64) -> FaultPlan {
        self.events.push((kind, index));
        self
    }

    /// Sets a per-decision firing probability for `kind`.
    #[must_use]
    pub fn rate(mut self, kind: FaultKind, p: f64) -> FaultPlan {
        self.rates[kind.slot()] = p.clamp(0.0, 1.0);
        self
    }

    /// True if the plan can never fire anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.rates.iter().all(|&r| r == 0.0)
    }

    /// Parses a plan spec.
    ///
    /// The grammar is a comma- (or whitespace-) separated token list:
    ///
    /// * `seed=<u64>` — plan seed (default 0);
    /// * `<kind>@<n>` — the `n`-th decision for `<kind>` fires;
    /// * `<kind>~<p>` — each decision for `<kind>` fires with
    ///   probability `<p>`.
    ///
    /// Kinds: `pressure`, `abort`. Any other kind (or any other token)
    /// is malformed. An empty spec parses to an empty plan.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first malformed token.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for token in spec
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|t| !t.is_empty())
        {
            if let Some(v) = token.strip_prefix("seed=") {
                plan.seed = v
                    .parse()
                    .map_err(|_| format!("bad seed in RNUMA_FAULTS token '{token}'"))?;
            } else if let Some((kind, idx)) = token.split_once('@') {
                let kind = FaultKind::from_label(kind)
                    .ok_or_else(|| format!("unknown fault kind in token '{token}'"))?;
                let idx = idx
                    .parse()
                    .map_err(|_| format!("bad index in token '{token}'"))?;
                plan.events.push((kind, idx));
            } else if let Some((kind, p)) = token.split_once('~') {
                let kind = FaultKind::from_label(kind)
                    .ok_or_else(|| format!("unknown fault kind in token '{token}'"))?;
                let p: f64 = p
                    .parse()
                    .map_err(|_| format!("bad probability in token '{token}'"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability out of [0,1] in token '{token}'"));
                }
                plan.rates[kind.slot()] = p;
            } else {
                return Err(format!("unparsable RNUMA_FAULTS token '{token}'"));
            }
        }
        Ok(plan)
    }

    /// The plan configured by the `RNUMA_FAULTS` environment variable,
    /// if any. Unset or empty means no plan; a malformed spec warns on
    /// stderr once per process and also means no plan (misconfiguration
    /// must not abort a run, matching the numeric `RNUMA_*` knobs).
    #[must_use]
    pub fn from_env() -> Option<FaultPlan> {
        // lint: allow(D03, rnuma-sim sits below rnuma-core in the dependency graph, so the blessed experiment.rs helpers are unreachable; from_env implements the same warn-once contract locally and is pinned by tests/robust_env.rs)
        let spec = std::env::var("RNUMA_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) if plan.is_empty() => None,
            Ok(plan) => Some(plan),
            Err(msg) => {
                static WARN: std::sync::Once = std::sync::Once::new();
                WARN.call_once(|| {
                    eprintln!("warning: ignoring RNUMA_FAULTS ({msg})");
                });
                None
            }
        }
    }

    /// Decides whether the next decision for `kind` fires, advancing
    /// that kind's decision counter.
    pub fn should_fire(&mut self, kind: FaultKind) -> bool {
        let idx = self.counters[kind.slot()];
        self.counters[kind.slot()] = idx + 1;
        if self.events.iter().any(|&(k, i)| k == kind && i == idx) {
            return true;
        }
        let p = self.rates[kind.slot()];
        if p > 0.0 {
            // Seed per (plan, kind, decision): the outcome depends only
            // on the triple, never on call interleaving across kinds.
            let s = self
                .seed
                .wrapping_add(kind.salt())
                .wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            return DetRng::seeded(s).chance(p);
        }
        false
    }

    /// How many decisions have been made for `kind`.
    #[must_use]
    pub fn decisions(&self, kind: FaultKind) -> u64 {
        self.counters[kind.slot()]
    }
}

/// One fault that actually fired and was handled.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// The injection point that fired.
    pub kind: FaultKind,
    /// The per-kind decision index at which it fired.
    pub index: u64,
    /// Human-readable context from the injection site (e.g. which
    /// capture segment degraded).
    pub detail: String,
}

/// The record of faults a run absorbed.
///
/// An empty log after a run under a non-empty plan means the plan's
/// events never reached an armed injection point; a non-empty log plus
/// bit-identical metrics is the self-healing contract.
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    /// Records a handled fault.
    pub fn record(&mut self, kind: FaultKind, index: u64, detail: impl Into<String>) {
        self.events.push(FaultEvent {
            kind,
            index,
            detail: detail.into(),
        });
    }

    /// All handled faults, in handling order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// How many handled faults were of `kind`.
    #[must_use]
    pub fn count(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Total handled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing fired.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        let plan = FaultPlan::parse(" , ,, ").unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn explicit_events_fire_at_their_index_only() {
        let mut plan = FaultPlan::parse("abort@0,abort@2").unwrap();
        assert!(plan.should_fire(FaultKind::SweepAbort));
        assert!(!plan.should_fire(FaultKind::SweepAbort));
        assert!(plan.should_fire(FaultKind::SweepAbort));
        assert!(!plan.should_fire(FaultKind::SweepAbort));
        // Other kinds are untouched.
        assert!(!plan.should_fire(FaultKind::CapturePressure));
        assert_eq!(plan.decisions(FaultKind::SweepAbort), 4);
        assert_eq!(plan.decisions(FaultKind::CapturePressure), 1);
    }

    #[test]
    fn rates_are_deterministic_and_interleaving_independent() {
        let spec = "seed=11,pressure~0.5,abort~0.5";
        // Same plan, same per-kind decision sequence, regardless of how
        // calls to the two kinds interleave.
        let mut a = FaultPlan::parse(spec).unwrap();
        let mut b = FaultPlan::parse(spec).unwrap();
        let seq_a: Vec<bool> = (0..64)
            .map(|_| a.should_fire(FaultKind::CapturePressure))
            .collect();
        let mut seq_b = Vec::new();
        for _ in 0..64 {
            b.should_fire(FaultKind::SweepAbort); // interleaved other-kind traffic
            seq_b.push(b.should_fire(FaultKind::CapturePressure));
        }
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&f| f), "p=0.5 over 64 draws should fire");
        assert!(!seq_a.iter().all(|&f| f));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mut a = FaultPlan::new(1).rate(FaultKind::CapturePressure, 0.5);
        let mut b = FaultPlan::new(2).rate(FaultKind::CapturePressure, 0.5);
        let sa: Vec<bool> = (0..64)
            .map(|_| a.should_fire(FaultKind::CapturePressure))
            .collect();
        let sb: Vec<bool> = (0..64)
            .map(|_| b.should_fire(FaultKind::CapturePressure))
            .collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for bad in [
            "bogus",
            "abort@x",
            "nope@3",
            "pressure~banana",
            "pressure~1.5",
            "seed=pear",
            // Kinds and knobs of the retired worker pool.
            "panic_before@0",
            "panic_after@1",
            "hang~0.5",
            "poison@0",
            "hang_ms=10",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn parse_full_grammar() {
        let mut plan = FaultPlan::parse("seed=9 pressure~1.0, abort@1").unwrap();
        assert!(plan.should_fire(FaultKind::CapturePressure)); // p=1
        assert!(!plan.should_fire(FaultKind::SweepAbort));
        assert!(plan.should_fire(FaultKind::SweepAbort));
    }

    /// The `KINDS` table and the enum cannot drift: every variant is
    /// present (so `slot`/`salt` cannot panic), each exactly once, and
    /// every label round-trips. The match below fails to compile if a
    /// variant is added without extending this test.
    #[test]
    fn kinds_table_is_exhaustive() {
        for (i, &kind) in KINDS.iter().enumerate() {
            // Compile-time exhaustiveness: adding a variant breaks this
            // match until the table (and test) learn about it.
            match kind {
                FaultKind::CapturePressure | FaultKind::SweepAbort => {}
            }
            assert_eq!(kind.slot(), i, "{kind} is out of counter order");
            assert_eq!(
                FaultKind::from_label(kind.label()),
                Some(kind),
                "{kind} label does not round-trip"
            );
        }
        let mut salts: Vec<u64> = KINDS.iter().map(|k| k.salt()).collect();
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts.len(), KINDS.len(), "per-kind salts must be distinct");
    }

    #[test]
    fn log_counts_by_kind() {
        let mut log = FaultLog::new();
        assert!(log.is_empty());
        log.record(FaultKind::CapturePressure, 3, "segment 3 degraded");
        assert_eq!(log.len(), 1);
        assert_eq!(log.count(FaultKind::CapturePressure), 1);
        assert_eq!(log.count(FaultKind::SweepAbort), 0);
        assert_eq!(log.events()[0].index, 3);
        log.record(FaultKind::SweepAbort, 0, "after cell 0");
        assert_eq!(log.count(FaultKind::SweepAbort), 1);
    }
}
