//! The hot-path gates: two lanes whose ratios fail the bench when the
//! batched or live path regresses against per-op dispatch.
//!
//! * the replay lane: the replay cells of a small sweep (em3d and moldyn
//!   at tiny scale, captured on the ideal machine, replayed on the three
//!   finite protocols) replayed batched ([`TraceStore::replay_serial`])
//!   and per-op ([`live_dispatch`]). Their speedup ratio is measured in
//!   one process on the same streams, so it is host-independent, and
//!   [`replay_gate`] fails the bench below [`REPLAY_GATE_FLOOR`];
//! * the fine-grained-items lane: radix at tiny scale, whose work
//!   items are 1–3 ops, run live through the [`rnuma::Runner`]
//!   (scheduler, item buffer and batched kernel) against
//!   [`live_dispatch`] of the same recorded ops. The ratio is measured
//!   in one process, and [`fine_items_gate`] fails the bench below
//!   [`FINE_ITEMS_GATE_FLOOR`].

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{run, run_traced, TraceStore};
use rnuma::machine::Machine;
use rnuma::TraceOp;
use rnuma_workloads::{by_name, Scale};
use std::time::Instant;

/// Drives `ops` through the per-op API (`Machine::access` and
/// friends), one op at a time: the per-op reference leg of the replay
/// lane and of the differential test suites, which share this one
/// definition. It pays exactly the per-op dispatch the batched loop
/// ([`Machine::replay_segment`]) eliminates.
pub fn live_dispatch(machine: &mut Machine, ops: &[TraceOp]) {
    for op in ops {
        match *op {
            TraceOp::Access { cpu, va, write } => {
                machine.access(cpu, va, write);
            }
            TraceOp::Think { cpu, dur } => machine.advance(cpu, dur),
            TraceOp::Barrier => machine.barrier_all(),
        }
    }
}

/// The lowest batched-vs-per-op replay speedup the replay gate accepts:
/// 0.9 × the 1.030× recorded when the gate was armed. It sits below
/// parity, so it trips when batched replay becomes more than ~7% slower
/// than per-op dispatch, not when it merely loses its advantage.
pub const REPLAY_GATE_FLOOR: f64 = 0.927;

/// The replay gate's verdict on a measured batched-vs-per-op speedup:
/// `Ok` at or above [`REPLAY_GATE_FLOOR`], `Err` below it. Either way
/// the string is the line to print.
///
/// # Errors
///
/// Returns `Err` when `speedup` is below the floor.
pub fn replay_gate(speedup: f64) -> Result<String, String> {
    ratio_gate(
        "replay",
        "batched-vs-per-op speedup",
        speedup,
        REPLAY_GATE_FLOOR,
    )
}

/// The verdict of the gate named `gate` on the measured `ratio`
/// (described as `what` in the failure line) against `floor`.
fn ratio_gate(gate: &str, what: &str, ratio: f64, floor: f64) -> Result<String, String> {
    if ratio >= floor {
        Ok(format!("{gate} gate: PASS ({ratio:.3}x >= floor {floor}x)"))
    } else {
        Err(format!(
            "{gate} gate: FAIL — {what} {ratio:.3}x is below the floor {floor}x"
        ))
    }
}

/// The lowest live-Runner-vs-per-op ratio the fine-grained-items gate
/// accepts (see [`FineItemsLane`]): 0.9 × 0.800, the lowest of 13
/// runs (0.800–0.891) measured when the gate was armed with the heap
/// scheduler on a 2-vCPU VM. It trips when the live path's per-item
/// cost grows by more than ~10% against per-op dispatch of the same
/// ops.
pub const FINE_ITEMS_GATE_FLOOR: f64 = 0.72;

/// The fine-grained-items gate's verdict on a measured
/// live-vs-per-op ratio: `Ok` at or above [`FINE_ITEMS_GATE_FLOOR`],
/// `Err` below it. Either way the string is the line to print.
///
/// # Errors
///
/// Returns `Err` when `ratio` is below the floor.
pub fn fine_items_gate(ratio: f64) -> Result<String, String> {
    ratio_gate(
        "fine-items",
        "live-Runner-vs-per-op ratio",
        ratio,
        FINE_ITEMS_GATE_FLOOR,
    )
}

/// The application of the fine-grained-items lane: radix, whose work
/// items are 1–3 ops, so the per-item cost of the live path (the
/// scheduler's pick, the item buffer, the batched kernel's set-up)
/// dominates its host time.
pub const FINE_ITEMS_APP: &str = "radix";

/// The fine-grained-items lane: [`FINE_ITEMS_APP`] at tiny scale run
/// live through the `Runner`, against per-op [`live_dispatch`] of the
/// ops the same run records. Both legs simulate the same references
/// with the same results; the live leg also pays the workload's host
/// work and the per-item scheduling, the per-op leg a dispatch per op.
#[derive(Clone, Debug)]
pub struct FineItemsLane {
    /// Ops per pass (every cell's recorded ops).
    pub ops: u64,
    /// Same-CPU runs in a pass's ops. Each item is one such run, and
    /// consecutive items of one CPU merge into one, so `ops / runs`
    /// bounds the mean item length from above.
    pub runs: u64,
    /// Seconds per pass through live `run`s.
    pub live_secs: f64,
    /// Seconds per pass through per-op [`live_dispatch`].
    pub perop_secs: f64,
}

impl FineItemsLane {
    /// Live-vs-per-op ratio: the number the gate checks (higher is
    /// better for the live path).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.perop_secs / self.live_secs
    }
}

/// Runs the fine-grained-items lane on the three finite paper
/// protocols: records each cell's ops once outside the timers, checks
/// that per-op dispatch of them reproduces the live run's metrics, then
/// times alternating live and per-op passes.
///
/// # Panics
///
/// Panics if a configuration is invalid or the two legs disagree.
fn fine_items_lane() -> FineItemsLane {
    let configs = [
        Protocol::paper_ccnuma(),
        Protocol::paper_scoma(),
        Protocol::paper_rnuma(),
    ]
    .map(MachineConfig::paper_base);
    let workload = || by_name(FINE_ITEMS_APP, Scale::Tiny).expect("registered app");
    let traces: Vec<Vec<TraceOp>> = configs
        .iter()
        .map(|&config| {
            let (report, ops) = run_traced(config, &mut workload());
            let mut machine = Machine::new(config).expect("valid config");
            live_dispatch(&mut machine, &ops);
            assert!(
                machine.metrics().replay_eq(&report.metrics),
                "per-op dispatch diverged from the live run"
            );
            ops
        })
        .collect();
    let runs = traces
        .iter()
        .map(|ops| {
            let mut prev = None;
            ops.iter()
                .filter(|op| {
                    let issuer = op.issuer();
                    let starts = issuer.is_some() && issuer != prev;
                    prev = issuer;
                    starts
                })
                .count() as u64
        })
        .sum();
    // The legs alternate cell by cell.
    let [live_secs, perop_secs] = alternate_legs(2.0, |secs| {
        for (&config, ops) in configs.iter().zip(&traces) {
            let mut w = workload();
            secs[0] += secs_of(|| {
                std::hint::black_box(run(config, &mut w).cycles());
            });
            secs[1] += secs_of(|| {
                let mut machine = Machine::new(config).expect("valid config");
                live_dispatch(&mut machine, ops);
                std::hint::black_box(machine.metrics().exec_cycles);
            });
        }
    });
    FineItemsLane {
        ops: traces.iter().map(|ops| ops.len() as u64).sum(),
        runs,
        live_secs,
        perop_secs,
    }
}

/// The replay lane: batched against per-op replay of the same cells.
#[derive(Clone, Debug)]
pub struct ReplayLane {
    /// Ops replayed per pass (every replay cell).
    pub replay_ops: u64,
    /// Seconds per pass through batched [`TraceStore::replay_serial`].
    pub batched_secs: f64,
    /// Seconds per pass through per-op [`live_dispatch`].
    pub perop_secs: f64,
}

impl ReplayLane {
    /// Batched-vs-per-op replay speedup: the number the gate checks.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.perop_secs / self.batched_secs
    }
}

/// Applications of the replay lane: em3d (refetch-heavy) and moldyn
/// (compute-heavy).
const REPLAY_APPS: [&str; 2] = ["em3d", "moldyn"];

/// Wall-clock seconds one call of `pass` takes.
fn secs_of(pass: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    pass();
    t0.elapsed().as_secs_f64()
}

/// Times a gate's two legs. Each call of `pass` runs both legs once,
/// adding each leg's seconds to its slot; the calls repeat until
/// `budget_secs` of work has been timed. A gate reads the ratio of the
/// two legs, and alternating them makes a drift in host speed hit both
/// alike. Returns each leg's seconds per pass.
fn alternate_legs(budget_secs: f64, mut pass: impl FnMut(&mut [f64; 2])) -> [f64; 2] {
    let mut secs = [0.0f64; 2];
    let mut passes = 0u32;
    while secs[0] + secs[1] < budget_secs {
        pass(&mut secs);
        passes += 1;
    }
    secs.map(|s| s / f64::from(passes))
}

/// Runs the replay lane: captures [`REPLAY_APPS`] at tiny scale on the
/// ideal machine outside the timers, then times replaying every stream
/// on the three finite paper protocols, batched and per-op.
///
/// # Panics
///
/// Panics if a configuration is invalid.
fn replay_lane() -> ReplayLane {
    let configs = [
        Protocol::paper_ccnuma(),
        Protocol::paper_scoma(),
        Protocol::paper_rnuma(),
    ]
    .map(MachineConfig::paper_base);
    let mut store = TraceStore::new();
    let ids: Vec<_> = REPLAY_APPS
        .iter()
        .map(|&app| {
            let mut w = by_name(app, Scale::Tiny).expect("replay lane apps are registered");
            let capture = MachineConfig::paper_base(Protocol::ideal());
            store.capture(capture, &mut w).0
        })
        .collect();
    let batched_pass = || {
        let mut sink = 0u64;
        for &id in &ids {
            for &config in &configs {
                sink ^= store.replay_serial(id, config).cycles();
            }
        }
        std::hint::black_box(sink);
    };
    let perop_pass = || {
        let mut sink = 0u64;
        for &id in &ids {
            for &config in &configs {
                let mut machine = Machine::new(config).expect("valid config");
                store.for_each_batch(id, |ops, _| live_dispatch(&mut machine, ops));
                sink ^= machine.metrics().exec_cycles.0;
            }
        }
        std::hint::black_box(sink);
    };
    let [batched_secs, perop_secs] = alternate_legs(1.2, |secs| {
        secs[0] += secs_of(batched_pass);
        secs[1] += secs_of(perop_pass);
    });
    ReplayLane {
        replay_ops: store.captured_ops() * configs.len() as u64,
        batched_secs,
        perop_secs,
    }
}

/// Runs both gated lanes: the replay lane, then the fine-grained-items
/// lane.
///
/// # Panics
///
/// Panics if any configuration fails validation or a lane's two legs
/// disagree.
#[must_use]
pub fn measure() -> (ReplayLane, FineItemsLane) {
    (replay_lane(), fine_items_lane())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_gate_fails_only_below_the_floor() {
        assert!(replay_gate(0.92).is_err());
        assert!(replay_gate(0.93).is_ok());
        assert!(replay_gate(1.0).is_ok());
    }

    #[test]
    fn fine_items_gate_fails_only_below_the_floor() {
        assert!(fine_items_gate(FINE_ITEMS_GATE_FLOOR - 0.01).is_err());
        assert!(fine_items_gate(FINE_ITEMS_GATE_FLOOR).is_ok());
        assert!(fine_items_gate(FINE_ITEMS_GATE_FLOOR + 0.5).is_ok());
    }
}
