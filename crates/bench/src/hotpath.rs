//! Hot-path throughput measurement and the `BENCH_hotpath.json` emitter.
//!
//! Simulator throughput — references retired per wall-clock second
//! through [`rnuma::machine::Machine::access`] — bounds every experiment
//! in this workspace, so each optimization PR needs a number to beat.
//! This module provides:
//!
//! * a deterministic synthetic reference stream that exercises the full
//!   walk (L1 hits, local fills, block/page-cache hits, remote
//!   fetches);
//! * per-protocol `refs/sec` measurement of the assembled machine;
//! * a page-cache-thrash lane: S-COMA on a stream whose remote working
//!   set overflows every node's 80-frame page cache, so page
//!   replacement (fault, TLB shootdown, block flush) sits on the path.
//!   These five `Machine::access` lanes alternate passes within one
//!   shared time budget, so a drift in host speed hits them alike;
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
//!   [`FINE_ITEMS_GATE_FLOOR`];
//! * [`HotpathReport::emit`], which records everything in
//!   `results/BENCH_hotpath.json` so subsequent PRs have a perf
//!   trajectory.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{run, run_traced, TraceStore};
use rnuma::machine::Machine;
use rnuma::metrics::Metrics;
use rnuma::TraceOp;
use rnuma_mem::addr::{CpuId, Va};
use rnuma_sim::DetRng;
use rnuma_workloads::{by_name, Scale};
use std::fmt::Write as _;
use std::time::Instant;

/// One synthetic memory reference.
pub type Ref = (CpuId, Va, bool);

/// Generates a deterministic reference stream with the locality mix of
/// the paper's applications: mostly streaming within a working set of
/// shared pages, ~10% writes, CPU switched every few references so
/// cross-node sharing and refetches occur.
#[must_use]
pub fn synth_stream(refs: usize, pages: u64, cpus: u16) -> Vec<Ref> {
    let mut rng = DetRng::seeded(0x5EED_CAFE);
    let mut out = Vec::with_capacity(refs);
    let mut cpu = CpuId(0);
    let mut page = 0u64;
    let mut offset = 0u64;
    for i in 0..refs {
        // Re-home the stream periodically: new CPU, new page.
        if i % 24 == 0 {
            cpu = CpuId(rng.range_u64(0, u64::from(cpus)) as u16);
            page = rng.range_u64(0, pages);
            offset = rng.range_u64(0, 128) * 32;
        } else {
            // Stride within the page; wraps keep the VA on-page.
            offset = (offset + 32) % 4096;
        }
        let write = rng.chance(0.1);
        out.push((cpu, Va(page * 4096 + offset), write));
    }
    out
}

/// Seconds of timed work the five `Machine::access` lanes share: the
/// four protocols on the mixed stream and S-COMA on the thrash stream.
const ACCESS_LANES_SECS: f64 = 2.0;

/// Replays each `(protocol, stream)` lane on fresh machines, one pass
/// per lane in turn (a drift in host speed hits every lane alike),
/// until `budget_secs` of work has been timed across all of them.
/// Returns each lane's references per wall-clock second and the
/// metrics of its first replay (every replay is identical).
///
/// # Panics
///
/// Panics if a stream is empty or a configuration is invalid.
fn timed_replays(lanes: &[(Protocol, &[Ref])], budget_secs: f64) -> Vec<(f64, Metrics)> {
    assert!(
        lanes.iter().all(|(_, stream)| !stream.is_empty()),
        "empty reference stream"
    );
    let mut secs = vec![0.0f64; lanes.len()];
    let mut metrics = Vec::with_capacity(lanes.len());
    let mut passes = 0u32;
    while secs.iter().sum::<f64>() < budget_secs {
        for (lane_secs, &(protocol, stream)) in secs.iter_mut().zip(lanes) {
            let mut machine =
                Machine::new(MachineConfig::paper_base(protocol)).expect("valid paper config");
            *lane_secs += secs_of(|| {
                for &(cpu, va, write) in stream {
                    machine.access(cpu, va, write);
                }
            });
            if passes == 0 {
                metrics.push(machine.metrics());
            }
        }
        passes += 1;
    }
    lanes
        .iter()
        .zip(secs)
        .zip(metrics)
        .map(|((&(_, stream), secs), m)| (stream.len() as f64 * f64::from(passes) / secs, m))
        .collect()
}

/// Pages in the page-cache-thrash stream: with 8 nodes, each node sees
/// ~7/8 of them as remote — far more than its 80 frames.
pub const THRASH_PAGES: u64 = 512;

/// The page-cache-thrash lane: S-COMA throughput when page replacement
/// is on the path.
#[derive(Clone, Debug)]
pub struct PageCacheThrash {
    /// References retired per wall-clock second.
    pub refs_per_sec: f64,
    /// Page replacements in one replay of the stream.
    pub page_replacements: u64,
    /// Wall-clock nanoseconds per page replacement: a whole replay's
    /// time, the rest of the walk included, over its replacements.
    pub ns_per_replacement: f64,
}

impl PageCacheThrash {
    /// The lane's figures from the timing of a `stream_refs`-reference
    /// thrash stream (from [`synth_stream`] over [`THRASH_PAGES`]
    /// pages) and the metrics of one replay of it.
    ///
    /// # Panics
    ///
    /// Panics if the replay made no page replacement.
    fn from_replay(stream_refs: usize, refs_per_sec: f64, metrics: &Metrics) -> PageCacheThrash {
        let page_replacements = metrics.os.page_replacements;
        assert!(
            page_replacements > 0,
            "the stream must overflow the page cache"
        );
        let replay_ns = stream_refs as f64 / refs_per_sec * 1e9;
        PageCacheThrash {
            refs_per_sec,
            page_replacements,
            ns_per_replacement: replay_ns / page_replacements as f64,
        }
    }
}

/// MRU fast-path hit rate of one replay of `stream` (hits per L1 miss).
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn mru_hit_rate(protocol: Protocol, stream: &[Ref]) -> f64 {
    let mut machine =
        Machine::new(MachineConfig::paper_base(protocol)).expect("valid paper config");
    for &(cpu, va, write) in stream {
        machine.access(cpu, va, write);
    }
    let m = machine.metrics();
    if m.l1_misses == 0 {
        0.0
    } else {
        m.mru_translation_hits as f64 / m.l1_misses as f64
    }
}

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
    // The gate reads the ratio of the two legs, so they alternate cell
    // by cell (a drift in host speed hits both alike) until ~2 s of
    // work has been timed.
    let (mut live_secs, mut perop_secs, mut passes) = (0.0f64, 0.0f64, 0u32);
    while live_secs + perop_secs < 2.0 {
        for (&config, ops) in configs.iter().zip(&traces) {
            let mut w = workload();
            live_secs += secs_of(|| {
                std::hint::black_box(run(config, &mut w).cycles());
            });
            perop_secs += secs_of(|| {
                let mut machine = Machine::new(config).expect("valid config");
                live_dispatch(&mut machine, ops);
                std::hint::black_box(machine.metrics().exec_cycles);
            });
        }
        passes += 1;
    }
    FineItemsLane {
        ops: traces.iter().map(|ops| ops.len() as u64).sum(),
        runs,
        live_secs: live_secs / f64::from(passes),
        perop_secs: perop_secs / f64::from(passes),
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
    // The gate reads the ratio of the two legs, so their passes
    // alternate (a drift in host speed hits both alike) until ~1.2 s
    // of work has been timed.
    let (mut batched_secs, mut perop_secs, mut passes) = (0.0f64, 0.0f64, 0u32);
    while batched_secs + perop_secs < 1.2 {
        batched_secs += secs_of(batched_pass);
        perop_secs += secs_of(perop_pass);
        passes += 1;
    }
    ReplayLane {
        replay_ops: store.captured_ops() * configs.len() as u64,
        batched_secs: batched_secs / f64::from(passes),
        perop_secs: perop_secs / f64::from(passes),
    }
}

/// One protocol's measured simulator throughput.
#[derive(Clone, Debug)]
pub struct ProtocolThroughput {
    /// Protocol label ("ideal", "CC-NUMA", ...).
    pub label: &'static str,
    /// References retired per wall-clock second.
    pub refs_per_sec: f64,
}

/// Everything `BENCH_hotpath.json` records.
#[derive(Clone, Debug)]
pub struct HotpathReport {
    /// References in the synthetic stream.
    pub stream_refs: usize,
    /// Per-protocol machine throughput.
    pub protocols: Vec<ProtocolThroughput>,
    /// MRU translation fast-path hit rate per L1 miss (R-NUMA run).
    pub mru_hit_rate: f64,
    /// The page-cache-thrash lane.
    pub thrash: PageCacheThrash,
    /// The replay lane.
    pub replay: ReplayLane,
    /// The fine-grained-items lane.
    pub fine_items: FineItemsLane,
}

impl HotpathReport {
    /// Renders the report as JSON (hand-rolled: the workspace carries no
    /// serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"stream_refs\": {},", self.stream_refs);
        let _ = writeln!(s, "  \"refs_per_sec\": {{");
        for (i, p) in self.protocols.iter().enumerate() {
            let comma = if i + 1 < self.protocols.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    \"{}\": {:.0}{comma}", p.label, p.refs_per_sec);
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"mru_hit_rate\": {:.4},", self.mru_hit_rate);
        let _ = writeln!(s, "  \"page_cache_thrash\": {{");
        let _ = writeln!(s, "    \"stream_pages\": {THRASH_PAGES},");
        let _ = writeln!(s, "    \"refs_per_sec\": {:.0},", self.thrash.refs_per_sec);
        let _ = writeln!(
            s,
            "    \"page_replacements\": {},",
            self.thrash.page_replacements
        );
        let _ = writeln!(
            s,
            "    \"ns_per_replacement\": {:.1}",
            self.thrash.ns_per_replacement
        );
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"replay\": {{");
        let apps: Vec<String> = REPLAY_APPS.iter().map(|a| format!("\"{a}\"")).collect();
        let _ = writeln!(s, "    \"apps\": [{}],", apps.join(", "));
        let _ = writeln!(s, "    \"replay_ops\": {},", self.replay.replay_ops);
        let _ = writeln!(s, "    \"batched_secs\": {:.4},", self.replay.batched_secs);
        let _ = writeln!(s, "    \"perop_secs\": {:.4},", self.replay.perop_secs);
        let _ = writeln!(
            s,
            "    \"batched_speedup_vs_perop\": {:.3},",
            self.replay.speedup()
        );
        let _ = writeln!(s, "    \"gate_floor\": {REPLAY_GATE_FLOOR}");
        let _ = writeln!(s, "  }},");
        let fine = &self.fine_items;
        let _ = writeln!(s, "  \"fine_items\": {{");
        let _ = writeln!(s, "    \"app\": \"{FINE_ITEMS_APP}\",");
        let _ = writeln!(s, "    \"ops\": {},", fine.ops);
        let _ = writeln!(s, "    \"runs\": {},", fine.runs);
        let _ = writeln!(s, "    \"live_secs\": {:.4},", fine.live_secs);
        let _ = writeln!(s, "    \"perop_secs\": {:.4},", fine.perop_secs);
        let _ = writeln!(s, "    \"live_vs_perop\": {:.3},", fine.ratio());
        let _ = writeln!(s, "    \"gate_floor\": {FINE_ITEMS_GATE_FLOOR}");
        let _ = writeln!(s, "  }}");
        s.push('}');
        s
    }

    /// Writes `results/BENCH_hotpath.json` (creating the directory) and
    /// echoes the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors.
    pub fn emit(&self) {
        crate::save("BENCH_hotpath.json", &self.to_json());
    }
}

/// Runs the full hot-path measurement suite.
///
/// # Panics
///
/// Panics if any configuration fails validation.
#[must_use]
pub fn measure(stream_refs: usize) -> HotpathReport {
    // 64 pages × 8 nodes: working set overflows the 128-B R-NUMA block
    // cache (forcing refetches and relocations) but fits the page cache.
    let stream = synth_stream(stream_refs, 64, 32);
    let thrash_stream = synth_stream(stream_refs, THRASH_PAGES, 32);
    let protocols: [(&'static str, Protocol); 4] = [
        ("ideal", Protocol::ideal()),
        ("CC-NUMA", Protocol::paper_ccnuma()),
        ("S-COMA", Protocol::paper_scoma()),
        ("R-NUMA", Protocol::paper_rnuma()),
    ];
    let mut lanes: Vec<(Protocol, &[Ref])> = protocols
        .iter()
        .map(|&(_, p)| (p, stream.as_slice()))
        .collect();
    lanes.push((Protocol::paper_scoma(), &thrash_stream));
    let mut timed = timed_replays(&lanes, ACCESS_LANES_SECS);
    let (thrash_refs_per_sec, thrash_metrics) = timed.pop().expect("the thrash lane was timed");
    let throughput = protocols
        .iter()
        .zip(timed)
        .map(|(&(label, _), (refs_per_sec, _))| ProtocolThroughput {
            label,
            refs_per_sec,
        })
        .collect();
    HotpathReport {
        stream_refs,
        protocols: throughput,
        mru_hit_rate: mru_hit_rate(Protocol::paper_rnuma(), &stream),
        thrash: PageCacheThrash::from_replay(
            thrash_stream.len(),
            thrash_refs_per_sec,
            &thrash_metrics,
        ),
        replay: replay_lane(),
        fine_items: fine_items_lane(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_in_range() {
        let a = synth_stream(1000, 16, 32);
        let b = synth_stream(1000, 16, 32);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(cpu, va, _)| cpu.0 < 32 && va.0 < 16 * 4096));
    }

    #[test]
    fn machine_replay_produces_throughput() {
        let stream = synth_stream(2000, 8, 32);
        let timed = timed_replays(&[(Protocol::paper_ccnuma(), &stream)], 0.05);
        let rps = timed[0].0;
        assert!(rps > 0.0 && rps.is_finite());
    }

    #[test]
    fn json_shape_is_sane() {
        let report = HotpathReport {
            stream_refs: 10,
            protocols: vec![ProtocolThroughput {
                label: "ideal",
                refs_per_sec: 1e6,
            }],
            mru_hit_rate: 0.9,
            thrash: PageCacheThrash {
                refs_per_sec: 2e6,
                page_replacements: 40,
                ns_per_replacement: 1250.0,
            },
            replay: ReplayLane {
                replay_ops: 3000,
                batched_secs: 0.5,
                perop_secs: 0.55,
            },
            fine_items: FineItemsLane {
                ops: 900,
                runs: 400,
                live_secs: 0.4,
                perop_secs: 0.3,
            },
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ideal\": 1000000"));
        assert!(json.contains("\"ns_per_replacement\": 1250.0"));
        assert!(json.contains("\"batched_speedup_vs_perop\": 1.100"));
        assert!(json.contains("\"gate_floor\": 0.927"));
        assert!(json.contains("\"live_vs_perop\": 0.750"));
        assert!(json.contains(&format!("\"gate_floor\": {FINE_ITEMS_GATE_FLOOR}")));
        assert!(!json.contains("lookup"), "the lookup lane is retired");
    }

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

    #[test]
    fn thrash_stream_overflows_the_page_cache() {
        let stream = synth_stream(40_000, THRASH_PAGES, 32);
        let timed = timed_replays(&[(Protocol::paper_scoma(), &stream)], 0.05);
        let lane = PageCacheThrash::from_replay(stream.len(), timed[0].0, &timed[0].1);
        assert!(lane.page_replacements > 0);
        assert!(lane.refs_per_sec > 0.0 && lane.ns_per_replacement > 0.0);
    }

    #[test]
    fn mru_rate_is_a_fraction() {
        let stream = synth_stream(2000, 8, 32);
        let rate = mru_hit_rate(Protocol::paper_rnuma(), &stream);
        assert!((0.0..=1.0).contains(&rate));
    }
}
