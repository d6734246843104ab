//! The differential contract of the batched replay loop: for every
//! cell of the figure grid and for adversarial random streams,
//!
//! > **batched replay ≡ live execution**, bit-identical
//! > (`Metrics::replay_eq`).
//!
//! "Batched" is `Machine::replay_segment` — the *only* replay entry
//! point (contiguous same-CPU runs streamed without per-op dispatch,
//! from a run table: `split_cpu_runs` of a flat trace, or the pre-split
//! tables a `TraceStore` computes at capture time). "Live" is the
//! execution-driven run the trace was captured from, whose `Runner`
//! runs each workload item through the same batched kernel.
//! `per_op_replay` below drives the per-op API one op at a time
//! (`hotpath::live_dispatch`), the suite's independent differential
//! reference. Every store replay also checks that the store decodes
//! its stream exactly. See `docs/SWEEP.md`.
//!
//! The splitter's edge cases (empty traces, single-op segments,
//! CPU-alternating streams, same-CPU runs split across the store's
//! segment boundaries) are pinned here too; the pure-function unit
//! tests live next to `split_cpu_runs` in `crates/core/src/trace.rs`.

use proptest::prelude::*;
use rnuma::config::MachineConfig;
use rnuma::experiment::{run_traced, TraceStore};
use rnuma::metrics::Metrics;
use rnuma::program::{Runner, Workload};
use rnuma::{split_cpu_runs, Machine, TraceOp};
use rnuma_mem::addr::{CpuId, Va};
use rnuma_sim::Cycles;
use rnuma_workloads::{by_name, Scale, APP_NAMES};

#[path = "support.rs"]
mod support;
use support::{assert_exact_decode, figure_configs};

fn per_op_replay(config: MachineConfig, ops: &[TraceOp]) -> Metrics {
    let mut m = Machine::new(config).expect("valid config");
    rnuma_bench::hotpath::live_dispatch(&mut m, ops);
    m.metrics()
}

fn batched_replay(config: MachineConfig, ops: &[TraceOp]) -> Metrics {
    let mut m = Machine::new(config).expect("valid config");
    m.replay_segment(ops, &split_cpu_runs(ops));
    m.metrics()
}

fn store_replay(config: MachineConfig, ops: &[TraceOp]) -> Metrics {
    // Through the encoded store: segmented at capture time, replayed
    // from the run tables its decoder rebuilds.
    let mut store = TraceStore::new();
    let id = store.insert("synthetic", config, ops);
    assert_exact_decode(&store, id, ops);
    store.replay_serial(id, config).metrics
}

/// Asserts the three replay modes agree with the live execution, and
/// that the store decodes `ops` exactly.
fn assert_three_way(live: &Metrics, config: MachineConfig, ops: &[TraceOp], label: &str) {
    let per_op = per_op_replay(config, ops);
    assert!(
        live.replay_eq(&per_op),
        "{label}: per-op replay diverged from live\nlive:   {live}\nper-op: {per_op}"
    );
    let batched = batched_replay(config, ops);
    assert!(
        live.replay_eq(&batched),
        "{label}: batched replay diverged from live\nlive:    {live}\nbatched: {batched}"
    );
    let store = store_replay(config, ops);
    assert!(
        live.replay_eq(&store),
        "{label}: segmented store replay diverged from live\nlive:  {live}\nstore: {store}"
    );
}

/// Every figure-grid cell: live execution on the cell's configuration,
/// its trace replayed per-op, batched, and through the encoded store —
/// all four bit-identical, with the store's decode exact.
#[test]
fn live_per_op_and_batched_agree_across_the_figure_grid() {
    for &app in &APP_NAMES {
        for config in figure_configs() {
            let mut w = by_name(app, Scale::Tiny).expect("known app");
            let (live, trace) = run_traced(config, &mut w);
            assert_three_way(
                &live.metrics,
                config,
                &trace,
                &format!("{app} on {}", config.protocol),
            );
        }
    }
}

/// One `serial` item larger than a store segment: the runner's recorder
/// cuts it into exact segment-sized chunks, and the run it executed as
/// one batch matches a per-op dispatch of the recorded stream.
#[test]
fn a_serial_item_longer_than_a_segment_records_exact_chunks() {
    /// The store's segment size, which is the capture chunk size.
    const SEG_OPS: usize = 4096;
    struct LongItem;
    impl Workload for LongItem {
        fn name(&self) -> &'static str {
            "long-item"
        }
        fn run(&mut self, r: &mut Runner<'_>) {
            let data = r.alloc(64 * 4096);
            r.arm_first_touch();
            r.serial(CpuId(9), |ctx| {
                for i in 0..10_000u64 {
                    ctx.update(data.word((i * 37) % data.len(8)));
                    ctx.think(i % 5);
                }
            });
            r.barrier();
        }
    }
    let config = figure_configs()[3];
    let mut store = TraceStore::new();
    let (id, report) = store.capture(config, &mut LongItem);
    let (_, trace) = run_traced(config, &mut LongItem);
    assert_eq!(trace.len(), 2 + 3 * 10_000);
    assert_exact_decode(&store, id, &trace);
    let mut sizes = Vec::new();
    store.for_each_batch(id, |ops, _| sizes.push(ops.len()));
    let exact: Vec<usize> = trace.chunks(SEG_OPS).map(<[_]>::len).collect();
    assert_eq!(sizes, exact, "segments must be exact SEG_OPS-op chunks");
    let per_op = per_op_replay(config, &trace);
    assert!(
        report.metrics.replay_eq(&per_op),
        "batched item diverged from per-op dispatch\nlive:   {}\nper-op: {per_op}",
        report.metrics
    );
}

/// The sweep direction of the contract: one stream captured on the
/// baseline, replayed per-op vs. batched on every *other* configuration
/// of the axis (where no live execution of that stream exists).
#[test]
fn cross_config_replay_agrees_per_op_vs_batched() {
    let configs = figure_configs();
    for app in ["em3d", "lu", "radix"] {
        let mut w = by_name(app, Scale::Tiny).expect("known app");
        let (_, trace) = run_traced(configs[0], &mut w);
        let mut store = TraceStore::new();
        let id = store.insert("cell", configs[0], &trace);
        for &config in &configs[1..] {
            let per_op = per_op_replay(config, &trace);
            let batched = batched_replay(config, &trace);
            assert!(
                per_op.replay_eq(&batched),
                "{app} on {}: batched diverged from per-op",
                config.protocol
            );
            let swept = store.replay_serial(id, config).metrics;
            assert!(
                per_op.replay_eq(&swept),
                "{app} on {}: store replay diverged from per-op",
                config.protocol
            );
        }
    }
}

/// Edge cases of the batch splitter, end to end: empty traces,
/// single-op streams, and CPU-alternating streams whose runs all have
/// length 1.
#[test]
fn splitter_edge_cases_replay_identically() {
    let config = figure_configs()[3]; // R-NUMA: the richest walk
                                      // Empty trace: all modes are a fresh machine.
    assert_three_way(
        &Machine::new(config).unwrap().metrics(),
        config,
        &[],
        "empty trace",
    );
    // Single-op stream.
    let one = vec![TraceOp::Access {
        cpu: CpuId(0),
        va: Va(0x1000),
        write: true,
    }];
    assert_three_way(&per_op_replay(config, &one), config, &one, "single op");
    // CPU-alternating stream: every same-CPU run has length 1, and the
    // CPUs span nodes so the walk crosses the machine.
    let mut alternating = vec![TraceOp::ArmFirstTouch];
    for i in 0..600u64 {
        let cpu = CpuId((i % 32) as u16);
        alternating.push(TraceOp::Access {
            cpu,
            va: Va(0x4000 + (i % 24) * 4096 + (i % 128) * 32),
            write: i % 3 == 0,
        });
        if i % 97 == 96 {
            alternating.push(TraceOp::Barrier);
        }
    }
    assert_three_way(
        &per_op_replay(config, &alternating),
        config,
        &alternating,
        "alternating CPUs",
    );
}

/// A same-CPU run longer than the store's segment size: the store
/// splits it across segment boundaries, and the per-segment run
/// tables must still tile and replay exactly.
#[test]
fn segment_boundaries_splitting_a_run_replay_identically() {
    let config = figure_configs()[1]; // CC-NUMA
                                      // 10k+ ops from one CPU: spans three 4096-op segments.
    let mut ops = vec![TraceOp::ArmFirstTouch];
    for i in 0..10_000u64 {
        ops.push(TraceOp::Access {
            cpu: CpuId(0),
            va: Va(0x10_0000 + (i % 2048) * 32),
            write: false,
        });
        if i % 512 == 511 {
            ops.push(TraceOp::Think {
                cpu: CpuId(0),
                dur: Cycles(8),
            });
        }
    }
    let per_op = per_op_replay(config, &ops);
    let mut store = TraceStore::new();
    let id = store.insert("long-run", config, &ops);
    let mut segments = 0usize;
    store.for_each_batch(id, |_, _| segments += 1);
    assert!(
        segments > 1,
        "stream must span several segments for this test to bite"
    );
    let swept = store.replay_serial(id, config).metrics;
    assert!(
        per_op.replay_eq(&swept),
        "segment-split run diverged:\nper-op: {per_op}\nstore:  {swept}"
    );
    // The flat batched path agrees too.
    let batched = batched_replay(config, &ops);
    assert!(per_op.replay_eq(&batched));
}

/// Sharded replay: one stream cut into contiguous shards, each shard
/// fed to the same machine as its own batch, in order. Every cut point
/// (inside same-CPU runs, next to barriers, at both ends) must leave
/// the result bit-identical to replaying the whole stream as one
/// batch — the machine state a batch leaves behind is all the next
/// batch needs.
#[test]
fn sharded_replay_over_batched_segments_stays_deterministic() {
    let configs = figure_configs();
    for app in ["em3d", "ocean"] {
        let mut w = by_name(app, Scale::Tiny).expect("known app");
        let (_, trace) = run_traced(configs[0], &mut w);
        for &config in &configs {
            let whole = batched_replay(config, &trace);
            for shards in [2usize, 3, 7, 64] {
                let len = trace.len().div_ceil(shards).max(1);
                let mut m = Machine::new(config).expect("valid config");
                for shard in trace.chunks(len) {
                    m.replay_segment(shard, &split_cpu_runs(shard));
                }
                let sharded = m.metrics();
                assert!(
                    whole.replay_eq(&sharded),
                    "{app} on {}: {shards}-shard replay diverged\nwhole:   {whole}\nsharded: {sharded}",
                    config.protocol
                );
            }
        }
    }
}

/// A run table that does not tile its segment is rejected loudly.
#[test]
#[should_panic(expected = "run table does not tile")]
fn mismatched_run_table_panics() {
    let config = figure_configs()[0];
    let ops = [TraceOp::Access {
        cpu: CpuId(0),
        va: Va(0x1000),
        write: false,
    }];
    let mut m = Machine::new(config).unwrap();
    m.replay_segment(&ops, &[]);
}

proptest! {
    /// Random streams — random CPUs, small shared page pool, think
    /// time, barriers — executed live and replayed per-op, batched,
    /// and through the encoded store: all bit-identical, on every
    /// figure protocol, with the store's decode exact.
    #[test]
    fn random_streams_agree_live_per_op_batched(
        config_idx in 0usize..4,
        stream in prop::collection::vec(
            (0u16..32, 0u64..24, 0u64..128, 0u32..10),
            1..400,
        ),
    ) {
        let config = figure_configs()[config_idx];
        let mut ops = vec![TraceOp::ArmFirstTouch];
        for &(cpu, page, block, flags) in &stream {
            ops.push(TraceOp::Access {
                cpu: CpuId(cpu),
                va: Va(0x4000 + page * 4096 + block * 32),
                write: flags & 1 == 1,
            });
            if flags == 7 {
                ops.push(TraceOp::Barrier);
            }
            if flags == 8 {
                ops.push(TraceOp::Think { cpu: CpuId(cpu), dur: Cycles(block) });
            }
        }
        // Live: drive the machine API directly.
        let mut live = Machine::new(config).expect("valid config");
        for op in &ops {
            match *op {
                TraceOp::Access { cpu, va, write } => { live.access(cpu, va, write); }
                TraceOp::Think { cpu, dur } => live.advance(cpu, dur),
                TraceOp::Barrier => live.barrier_all(),
                TraceOp::ArmFirstTouch => live.arm_first_touch(),
            }
        }
        let live = live.metrics();
        let per_op = per_op_replay(config, &ops);
        prop_assert!(live.replay_eq(&per_op), "per-op replay diverged from live");
        let batched = batched_replay(config, &ops);
        prop_assert!(live.replay_eq(&batched), "batched replay diverged from live");
        let store = store_replay(config, &ops);
        prop_assert!(live.replay_eq(&store), "store replay diverged from live");
    }
}
