//! The trace-codec differential lane: the delta-encoded `TraceStore`
//! segment stream is the **only** storage format, so its
//! decode must be *exact* — bit-identical ops out for ops in — and
//! every replay mode fed from it must agree with the live execution.
//!
//! Two layers of drills (see `docs/SWEEP.md`, "Trace encoding"):
//!
//! 1. **Codec round-trips** — unit and property tests over adversarial
//!    streams: descending walks (stride sign flips through the zigzag
//!    varints), CPU-alternating unit runs, multi-byte strides past
//!    2³², empty and single-op streams, and runs split across segment
//!    boundaries. Decoded ops must equal the originals exactly, and
//!    the per-segment run tables must tile their segments.
//! 2. **Streaming capture ≡ materialized insert**: same decode, same
//!    replay results. (Encoded ≡ flat ≡ live across the figure grid
//!    and on random streams is pinned in `tests/batched_replay.rs`.)
//!
//! The footprint acceptance (encoded ≥ 4× smaller than the flat
//! 16-byte-per-op array on sweep workloads) is pinned here too.

use proptest::prelude::*;
use rnuma::config::MachineConfig;
use rnuma::experiment::{run_traced, TraceStore};
use rnuma::metrics::Metrics;
use rnuma::{split_cpu_runs, CpuRun, Machine, TraceOp};
use rnuma_mem::addr::{CpuId, Va};
use rnuma_sim::Cycles;
use rnuma_workloads::{by_name, Scale, APP_NAMES};

#[path = "support.rs"]
mod support;
use support::{assert_exact_decode, figure_configs};

/// Replays `ops` through the flat batched engine (no store involved).
fn flat_replay(config: MachineConfig, ops: &[TraceOp]) -> Metrics {
    let mut m = Machine::new(config).expect("valid config");
    m.replay_segment(ops, &split_cpu_runs(ops));
    m.metrics()
}

/// Streaming capture (bounded-memory chunked encoding, no flat array)
/// produces the same encoded stream as materializing the trace first:
/// same decode, same replay results.
#[test]
fn streaming_capture_matches_materialized_insert() {
    let configs = figure_configs();
    for app in ["em3d", "lu", "radix"] {
        let (live, trace) = run_traced(configs[0], &mut by_name(app, Scale::Tiny).unwrap());

        let mut streamed = TraceStore::new();
        let (sid, report) = streamed.capture(configs[0], &mut by_name(app, Scale::Tiny).unwrap());
        assert!(
            live.metrics.replay_eq(&report.metrics),
            "{app}: streaming capture perturbed the live run"
        );

        let mut materialized = TraceStore::new();
        let mid = materialized.insert("cell", configs[0], &trace);

        assert_eq!(streamed.ops(sid), materialized.ops(mid));
        assert_eq!(
            streamed.decode(sid),
            materialized.decode(mid),
            "{app}: streamed and materialized stores encoded different streams"
        );
        assert_exact_decode(&streamed, sid, &trace);
        for &config in &configs {
            let a = streamed.replay_serial(sid, config).metrics;
            let b = materialized.replay_serial(mid, config).metrics;
            assert!(
                a.replay_eq(&b),
                "{app} on {}: streamed vs materialized replay diverged",
                config.protocol
            );
        }
    }
}

/// The footprint acceptance: across every application at tiny scale
/// the encoded store is at least 4× smaller than the flat 16-byte op
/// array it replaced.
#[test]
fn figure_grid_capture_compresses_at_least_4x() {
    let config = figure_configs()[0];
    let mut store = TraceStore::new();
    for &app in &APP_NAMES {
        store.capture(config, &mut by_name(app, Scale::Tiny).unwrap());
    }
    assert_eq!(
        store.flat_bytes(),
        store.captured_ops() * std::mem::size_of::<TraceOp>() as u64
    );
    assert!(
        store.footprint_ratio() >= 4.0,
        "columnar encoding must stay ≥ 4× smaller than the flat array \
         (got {:.2}×: {} flat vs {} encoded bytes over {} ops)",
        store.footprint_ratio(),
        store.flat_bytes(),
        store.encoded_bytes(),
        store.captured_ops()
    );
}

/// Empty and single-op streams round-trip and replay exactly.
#[test]
fn empty_and_single_op_streams_round_trip() {
    let config = figure_configs()[3];
    let mut store = TraceStore::new();

    let empty = store.insert("empty", config, &[]);
    assert_exact_decode(&store, empty, &[]);
    let fresh = Machine::new(config).unwrap().metrics();
    assert!(fresh.replay_eq(&store.replay_serial(empty, config).metrics));

    for one in [
        vec![TraceOp::Access {
            cpu: CpuId(3),
            va: Va(0x2000),
            write: true,
        }],
        vec![TraceOp::Think {
            cpu: CpuId(0),
            dur: Cycles(17),
        }],
        vec![TraceOp::Barrier],
        vec![TraceOp::ArmFirstTouch],
    ] {
        let id = store.insert("one", config, &one);
        assert_exact_decode(&store, id, &one);
        let flat = flat_replay(config, &one);
        assert!(flat.replay_eq(&store.replay_serial(id, config).metrics));
    }
}

/// Stride sign flips: a strictly descending walk (every delta
/// negative through the zigzag coding), a sawtooth alternating sign
/// every op, and strides wider than 2³² (multi-byte varints) all
/// decode exactly. Addresses here are wild on purpose — this drills
/// the codec, not the machine, so only decode equality is asserted.
#[test]
fn sign_flipping_and_wide_strides_round_trip() {
    let mut store = TraceStore::new();
    let config = figure_configs()[0];

    let mut descending = Vec::new();
    let mut va = 0x7000_0000u64;
    for i in 0..9000u64 {
        va -= 32 + (i % 7) * 8;
        descending.push(TraceOp::Access {
            cpu: CpuId((i % 3) as u16),
            va: Va(va),
            write: i % 2 == 0,
        });
    }
    let id = store.insert("descending", config, &descending);
    assert_exact_decode(&store, id, &descending);

    let mut sawtooth = Vec::new();
    for i in 0..5000u64 {
        let va = if i % 2 == 0 {
            0x1_0000 + i
        } else {
            0xFFFF_0000 - i
        };
        sawtooth.push(TraceOp::Access {
            cpu: CpuId(0),
            va: Va(va),
            write: false,
        });
    }
    let id = store.insert("sawtooth", config, &sawtooth);
    assert_exact_decode(&store, id, &sawtooth);

    // Deltas past 2³² in both directions, including the u64 extremes:
    // the zigzag varints must carry the full 64-bit domain.
    let wide = vec![
        TraceOp::Access {
            cpu: CpuId(0),
            va: Va(0),
            write: false,
        },
        TraceOp::Access {
            cpu: CpuId(0),
            va: Va(u64::MAX),
            write: true,
        },
        TraceOp::Access {
            cpu: CpuId(0),
            va: Va(1 << 33),
            write: false,
        },
        TraceOp::Access {
            cpu: CpuId(1),
            va: Va(0xDEAD_BEEF_CAFE_F00D),
            write: true,
        },
        TraceOp::Barrier,
        TraceOp::Access {
            cpu: CpuId(1),
            va: Va(42),
            write: false,
        },
        TraceOp::Access {
            cpu: CpuId(0),
            va: Va(1 << 62),
            write: false,
        },
    ];
    let id = store.insert("wide", config, &wide);
    assert_exact_decode(&store, id, &wide);
}

/// A single same-CPU run far longer than one segment: the encoder
/// splits it across segment boundaries and the per-CPU base references
/// reset per segment, yet the decode tiles back exactly and replays
/// bit-identically to the flat engine.
#[test]
fn runs_split_across_segment_boundaries_round_trip() {
    let config = figure_configs()[1];
    let mut ops = vec![TraceOp::ArmFirstTouch];
    for i in 0..20_000u64 {
        ops.push(TraceOp::Access {
            cpu: CpuId(0),
            va: Va(0x10_0000 + (i % 4096) * 32),
            write: i % 9 == 0,
        });
    }
    let mut store = TraceStore::new();
    let id = store.insert("long", config, &ops);
    let mut segments = 0usize;
    store.for_each_batch(id, |_, _| segments += 1);
    assert!(segments >= 4, "stream must span several segments to bite");
    assert_exact_decode(&store, id, &ops);
    assert!(flat_replay(config, &ops).replay_eq(&store.replay_serial(id, config).metrics));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adversarial random streams — random CPUs, wandering addresses
    /// with sign-flipping strides up to 2⁴⁰, think time, barriers,
    /// first-touch arms — round-trip the codec exactly and tile their
    /// segments. Pure codec drill: addresses span the full wild range.
    #[test]
    fn adversarial_streams_round_trip_exactly(
        start in 0u64..(1 << 48),
        stream in prop::collection::vec(
            (0u16..32, 0u8..10, 0u64..(1u64 << 40)),
            1..600,
        ),
    ) {
        let config = figure_configs()[0];
        let mut ops = Vec::with_capacity(stream.len());
        let mut va = start;
        for &(cpu, kind, stride) in &stream {
            match kind {
                0 => ops.push(TraceOp::Barrier),
                1 => ops.push(TraceOp::ArmFirstTouch),
                2 | 3 => ops.push(TraceOp::Think { cpu: CpuId(cpu), dur: Cycles(stride) }),
                k => {
                    // Odd kinds walk down, even kinds walk up: dense
                    // sign flips through the zigzag coding.
                    va = if k % 2 == 1 {
                        va.wrapping_sub(stride)
                    } else {
                        va.wrapping_add(stride)
                    };
                    ops.push(TraceOp::Access { cpu: CpuId(cpu), va: Va(va), write: k == 4 });
                }
            }
        }
        let mut store = TraceStore::new();
        let id = store.insert("adversarial", config, &ops);
        prop_assert_eq!(store.decode(id).as_slice(), ops.as_slice());
        let mut rebuilt: Vec<TraceOp> = Vec::new();
        store.for_each_batch(id, |chunk, runs| {
            let tiled: usize = runs.iter().map(|r| match *r {
                CpuRun::Cpu { len, .. } => len,
                CpuRun::Global => 1,
            }).sum();
            assert_eq!(tiled, chunk.len(), "run table does not tile its segment");
            rebuilt.extend_from_slice(chunk);
        });
        prop_assert_eq!(rebuilt.as_slice(), ops.as_slice());
    }
}
