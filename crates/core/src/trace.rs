//! The machine-level operation stream ([`TraceOp`]), its run tables
//! ([`CpuRun`]), and delta-encoded byte-stream storage for captured
//! streams.
//!
//! A trace is the sequence of [`TraceOp`]s one run issues, in the
//! canonical order the machine executed them. The batched replay loop
//! groups it into *runs* — maximal contiguous same-CPU spans, the one
//! grouping rule [`scan_runs`] defines — and [`split_cpu_runs`] records
//! those runs as a table.
//!
//! The rest of this module is the storage layer under
//! [`TraceStore`](crate::experiment::TraceStore). A captured stream is
//! held not as an array of 16-byte `TraceOp` structs but as one varint
//! byte stream per segment, written run by run: a same-CPU run is its
//! CPU tag and length, its op kinds as a packed 2-bit column, and one
//! varint payload per op, with access addresses stored as zigzag
//! deltas from the same CPU's previous access in the segment. R-NUMA
//! reference streams are dominated by small-stride runs inside a CPU's
//! working set, so the typical access costs one or two bytes instead
//! of sixteen.
//!
//! The stream holds no index and no shared data: every byte belongs to
//! exactly one run, and each segment decodes on its own. The decoder
//! checks its input and panics with a "trace stream corrupt"
//! diagnostic on a malformed stream or a wrong op count, so a store
//! bug fails loudly instead of replaying garbage.

use rnuma_mem::addr::{CpuId, Va};
use rnuma_sim::Cycles;
use std::ops::Range;

/// One replayable machine-level operation.
///
/// A trace of these is a complete record of a run: replaying it on a
/// fresh machine of the same configuration reproduces the run exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// One memory reference.
    Access {
        /// The issuing CPU.
        cpu: CpuId,
        /// The virtual address referenced.
        va: Va,
        /// `true` for a store.
        write: bool,
    },
    /// Compute time on one CPU.
    Think {
        /// The computing CPU.
        cpu: CpuId,
        /// The duration charged.
        dur: Cycles,
    },
    /// A global barrier across all CPUs.
    Barrier,
}

impl TraceOp {
    /// The issuing CPU of a per-CPU op (`Access`/`Think`), or `None`
    /// for a `Barrier`. This is the key the batched replay loop groups
    /// contiguous runs by.
    #[must_use]
    pub fn issuer(&self) -> Option<CpuId> {
        match *self {
            TraceOp::Access { cpu, .. } | TraceOp::Think { cpu, .. } => Some(cpu),
            TraceOp::Barrier => None,
        }
    }
}

/// One entry of a segment's *run table*: the batched replay loop's unit
/// of work. A run table tiles its segment exactly, in order; each entry
/// is either a maximal run of consecutive per-CPU ops all issued by the
/// same CPU, or a single barrier.
///
/// `TraceStore`'s decoder rebuilds each segment's run table from the
/// run boundaries its stream records, so replay consumes the pre-split
/// form without rescanning the ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuRun {
    /// `len` consecutive `Access`/`Think` ops, all issued by `cpu`.
    Cpu {
        /// The run's issuing CPU.
        cpu: CpuId,
        /// Number of consecutive ops in the run (always at least 1).
        len: usize,
    },
    /// One `Barrier`.
    Barrier,
}

/// Walks `ops` as its maximal runs, calling `f` once per run with the
/// run's issuer (`None` for a single barrier) and its index range.
/// The one place the grouping rule lives: [`split_cpu_runs`] records
/// the runs as a table, and the store's encoder
/// (`encode_segment`) streams them directly.
pub(crate) fn scan_runs(ops: &[TraceOp], mut f: impl FnMut(Option<CpuId>, Range<usize>)) {
    let mut i = 0usize;
    while i < ops.len() {
        match ops[i].issuer() {
            None => {
                f(None, i..i + 1);
                i += 1;
            }
            Some(cpu) => {
                let start = i;
                i += 1;
                while i < ops.len() && ops[i].issuer() == Some(cpu) {
                    i += 1;
                }
                f(Some(cpu), start..i);
            }
        }
    }
}

/// Splits `ops` into its run table: maximal contiguous same-CPU runs,
/// with each barrier as its own entry. The returned entries tile
/// `ops` exactly, in order (an empty slice yields an empty table).
#[must_use]
pub fn split_cpu_runs(ops: &[TraceOp]) -> Vec<CpuRun> {
    let mut runs = Vec::new();
    scan_runs(ops, |issuer, range| match issuer {
        Some(cpu) => runs.push(CpuRun::Cpu {
            cpu,
            len: range.len(),
        }),
        None => runs.push(CpuRun::Barrier),
    });
    runs
}

/// Ops per stream segment: the decode/replay granularity (and the
/// streaming-capture flush unit). Long enough that segment dispatch is
/// noise, short enough that a decode scratch buffer stays around a
/// hundred kilobytes.
pub(crate) const SEG_OPS: usize = 4096;

// ---------------------------------------------------------------------
// Varint / zigzag primitives (LEB128, little-endian base-128).
// ---------------------------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        // A u64 is at most ten varint bytes; more is corruption.
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------
// Encoded segments: one varint byte stream per segment.
// ---------------------------------------------------------------------

/// Stream tag for a barrier; a CPU run is tagged `varint(cpu + 1)`.
const TAG_BARRIER: u64 = 0;
const TAG_CPU_BASE: u64 = 1;

/// Per-op kind codes inside a run's packed 2-bit column.
const KIND_READ: u8 = 0;
const KIND_WRITE: u8 = 1;
const KIND_THINK: u8 = 2;

/// Per-CPU last-access-address references threaded through one
/// segment's stream: every access is stored as a zigzag delta from
/// the same CPU's previous access in the *same segment*, so a run's
/// first access costs a byte or two when the CPU's partition walk
/// continues where its previous run left off. References reset at
/// segment boundaries, keeping every segment independently decodable.
#[derive(Debug, Default)]
pub(crate) struct CpuRefs(Vec<u64>);

impl CpuRefs {
    fn reset(&mut self) {
        self.0.clear();
    }

    fn get(&self, cpu: CpuId) -> u64 {
        self.0.get(cpu.0 as usize).copied().unwrap_or(0)
    }

    fn set(&mut self, cpu: CpuId, va: u64) {
        let idx = cpu.0 as usize;
        if self.0.len() <= idx {
            self.0.resize(idx + 1, 0);
        }
        self.0[idx] = va;
    }
}

/// One stored segment: its byte range in the store's stream and its op
/// count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SegMeta {
    pub(crate) run_start: u64,
    pub(crate) run_len: u32,
    pub(crate) ops: u32,
}

/// Appends one segment of ops to `stream`, returning its [`SegMeta`]
/// (the caller appends it to the segment table). The segment is its
/// runs in order ([`scan_runs`]), each written inline:
///
/// - a barrier is one tag varint (`TAG_BARRIER`);
/// - a same-CPU run of `len` ops is `varint(cpu + 1)`, `varint(len)`,
///   then `ceil(len / 4)` bytes of 2-bit kind codes (op `i` in byte
///   `i / 4` at bit `2 * (i % 4)`), then one varint per op: a plain
///   duration for a think, a zigzag address delta from the CPU's
///   previous access ([`CpuRefs`]) for an access.
pub(crate) fn encode_segment(
    chunk: &[TraceOp],
    stream: &mut Vec<u8>,
    refs: &mut CpuRefs,
) -> SegMeta {
    let run_start = stream.len() as u64;
    refs.reset();
    scan_runs(chunk, |issuer, range| {
        let Some(cpu) = issuer else {
            put_varint(stream, TAG_BARRIER);
            return;
        };
        put_varint(stream, TAG_CPU_BASE + u64::from(cpu.0));
        put_varint(stream, range.len() as u64);
        let kinds = stream.len();
        stream.resize(kinds + range.len().div_ceil(4), 0);
        let mut prev = refs.get(cpu);
        for (i, op) in chunk[range].iter().enumerate() {
            let kind = match *op {
                TraceOp::Access { va, write, .. } => {
                    put_varint(stream, zigzag(va.0.wrapping_sub(prev) as i64));
                    prev = va.0;
                    if write {
                        KIND_WRITE
                    } else {
                        KIND_READ
                    }
                }
                TraceOp::Think { dur, .. } => {
                    put_varint(stream, dur.0);
                    KIND_THINK
                }
                TraceOp::Barrier => {
                    unreachable!("scan_runs never puts a barrier in a CPU run")
                }
            };
            stream[kinds + i / 4] |= kind << (2 * (i % 4));
        }
        refs.set(cpu, prev);
    });
    SegMeta {
        run_start,
        run_len: u32::try_from(stream.len() as u64 - run_start).expect("segment stream overflow"),
        ops: chunk.len() as u32,
    }
}

/// Decodes one segment back into ops and a [`CpuRun`] table (both
/// cleared first) — exactly the batched form
/// [`Machine::replay_segment`](crate::machine::Machine::replay_segment)
/// consumes.
///
/// # Panics
///
/// Panics with a "trace stream corrupt" diagnostic when the segment's
/// bytes are malformed or do not decode to exactly `seg.ops` ops — a
/// store bug, which must fail loudly rather than replay garbage.
pub(crate) fn decode_segment(
    seg: SegMeta,
    stream: &[u8],
    ops: &mut Vec<TraceOp>,
    runs: &mut Vec<CpuRun>,
    refs: &mut CpuRefs,
) {
    ops.clear();
    runs.clear();
    refs.reset();
    let bytes = usize::try_from(seg.run_start)
        .ok()
        .and_then(|start| stream.get(start..start + seg.run_len as usize))
        .unwrap_or_else(|| corrupt("segment range"));
    let mut pos = 0;
    while pos < bytes.len() {
        let cpu = match get_varint(bytes, &mut pos).unwrap_or_else(|| corrupt("run tag short")) {
            TAG_BARRIER => {
                ops.push(TraceOp::Barrier);
                runs.push(CpuRun::Barrier);
                continue;
            }
            tag => u16::try_from(tag - TAG_CPU_BASE)
                .map(CpuId)
                .unwrap_or_else(|_| corrupt("cpu id overflow")),
        };
        let len = get_varint(bytes, &mut pos)
            .and_then(|v| usize::try_from(v).ok())
            .filter(|&len| len > 0)
            .unwrap_or_else(|| corrupt("run length"));
        let kinds = pos;
        pos = kinds
            .checked_add(len.div_ceil(4))
            .filter(|&end| end <= bytes.len())
            .unwrap_or_else(|| corrupt("kind column short"));
        let mut prev = refs.get(cpu);
        for i in 0..len {
            let payload = get_varint(bytes, &mut pos).unwrap_or_else(|| corrupt("payload short"));
            ops.push(match (bytes[kinds + i / 4] >> (2 * (i % 4))) & 0b11 {
                KIND_THINK => TraceOp::Think {
                    cpu,
                    dur: Cycles(payload),
                },
                kind @ (KIND_READ | KIND_WRITE) => {
                    prev = prev.wrapping_add(unzigzag(payload) as u64);
                    TraceOp::Access {
                        cpu,
                        va: Va(prev),
                        write: kind == KIND_WRITE,
                    }
                }
                _ => corrupt("kind code"),
            });
        }
        refs.set(cpu, prev);
        runs.push(CpuRun::Cpu { cpu, len });
    }
    if ops.len() != seg.ops as usize {
        corrupt("op count");
    }
}

#[cold]
fn corrupt(what: &str) -> ! {
    panic!("trace stream corrupt ({what}): store bug")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(cpu: u16, va: u64, write: bool) -> TraceOp {
        TraceOp::Access {
            cpu: CpuId(cpu),
            va: Va(va),
            write,
        }
    }

    fn think(cpu: u16, dur: u64) -> TraceOp {
        TraceOp::Think {
            cpu: CpuId(cpu),
            dur: Cycles(dur),
        }
    }

    /// Encodes each of `segs` as one segment of a shared stream.
    fn encode(segs: &[&[TraceOp]]) -> (Vec<u8>, Vec<SegMeta>) {
        let (mut stream, mut refs) = (Vec::new(), CpuRefs::default());
        let metas = segs
            .iter()
            .map(|seg| encode_segment(seg, &mut stream, &mut refs))
            .collect();
        (stream, metas)
    }

    fn decode(meta: SegMeta, stream: &[u8]) -> (Vec<TraceOp>, Vec<CpuRun>) {
        let (mut ops, mut runs) = (Vec::new(), Vec::new());
        decode_segment(meta, stream, &mut ops, &mut runs, &mut CpuRefs::default());
        (ops, runs)
    }

    fn round_trip(ops: &[TraceOp]) -> Vec<TraceOp> {
        let (stream, metas) = encode(&[ops]);
        let (out, runs) = decode(metas[0], &stream);
        assert_eq!(runs, split_cpu_runs(ops), "decoded run table");
        out
    }

    #[test]
    fn split_cpu_runs_empty_trace_is_empty() {
        assert!(split_cpu_runs(&[]).is_empty());
    }

    #[test]
    fn split_cpu_runs_single_op_forms_one_run() {
        assert_eq!(
            split_cpu_runs(&[access(3, 0x1000, false)]),
            vec![CpuRun::Cpu {
                cpu: CpuId(3),
                len: 1
            }]
        );
        assert_eq!(split_cpu_runs(&[TraceOp::Barrier]), vec![CpuRun::Barrier]);
    }

    #[test]
    fn split_cpu_runs_alternating_cpus_yield_unit_runs() {
        let ops: Vec<TraceOp> = (0..6).map(|i| access(i % 2, 0x1000, false)).collect();
        let runs = split_cpu_runs(&ops);
        assert_eq!(runs.len(), 6);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(
                *run,
                CpuRun::Cpu {
                    cpu: CpuId((i % 2) as u16),
                    len: 1
                }
            );
        }
    }

    #[test]
    fn split_cpu_runs_groups_maximal_same_cpu_spans() {
        let ops = [
            access(0, 0x1000, false),
            access(0, 0x1020, false),
            TraceOp::Think {
                cpu: CpuId(0),
                dur: Cycles(5),
            },
            access(4, 0x2000, false),
            TraceOp::Barrier,
            TraceOp::Barrier,
            access(4, 0x2020, false),
        ];
        assert_eq!(
            split_cpu_runs(&ops),
            vec![
                CpuRun::Cpu {
                    cpu: CpuId(0),
                    len: 3
                },
                CpuRun::Cpu {
                    cpu: CpuId(4),
                    len: 1
                },
                CpuRun::Barrier,
                CpuRun::Barrier,
                CpuRun::Cpu {
                    cpu: CpuId(4),
                    len: 1
                },
            ]
        );
    }

    #[test]
    fn split_cpu_runs_tables_tile_their_input() {
        // Interleaved CPUs, long same-CPU spans and barriers.
        let mut ops = vec![TraceOp::Barrier];
        for i in 0..512u64 {
            let cpu = ((i / 7) % 32) as u16;
            ops.push(access(cpu, 0x1000 + i * 32, i % 5 == 0));
            if i % 3 == 0 {
                ops.push(think(cpu, i));
            }
            if i % 64 == 63 {
                ops.push(TraceOp::Barrier);
            }
        }
        let runs = split_cpu_runs(&ops);
        let total: usize = runs
            .iter()
            .map(|r| match r {
                CpuRun::Cpu { len, .. } => *len,
                CpuRun::Barrier => 1,
            })
            .sum();
        assert_eq!(total, ops.len());
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        assert_eq!(get_varint(&[], &mut 0), None);
        assert_eq!(get_varint(&[0x80], &mut 0), None, "unterminated varint");
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn run_codec_round_trips_mixed_ops_and_sign_flips() {
        let ops = vec![
            access(3, 0x10_0000, false),
            access(3, 0x10_0008, true),
            think(3, 57),
            access(3, 0x0f_ff00, false), // negative stride
            access(3, u64::MAX, true),   // wraparound delta
            access(3, 0, false),
            think(3, 0),
            access(4, 1 << 63, false), // another CPU's first access
            access(3, 0x7fff_ffff_ffff_ffff, true),
        ];
        assert_eq!(round_trip(&ops), ops);
    }

    #[test]
    fn run_codec_handles_single_op_and_all_think_runs() {
        let one = vec![access(0, 0x2000, true)];
        assert_eq!(round_trip(&one), one);
        let thinks = vec![think(5, 1), think(5, 1 << 40), think(5, u64::MAX)];
        assert_eq!(round_trip(&thinks), thinks);
        // A think-only run between two runs of the same CPU leaves its
        // address reference where the first run left it.
        let split = vec![
            access(2, 0x9000, false),
            TraceOp::Barrier,
            think(2, 3),
            TraceOp::Barrier,
            access(2, 0x9008, true),
        ];
        assert_eq!(round_trip(&split), split);
    }

    #[test]
    fn segment_round_trips_interleaved_cpus_and_global_ops() {
        // CPUs alternating per item (unit-length runs), barriers in
        // the middle, a think-only run, and a second segment continuing
        // each CPU's walk — exercising the per-CPU base references and
        // their reset at the segment boundary.
        let mut seg_a = vec![TraceOp::Barrier];
        for i in 0..32u64 {
            seg_a.push(access(0, 0x1_0000 + i * 8, i % 3 == 0));
            seg_a.push(access(1, 0x9_0000 + i * 8, false));
        }
        seg_a.push(TraceOp::Barrier);
        seg_a.push(think(2, 77));
        let seg_b: Vec<TraceOp> = (32..48u64)
            .flat_map(|i| {
                [
                    access(0, 0x1_0000 + i * 8, false),
                    access(1, 0x9_0000 + i * 8, true),
                ]
            })
            .collect();

        let (stream, metas) = encode(&[&seg_a, &seg_b]);
        // Decoding the second segment first, with fresh references,
        // proves its bases do not lean on the first segment's walk.
        for (meta, expect) in metas.iter().zip([&seg_a, &seg_b]).rev() {
            let (ops, runs) = decode(*meta, &stream);
            assert_eq!(ops.as_slice(), expect.as_slice());
            assert_eq!(runs, split_cpu_runs(expect), "runs must tile the segment");
        }
        // The reset is visible in the bytes: the second segment's first
        // access stores its full address, not the small continuation
        // delta from the first segment's last access.
        let b = &stream[metas[1].run_start as usize..];
        let mut pos = 0;
        assert_eq!(get_varint(b, &mut pos), Some(TAG_CPU_BASE)); // CPU 0
        assert_eq!(get_varint(b, &mut pos), Some(1)); // a unit run
        pos += 1; // its kind byte
        assert_eq!(get_varint(b, &mut pos), Some(zigzag(0x1_0000 + 32 * 8)));
    }

    /// Encodes a two-CPU segment whose last op is an access, so cutting
    /// the final byte leaves its payload varint unterminated.
    fn sample() -> (Vec<u8>, SegMeta) {
        let ops = [
            access(1, 0x4000, false),
            think(1, 9),
            TraceOp::Barrier,
            access(2, 0x4100, true),
        ];
        let (stream, metas) = encode(&[&ops]);
        (stream, metas[0])
    }

    #[test]
    fn corrupt_blob_fails_loudly() {
        // A segment's byte stream cut short by one byte must panic, not
        // decode a short or garbled run.
        let (stream, mut meta) = sample();
        meta.run_len -= 1;
        let err = std::panic::catch_unwind(move || decode(meta, &stream))
            .expect_err("truncated stream must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("trace stream corrupt"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "trace stream corrupt (op count)")]
    fn wrong_op_count_fails_loudly() {
        let (stream, mut meta) = sample();
        meta.ops += 1;
        decode(meta, &stream);
    }
}
