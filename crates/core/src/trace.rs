//! The machine-level operation stream ([`TraceOp`]), its run tables
//! ([`CpuRun`]), and columnar, delta-encoded storage for captured
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
//! held not as an array of 24-byte `TraceOp` structs but as runs, each
//! reduced to a varint-coded entry in a per-segment *run stream* plus a
//! *profile*:
//! a byte blob holding the run's op kinds as a packed 2-bit column and
//! its payloads as varints, with access addresses stored as zigzag
//! deltas from the previous address in the run (and run bases as
//! deltas from the same CPU's previous run in the segment). R-NUMA
//! reference streams are dominated by small-stride runs inside a CPU's
//! working set, so the typical access costs one or two bytes instead
//! of twenty-four.
//!
//! Profiles — not whole segments — are the interning unit: two runs
//! with the same kinds and the same *relative* address pattern share
//! one blob regardless of their base addresses (the base lives in the
//! `RunRec`). That is what makes dedup actually fire: every CPU
//! walking its own partition of an array with the same stride maps to
//! the same profile.
//!
//! Every decoder checks its input and panics with a "trace profile
//! corrupt" diagnostic on a malformed blob or run stream, so a store
//! bug fails loudly instead of replaying garbage.

use rnuma_mem::addr::{CpuId, Va};
use rnuma_mem::fxmap::FxMap64;
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
    /// Arms first-touch page placement.
    ArmFirstTouch,
}

impl TraceOp {
    /// The issuing CPU of a per-CPU op (`Access`/`Think`), or `None`
    /// for a global op (`Barrier`/`ArmFirstTouch`). This is the key the
    /// batched replay loop groups contiguous runs by.
    #[must_use]
    pub fn issuer(&self) -> Option<CpuId> {
        match *self {
            TraceOp::Access { cpu, .. } | TraceOp::Think { cpu, .. } => Some(cpu),
            TraceOp::Barrier | TraceOp::ArmFirstTouch => None,
        }
    }
}

/// One entry of a segment's *run table*: the batched replay loop's unit
/// of work. A run table tiles its segment exactly, in order; each entry
/// is either a maximal run of consecutive per-CPU ops all issued by the
/// same CPU, or a single global op.
///
/// `TraceStore` computes run tables once per interned segment at
/// capture time ([`split_cpu_runs`]), so every replay of the segment —
/// on any configuration — consumes the pre-split form directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuRun {
    /// `len` consecutive `Access`/`Think` ops, all issued by `cpu`.
    Cpu {
        /// The run's issuing CPU.
        cpu: CpuId,
        /// Number of consecutive ops in the run (always at least 1).
        len: usize,
    },
    /// One global op (`Barrier` or `ArmFirstTouch`).
    Global,
}

/// Walks `ops` as its maximal runs, calling `f` once per run with the
/// run's issuer (`None` for a single global op) and its index range.
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
/// with each global op as its own entry. The returned entries tile
/// `ops` exactly, in order (an empty slice yields an empty table).
#[must_use]
pub fn split_cpu_runs(ops: &[TraceOp]) -> Vec<CpuRun> {
    let mut runs = Vec::new();
    scan_runs(ops, |issuer, range| match issuer {
        Some(cpu) => runs.push(CpuRun::Cpu {
            cpu,
            len: range.len(),
        }),
        None => runs.push(CpuRun::Global),
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
// Run records and the profile codec.
// ---------------------------------------------------------------------

/// Per-op kind codes inside a profile's packed 2-bit column.
const KIND_READ: u8 = 0;
const KIND_WRITE: u8 = 1;
const KIND_THINK: u8 = 2;

/// Encodes one same-CPU run into `blob` (cleared first). Layout:
/// `ceil(len / 4)` bytes of 2-bit kind codes (op `i` in byte `i / 4` at
/// bit `2 * (i % 4)`), then one varint per op — a zigzag-encoded
/// address delta for accesses (relative to the previous access,
/// starting from the base, so the first access encodes delta 0), a
/// plain duration for thinks.
///
/// Returns `Some((base, last))` — the run's first and last access
/// addresses — or `None` for an all-think run. The base is *not* part
/// of the blob: two runs with the same relative pattern at different
/// bases encode to the same blob, which is what makes profile interning
/// fire.
///
/// # Panics
///
/// Panics if `ops` contains a global op — callers feed maximal same-CPU
/// runs from [`scan_runs`].
pub(crate) fn encode_run(ops: &[TraceOp], blob: &mut Vec<u8>) -> Option<(Va, Va)> {
    blob.clear();
    let base = ops.iter().find_map(|op| match op {
        TraceOp::Access { va, .. } => Some(*va),
        _ => None,
    })?;
    blob.resize(ops.len().div_ceil(4), 0);
    let mut prev = base;
    for (i, op) in ops.iter().enumerate() {
        let kind = match *op {
            TraceOp::Access { va, write, .. } => {
                put_varint(blob, zigzag(va.0.wrapping_sub(prev.0) as i64));
                prev = va;
                if write {
                    KIND_WRITE
                } else {
                    KIND_READ
                }
            }
            TraceOp::Think { dur, .. } => {
                put_varint(blob, dur.0);
                KIND_THINK
            }
            TraceOp::Barrier | TraceOp::ArmFirstTouch => {
                panic!("global ops never enter a same-CPU run")
            }
        };
        blob[i / 4] |= kind << (2 * (i % 4));
    }
    Some((base, prev))
}

/// Encodes an all-think run (no accesses, so no base address) into
/// `blob` — the degenerate case [`encode_run`] returns `None` for.
fn encode_think_run(ops: &[TraceOp], blob: &mut Vec<u8>) {
    blob.clear();
    blob.resize(ops.len().div_ceil(4), 0);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            TraceOp::Think { dur, .. } => put_varint(blob, dur.0),
            _ => unreachable!("think-only runs by construction"),
        }
        blob[i / 4] |= KIND_THINK << (2 * (i % 4));
    }
}

/// Decodes one run back into `TraceOp`s, appending `len` ops to `out`
/// and returning the last access address (`None` for all-think runs).
///
/// # Panics
///
/// Panics with a "trace profile corrupt" diagnostic when the blob does
/// not decode to exactly `len` ops — a store bug, which must fail
/// loudly rather than replay garbage.
pub(crate) fn decode_run(
    cpu: CpuId,
    len: usize,
    base: Va,
    blob: &[u8],
    out: &mut Vec<TraceOp>,
) -> Option<Va> {
    let kind_bytes = len.div_ceil(4);
    let mut pos = kind_bytes;
    let mut prev = base;
    let mut last = None;
    for i in 0..len {
        let kind = blob
            .get(i / 4)
            .map(|b| (b >> (2 * (i % 4))) & 0b11)
            .unwrap_or_else(|| corrupt("kind column short"));
        let payload = get_varint(blob, &mut pos).unwrap_or_else(|| corrupt("payload short"));
        out.push(match kind {
            KIND_THINK => TraceOp::Think {
                cpu,
                dur: Cycles(payload),
            },
            kind => {
                let va = Va(prev.0.wrapping_add(unzigzag(payload) as u64));
                prev = va;
                last = Some(va);
                TraceOp::Access {
                    cpu,
                    va,
                    write: kind == KIND_WRITE,
                }
            }
        });
    }
    if pos != blob.len() {
        corrupt("payload overlong");
    }
    last
}

#[cold]
fn corrupt(what: &str) -> ! {
    panic!("trace profile corrupt ({what}): store bug")
}

// ---------------------------------------------------------------------
// The profile arena: interned blobs.
// ---------------------------------------------------------------------

/// Where a profile's bytes live: `(offset, len)` into the arena's byte
/// store.
#[derive(Clone, Copy, Debug)]
struct ProfileSpan {
    offset: u64,
    len: u32,
}

/// Deterministic content hash of a profile blob (FxHash-style multiply
/// mixing; collisions are verified byte-for-byte, never trusted).
fn blob_hash(blob: &[u8]) -> u64 {
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0x6c62_272e_07bb_0142u64 ^ (blob.len() as u64);
    for chunk in blob.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word))
            .wrapping_mul(MIX)
            .rotate_left(23);
    }
    h
}

/// Interned storage for profile blobs.
#[derive(Debug, Default)]
pub(crate) struct ProfileArena {
    spans: Vec<ProfileSpan>,
    bytes: Vec<u8>,
    /// Blob hash → profile id (first-wins; collisions verified).
    dedup: FxMap64<u32>,
    /// Bytes all runs reference — what storage would cost without dedup.
    referenced_bytes: u64,
}

impl ProfileArena {
    /// Interns `blob`, returning its profile id.
    pub(crate) fn intern(&mut self, blob: &[u8]) -> u32 {
        self.referenced_bytes += blob.len() as u64;
        let hash = blob_hash(blob);
        // First-wins on hash collisions: a mismatching occupant just
        // costs this blob its dedup, never its correctness.
        match self.dedup.get(hash) {
            Some(&id) if self.read(id) == blob => id,
            Some(_) => self.push(blob),
            None => {
                let id = self.push(blob);
                self.dedup.insert(hash, id);
                id
            }
        }
    }

    fn push(&mut self, blob: &[u8]) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("profile count overflow");
        let len = u32::try_from(blob.len()).expect("profile blob overflow");
        let offset = self.bytes.len() as u64;
        self.bytes.extend_from_slice(blob);
        self.spans.push(ProfileSpan { offset, len });
        id
    }

    /// The bytes of profile `id`.
    pub(crate) fn read(&self, id: u32) -> &[u8] {
        let span = self.spans[id as usize];
        let start = span.offset as usize;
        &self.bytes[start..start + span.len as usize]
    }

    /// Bytes actually stored, after dedup.
    pub(crate) fn stored_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    pub(crate) fn referenced_bytes(&self) -> u64 {
        self.referenced_bytes
    }

    /// Heap bytes of the span table. The dedup map is not counted.
    pub(crate) fn table_bytes(&self) -> u64 {
        (self.spans.len() * std::mem::size_of::<ProfileSpan>()) as u64
    }
}

// ---------------------------------------------------------------------
// Encoded segments: the run stream.
// ---------------------------------------------------------------------

/// Run-stream tags for the two global ops; a CPU run is stored as
/// `varint(cpu + 2)` followed by its length, base delta, and profile
/// id.
const TAG_BARRIER: u64 = 0;
const TAG_ARM_FIRST_TOUCH: u64 = 1;
const TAG_CPU_BASE: u64 = 2;

/// Per-CPU last-access-address references threaded through one
/// segment's run stream: a CPU run's base address is stored as a
/// zigzag delta from where that CPU's previous run in the *same
/// segment* left off (its partition walk usually continues there, so
/// the delta is a byte or two). References reset at segment
/// boundaries, keeping every segment independently decodable.
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

/// One stored segment: its byte range in the run stream and its op
/// count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SegMeta {
    pub(crate) run_start: u64,
    pub(crate) run_len: u32,
    pub(crate) ops: u32,
}

/// Encodes one segment of ops into the arena + run stream, returning
/// its [`SegMeta`] (the caller appends it to the segment table). The
/// run stream is itself varint-coded — a short-run-heavy segment (CPUs
/// interleaving every item) costs ~5 bytes per run, not a fixed
/// record.
pub(crate) fn encode_segment(
    chunk: &[TraceOp],
    arena: &mut ProfileArena,
    runs: &mut Vec<u8>,
    blob_scratch: &mut Vec<u8>,
    refs: &mut CpuRefs,
) -> SegMeta {
    let run_start = runs.len() as u64;
    refs.reset();
    scan_runs(chunk, |issuer, range| match issuer {
        Some(cpu) => {
            let run_ops = &chunk[range.clone()];
            let delta = match encode_run(run_ops, blob_scratch) {
                Some((base, last)) => {
                    let delta = zigzag(base.0.wrapping_sub(refs.get(cpu)) as i64);
                    refs.set(cpu, last.0);
                    delta
                }
                None => {
                    encode_think_run(run_ops, blob_scratch);
                    0
                }
            };
            let profile = arena.intern(blob_scratch);
            put_varint(runs, TAG_CPU_BASE + u64::from(cpu.0));
            put_varint(runs, range.len() as u64);
            put_varint(runs, delta);
            put_varint(runs, u64::from(profile));
        }
        None => put_varint(
            runs,
            match chunk[range.start] {
                TraceOp::Barrier => TAG_BARRIER,
                TraceOp::ArmFirstTouch => TAG_ARM_FIRST_TOUCH,
                _ => unreachable!("scan_runs only yields global ops without an issuer"),
            },
        ),
    });
    SegMeta {
        run_start,
        run_len: u32::try_from(runs.len() as u64 - run_start).expect("segment run stream overflow"),
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
/// Panics with a "trace profile corrupt" diagnostic on a malformed run
/// stream or profile blob (a store bug).
pub(crate) fn decode_segment(
    seg: SegMeta,
    arena: &ProfileArena,
    run_stream: &[u8],
    ops: &mut Vec<TraceOp>,
    runs: &mut Vec<CpuRun>,
    refs: &mut CpuRefs,
) {
    ops.clear();
    runs.clear();
    refs.reset();
    let start = usize::try_from(seg.run_start).expect("run stream offset fits usize");
    let bytes = &run_stream[start..start + seg.run_len as usize];
    let mut pos = 0;
    while pos < bytes.len() {
        let tag = get_varint(bytes, &mut pos).unwrap_or_else(|| corrupt("run tag short"));
        match tag {
            TAG_BARRIER => {
                ops.push(TraceOp::Barrier);
                runs.push(CpuRun::Global);
            }
            TAG_ARM_FIRST_TOUCH => {
                ops.push(TraceOp::ArmFirstTouch);
                runs.push(CpuRun::Global);
            }
            tag => {
                let cpu = u16::try_from(tag - TAG_CPU_BASE)
                    .map(CpuId)
                    .unwrap_or_else(|_| corrupt("cpu id overflow"));
                let len = get_varint(bytes, &mut pos)
                    .and_then(|v| usize::try_from(v).ok())
                    .unwrap_or_else(|| corrupt("run length short"));
                let delta =
                    get_varint(bytes, &mut pos).unwrap_or_else(|| corrupt("base delta short"));
                let profile = get_varint(bytes, &mut pos)
                    .and_then(|v| u32::try_from(v).ok())
                    .unwrap_or_else(|| corrupt("profile id short"));
                let base = Va(refs.get(cpu).wrapping_add(unzigzag(delta) as u64));
                if let Some(last) = decode_run(cpu, len, base, arena.read(profile), ops) {
                    refs.set(cpu, last.0);
                }
                runs.push(CpuRun::Cpu { cpu, len });
            }
        }
    }
    debug_assert_eq!(ops.len(), seg.ops as usize, "segment decode length drift");
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

    fn round_trip(ops: &[TraceOp]) -> Vec<TraceOp> {
        let cpu = match ops[0] {
            TraceOp::Access { cpu, .. } | TraceOp::Think { cpu, .. } => cpu,
            _ => panic!("same-CPU runs only"),
        };
        let mut blob = Vec::new();
        let base = match encode_run(ops, &mut blob) {
            Some((base, _)) => base,
            None => {
                encode_think_run(ops, &mut blob);
                Va(0)
            }
        };
        let mut out = Vec::new();
        decode_run(cpu, ops.len(), base, &blob, &mut out);
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
        assert_eq!(split_cpu_runs(&[TraceOp::Barrier]), vec![CpuRun::Global]);
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
            TraceOp::ArmFirstTouch,
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
                CpuRun::Global,
                CpuRun::Global,
                CpuRun::Cpu {
                    cpu: CpuId(4),
                    len: 1
                },
            ]
        );
    }

    #[test]
    fn split_cpu_runs_tables_tile_their_input() {
        // Interleaved CPUs, long same-CPU spans and global ops.
        let mut ops = vec![TraceOp::ArmFirstTouch];
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
                CpuRun::Global => 1,
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
        ];
        assert_eq!(round_trip(&ops), ops);
    }

    #[test]
    fn run_codec_handles_single_op_and_all_think_runs() {
        let one = vec![access(0, 0x2000, true)];
        assert_eq!(round_trip(&one), one);
        let thinks = vec![think(5, 1), think(5, 1 << 40), think(5, 0)];
        assert_eq!(round_trip(&thinks), thinks);
    }

    #[test]
    fn identical_relative_patterns_share_one_profile() {
        let mut arena = ProfileArena::default();
        let mut blob = Vec::new();
        // Two walks with the same stride pattern at different bases.
        let a: Vec<TraceOp> = (0..64).map(|i| access(0, 0x1000 + i * 8, false)).collect();
        let b: Vec<TraceOp> = (0..64).map(|i| access(0, 0x9000 + i * 8, false)).collect();
        encode_run(&a, &mut blob).unwrap();
        let pa = arena.intern(&blob);
        encode_run(&b, &mut blob).unwrap();
        let pb = arena.intern(&blob);
        assert_eq!(pa, pb, "same relative pattern must intern to one blob");
        assert!(arena.stored_bytes() < arena.referenced_bytes());
        // A different stride is a different profile.
        let c: Vec<TraceOp> = (0..64).map(|i| access(0, 0x1000 + i * 16, false)).collect();
        encode_run(&c, &mut blob).unwrap();
        assert_ne!(arena.intern(&blob), pa);
    }

    #[test]
    fn segment_round_trips_interleaved_cpus_and_global_ops() {
        // CPUs alternating per item (unit-length runs), global ops in
        // the middle, a think-only run, and a second segment continuing
        // each CPU's walk — exercising the per-CPU base references and
        // their reset at the segment boundary.
        let mut seg_a = vec![TraceOp::ArmFirstTouch];
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

        let mut arena = ProfileArena::default();
        let mut runs = Vec::new();
        let (mut blob, mut refs) = (Vec::new(), CpuRefs::default());
        let metas: Vec<SegMeta> = [&seg_a, &seg_b]
            .iter()
            .map(|seg| encode_segment(seg, &mut arena, &mut runs, &mut blob, &mut refs))
            .collect();

        let (mut ops, mut cpu_runs) = (Vec::new(), Vec::new());
        for (meta, expect) in metas.iter().zip([&seg_a, &seg_b]) {
            decode_segment(*meta, &arena, &runs, &mut ops, &mut cpu_runs, &mut refs);
            assert_eq!(ops.as_slice(), expect.as_slice());
            let run_total: usize = cpu_runs
                .iter()
                .map(|r| match r {
                    CpuRun::Cpu { len, .. } => *len,
                    CpuRun::Global => 1,
                })
                .sum();
            assert_eq!(run_total, expect.len(), "runs must tile the segment");
        }
    }

    #[test]
    fn corrupt_blob_fails_loudly() {
        let ops = vec![access(1, 0x4000, false), access(1, 0x4100, true)];
        let mut blob = Vec::new();
        let (base, _) = encode_run(&ops, &mut blob).unwrap();
        blob.truncate(blob.len() - 1);
        let err = std::panic::catch_unwind(move || {
            let mut out = Vec::new();
            decode_run(CpuId(1), 2, base, &blob, &mut out);
        })
        .expect_err("truncated blob must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("trace profile corrupt"), "got: {msg}");
    }
}
