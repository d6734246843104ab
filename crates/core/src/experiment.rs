//! One-call experiment execution and the trace-once/replay-many
//! building blocks.
//!
//! The paper's figures all follow the same recipe: run an application on
//! several machine configurations and report execution times normalized
//! to the ideal CC-NUMA (infinite block cache). [`run`] performs one
//! such run on its own [`Machine`].
//!
//! # Trace-once, replay many
//!
//! A parameter sweep runs the *same* application against every
//! configuration in a grid. Re-executing the workload per cell re-pays
//! its generation cost (item scheduling, address arithmetic, setup
//! RNG) once per configuration; instead the workload's [`TraceOp`]
//! stream is captured **once** — into a [`TraceStore`], a
//! delta-encoded byte stream with streaming (bounded-memory) capture —
//! and replayed against every other configuration with
//! [`TraceStore::replay_serial`]. Replay is bit-identical to
//! driving the same stream through the live [`Machine`] API, and the
//! reference stream is *fixed across cells* — the classic trace-driven
//! methodology. The sweep driver itself, with its work queue, is
//! `rnuma_bench::sweep_grid`; see `docs/SWEEP.md` for the model and its
//! guarantees.
//!
//! # Worker pool
//!
//! [`parallel_map`] fans independent jobs over the host's cores
//! (`rnuma_bench::run_grid` runs one simulation per grid cell on it),
//! and [`parallel_workers`] sizes every worker pool in the workspace
//! from `RNUMA_JOBS`.

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::metrics::Metrics;
use crate::program::{Runner, Sink, Workload};
use crate::trace::{decode_segment, encode_segment, CpuRefs, CpuRun, SegMeta, TraceOp, SEG_OPS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The result of one (configuration, workload) simulation.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The application's name.
    pub workload: &'static str,
    /// Protocol label ("CC-NUMA", "S-COMA", "R-NUMA", "ideal").
    pub protocol: &'static str,
    /// The configuration that ran.
    pub config: MachineConfig,
    /// Everything measured.
    pub metrics: Metrics,
}

impl RunReport {
    /// Execution time in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.metrics.exec_cycles.0
    }
}

/// Runs `workload` once on a machine built from `config`.
///
/// The run is deterministic: identical `(config, workload)` pairs give
/// bit-identical metrics.
///
/// # Panics
///
/// Panics if `config` fails validation — experiment configurations are
/// produced by code, not user input, so this is a programming error.
pub fn run<W: Workload + ?Sized>(config: MachineConfig, workload: &mut W) -> RunReport {
    run_recorded(config, workload, None)
}

/// Runs `workload` like [`run`] while recording the machine-level
/// operation trace, returning both the report and the trace. The
/// runner's recorder appends its chunks to a plain `Vec`; nothing is
/// encoded.
///
/// Replaying the trace on a fresh machine of the same configuration
/// reproduces the report's metrics bit-for-bit.
///
/// # Panics
///
/// Panics if `config` fails validation.
pub fn run_traced<W: Workload + ?Sized>(
    config: MachineConfig,
    workload: &mut W,
) -> (RunReport, Vec<TraceOp>) {
    let mut trace = Vec::new();
    let report = run_recorded(
        config,
        workload,
        Some(&mut |ops: &[TraceOp]| trace.extend_from_slice(ops)),
    );
    (report, trace)
}

/// Runs `workload` on a fresh machine built from `config`; with a
/// `sink`, the runner records the run's ops into it in `SEG_OPS`-op
/// chunks. The one driver behind [`run`], [`run_traced`] and
/// [`TraceStore::capture`].
fn run_recorded<W: Workload + ?Sized>(
    config: MachineConfig,
    workload: &mut W,
    sink: Option<Sink<'_>>,
) -> RunReport {
    let mut machine = Machine::new(config).expect("experiment configs must be valid");
    let mut runner = match sink {
        Some(sink) => Runner::recording(&mut machine, SEG_OPS, sink),
        None => Runner::new(&mut machine),
    };
    workload.run(&mut runner);
    runner.finish();
    RunReport {
        workload: workload.name(),
        protocol: config.protocol.label(),
        config,
        metrics: machine.metrics(),
    }
}

/// Applies `f` to every job, fanned out over the host's cores, and
/// returns the results in job order.
///
/// Jobs are claimed from a shared cursor, each `f` invocation runs
/// entirely on one worker thread, and `RNUMA_JOBS` overrides the worker
/// count (1 forces serial execution). `f` must be order-independent — a
/// pure function of its job — which every simulation in this workspace
/// is.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<J, T, F>(jobs: &[J], f: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let n = jobs.len();
    let workers = parallel_workers(n);
    if n <= 1 || workers == 1 {
        return jobs.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(&jobs[i]))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, out) in rx {
        results[i] = Some(out);
    }
    results
        .into_iter()
        .map(|r| r.expect("worker pool covered every job"))
        .collect()
}

/// Shared parser for numeric `RNUMA_*` environment variables under the
/// workspace's uniform misconfiguration contract.
///
/// * Unset → `default` (each variable's documented fallback).
/// * A parse in `1..` → `Some(value)`, clamped down to `max`.
/// * Set but *not a usable count* — `0` or anything unparsable — is a
///   misconfiguration: one warning naming the variable goes to stderr
///   (once per variable per process; tests count the name in
///   subprocess stderr), and `default` applies. Misconfiguration never
///   aborts a run and never silently coerces.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the blessed numeric env-knob reader; every other env read is banned"
)]
pub fn env_usize(name: &str, default: Option<usize>, max: usize) -> Option<usize> {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n.min(max)),
        _ => {
            warn_once_misconfigured(name, &raw, max);
            default
        }
    }
}

/// The raw string value of a *non-numeric* `RNUMA_*` knob, or `None`
/// when unset (or not valid UTF-8).
///
/// This is the blessed escape hatch companion to [`env_usize`] for
/// knobs whose values are paths (`RNUMA_RESULTS_DIR`). Call sites still own their documented
/// semantics — what this helper centralizes is the *access point*:
/// `crates/clippy.toml` bans `std::env::var`/`var_os` everywhere else,
/// so the whole knob surface stays inventoried in this module (and
/// `tests/robust_env.rs` cross-checks it against README's env table).
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "the blessed raw env-knob reader; every other env read is banned"
)]
pub fn env_raw(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// One stderr warning per misconfigured variable per process. A
/// per-name registry (rather than one `Once` per call site) keeps the
/// contract uniform no matter how many call sites parse the same
/// variable.
fn warn_once_misconfigured(name: &str, raw: &str, max: usize) {
    use std::sync::{Mutex, OnceLock, PoisonError};
    static WARNED: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    let mut warned = WARNED
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if warned.iter().any(|n| n == name) {
        return;
    }
    warned.push(name.to_string());
    if max == usize::MAX {
        eprintln!("rnuma: {name}={raw:?} is not a count (want an integer >= 1); using the documented default");
    } else {
        eprintln!(
            "rnuma: {name}={raw:?} is not a count (want 1..={max}); using the documented default"
        );
    }
}

/// The worker count [`parallel_map`] would use for `jobs` jobs:
/// `RNUMA_JOBS` when set to a usable count, otherwise the host's
/// available parallelism, clamped to the job count. `RNUMA_JOBS=0` or
/// an unparsable value is a misconfiguration: it warns once to stderr
/// and falls back to available parallelism ([`env_usize`] contract),
/// exactly like the other numeric `RNUMA_*` variables. Drivers that run
/// their own worker pool (`rnuma_bench::sweep_grid`) size it with this.
#[must_use]
pub fn parallel_workers(jobs: usize) -> usize {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    env_usize("RNUMA_JOBS", Some(host), usize::MAX)
        .unwrap_or(host)
        .clamp(1, jobs.max(1))
}

/// Handle of one captured trace inside a [`TraceStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceId(u32);

/// One captured stream: its workload, the configuration it was captured
/// under, and its contiguous segment range in the shared store.
#[derive(Debug)]
struct TraceRec {
    workload: &'static str,
    config: MachineConfig,
    seg_start: u32,
    seg_end: u32,
    ops: u64,
}

/// A delta-encoded store of captured [`TraceOp`] streams — the
/// "capture once" half of trace-once/replay-many sweeps.
///
/// Streams are stored as per-CPU *runs* (the same maximal same-CPU
/// spans the batched replay kernels consume), written inline into one
/// varint byte stream per `SEG_OPS`-op segment: each run's CPU tag and
/// length, its packed 2-bit op kinds, and its varint payloads, with
/// addresses as deltas from the CPU's previous access (see the `trace`
/// module). The store is that stream plus a 16-byte record per
/// segment; it keeps no index or shared data beside them, so
/// [`TraceStore::encoded_bytes`] is its whole encoded size. Capture is
/// *streaming*: the workload's ops are encoded in fixed-size chunks as
/// they are produced, never materializing the flat op array. Replay decodes segment by segment into a
/// bounded scratch ([`TraceStore::for_each_batch`]) feeding
/// [`Machine::replay_segment`];
/// `tests/batched_replay.rs` pins the encoded replay bit-identical to
/// both the flat replay and the live execution.
///
/// # Example
///
/// ```
/// use rnuma::config::{MachineConfig, Protocol};
/// use rnuma::experiment::TraceStore;
/// use rnuma::program::{Runner, Workload};
///
/// struct Touch;
/// impl Workload for Touch {
///     fn name(&self) -> &'static str { "touch" }
///     fn run(&mut self, r: &mut Runner<'_>) {
///         let data = r.alloc(4096);
///         let items = r.block_partition(64);
///         r.parallel(&items, |ctx, _cpu, i| ctx.read(data.word(i)));
///     }
/// }
///
/// let mut store = TraceStore::new();
/// let base = MachineConfig::paper_base(Protocol::ideal());
/// let (id, report) = store.capture(base, &mut Touch);
/// // Replaying the captured stream on the capture configuration
/// // reproduces the capture run bit-for-bit...
/// let again = store.replay_serial(id, base);
/// assert!(report.metrics.replay_eq(&again.metrics));
/// // ...and the same stream replays against any other configuration.
/// let rnuma = store.replay_serial(id, MachineConfig::paper_base(Protocol::paper_rnuma()));
/// assert_eq!(rnuma.metrics.references(), report.metrics.references());
/// ```
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: Vec<TraceRec>,
    /// The byte streams of every segment, concatenated (each
    /// [`SegMeta`] owns a byte range).
    stream: Vec<u8>,
    segs: Vec<SegMeta>,
    captured_ops: u64,
    /// Reusable per-CPU base references for encoding.
    refs_scratch: CpuRefs,
}

impl TraceStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// Runs `workload` on `config` — exactly like [`run`] — while
    /// *streaming* its operation stream into the store: ops are encoded
    /// in segment-sized (`SEG_OPS`) chunks as the runner records them, so
    /// capture memory is bounded by one chunk plus the encoded tables —
    /// the flat op array is never materialized. Returns the stream's id
    /// and the capture run's report.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn capture<W: Workload + ?Sized>(
        &mut self,
        config: MachineConfig,
        workload: &mut W,
    ) -> (TraceId, RunReport) {
        let seg_start = u32::try_from(self.segs.len()).expect("segment count overflow");
        let captured_before = self.captured_ops;
        let report = run_recorded(config, workload, Some(&mut |ops| self.push_segment(ops)));
        let captured = self.captured_ops - captured_before;
        let id = self.push_trace(report.workload, config, seg_start, captured);
        (id, report)
    }

    /// Stores one already-materialized stream (segmenting and encoding
    /// it) and returns its id.
    pub fn insert(
        &mut self,
        workload: &'static str,
        config: MachineConfig,
        ops: &[TraceOp],
    ) -> TraceId {
        let seg_start = u32::try_from(self.segs.len()).expect("segment count overflow");
        for chunk in ops.chunks(SEG_OPS) {
            self.push_segment(chunk);
        }
        self.push_trace(workload, config, seg_start, ops.len() as u64)
    }

    /// Encodes one segment of ops into the store. This is the capture
    /// sink: it holds no reference to the chunk after returning, so
    /// capture memory stays bounded by one chunk plus the encoded
    /// tables.
    fn push_segment(&mut self, chunk: &[TraceOp]) {
        if chunk.is_empty() {
            return;
        }
        let meta = encode_segment(chunk, &mut self.stream, &mut self.refs_scratch);
        self.segs.push(meta);
        self.captured_ops += chunk.len() as u64;
    }

    fn push_trace(
        &mut self,
        workload: &'static str,
        config: MachineConfig,
        seg_start: u32,
        ops: u64,
    ) -> TraceId {
        let seg_end = u32::try_from(self.segs.len()).expect("segment count overflow");
        let id = TraceId(u32::try_from(self.traces.len()).expect("trace count overflow"));
        self.traces.push(TraceRec {
            workload,
            config,
            seg_start,
            seg_end,
            ops,
        });
        id
    }

    fn rec(&self, id: TraceId) -> &TraceRec {
        &self.traces[id.0 as usize]
    }

    /// Decodes the stream segment by segment into a bounded scratch and
    /// hands each `(ops, runs)` batch — the form
    /// [`Machine::replay_segment`] consumes — to `f`, in replay order.
    /// Peak decode memory is one segment (`SEG_OPS` ops), independent
    /// of stream length; the scratch is call-local, so concurrent
    /// replays of a shared store never contend.
    pub fn for_each_batch(&self, id: TraceId, mut f: impl FnMut(&[TraceOp], &[CpuRun])) {
        let rec = self.rec(id);
        let mut ops = Vec::with_capacity(SEG_OPS);
        let mut runs = Vec::new();
        let mut refs = CpuRefs::default();
        for seg in rec.seg_start..rec.seg_end {
            decode_segment(
                self.segs[seg as usize],
                &self.stream,
                &mut ops,
                &mut runs,
                &mut refs,
            );
            f(&ops, &runs);
        }
    }

    /// Decodes the whole stream back to its flat op array (tests and
    /// diagnostics; replay never materializes this form).
    #[must_use]
    pub fn decode(&self, id: TraceId) -> Vec<TraceOp> {
        let mut out = Vec::with_capacity(usize::try_from(self.ops(id)).unwrap_or(usize::MAX));
        self.for_each_batch(id, |ops, _| out.extend_from_slice(ops));
        out
    }

    /// Number of operations in the stream.
    #[must_use]
    pub fn ops(&self, id: TraceId) -> u64 {
        self.rec(id).ops
    }

    /// The workload name recorded at capture.
    #[must_use]
    pub fn workload(&self, id: TraceId) -> &'static str {
        self.rec(id).workload
    }

    /// The configuration the stream was captured under.
    #[must_use]
    pub fn capture_config(&self, id: TraceId) -> MachineConfig {
        self.rec(id).config
    }

    /// Number of captured streams.
    #[must_use]
    pub fn traces(&self) -> usize {
        self.traces.len()
    }

    /// Total ops captured across all streams.
    #[must_use]
    pub fn captured_ops(&self) -> u64 {
        self.captured_ops
    }

    /// Bytes the captured streams would occupy as flat `TraceOp` arrays
    /// — the storage format this store's encoding replaces.
    #[must_use]
    pub fn flat_bytes(&self) -> u64 {
        self.captured_ops * std::mem::size_of::<TraceOp>() as u64
    }

    /// Bytes the encoded store occupies: the byte stream plus the
    /// segment table — all of its encoded data.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.stream.len() as u64 + (self.segs.len() * std::mem::size_of::<SegMeta>()) as u64
    }

    /// Encoded bytes resident in memory. The whole store is resident,
    /// so this always equals [`encoded_bytes`].
    ///
    /// [`encoded_bytes`]: TraceStore::encoded_bytes
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.encoded_bytes()
    }

    /// Always 1.0: every encoded byte belongs to exactly one run, since
    /// the store shares no data between runs. Kept because
    /// `perfbench` still reports it.
    #[must_use]
    pub fn interning_ratio(&self) -> f64 {
        1.0
    }

    /// Flat over encoded bytes — the compression the delta encoding
    /// buys (≥ 4× on em3d and moldyn at tiny scale; see `RESULTS.md`).
    #[must_use]
    pub fn footprint_ratio(&self) -> f64 {
        let encoded = self.encoded_bytes();
        if encoded == 0 {
            return 1.0;
        }
        self.flat_bytes() as f64 / encoded as f64
    }

    /// Replays the stream serially on a fresh machine built from
    /// `config`, returning its report — the per-cell entry point of the
    /// trace-once/replay-many drivers (`rnuma_bench::sweep_grid` calls
    /// it for every non-capture cell). It decodes segment by segment
    /// ([`for_each_batch`]) into the batched loop
    /// ([`Machine::replay_segment`]), which `tests/trace_codec.rs` and
    /// `tests/batched_replay.rs` prove bit-identical to the live
    /// execution the stream was captured from.
    ///
    /// `config` need not be the capture configuration — that is the
    /// point of a sweep — but it must describe the same cluster shape
    /// (node and CPU counts), since the stream addresses CPUs by id.
    ///
    /// [`for_each_batch`]: TraceStore::for_each_batch
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation or its cluster shape differs
    /// from the capture configuration's.
    #[must_use]
    pub fn replay_serial(&self, id: TraceId, config: MachineConfig) -> RunReport {
        let rec = self.rec(id);
        assert_eq!(
            (config.nodes, config.cpus_per_node),
            (rec.config.nodes, rec.config.cpus_per_node),
            "replay configuration must match the capture cluster shape"
        );
        let mut machine = Machine::new(config).expect("experiment configs must be valid");
        self.for_each_batch(id, |ops, runs| machine.replay_segment(ops, runs));
        RunReport {
            workload: rec.workload,
            protocol: config.protocol.label(),
            config,
            metrics: machine.metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use crate::program::Ctx;
    use rnuma_mem::addr::CpuId;

    /// A trivial workload: every CPU streams over a shared array.
    struct Stream {
        words: u64,
    }

    impl Workload for Stream {
        fn name(&self) -> &'static str {
            "stream"
        }
        fn run(&mut self, r: &mut Runner<'_>) {
            let region = r.alloc(self.words * 8);
            r.arm_first_touch();
            let items = r.block_partition(self.words);
            r.parallel(&items, |ctx: &mut Ctx<'_>, _cpu: CpuId, i: u64| {
                ctx.update(region.word(i));
                ctx.think(16);
            });
            r.barrier();
        }
    }

    #[test]
    fn run_produces_labeled_report() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Stream { words: 4096 },
        );
        assert_eq!(report.workload, "stream");
        assert_eq!(report.protocol, "CC-NUMA");
        assert!(report.cycles() > 0);
        assert_eq!(report.metrics.references(), 2 * 4096);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let config = MachineConfig::paper_base(Protocol::paper_rnuma());
        let a = run(config, &mut Stream { words: 2048 });
        let b = run(config, &mut Stream { words: 2048 });
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.metrics.remote_fetches, b.metrics.remote_fetches);
        assert_eq!(a.metrics.refetches, b.metrics.refetches);
    }

    #[test]
    fn trace_store_replay_matches_capture_bit_for_bit() {
        let config = MachineConfig::paper_base(Protocol::paper_rnuma());
        let mut store = TraceStore::new();
        let (id, report) = store.capture(config, &mut Stream { words: 2048 });
        assert_eq!(store.traces(), 1);
        assert_eq!(store.workload(id), "stream");
        assert_eq!(store.capture_config(id), config);
        let replayed = store.replay_serial(id, config);
        assert!(
            report.metrics.replay_eq(&replayed.metrics),
            "replay diverged from capture:\ncapture: {}\nreplay: {}",
            report.metrics,
            replayed.metrics
        );
    }

    #[test]
    fn trace_store_counts_and_replays_multi_segment_streams() {
        // Three 4096-op segments of one repeated access.
        let op = TraceOp::Access {
            cpu: CpuId(0),
            va: rnuma_mem::addr::Va(0x2000),
            write: false,
        };
        let ops = vec![op; 3 * 4096];
        let config = MachineConfig::paper_base(Protocol::paper_ccnuma());
        let mut store = TraceStore::new();
        let id = store.insert("synthetic", config, &ops);
        assert_eq!(store.captured_ops(), 3 * 4096);
        assert_eq!(store.ops(id), 3 * 4096);
        assert_eq!(
            store.replay_serial(id, config).metrics.references(),
            3 * 4096
        );
    }

    #[test]
    fn trace_store_decode_round_trips_and_compresses() {
        let config = MachineConfig::paper_base(Protocol::paper_rnuma());
        let (_, trace) = run_traced(config, &mut Stream { words: 2048 });
        let mut store = TraceStore::new();
        let id = store.insert("stream", config, &trace);
        assert_eq!(store.decode(id), trace, "decode must invert encode");
        assert!(
            store.footprint_ratio() >= 4.0,
            "columnar encoding must compress the stream ≥ 4× (got {:.2}×: {} flat vs {} encoded bytes)",
            store.footprint_ratio(),
            store.flat_bytes(),
            store.encoded_bytes()
        );
        assert_eq!(store.resident_bytes(), store.encoded_bytes());
    }

    #[test]
    #[should_panic(expected = "cluster shape")]
    fn replay_rejects_mismatched_geometry() {
        let mut store = TraceStore::new();
        let base = MachineConfig::paper_base(Protocol::ideal());
        let (id, _) = store.capture(base, &mut Stream { words: 64 });
        let mut other = base;
        other.nodes = 4;
        let _ = store.replay_serial(id, other);
    }

    #[test]
    fn parallel_map_preserves_order_and_covers_all() {
        let jobs: Vec<u64> = (0..37).collect();
        let out = parallel_map(&jobs, |&j| j * 3);
        assert_eq!(out, (0..37).map(|j| j * 3).collect::<Vec<_>>());
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, |&j| j).is_empty());
        assert_eq!(parallel_map(&[7u64], |&j| j + 1), [8]);
    }
}
