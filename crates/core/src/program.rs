//! The shared-memory programming framework workloads run on.
//!
//! Applications in this reproduction are *kernels*: ordinary Rust code
//! that walks the same shared data structures as the original programs
//! and emits every load and store to the simulated machine. The
//! framework mirrors the structure of the SPLASH-2 codes:
//!
//! * [`Runner::alloc`] — shared-region allocation (page-aligned, like
//!   `G_MALLOC`);
//! * [`Runner::parallel`] — a parallel phase: each CPU owns a list of
//!   work items and the scheduler interleaves CPUs at item granularity
//!   in *minimum-clock order*, so cross-CPU contention and sharing are
//!   simulated in (approximate) time order. The waiting CPUs sit in a
//!   `(clock, cpu)` min-heap, so a pick costs O(log P) rather than a
//!   scan of every clock; that is exact because an item moves no clock
//!   but its own CPU's (debug builds check it after every item);
//! * [`Runner::barrier`] — global barrier (SPLASH-2 `BARRIER`);
//! * [`Ctx`] — the per-item execution context: [`Ctx::read`],
//!   [`Ctx::write`], and [`Ctx::think`] (compute time at the paper's
//!   dual-issue rate).
//!
//! Item-granularity interleaving is the reproduction's analogue of the
//! paper's instruction-interleaved execution-driven simulation: items
//! (a particle, a matrix block operation, a graph node update) are small
//! enough that protocol interactions across CPUs happen in close to
//! true time order.
//!
//! Nothing inside an item can observe the machine: a [`Ctx`] only
//! buffers the item's ops. When the item ends, the [`Runner`] runs the
//! buffer through the machine's batched same-CPU kernel, which is
//! bit-identical to issuing the ops one at a time. The `Runner` is also
//! the one recorder of a run's op stream (`TraceStore::capture` and
//! `run_traced` use it).

use crate::machine::Machine;
use crate::trace::TraceOp;
use rnuma_mem::addr::{CpuId, VPage, Va, MAX_PAGES, PAGE_BYTES};
use rnuma_sim::Cycles;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A page-aligned shared-memory region.
///
/// Element helpers address the region as an array of fixed-size records
/// without exposing raw address arithmetic to workload code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    base: Va,
    bytes: u64,
}

impl Region {
    /// First byte address.
    #[must_use]
    pub fn base(&self) -> Va {
        self.base
    }

    /// Region length in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Address of byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    #[must_use]
    pub fn at(&self, offset: u64) -> Va {
        assert!(offset < self.bytes, "offset {offset} out of region");
        Va(self.base.0 + offset)
    }

    /// Address of the `i`-th record of `stride` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the record extends past the region.
    #[must_use]
    pub fn elem(&self, i: u64, stride: u64) -> Va {
        let offset = i * stride;
        assert!(
            offset + stride <= self.bytes,
            "element {i} (stride {stride}) out of region"
        );
        Va(self.base.0 + offset)
    }

    /// Address of the `i`-th 8-byte word (the dominant element size in
    /// the scientific codes).
    #[must_use]
    pub fn word(&self, i: u64) -> Va {
        self.elem(i, 8)
    }

    /// Number of whole `stride`-byte records the region holds.
    #[must_use]
    pub fn len(&self, stride: u64) -> u64 {
        self.bytes / stride
    }

    /// `true` when the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

/// Per-item execution context handed to workload bodies.
///
/// It buffers the item's ops; the [`Runner`] executes them on the
/// owning CPU when the item ends.
#[derive(Debug)]
pub struct Ctx<'a> {
    ops: &'a mut Vec<TraceOp>,
    cpu: CpuId,
}

impl Ctx<'_> {
    /// The CPU this item runs on.
    #[must_use]
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Issues a load.
    pub fn read(&mut self, va: Va) {
        self.access(va, false);
    }

    /// Issues a store.
    pub fn write(&mut self, va: Va) {
        self.access(va, true);
    }

    fn access(&mut self, va: Va, write: bool) {
        self.ops.push(TraceOp::Access {
            cpu: self.cpu,
            va,
            write,
        });
    }

    /// Issues a load followed by a store to the same word
    /// (read-modify-write, e.g. `x += ...`).
    pub fn update(&mut self, va: Va) {
        self.read(va);
        self.write(va);
    }

    /// Reads `n` consecutive 8-byte words starting at `va`.
    pub fn read_words(&mut self, va: Va, n: u64) {
        for i in 0..n {
            self.read(Va(va.0 + i * 8));
        }
    }

    /// Writes `n` consecutive 8-byte words starting at `va`.
    pub fn write_words(&mut self, va: Va, n: u64) {
        for i in 0..n {
            self.write(Va(va.0 + i * 8));
        }
    }

    /// Charges `instructions` of compute at the paper's dual-issue rate
    /// (two instructions per cycle).
    pub fn think(&mut self, instructions: u64) {
        self.ops.push(TraceOp::Think {
            cpu: self.cpu,
            dur: Cycles(instructions / 2),
        });
    }
}

/// A recording [`Runner`]'s consumer of recorded op chunks.
pub(crate) type Sink<'a> = &'a mut dyn FnMut(&[TraceOp]);

/// Drives a [`Workload`] on a [`Machine`].
pub struct Runner<'m> {
    machine: &'m mut Machine,
    /// The running item's ops and, while recording, the ops recorded
    /// since the last full chunk (they precede the item's).
    ops: Vec<TraceOp>,
    /// A recording runner's consumer, fed chunks of `chunk_ops` ops.
    sink: Option<Sink<'m>>,
    chunk_ops: usize,
    next_va: u64,
    total_cpus: u16,
}

impl std::fmt::Debug for Runner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("next_va", &self.next_va)
            .field("recording", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl<'m> Runner<'m> {
    /// Wraps a machine for one workload run.
    #[must_use]
    pub fn new(machine: &'m mut Machine) -> Runner<'m> {
        let total_cpus = machine.config().total_cpus();
        Runner {
            machine,
            ops: Vec::new(),
            sink: None,
            chunk_ops: 0,
            // Leave page 0 unused so Va(0) never aliases real data.
            next_va: PAGE_BYTES,
            total_cpus,
        }
    }

    /// A runner that also records every op it executes — each item's
    /// ops and each barrier, in issue order — handing them to `sink`
    /// in chunks of exactly `chunk_ops` ops. [`Runner::finish`] flushes
    /// the last, partial chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_ops` is zero.
    pub(crate) fn recording(
        machine: &'m mut Machine,
        chunk_ops: usize,
        sink: Sink<'m>,
    ) -> Runner<'m> {
        assert!(chunk_ops > 0, "recorded chunks must hold at least one op");
        Runner {
            sink: Some(sink),
            chunk_ops,
            ..Runner::new(machine)
        }
    }

    /// Ends a run, handing a recording runner's last partial chunk to
    /// its sink.
    pub(crate) fn finish(mut self) {
        self.flush(true);
    }

    /// Hands the buffered ops to the sink in `chunk_ops`-op chunks (a
    /// partial last chunk only at the end of the run), or drops them
    /// when not recording.
    fn flush(&mut self, end: bool) {
        let Some(sink) = &mut self.sink else {
            return self.ops.clear();
        };
        let n = self.ops.len();
        let n = if end { n } else { n - n % self.chunk_ops };
        for chunk in self.ops[..n].chunks(self.chunk_ops) {
            sink(chunk);
        }
        self.ops.drain(..n);
    }

    /// Runs `body` as one item on `cpu`: buffers its ops, then executes
    /// them through the machine's batched same-CPU kernel.
    fn run_item(&mut self, cpu: CpuId, body: impl FnOnce(&mut Ctx<'_>)) {
        let start = self.ops.len();
        body(&mut Ctx {
            ops: &mut self.ops,
            cpu,
        });
        self.machine.access_run(cpu, &self.ops[start..]);
        self.flush(false);
    }

    /// Number of CPUs in the machine.
    #[must_use]
    pub fn cpus(&self) -> u16 {
        self.total_cpus
    }

    /// Allocates a page-aligned shared region of at least `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero, or if the region would reach past the
    /// simulated address space ([`MAX_PAGES`] pages).
    pub fn alloc(&mut self, bytes: u64) -> Region {
        assert!(bytes > 0, "empty allocation");
        let pages = bytes.div_ceil(PAGE_BYTES);
        let base = Va(self.next_va);
        let last = VPage(base.vpage().0 + pages - 1);
        assert!(
            last.0 < MAX_PAGES,
            "allocation of {bytes} bytes ends at page {last}, past the simulated address space ({MAX_PAGES} pages)"
        );
        let rounded = pages * PAGE_BYTES;
        self.next_va += rounded;
        Region {
            base,
            bytes: rounded,
        }
    }

    /// Synchronizes all CPUs (SPLASH-2 `BARRIER`).
    pub fn barrier(&mut self) {
        self.machine.barrier_all();
        self.ops.push(TraceOp::Barrier);
        self.flush(false);
    }

    /// Runs one parallel phase.
    ///
    /// `items[cpu]` lists the work items owned by each CPU (empty lists
    /// are fine — that CPU simply waits). The scheduler repeatedly picks
    /// the unfinished CPU with the smallest clock and executes its next
    /// item via `body(ctx, cpu, item)`. Ties resolve by CPU id, so runs
    /// are deterministic.
    ///
    /// The unfinished CPUs sit in a min-heap keyed by `(clock, cpu)`, so
    /// each pick costs O(log P) instead of a scan of all P clocks. The
    /// heap picks exactly what a scan would because an item moves no
    /// clock but its own CPU's: only the running CPU's key changes, and
    /// it is re-keyed after its item. Debug builds check that invariant
    /// after every item and panic if another CPU's clock moved.
    ///
    /// # Panics
    ///
    /// Panics if `items.len()` differs from the machine's CPU count.
    pub fn parallel<F>(&mut self, items: &[Vec<u64>], mut body: F)
    where
        F: FnMut(&mut Ctx<'_>, CpuId, u64),
    {
        assert_eq!(
            items.len(),
            self.total_cpus as usize,
            "one item list per CPU required"
        );
        let mut cursors = vec![0usize; items.len()];
        let mut ready: BinaryHeap<Reverse<(Cycles, u16)>> = (0..self.total_cpus)
            .filter(|&c| !items[c as usize].is_empty())
            .map(|c| Reverse((self.machine.clock(CpuId(c)), c)))
            .collect();
        // The debug guard's snapshot of every clock before an item.
        let mut before = Vec::new();
        while let Some(mut next) = ready.peek_mut() {
            let Reverse((_, c)) = *next;
            let (cpu, idx) = (CpuId(c), c as usize);
            let item = items[idx][cursors[idx]];
            cursors[idx] += 1;
            if cfg!(debug_assertions) {
                before.clear();
                before.extend_from_slice(self.machine.clocks());
            }
            self.run_item(cpu, |ctx| body(ctx, cpu, item));
            if cfg!(debug_assertions) {
                if let Some(other) = foreign_clock_moved(&before, self.machine.clocks(), idx) {
                    panic!(
                        "an item on CPU {idx} moved CPU {other}'s clock: \
                         the min-clock heap would go stale"
                    );
                }
            }
            if cursors[idx] < items[idx].len() {
                // Re-key in place: the peeked entry sifts down on drop.
                next.0 .0 = self.machine.clock(cpu);
            } else {
                PeekMut::pop(next);
            }
        }
    }

    /// Runs a sequential section on one CPU (e.g., a master-only setup
    /// step that must be timed).
    pub fn serial<F>(&mut self, cpu: CpuId, body: F)
    where
        F: FnOnce(&mut Ctx<'_>),
    {
        self.run_item(cpu, body);
    }

    /// Splits `n` items into per-CPU contiguous chunks (block
    /// distribution, the dominant SPLASH-2 pattern).
    #[must_use]
    pub fn block_partition(&self, n: u64) -> Vec<Vec<u64>> {
        let cpus = self.total_cpus as u64;
        (0..cpus)
            .map(|c| {
                let lo = n * c / cpus;
                let hi = n * (c + 1) / cpus;
                (lo..hi).collect()
            })
            .collect()
    }

    /// Distributes `n` items round-robin across CPUs (interleaved
    /// distribution).
    #[must_use]
    pub fn cyclic_partition(&self, n: u64) -> Vec<Vec<u64>> {
        let cpus = self.total_cpus as u64;
        (0..cpus)
            .map(|c| (c..n).step_by(cpus as usize).collect())
            .collect()
    }
}

/// The first CPU other than `cpu` whose clock differs between `before`
/// and `after`, if any: the check behind [`Runner::parallel`]'s debug
/// guard that an item moved no clock but its own CPU's.
fn foreign_clock_moved(before: &[Cycles], after: &[Cycles], cpu: usize) -> Option<usize> {
    before
        .iter()
        .zip(after)
        .enumerate()
        .find(|&(i, (b, a))| i != cpu && b != a)
        .map(|(i, _)| i)
}

/// A runnable application kernel.
///
/// Implementations live in the `rnuma-workloads` crate; anything that
/// drives a [`Runner`] works, so downstream users can simulate their own
/// access patterns (see the `custom_workload` example).
pub trait Workload {
    /// The application's name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Executes the kernel against the machine.
    fn run(&mut self, runner: &mut Runner<'_>);
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn run(&mut self, runner: &mut Runner<'_>) {
        (**self).run(runner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, Protocol};
    use crate::metrics::Metrics;

    fn machine() -> Machine {
        Machine::new(MachineConfig::paper_base(Protocol::paper_ccnuma())).unwrap()
    }

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut m = machine();
        let mut r = Runner::new(&mut m);
        let a = r.alloc(100);
        let b = r.alloc(5000);
        assert_eq!(a.base().0 % PAGE_BYTES, 0);
        assert_eq!(a.bytes(), PAGE_BYTES);
        assert_eq!(b.bytes(), 2 * PAGE_BYTES);
        assert!(b.base().0 >= a.base().0 + a.bytes());
        assert!(a.base().0 >= PAGE_BYTES, "page 0 reserved");
    }

    #[test]
    fn alloc_may_fill_the_address_space_exactly() {
        let mut m = machine();
        let mut r = Runner::new(&mut m);
        // Page 0 is reserved, so pages 1..MAX_PAGES are what is left.
        let all = r.alloc((MAX_PAGES - 1) * PAGE_BYTES);
        assert_eq!(all.base().vpage(), VPage(1));
        assert_eq!(all.bytes(), (MAX_PAGES - 1) * PAGE_BYTES);
    }

    #[test]
    #[should_panic(expected = "ends at page vp:1048576, past the simulated address space")]
    fn alloc_past_max_pages_panics() {
        let mut m = machine();
        let mut r = Runner::new(&mut m);
        let _ = r.alloc((MAX_PAGES - 1) * PAGE_BYTES);
        let _ = r.alloc(1);
    }

    #[test]
    fn region_addressing() {
        let mut m = machine();
        let mut r = Runner::new(&mut m);
        let a = r.alloc(4096);
        assert_eq!(a.word(0), a.base());
        assert_eq!(a.word(1).0, a.base().0 + 8);
        assert_eq!(a.elem(3, 16).0, a.base().0 + 48);
        assert_eq!(a.len(8), 512);
        assert!(!a.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn out_of_bounds_addressing_panics() {
        let mut m = machine();
        let mut r = Runner::new(&mut m);
        let a = r.alloc(64);
        let _ = a.at(PAGE_BYTES);
    }

    #[test]
    fn partitions_cover_everything_exactly_once() {
        let mut m = machine();
        let r = Runner::new(&mut m);
        for part in [r.block_partition(101), r.cyclic_partition(101)] {
            let mut seen: Vec<u64> = part.into_iter().flatten().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..101).collect::<Vec<_>>());
        }
    }

    /// The scheduler `Runner::parallel` replaced: before every item, a
    /// linear scan of all clocks for the unfinished CPU with the
    /// smallest one, the lower id winning ties. The oracle the heap's
    /// pick order is checked against.
    fn scan_parallel<F>(r: &mut Runner<'_>, items: &[Vec<u64>], mut body: F)
    where
        F: FnMut(&mut Ctx<'_>, CpuId, u64),
    {
        let mut cursors = vec![0usize; items.len()];
        loop {
            let mut best: Option<(Cycles, usize)> = None;
            for (idx, cursor) in cursors.iter().enumerate() {
                if *cursor < items[idx].len() {
                    let clock = r.machine.clock(CpuId(idx as u16));
                    match best {
                        Some((c, _)) if c <= clock => {}
                        _ => best = Some((clock, idx)),
                    }
                }
            }
            let Some((_, idx)) = best else { break };
            let item = items[idx][cursors[idx]];
            cursors[idx] += 1;
            let cpu = CpuId(idx as u16);
            r.run_item(cpu, |ctx| body(ctx, cpu, item));
        }
    }

    /// Runs three phases of a mixed schedule with `heap` (`Runner::parallel`)
    /// or the scan oracle, returning the `(cpu, item)` pick order and the
    /// run's metrics.
    fn mixed_schedule(heap: bool) -> (Vec<(u16, u64)>, Metrics) {
        let mut m = machine();
        let mut order = Vec::new();
        {
            let mut r = Runner::new(&mut m);
            let region = r.alloc(PAGE_BYTES * 64);
            // CPUs 3 and 17 own nothing; CPUs 8..12 finish early, after
            // three think-only items; the rest own 2–7 items. Every CPU
            // starts at clock 0, so the first picks are all ties.
            let items: Vec<Vec<u64>> = (0..32u64)
                .map(|c| match c {
                    3 | 17 => vec![],
                    8..=11 => vec![c * 100, c * 100 + 1, c * 100 + 4],
                    _ => (0..2 + c % 6).map(|i| c * 100 + i).collect(),
                })
                .collect();
            // The second phase starts without a barrier, so CPUs enter it
            // at the clocks the first left them at, and a waiting CPU's
            // entry key can tie the key of a CPU that has just run.
            for phase in 0..3 {
                let mut body = |ctx: &mut Ctx<'_>, cpu: CpuId, item: u64| {
                    order.push((cpu.0, item));
                    match item % 4 {
                        // Think-only items, twice as long on odd CPUs:
                        // an even CPU that just ran two of them ties an
                        // odd CPU that ran one and is waiting.
                        0 | 1 => ctx.think(40 * (1 + u64::from(cpu.0 % 2))),
                        2 => {
                            ctx.write(region.elem((item * 7) % 64, PAGE_BYTES));
                            ctx.think(item % 9 * 20);
                        }
                        _ => {
                            ctx.read(region.elem(item % 64, PAGE_BYTES));
                            ctx.update(region.word(item % 512));
                        }
                    }
                };
                if heap {
                    r.parallel(&items, &mut body);
                } else {
                    scan_parallel(&mut r, &items, &mut body);
                }
                if phase != 0 {
                    r.barrier();
                }
            }
        }
        (order, m.metrics())
    }

    #[test]
    fn parallel_runs_items_in_min_clock_order() {
        let (heap_order, heap_metrics) = mixed_schedule(true);
        let (scan_order, scan_metrics) = mixed_schedule(false);
        let per_phase: usize = (0..32u64)
            .map(|c| match c {
                3 | 17 => 0,
                8..=11 => 3,
                _ => 2 + c as usize % 6,
            })
            .sum();
        assert_eq!(heap_order.len(), 3 * per_phase);
        assert_eq!(heap_order, scan_order, "heap and scan pick orders differ");
        assert!(heap_metrics.replay_eq(&scan_metrics));
        // The schedule does interleave: the first 30 picks are the 30
        // CPUs with items, tied at clock 0 and taken in id order.
        let first: Vec<u16> = heap_order[..30].iter().map(|&(c, _)| c).collect();
        let with_items: Vec<u16> = (0..32).filter(|c| ![3, 17].contains(c)).collect();
        assert_eq!(first, with_items);
    }

    #[test]
    fn foreign_clock_moved_names_the_other_cpu() {
        let before = [Cycles(10), Cycles(20), Cycles(30), Cycles(40)];
        // Only the running CPU's clock moved.
        let own = [Cycles(10), Cycles(25), Cycles(30), Cycles(40)];
        assert_eq!(foreign_clock_moved(&before, &own, 1), None);
        assert_eq!(foreign_clock_moved(&before, &before, 1), None);
        // CPU 3's clock moved during an item on CPU 1.
        let other = [Cycles(10), Cycles(25), Cycles(30), Cycles(41)];
        assert_eq!(foreign_clock_moved(&before, &other, 1), Some(3));
        // Blamed on CPU 3, the same pair is clean.
        let only_three = [Cycles(10), Cycles(20), Cycles(30), Cycles(41)];
        assert_eq!(foreign_clock_moved(&before, &only_three, 3), None);
    }

    #[test]
    fn think_advances_at_dual_issue_rate() {
        let mut m = machine();
        let before = m.clock(CpuId(3));
        Runner::new(&mut m).serial(CpuId(3), |ctx| ctx.think(1000));
        assert_eq!(m.clock(CpuId(3)), before + Cycles(500));
    }

    #[test]
    fn update_issues_read_then_write() {
        let mut m = machine();
        {
            let mut r = Runner::new(&mut m);
            let region = r.alloc(64);
            r.serial(CpuId(0), |ctx| {
                ctx.update(region.word(0));
            });
        }
        let metrics = m.metrics();
        assert_eq!(metrics.reads, 1);
        assert_eq!(metrics.writes, 1);
    }

    #[test]
    fn read_write_words_emit_n_references() {
        let mut m = machine();
        {
            let mut r = Runner::new(&mut m);
            let region = r.alloc(4096);
            r.serial(CpuId(0), |ctx| {
                ctx.read_words(region.base(), 10);
                ctx.write_words(region.base(), 5);
            });
        }
        let metrics = m.metrics();
        assert_eq!(metrics.reads, 10);
        assert_eq!(metrics.writes, 5);
    }

    /// Records a short run with `chunk_ops`-op chunks, returning the
    /// chunks in the order the sink received them.
    fn recorded_chunks(chunk_ops: usize) -> Vec<Vec<TraceOp>> {
        let mut chunks = Vec::new();
        let mut sink = |ops: &[TraceOp]| chunks.push(ops.to_vec());
        let mut m = Machine::new(MachineConfig::paper_base(Protocol::paper_rnuma())).unwrap();
        let mut r = Runner::recording(&mut m, chunk_ops, &mut sink);
        let region = r.alloc(PAGE_BYTES);
        r.serial(CpuId(0), |ctx| {
            ctx.write(region.word(0));
            ctx.think(20);
            ctx.read(region.word(1));
        });
        r.barrier();
        let items: Vec<Vec<u64>> = (0..32)
            .map(|c| if c == 5 { vec![2] } else { vec![] })
            .collect();
        r.parallel(&items, |ctx, _, i| ctx.update(region.word(i)));
        r.finish();
        chunks
    }

    #[test]
    fn runner_records_every_op_kind_in_exact_chunks() {
        let access = |cpu: u16, word: u64, write: bool| TraceOp::Access {
            cpu: CpuId(cpu),
            va: Va(PAGE_BYTES + 8 * word),
            write,
        };
        // Each item's ops arrive in issue order, between the global ops.
        let expected = [
            access(0, 0, true),
            TraceOp::Think {
                cpu: CpuId(0),
                dur: Cycles(10),
            },
            access(0, 1, false),
            TraceOp::Barrier,
            access(5, 2, false),
            access(5, 2, true),
        ];
        // Chunk size 1 flushes every op; the sizes in between cut chunks
        // inside items and leave a partial last chunk for `finish`; a
        // chunk larger than the trace arrives whole at `finish`.
        for chunk_ops in 1..=expected.len() + 3 {
            let want: Vec<Vec<TraceOp>> = expected.chunks(chunk_ops).map(<[_]>::to_vec).collect();
            assert_eq!(recorded_chunks(chunk_ops), want, "chunk size {chunk_ops}");
        }
    }

    #[test]
    #[should_panic(expected = "one item list per CPU")]
    fn wrong_item_list_count_panics() {
        let mut m = machine();
        let mut r = Runner::new(&mut m);
        r.parallel(&[vec![0u64]], |_, _, _| {});
    }
}
