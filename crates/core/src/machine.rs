//! The simulated distributed shared-memory machine.
//!
//! [`Machine`] assembles the full system of Figure 1 of the paper: eight
//! SMP nodes (four CPUs with 8-KB data caches on a snoopy MOESI bus,
//! plus a Remote Access Device) connected by a 100-cycle point-to-point
//! network. The protocol under study ([`Protocol`]) decides what lives
//! on the RAD: a block cache (CC-NUMA), a page cache with fine-grain
//! tags (S-COMA), or both plus the reactive refetch counters (R-NUMA).
//!
//! # Timing model
//!
//! Each CPU owns a clock and retires one memory reference at a time,
//! suspending on misses exactly like the paper's statically scheduled
//! processors. A reference walks the hierarchy synchronously; shared
//! resources (node buses, NIs, RAD controllers, memory controllers) are
//! FCFS occupancy servers, so contention appears as queueing delay in
//! the walk. Third-party coherence actions (invalidations, downgrades)
//! update state eagerly and charge their latency to the requester's
//! transaction, the standard protocol-level-simulator treatment.
//! Eviction write-backs are *posted*: they occupy the evictor's
//! outbound NI and sink at the home's memory controller without a
//! reply.
//!
//! The end-to-end uncontended costs reproduce Table 2 — see the
//! calibration tests at the bottom of this file.
//!
//! # The walk
//!
//! The reference walk is a set of private methods on [`Machine`] itself.
//! [`Machine::access`] drives it one reference at a time; the batched
//! kernel drives it one same-CPU run at a time, for each workload item
//! a [`Runner`](crate::program::Runner) executes and for each run
//! [`Machine::replay_segment`] replays. Both execute the *same* walk
//! code over the same state, which is what makes the batched kernel
//! bit-identical to the per-op API (see `docs/DETERMINISM.md`). The
//! machine only simulates: recording a run is the `Runner`'s job.

use crate::config::{MachineConfig, Protocol};
use crate::metrics::Metrics;
use crate::trace::{CpuRun, TraceOp};
use rnuma_mem::addr::{CpuId, NodeId, VBlock, VPage, Va};
use rnuma_mem::block_cache::{BlockCache, BlockEviction, BlockState};
use rnuma_mem::fine_tags::AccessTag;
use rnuma_mem::l1::{L1Cache, L1Probe};
use rnuma_mem::page_cache::{PageCache, PageVictim};
use rnuma_mem::page_table::{Mapping, NodePageTable};
use rnuma_net::{MsgKind, Network};
use rnuma_os::{OsStats, PageManager};
use rnuma_proto::bus::{self, BusRequest};
use rnuma_proto::directory::Directory;
use rnuma_proto::reactive::RefetchCounters;
use rnuma_sim::{Cycles, Resource};

/// Extra protocol-FSM processing charged at the home per request, chosen
/// so that the uncontended end-to-end remote fetch equals Table 2's 376
/// cycles (see `calibration` tests).
const HOME_SERVICE: Cycles = Cycles(43);

/// Bus data-return phase: one 100-MHz bus cycle.
const BUS_DATA: Cycles = Cycles(4);

/// Per-CPU most-recently-used translation: the last page this CPU
/// resolved through its node's page table, with the table version the
/// answer was read under. Repeated references to the same page — the
/// overwhelmingly common case — skip the table walk entirely; any
/// `map`/`unmap` on the node bumps the version and invalidates the
/// entry implicitly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MruTranslation {
    page: VPage,
    mapping: Mapping,
    version: u64,
}

impl MruTranslation {
    /// A slot that can never match a real lookup.
    const INVALID: MruTranslation = MruTranslation {
        page: VPage(u64::MAX),
        mapping: Mapping::CcNuma,
        version: u64::MAX,
    };
}

/// One node of the machine.
pub(crate) struct Node {
    l1s: Vec<L1Cache>,
    bus: Resource,
    rad: Resource,
    mem: Resource,
    block_cache: Option<BlockCache>,
    page_cache: Option<PageCache>,
    pt: NodePageTable,
    dir: Directory,
    counters: Option<RefetchCounters>,
    os: OsStats,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("mapped_pages", &self.pt.len())
            .field("os", &self.os)
            .finish_non_exhaustive()
    }
}

/// The full simulated machine: nodes, interconnect, OS, and metrics.
///
/// # Example
///
/// ```
/// use rnuma::config::{MachineConfig, Protocol};
/// use rnuma::machine::Machine;
/// use rnuma_mem::addr::{CpuId, Va};
///
/// let mut m = Machine::new(MachineConfig::paper_base(Protocol::paper_rnuma())).unwrap();
/// // CPU 0 writes a word; the first touch faults and homes the page there.
/// m.access(CpuId(0), Va(0x1000), true);
/// // A CPU on another node reads it remotely.
/// m.access(CpuId(4), Va(0x1000), false);
/// assert!(m.metrics().remote_fetches >= 1);
/// ```
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    nodes: Vec<Node>,
    net: Network,
    pages: PageManager,
    clocks: Vec<Cycles>,
    mru: Vec<MruTranslation>,
    /// Reusable eviction buffer for page flushes (no per-flush allocs).
    flush_scratch: Vec<BlockEviction>,
    metrics: Metrics,
}

impl Machine {
    /// Builds a machine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(cfg: MachineConfig) -> Result<Machine, crate::config::ConfigError> {
        cfg.validate()?;
        let nodes = (0..cfg.nodes)
            .map(|_| {
                let (block_cache, page_cache, counters) =
                    match cfg.protocol {
                        Protocol::CcNuma { block_cache_bytes } => (
                            Some(block_cache_bytes.map_or_else(BlockCache::infinite, |b| {
                                BlockCache::direct_mapped(b)
                            })),
                            None,
                            None,
                        ),
                        Protocol::SComa { page_cache_bytes } => (
                            None,
                            Some(PageCache::with_policy(page_cache_bytes, cfg.page_policy)),
                            None,
                        ),
                        Protocol::RNuma {
                            block_cache_bytes,
                            page_cache_bytes,
                            threshold,
                        } => (
                            Some(BlockCache::direct_mapped(block_cache_bytes)),
                            Some(PageCache::with_policy(page_cache_bytes, cfg.page_policy)),
                            Some(RefetchCounters::new(threshold)),
                        ),
                    };
                Node {
                    l1s: (0..cfg.cpus_per_node)
                        .map(|_| L1Cache::new(cfg.l1_bytes))
                        .collect(),
                    bus: Resource::new(),
                    rad: Resource::new(),
                    mem: Resource::new(),
                    block_cache,
                    page_cache,
                    pt: NodePageTable::new(),
                    dir: Directory::new(),
                    counters,
                    os: OsStats::new(),
                }
            })
            .collect();
        Ok(Machine {
            net: Network::new(cfg.nodes as usize, cfg.net),
            pages: PageManager::new(),
            clocks: vec![Cycles::ZERO; cfg.total_cpus() as usize],
            mru: vec![MruTranslation::INVALID; cfg.total_cpus() as usize],
            flush_scratch: Vec::new(),
            metrics: Metrics::default(),
            nodes,
            cfg,
        })
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The current clock of `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn clock(&self, cpu: CpuId) -> Cycles {
        self.clocks[cpu.0 as usize]
    }

    /// Every CPU's clock, indexed by CPU id.
    pub(crate) fn clocks(&self) -> &[Cycles] {
        &self.clocks
    }

    /// Advances `cpu`'s clock by `dur` (compute/think time).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn advance(&mut self, cpu: CpuId, dur: Cycles) {
        self.clocks[cpu.0 as usize] += dur;
    }

    /// Synchronizes all CPUs at a barrier: every clock jumps to the
    /// latest arrival plus the configured barrier cost.
    pub fn barrier_all(&mut self) {
        let max = self.clocks.iter().copied().fold(Cycles::ZERO, Cycles::max);
        let after = max + self.cfg.barrier_cost;
        for c in &mut self.clocks {
            *c = after;
        }
    }

    /// Performs one memory reference for `cpu` at its current clock,
    /// advancing the clock by the reference's latency, which is
    /// returned.
    ///
    /// This is the per-op reference path: workloads run through the
    /// batched kernel instead (see [`Runner`](crate::program::Runner)),
    /// and the differential suites check that kernel against this.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range, or if `va` lies at or past page
    /// [`MAX_PAGES`](rnuma_mem::addr::MAX_PAGES).
    pub fn access(&mut self, cpu: CpuId, va: Va, write: bool) -> Cycles {
        let cpu_idx = cpu.0 as usize;
        let node_idx = self.node_of(cpu);
        let l1_idx = (cpu.0 % self.cfg.cpus_per_node) as usize;
        self.metrics
            .touch_page(va.vpage(), NodeId(node_idx as u8), write);
        let latency = self.walk(cpu_idx, node_idx, l1_idx, va, write);
        self.clocks[cpu_idx] += latency;
        latency
    }

    /// Replays one trace segment through the batched loop — the *only*
    /// replay entry point. It consumes a pre-split run table (see
    /// [`split_cpu_runs`](crate::split_cpu_runs) and
    /// [`TraceStore::for_each_batch`](crate::TraceStore::for_each_batch)),
    /// streaming each contiguous same-CPU run through per-run hoisted
    /// state instead of per-op dispatch. Bit-identical to driving the
    /// per-op API ([`Machine::access`] and friends) one op at a time —
    /// the contract `tests/batched_replay.rs` enforces.
    ///
    /// # Panics
    ///
    /// Panics if an op references a CPU outside the machine, or if
    /// `runs` does not tile `ops` exactly.
    pub fn replay_segment(&mut self, ops: &[TraceOp], runs: &[CpuRun]) {
        let mut at = 0usize;
        for run in runs {
            match *run {
                CpuRun::Cpu { cpu, len } => {
                    let end = at + len;
                    self.access_run(cpu, &ops[at..end]);
                    at = end;
                }
                CpuRun::Barrier => {
                    self.barrier_all();
                    at += 1;
                }
            }
        }
        assert_eq!(at, ops.len(), "run table does not tile its segment");
    }

    /// A snapshot of the run metrics so far (execution time fields are
    /// refreshed from the CPU clocks).
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = self.metrics.clone();
        m.exec_cycles = self.clocks.iter().copied().fold(Cycles::ZERO, Cycles::max);
        m.per_cpu_cycles = self.clocks.clone();
        m.os = self
            .nodes
            .iter()
            .fold(OsStats::new(), |acc, n| acc.merged(n.os));
        m.relocation_interrupts = self
            .nodes
            .iter()
            .filter_map(|n| n.counters.as_ref())
            .map(RefetchCounters::interrupts)
            .sum();
        m.net_messages = self.net.total_sends();
        m.ni_wait = self.net.total_ni_wait();
        m
    }
}

// ----------------------------------------------------------------------
// The reference walk: everything below is shared by the per-op API and
// the batched kernel.
// ----------------------------------------------------------------------
impl Machine {
    fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node {
        &mut self.nodes[idx]
    }

    fn node_of(&self, cpu: CpuId) -> usize {
        (cpu.0 / self.cfg.cpus_per_node) as usize
    }

    /// Executes one contiguous same-CPU run of `Access`/`Think` ops with
    /// the CPU-derived indices (clock slot, node, L1) hoisted out of the
    /// per-op loop — the batched kernel every workload item and every
    /// replayed run executes through.
    ///
    /// Within the run, the per-reference page-profile touch is
    /// coalesced: [`Metrics::touch_page`] is idempotent per
    /// `(page, node, wrote)` triple, so a span of consecutive
    /// same-page references pays its page-map update once for the
    /// span's first reference (creating the profile at the same point
    /// in execution order as the per-op path) plus once for its first
    /// write — never once per op.
    pub(crate) fn access_run(&mut self, cpu: CpuId, ops: &[TraceOp]) {
        let cpu_idx = cpu.0 as usize;
        let node_idx = self.node_of(cpu);
        let node_id = NodeId(node_idx as u8);
        let l1_idx = (cpu.0 % self.cfg.cpus_per_node) as usize;
        // An unreachable page number (addresses are page-offset-shifted
        // u64s, so their page indices never reach u64::MAX).
        let mut span_page = VPage(u64::MAX);
        let mut span_wrote = false;
        for op in ops {
            // A run table paired with the wrong segment of equal length
            // would otherwise execute silently with every op charged to
            // the hoisted run CPU.
            debug_assert_eq!(op.issuer(), Some(cpu), "op outside its CPU run");
            match *op {
                TraceOp::Access { va, write, .. } => {
                    let page = va.vpage();
                    if page != span_page {
                        span_page = page;
                        span_wrote = write;
                        self.metrics.touch_page(page, node_id, write);
                    } else if write && !span_wrote {
                        span_wrote = true;
                        self.metrics.touch_page(page, node_id, true);
                    }
                    let latency = self.walk(cpu_idx, node_idx, l1_idx, va, write);
                    self.clocks[cpu_idx] += latency;
                }
                TraceOp::Think { dur, .. } => self.clocks[cpu_idx] += dur,
                TraceOp::Barrier => unreachable!("barrier inside a same-CPU run"),
            }
        }
    }

    /// Posts an eviction write-back of `block` from `from` toward its
    /// home: the network message is posted (sender-side state only) and
    /// the home's directory records the write-back.
    fn post_writeback(&mut self, now: Cycles, from: NodeId, home: NodeId, block: VBlock) {
        self.net.post(now, from, home, MsgKind::WriteBack);
        self.node_mut(home.0 as usize).dir.writeback(block, from);
    }

    // ------------------------------------------------------------------
    // The reference walk.
    // ------------------------------------------------------------------

    /// The full reference walk, with the issuing CPU's derived indices
    /// (clock slot, node, L1 slot) already resolved — callers hoist them
    /// once per op ([`Machine::access`]) or once per same-CPU run
    /// ([`Machine::access_run`]). Callers also own the page-profile touch
    /// ([`Metrics::touch_page`]), which must precede the walk; the
    /// batched loop coalesces it across same-page spans.
    fn walk(
        &mut self,
        cpu_idx: usize,
        node_idx: usize,
        l1_idx: usize,
        va: Va,
        write: bool,
    ) -> Cycles {
        let start = self.clocks[cpu_idx];
        let block = va.vblock();
        let page = va.vpage();

        if write {
            self.metrics.writes += 1;
        } else {
            self.metrics.reads += 1;
        }

        // 1. L1 probe (1 cycle); a store hit marks the line modified in
        //    the same lookup.
        let probe = {
            let l1 = &mut self.node_mut(node_idx).l1s[l1_idx];
            if write {
                l1.try_store(block)
            } else {
                l1.probe_read(block)
            }
        };
        if probe == L1Probe::Hit {
            self.metrics.l1_hits += 1;
            return Cycles(1);
        }
        self.metrics.l1_misses += 1;
        let mut t = start + Cycles(1);

        // 2. Page translation. The per-CPU MRU entry short-circuits the
        //    table walk for repeated references to the same page; a soft
        //    fault maps the page on first touch.
        let mru = self.mru[cpu_idx];
        let mapping = if mru.version == self.node(node_idx).pt.version() && mru.page == page {
            self.metrics.mru_translation_hits += 1;
            mru.mapping
        } else {
            let m = match self.node(node_idx).pt.lookup(page) {
                Some(m) => m,
                None => {
                    let (m, fault_end) = self.fault_in_page(node_idx, page, t);
                    t = fault_end;
                    m
                }
            };
            self.mru[cpu_idx] = MruTranslation {
                page,
                mapping: m,
                version: self.node(node_idx).pt.version(),
            };
            m
        };

        // 3. Node-bus transaction with snoop of the peer caches.
        let request = match (write, probe) {
            (false, _) => BusRequest::Read,
            (true, L1Probe::UpgradeMiss) => BusRequest::Upgrade,
            (true, _) => BusRequest::ReadExclusive,
        };
        let occ = self.cfg.bus_occupancy;
        let grant = self.node_mut(node_idx).bus.acquire(t, occ);
        t = grant + occ;
        let snoop = bus::snoop(&mut self.node_mut(node_idx).l1s, l1_idx, block, request);

        // 4. A peer owner supplies reads cache-to-cache (write misses
        //    continue to the node-level permission check; peer copies are
        //    already invalidated by the snoop).
        if !write && snoop.supplied_by_cache {
            self.metrics.c2c_transfers += 1;
            t += BUS_DATA;
            self.fill_l1(
                node_idx,
                l1_idx,
                block,
                false,
                rnuma_mem::moesi::Moesi::Shared,
            );
            return t - start;
        }

        // 5. Dispatch on the page's mapping mode.
        let done = match mapping {
            Mapping::Local => self.access_local(node_idx, block, write, t),
            Mapping::CcNuma => {
                self.access_ccnuma(node_idx, l1_idx, page, block, write, snoop.peer_had_copy, t)
            }
            Mapping::SComa(_) => self.access_scoma(node_idx, page, block, write, t),
        };

        // 6. Fill the issuing L1 for the local and S-COMA paths (the
        //    CC-NUMA path fills inside to sequence block-cache evictions).
        match mapping {
            Mapping::Local | Mapping::SComa(_) => {
                let local = mapping == Mapping::Local;
                let state =
                    self.fill_state(node_idx, local, page, block, write, snoop.peer_had_copy);
                self.fill_l1(node_idx, l1_idx, block, write, state);
            }
            Mapping::CcNuma => {}
        }
        done - start
    }

    /// Chooses the MOESI state for a local (`local`) or S-COMA L1 fill
    /// from node-level permission.
    fn fill_state(
        &self,
        node_idx: usize,
        local: bool,
        page: VPage,
        block: VBlock,
        write: bool,
        peer_had_copy: bool,
    ) -> rnuma_mem::moesi::Moesi {
        use rnuma_mem::moesi::Moesi;
        if write {
            return Moesi::Modified;
        }
        if peer_had_copy {
            return Moesi::Shared;
        }
        let node = self.node(node_idx);
        let node_rw = if local {
            let e = node.dir.entry(block);
            let home = NodeId(node_idx as u8);
            e.owner.is_none_or(|o| o == home) && e.sharers.without(home).is_empty()
        } else {
            node.page_cache
                .as_ref()
                .and_then(|pc| pc.tag(page, block.index_in_page()))
                .is_some_and(AccessTag::writable)
        };
        if node_rw {
            Moesi::Exclusive
        } else {
            Moesi::Shared
        }
    }

    fn fill_l1(
        &mut self,
        node_idx: usize,
        l1_idx: usize,
        block: VBlock,
        write: bool,
        state: rnuma_mem::moesi::Moesi,
    ) {
        let ev = if write {
            self.node_mut(node_idx).l1s[l1_idx].grant_write(block)
        } else {
            self.node_mut(node_idx).l1s[l1_idx].fill(block, state)
        };
        if let Some(ev) = ev {
            self.handle_l1_eviction(node_idx, ev.block, ev.dirty);
        }
    }

    /// Routes a dirty L1 victim to the node-level holder of the block.
    fn handle_l1_eviction(&mut self, node_idx: usize, block: VBlock, dirty: bool) {
        if !dirty {
            return; // clean drops are silent everywhere
        }
        let page = block.vpage();
        match self.node(node_idx).pt.lookup(page) {
            Some(Mapping::CcNuma) => {
                // Inclusion holds for read-write blocks, so the block
                // cache has the line; the write-back lands there.
                if let Some(bc) = self.node_mut(node_idx).block_cache.as_mut() {
                    bc.mark_dirty(block);
                }
            }
            // Local memory and S-COMA frames absorb write-backs directly
            // (the RW fine-grain tag already marks the frame dirty).
            Some(Mapping::Local) | Some(Mapping::SComa(_)) | None => {}
        }
    }

    // ------------------------------------------------------------------
    // Page faults and mapping.
    // ------------------------------------------------------------------

    fn fault_in_page(&mut self, node_idx: usize, page: VPage, now: Cycles) -> (Mapping, Cycles) {
        let node_id = NodeId(node_idx as u8);
        let home = self.pages.home_on_touch(page, node_id);
        self.node_mut(node_idx).os.page_faults += 1;
        if home == node_id {
            self.node_mut(node_idx).pt.map(page, Mapping::Local);
            return (Mapping::Local, now + self.cfg.costs.page_fault());
        }
        match self.cfg.protocol {
            // R-NUMA always starts a remote page as CC-NUMA.
            Protocol::CcNuma { .. } | Protocol::RNuma { .. } => {
                self.node_mut(node_idx).pt.map(page, Mapping::CcNuma);
                self.node_mut(node_idx).os.ccnuma_maps += 1;
                (Mapping::CcNuma, now + self.cfg.costs.page_fault())
            }
            Protocol::SComa { .. } => {
                let cost = self.map_scoma_page(node_idx, page, now);
                (
                    self.node(node_idx)
                        .pt
                        .lookup(page)
                        .expect("map_scoma_page installed a mapping"),
                    now + cost,
                )
            }
        }
    }

    /// Allocates a page-cache frame for `page` and maps it S-COMA,
    /// flushing an LRM victim if needed. Returns the total OS cost.
    fn map_scoma_page(&mut self, node_idx: usize, page: VPage, now: Cycles) -> Cycles {
        let alloc = self
            .node_mut(node_idx)
            .page_cache
            .as_mut()
            .expect("S-COMA mapping requires a page cache")
            .allocate(page);
        let victim_blocks = match alloc.victim {
            Some(victim) => {
                let blocks = victim.valid_blocks;
                self.flush_scoma_victim(node_idx, victim, now);
                blocks
            }
            None => 0,
        };
        let node = self.node_mut(node_idx);
        node.pt.map(page, Mapping::SComa(alloc.frame));
        node.os.scoma_allocations += 1;
        node.os.tlb_shootdowns += 1;
        self.cfg.costs.page_allocation(victim_blocks)
    }

    /// Unmaps and flushes an evicted page-cache page: dirty blocks are
    /// written back to their home (updating its directory so the next
    /// fetch is recognized as a refetch), read-only blocks are dropped
    /// silently (non-notifying), and local L1 copies are invalidated
    /// under the TLB shootdown.
    ///
    /// The shootdown visits only the blocks the victim's tags mark
    /// valid, by the inclusion rule: an L1 line of an S-COMA-mapped page
    /// always has a valid page-cache tag. L1 fills follow the tag update
    /// in `access_scoma` (or copy a peer line that obeys the rule),
    /// `apply_invalidation_at` snoops the L1s whenever it clears a tag,
    /// and `relocate_page` empties the page's L1 lines before it
    /// installs tags. Debug builds rescan the L1s to check it.
    fn flush_scoma_victim(&mut self, node_idx: usize, victim: PageVictim, now: Cycles) {
        let node_id = NodeId(node_idx as u8);
        let home = self
            .pages
            .home_of(victim.vpage)
            .expect("cached page must have a home");
        debug_assert_ne!(home, node_id, "page cache never holds local pages");
        for (idx, tag) in victim.tags.iter_valid() {
            let block = victim.vpage.block(idx);
            if tag == AccessTag::ReadWrite {
                self.post_writeback(now, node_id, home, block);
            }
            for l1 in &mut self.node_mut(node_idx).l1s {
                l1.invalidate(block);
            }
        }
        #[cfg(debug_assertions)]
        for l1 in &self.node(node_idx).l1s {
            assert!(
                l1.iter().all(|(b, _)| b.vpage() != victim.vpage),
                "L1 line of evicted page {} had no valid page-cache tag",
                victim.vpage
            );
        }
        let node = self.node_mut(node_idx);
        node.pt.unmap(victim.vpage);
        node.os.page_replacements += 1;
        node.os.blocks_flushed += u64::from(victim.valid_blocks);
        if let Some(counters) = node.counters.as_mut() {
            counters.reset(victim.vpage);
        }
    }

    // ------------------------------------------------------------------
    // Access paths by mapping mode.
    // ------------------------------------------------------------------

    /// Access to a page homed at this node: plain local memory, plus any
    /// coherence actions against foreign copies recorded in the
    /// directory.
    fn access_local(
        &mut self,
        node_idx: usize,
        block: VBlock,
        write: bool,
        mut t: Cycles,
    ) -> Cycles {
        let node_id = NodeId(node_idx as u8);
        let entry = self.node(node_idx).dir.entry(block);
        let foreign_owner = entry.owner.filter(|&o| o != node_id);
        let foreign_sharers = entry.sharers.without(node_id);

        if write {
            if foreign_owner.is_some() || !foreign_sharers.is_empty() {
                let outcome = self.node_mut(node_idx).dir.write(block, node_id, true);
                if let Some(owner) = outcome.fetch_from {
                    t = self.recall_from_owner(node_idx, owner, block, true, t);
                }
                let invals = outcome.invalidate.without(node_id);
                t = self.invalidate_sharers(node_idx, invals, block, t);
            }
        } else if let Some(owner) = foreign_owner {
            let outcome = self.node_mut(node_idx).dir.read(block, node_id);
            debug_assert_eq!(outcome.fetch_from, Some(owner));
            t = self.recall_from_owner(node_idx, owner, block, false, t);
        }

        // Local memory fill: DRAM access plus the bus data return.
        let dram = self.cfg.costs.dram_access;
        let grant = self.node_mut(node_idx).mem.acquire(t, dram);
        t = grant + dram + BUS_DATA;
        self.metrics.local_fills += 1;
        t
    }

    /// Access to a CC-NUMA-mapped remote page via the block cache.
    #[expect(
        clippy::too_many_arguments,
        reason = "the block-cache path fills the L1 slot itself, so it takes the slot and snoop result of the access it completes"
    )]
    fn access_ccnuma(
        &mut self,
        node_idx: usize,
        l1_idx: usize,
        page: VPage,
        block: VBlock,
        write: bool,
        peer_had_copy: bool,
        mut t: Cycles,
    ) -> Cycles {
        use rnuma_mem::moesi::Moesi;
        let sram = self.cfg.costs.sram_access;
        let grant = self.node_mut(node_idx).rad.acquire(t, sram);
        t = grant + sram;

        let bc_state = self
            .node(node_idx)
            .block_cache
            .as_ref()
            .expect("CC-NUMA mapping requires a block cache")
            .probe(block);

        match (write, bc_state) {
            // Read hit in the block cache.
            (false, Some(state)) => {
                t += sram + BUS_DATA;
                self.metrics.block_cache_hits += 1;
                let fill = if state.read_write && !peer_had_copy {
                    Moesi::Exclusive
                } else {
                    Moesi::Shared
                };
                self.fill_l1(node_idx, l1_idx, block, false, fill);
                t
            }
            // Write hit with write permission.
            (true, Some(state)) if state.read_write => {
                t += sram + BUS_DATA;
                self.metrics.block_cache_hits += 1;
                if let Some(bc) = self.node_mut(node_idx).block_cache.as_mut() {
                    bc.mark_dirty(block);
                }
                self.fill_l1(node_idx, l1_idx, block, true, Moesi::Modified);
                t
            }
            // Write to a read-only copy: upgrade at the home. The node
            // still holds the data, so no data reply is needed and no
            // refetch is charged.
            (true, Some(_)) => {
                let (done, refetch) = self.fetch_remote(node_idx, page, block, true, true, t);
                debug_assert!(!refetch);
                if let Some(bc) = self.node_mut(node_idx).block_cache.as_mut() {
                    bc.grant_write(block);
                    bc.mark_dirty(block);
                }
                t = done + BUS_DATA;
                self.fill_l1(node_idx, l1_idx, block, true, Moesi::Modified);
                t
            }
            // Miss: fetch from the home node.
            (_, None) => {
                let (done, refetch) = self.fetch_remote(node_idx, page, block, write, false, t);
                t = done + BUS_DATA;
                // Install in the block cache, handling the victim.
                let state = if write {
                    let mut s = BlockState::writable();
                    s.dirty = true;
                    s
                } else {
                    BlockState::read_only()
                };
                let evicted = self
                    .node_mut(node_idx)
                    .block_cache
                    .as_mut()
                    .expect("checked above")
                    .fill(block, state);
                if let Some(ev) = evicted {
                    self.handle_bc_eviction(node_idx, ev, t);
                }
                let fill = if write {
                    Moesi::Modified
                } else {
                    Moesi::Shared
                };
                self.fill_l1(node_idx, l1_idx, block, write, fill);

                // The reactive policy: count the refetch and relocate the
                // page once the threshold is crossed.
                if refetch {
                    let crossed = self
                        .node_mut(node_idx)
                        .counters
                        .as_mut()
                        .is_some_and(|c| c.record(page));
                    if crossed {
                        t += self.relocate_page(node_idx, page, t);
                    }
                }
                t
            }
        }
    }

    /// Access to an S-COMA-mapped remote page via the page cache.
    fn access_scoma(
        &mut self,
        node_idx: usize,
        page: VPage,
        block: VBlock,
        write: bool,
        mut t: Cycles,
    ) -> Cycles {
        let sram = self.cfg.costs.sram_access;
        let dram = self.cfg.costs.dram_access;
        let grant = self.node_mut(node_idx).rad.acquire(t, sram);
        t = grant + sram; // fine-grain tag check

        let tag = self
            .node(node_idx)
            .page_cache
            .as_ref()
            .expect("S-COMA mapping requires a page cache")
            .tag(page, block.index_in_page())
            .expect("mapped page must be resident");

        let hit = if write {
            tag.writable()
        } else {
            tag.readable()
        };
        if hit {
            // Local page-cache fill from DRAM.
            let grant = self.node_mut(node_idx).mem.acquire(t, dram);
            t = grant + dram + BUS_DATA;
            self.metrics.page_cache_hits += 1;
            return t;
        }

        // Miss: inhibit memory, translate LPA->GPA (SRAM), go to home.
        t += sram;
        let holds_copy = tag == AccessTag::ReadOnly && write;
        let (done, _refetch) = self.fetch_remote(node_idx, page, block, write, holds_copy, t);
        t = done + BUS_DATA;
        let new_tag = if write {
            AccessTag::ReadWrite
        } else {
            AccessTag::ReadOnly
        };
        let pc = self
            .node_mut(node_idx)
            .page_cache
            .as_mut()
            .expect("checked above");
        pc.set_tag(page, block.index_in_page(), new_tag);
        pc.record_miss(page); // LRM reorders on remote misses only
        t
    }

    // ------------------------------------------------------------------
    // Remote protocol transactions.
    // ------------------------------------------------------------------

    /// Fetches `block` (or upgrades permission when `holds_copy`) from
    /// its home. Returns the completion time at the requester and the
    /// directory's refetch verdict.
    fn fetch_remote(
        &mut self,
        node_idx: usize,
        page: VPage,
        block: VBlock,
        write: bool,
        holds_copy: bool,
        mut t: Cycles,
    ) -> (Cycles, bool) {
        let node_id = NodeId(node_idx as u8);
        let home = self
            .pages
            .home_of(page)
            .expect("remote access to a homeless page");
        debug_assert_ne!(home, node_id);
        let home_idx = home.0 as usize;
        self.metrics.record_remote_fetch(page);

        let request = match (write, holds_copy) {
            (true, true) => MsgKind::Upgrade,
            (true, false) => MsgKind::GetExclusive,
            (false, _) => MsgKind::GetShared,
        };
        t = self.net.send(t, node_id, home, request);

        // Home-side service.
        let sram = self.cfg.costs.sram_access;
        let grant = self.node_mut(home_idx).rad.acquire(t, sram);
        t = grant + sram; // controller dispatch
        t += sram; // directory SRAM access

        let (fetch_from, invalidate, refetch) = if write {
            let out = self
                .node_mut(home_idx)
                .dir
                .write(block, node_id, holds_copy);
            (out.fetch_from, out.invalidate, out.refetch)
        } else {
            let out = self.node_mut(home_idx).dir.read(block, node_id);
            (
                out.fetch_from,
                rnuma_mem::addr::NodeMask::EMPTY,
                out.refetch,
            )
        };
        if refetch {
            self.metrics.record_refetch(page);
        }

        // The home's own caches are snooped by the RAD's bus transaction
        // (home CPUs may hold the line dirty).
        let occ = self.cfg.bus_occupancy;
        let bus_grant = self.node_mut(home_idx).bus.acquire(t, occ);
        t = bus_grant + occ;
        let home_req = if write {
            BusRequest::ReadExclusive
        } else {
            BusRequest::Read
        };
        // The RAD is its own bus agent: all of the home's caches snoop.
        bus::snoop_all(&mut self.node_mut(home_idx).l1s, block, home_req);

        if let Some(owner) = fetch_from {
            if owner != home {
                t = self.recall_from_owner(home_idx, owner, block, write, t);
            }
        }
        if write {
            let invals = invalidate.without(home);
            t = self.invalidate_sharers(home_idx, invals, block, t);
        }

        // Protocol FSM processing and, for data replies, the memory read.
        t += HOME_SERVICE;
        let needs_data = !(write && holds_copy);
        if needs_data {
            let dram = self.cfg.costs.dram_access;
            let grant = self.node_mut(home_idx).mem.acquire(t, dram);
            t = grant + dram;
        }

        let reply = match (write, holds_copy) {
            (true, true) => MsgKind::AckUpgrade,
            (true, false) => MsgKind::DataExclusive,
            (false, _) => MsgKind::DataShared,
        };
        t = self.net.send(t, home, node_id, reply);

        // Requester-side fill processing.
        let grant = self.node_mut(node_idx).rad.acquire(t, sram);
        t = grant + sram;
        (t, refetch)
    }

    /// Home-side helper: pull a dirty block home from a foreign owner.
    /// For a reader (`write == false`) the owner keeps a clean read-only
    /// copy; for a writer, which is taking over, the owner's copies are
    /// invalidated.
    fn recall_from_owner(
        &mut self,
        home_idx: usize,
        owner: NodeId,
        block: VBlock,
        write: bool,
        mut t: Cycles,
    ) -> Cycles {
        let home = NodeId(home_idx as u8);
        let sram = self.cfg.costs.sram_access;
        let request = if write {
            MsgKind::FetchInvalidate
        } else {
            MsgKind::FetchDowngrade
        };
        t = self.net.send(t, home, owner, request);
        let owner_idx = owner.0 as usize;
        let grant = self.node_mut(owner_idx).rad.acquire(t, sram);
        t = grant + sram;
        if write {
            self.apply_invalidation_at(owner_idx, block);
        } else {
            self.apply_downgrade_at(owner_idx, block);
        }
        let occ = self.cfg.bus_occupancy;
        let bus_grant = self.node_mut(owner_idx).bus.acquire(t, occ);
        t = bus_grant + occ;
        t = self.net.send(t, owner, home, MsgKind::WriteBack);
        // Home memory update.
        let dram = self.cfg.costs.dram_access;
        let grant = self.node_mut(home_idx).mem.acquire(t, dram);
        grant + dram
    }

    /// Home-side helper: invalidate all foreign read-only copies in
    /// parallel; completion is the latest acknowledgement.
    fn invalidate_sharers(
        &mut self,
        home_idx: usize,
        sharers: rnuma_mem::addr::NodeMask,
        block: VBlock,
        t: Cycles,
    ) -> Cycles {
        if sharers.is_empty() {
            return t;
        }
        let home = NodeId(home_idx as u8);
        let sram = self.cfg.costs.sram_access;
        let mut done = t;
        for s in sharers.iter() {
            let mut ti = self.net.send(t, home, s, MsgKind::Invalidate);
            let s_idx = s.0 as usize;
            let grant = self.node_mut(s_idx).rad.acquire(ti, sram);
            ti = grant + sram;
            self.apply_invalidation_at(s_idx, block);
            ti = self.net.send(ti, s, home, MsgKind::InvalAck);
            done = done.max(ti);
        }
        done
    }

    /// Removes every copy of `block` at `node_idx` (a foreign writer took
    /// exclusive ownership).
    fn apply_invalidation_at(&mut self, node_idx: usize, block: VBlock) {
        let node = self.node_mut(node_idx);
        if let Some(bc) = node.block_cache.as_mut() {
            bc.invalidate(block);
        }
        if let Some(pc) = node.page_cache.as_mut() {
            pc.invalidate_block(block.vpage(), block.index_in_page());
        }
        for l1 in &mut node.l1s {
            l1.snoop_write(block);
        }
    }

    /// Downgrades every copy of `block` at `node_idx` to clean read-only
    /// (a foreign reader forced the dirty data home).
    fn apply_downgrade_at(&mut self, node_idx: usize, block: VBlock) {
        let node = self.node_mut(node_idx);
        if let Some(bc) = node.block_cache.as_mut() {
            bc.downgrade(block);
        }
        if let Some(pc) = node.page_cache.as_mut() {
            pc.downgrade_block(block.vpage(), block.index_in_page());
        }
        for l1 in &mut node.l1s {
            l1.downgrade_to_shared(block);
        }
    }

    /// Handles a block-cache eviction: read-write victims enforce
    /// inclusion over the L1s and write back dirty data to their home;
    /// read-only victims are dropped silently (which is precisely what
    /// makes their next fetch a detectable refetch).
    fn handle_bc_eviction(&mut self, node_idx: usize, ev: BlockEviction, now: Cycles) {
        if !ev.state.read_write {
            return;
        }
        let node_id = NodeId(node_idx as u8);
        let mut dirty = ev.state.dirty;
        for l1 in &mut self.node_mut(node_idx).l1s {
            if let Some(state) = l1.invalidate(ev.block) {
                dirty |= state.is_dirty();
            }
        }
        let home = self
            .pages
            .home_of(ev.block.vpage())
            .expect("cached block must have a home");
        debug_assert_ne!(home, node_id);
        if dirty {
            self.post_writeback(now, node_id, home, ev.block);
        }
        // A clean read-write victim is dropped silently; the directory
        // still lists this node as owner, so its next request is likewise
        // detected as a refetch.
    }

    // ------------------------------------------------------------------
    // R-NUMA relocation.
    // ------------------------------------------------------------------

    /// Relocates `page` from CC-NUMA to S-COMA mode after the refetch
    /// counter crossed the threshold. Only blocks the node actually holds
    /// (block cache or L1s) are replicated into the new frame; dirty data
    /// stays local under a read-write tag. Returns the OS cost charged to
    /// the interrupted CPU.
    ///
    /// The relocation cost is charged per *distinct* replicated block: a
    /// block resident in both the block cache and an L1 moves into the
    /// frame once and is counted once (earlier revisions double-counted
    /// such blocks in `blocks_flushed` and the cycle charge).
    fn relocate_page(&mut self, node_idx: usize, page: VPage, now: Cycles) -> Cycles {
        // 1. Collect the node's resident blocks of this page into a
        //    fine-grain tag accumulator (128 two-bit cells — no heap).
        //    ReadWrite wins when a block is seen from several sources.
        let mut moved_tags = rnuma_mem::fine_tags::FineTags::new();
        let merge = |tags: &mut rnuma_mem::fine_tags::FineTags, idx: u64, tag: AccessTag| {
            if tags.get(idx) != AccessTag::ReadWrite {
                tags.set(idx, tag);
            }
        };
        let mut flushed = std::mem::take(&mut self.flush_scratch);
        flushed.clear();
        self.node_mut(node_idx)
            .block_cache
            .as_mut()
            .expect("R-NUMA has a block cache")
            .flush_page_into(page, &mut flushed);
        for ev in &flushed {
            let tag = if ev.state.read_write {
                AccessTag::ReadWrite
            } else {
                AccessTag::ReadOnly
            };
            merge(&mut moved_tags, ev.block.index_in_page(), tag);
        }
        self.flush_scratch = flushed;
        // L1 copies (read-only blocks may exist without a block-cache
        // line) are also replicated; dirty ones keep write permission.
        for l1 in &mut self.node_mut(node_idx).l1s {
            for (b, state) in l1.iter().filter(|(b, _)| b.vpage() == page) {
                let tag = if state.is_dirty() || state.can_write() {
                    AccessTag::ReadWrite
                } else {
                    AccessTag::ReadOnly
                };
                merge(&mut moved_tags, b.index_in_page(), tag);
            }
            l1.invalidate_page(page);
        }

        // 2. Allocate a frame (possibly cleaning an LRM victim).
        let alloc = self
            .node_mut(node_idx)
            .page_cache
            .as_mut()
            .expect("R-NUMA has a page cache")
            .allocate(page);
        let mut cost = Cycles::ZERO;
        if let Some(victim) = alloc.victim {
            let blocks = victim.valid_blocks;
            self.flush_scoma_victim(node_idx, victim, now);
            cost += self.cfg.costs.page_allocation(blocks);
        }

        // 3. Install tags for the replicated blocks and remap the page.
        let moved = moved_tags.count_valid();
        {
            let pc = self
                .node_mut(node_idx)
                .page_cache
                .as_mut()
                .expect("checked above");
            for (idx, tag) in moved_tags.iter_valid() {
                pc.set_tag(page, idx, tag);
            }
        }
        let node = self.node_mut(node_idx);
        node.pt.map(page, Mapping::SComa(alloc.frame));
        node.os.relocations += 1;
        node.os.tlb_shootdowns += 1;
        node.os.blocks_flushed += u64::from(moved);
        cost + self.cfg.costs.page_relocation(moved)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, Protocol};

    fn machine(p: Protocol) -> Machine {
        Machine::new(MachineConfig::paper_base(p)).unwrap()
    }

    /// CPU ids: node = cpu / 4 on the paper machine.
    const CPU_N0: CpuId = CpuId(0);
    const CPU_N1: CpuId = CpuId(4);
    const CPU_N2: CpuId = CpuId(8);

    #[test]
    #[should_panic(expected = "page vp:1048576 is past the simulated address space")]
    fn access_past_max_pages_panics() {
        let mut m = machine(Protocol::paper_rnuma());
        m.access(CPU_N0, VPage(rnuma_mem::addr::MAX_PAGES).base(), false);
    }

    #[test]
    fn l1_hit_costs_one_cycle() {
        let mut m = machine(Protocol::paper_ccnuma());
        m.access(CPU_N0, Va(0), false); // fault + local fill
        let lat = m.access(CPU_N0, Va(0), false);
        assert_eq!(lat, Cycles(1));
        assert_eq!(m.metrics().l1_hits, 1);
    }

    #[test]
    fn first_touch_homes_page_locally() {
        let mut m = machine(Protocol::paper_ccnuma());
        let lat = m.access(CPU_N1, Va(0x4000), true);
        // Soft trap + bus + local fill-ish: in the thousands.
        assert!(lat >= Cycles(2000), "got {lat}");
        let metrics = m.metrics();
        assert_eq!(metrics.local_fills, 1);
        assert_eq!(metrics.remote_fetches, 0);
        assert_eq!(metrics.os.page_faults, 1);
    }

    /// Calibration: an uncontended remote read miss (page already mapped,
    /// clean at home) costs exactly Table 2's 376 cycles.
    #[test]
    fn calibration_uncontended_remote_fetch_is_376() {
        let mut m = machine(Protocol::paper_ccnuma());
        let va = Va(0x8000);
        // Home the page at node 0 (CPU 0 touches it first).
        m.access(CPU_N0, va, false);
        // Map it on node 1 with a first access, then measure a *different*
        // block on the now-mapped page (no fault in the path). Block 1
        // conflicts with nothing. The barrier aligns every clock past all
        // in-flight resource occupancy, so the measurement is uncontended.
        m.access(CPU_N1, va, false);
        m.barrier_all();
        let lat = m.access(CPU_N1, Va(0x8000 + 32), false);
        assert_eq!(lat, Cycles(376), "remote fetch calibration broken: {lat}");
    }

    /// Calibration: a local miss (page mapped, home here) costs Table 2's
    /// 69 cycles: 1 (L1) + 8 (bus) + 56 (DRAM) + 4 (data return).
    #[test]
    fn calibration_local_fill_is_69() {
        let mut m = machine(Protocol::paper_ccnuma());
        m.access(CPU_N0, Va(0), false); // fault
        let lat = m.access(CPU_N0, Va(32), false);
        assert_eq!(lat, Cycles(69), "local fill calibration broken: {lat}");
    }

    #[test]
    fn block_cache_hit_is_cheap_sram() {
        let mut m = machine(Protocol::paper_ccnuma());
        let va = Va(0x8000);
        m.access(CPU_N0, va, false); // home at node 0
        m.access(CPU_N1, va, false); // node 1 faults + fetches, fills bc + L1
        m.barrier_all();
        // Another CPU on node 1 misses in its own L1 but hits the bc.
        let lat = m.access(CpuId(5), va, false);
        assert!(lat < Cycles(69), "block-cache hit should beat DRAM: {lat}");
        assert_eq!(m.metrics().block_cache_hits, 1);
    }

    #[test]
    fn scoma_hit_is_a_local_dram_fill() {
        let mut m = machine(Protocol::paper_scoma());
        let va = Va(0x8000);
        m.access(CPU_N0, va, false); // home at node 0
        m.access(CPU_N1, va, false); // node 1: fault + allocate + fetch
        m.barrier_all();
        let lat = m.access(CpuId(5), va, false); // peer CPU: page-cache hit
        assert_eq!(m.metrics().page_cache_hits, 1);
        assert!(lat > Cycles(69) && lat < Cycles(120), "got {lat}");
    }

    #[test]
    fn read_only_refetch_detected_in_ccnuma() {
        let mut m = machine(Protocol::CcNuma {
            block_cache_bytes: Some(128), // 4 lines: conflicts guaranteed
        });
        let a = Va(0x8000); // page 8, block 0
        m.access(CPU_N0, a, false); // home at node 0
        m.access(CPU_N1, a, false); // node 1 fetches block 1024 (set 0)
                                    // Conflicting remote block on the same page: 4 lines => block 4
                                    // of the page maps to set 0 as well.
        let b = Va(0x8000 + 4 * 32);
        m.access(CPU_N1, b, false); // evicts block 0 from bc
                                    // Note: block 0 may still sit in the CPU's L1, so force an L1
                                    // conflict too by using another CPU of node 1.
        let lat = m.access(CpuId(5), a, false);
        let metrics = m.metrics();
        assert_eq!(metrics.refetches, 1, "directory must flag the refetch");
        assert!(lat >= Cycles(300));
    }

    #[test]
    fn dirty_writeback_enables_rw_refetch() {
        let mut m = machine(Protocol::CcNuma {
            block_cache_bytes: Some(128),
        });
        let a = Va(0x8000);
        m.access(CPU_N0, a, false); // home node 0
        m.access(CPU_N1, a, true); // node 1 writes (GetX)
                                   // Conflict it out (same bc set): dirty writeback to home.
        m.access(CPU_N1, Va(0x8000 + 4 * 32), false);
        // Re-fetch by node 1: was_owner => refetch.
        m.access(CpuId(5), a, false);
        assert_eq!(m.metrics().refetches, 1);
    }

    #[test]
    fn coherence_misses_are_not_refetches() {
        let mut m = machine(Protocol::paper_ccnuma());
        let va = Va(0x8000);
        m.access(CPU_N0, va, false); // home node 0
        m.access(CPU_N1, va, false); // node 1 reads
        m.access(CPU_N2, va, true); // node 2 writes: invalidates node 1
        m.access(CPU_N1, va, false); // node 1 re-reads: coherence miss
        assert_eq!(m.metrics().refetches, 0);
    }

    #[test]
    fn rnuma_relocates_after_threshold() {
        let mut m = Machine::new(MachineConfig::paper_base(Protocol::RNuma {
            block_cache_bytes: 128,
            page_cache_bytes: 320 * 1024,
            threshold: 2,
        }))
        .unwrap();
        let page_base = 0x8000u64;
        m.access(CPU_N0, Va(page_base), false); // home node 0
                                                // Node 1: refetch the same block repeatedly by conflicting it out
                                                // of the 4-line block cache with block+4, alternating CPUs so the
                                                // L1s do not satisfy the re-reads.
        for i in 0..6 {
            let cpu = if i % 2 == 0 { CpuId(4) } else { CpuId(5) };
            m.access(cpu, Va(page_base), false);
            m.access(cpu, Va(page_base + 4 * 32), false);
        }
        let metrics = m.metrics();
        assert!(
            metrics.relocation_interrupts >= 1,
            "threshold 2 must relocate: {metrics}"
        );
        assert_eq!(metrics.os.relocations, metrics.relocation_interrupts);
        // After relocation the page is S-COMA-mapped: further accesses hit
        // the page cache locally.
        let before = m.metrics().page_cache_hits;
        m.access(CpuId(6), Va(page_base), false);
        assert!(m.metrics().page_cache_hits > before);
    }

    #[test]
    fn scoma_replacement_occurs_when_page_cache_full() {
        let mut m = Machine::new(MachineConfig::paper_base(Protocol::SComa {
            page_cache_bytes: 2 * 4096, // two frames
        }))
        .unwrap();
        // Home three pages at node 0.
        for p in 0..3u64 {
            m.access(CPU_N0, Va(0x10_0000 + p * 4096), true);
        }
        // Node 1 touches all three: the third allocation evicts the LRM.
        for p in 0..3u64 {
            m.access(CPU_N1, Va(0x10_0000 + p * 4096), false);
        }
        let metrics = m.metrics();
        assert_eq!(metrics.os.page_replacements, 1);
        assert_eq!(metrics.os.scoma_allocations, 3);
    }

    /// Page replacement under the paper's 80-frame cache while every
    /// victim still has lines in two L1s of the evicting node: the
    /// tag-guided shootdown must leave no line of an evicted page behind
    /// (debug builds also assert it inside the flush).
    #[test]
    fn page_replacement_shoots_down_victim_lines_in_every_l1() {
        let rnuma = Protocol::RNuma {
            block_cache_bytes: 128,
            page_cache_bytes: 320 * 1024,
            threshold: 16,
        };
        for protocol in [Protocol::paper_scoma(), rnuma] {
            let mut m = machine(protocol);
            // 100 remote pages for node 1, homed at node 0. The first
            // page number is even, so page p's block i sits in L1 set
            // i (even p) or 128 + i (odd p).
            let page = |p: u64| 0x10_0000 + p * 4096;
            for p in 0..100 {
                m.access(CPU_N0, Va(page(p)), false);
            }
            for _round in 0..20 {
                for p in 0..100 {
                    // CPU 4 reads block 0 of every page: each read misses
                    // its L1 and the 4-line block cache, so under R-NUMA
                    // every round refetches every page.
                    m.access(CPU_N1, Va(page(p)), false);
                    // CPUs 5 and 6 keep a line of each page in L1 sets
                    // no other page uses.
                    let block = 1 + p / 2;
                    m.access(CpuId(5), Va(page(p) + block * 32), false);
                    m.access(CpuId(6), Va(page(p) + (block + 64) * 32), true);
                }
            }
            let metrics = m.metrics();
            assert!(metrics.os.page_replacements > 0, "{metrics}");
            if matches!(protocol, Protocol::RNuma { .. }) {
                assert!(metrics.os.relocations > 0, "{metrics}");
            }
            let node = &m.nodes[1];
            for p in 0..100 {
                let vpage = Va(page(p)).vpage();
                if node.pt.lookup(vpage).is_none() {
                    for l1 in &node.l1s {
                        assert!(l1.iter().all(|(b, _)| b.vpage() != vpage));
                    }
                }
            }
        }
    }

    #[test]
    fn ideal_machine_never_refetches_capacity() {
        let mut m = machine(Protocol::ideal());
        let va = Va(0x8000);
        m.access(CPU_N0, va, false);
        for i in 0..200u64 {
            m.access(CPU_N1, Va(0x8000 + i * 32 * 4), false);
        }
        // Re-read everything: all block-cache hits, no refetches.
        for i in 0..200u64 {
            m.access(CpuId(5), Va(0x8000 + i * 32 * 4), false);
        }
        assert_eq!(m.metrics().refetches, 0);
    }

    #[test]
    fn mru_translation_serves_repeated_page_references() {
        let mut m = machine(Protocol::paper_ccnuma());
        // Stream over one page: after the first L1 miss resolves the
        // translation, subsequent misses on the page hit the MRU entry.
        for i in 0..32u64 {
            m.access(CPU_N0, Va(i * 32), false);
        }
        let metrics = m.metrics();
        assert!(
            metrics.mru_translation_hits >= 30,
            "expected MRU hits on a page stream, got {}",
            metrics.mru_translation_hits
        );
    }

    #[test]
    fn mru_translation_invalidated_by_relocation() {
        // The rnuma_relocates_after_threshold scenario exercises a
        // map() between references; this asserts the stale MRU entry is
        // not served after the page table changes.
        let mut m = Machine::new(MachineConfig::paper_base(Protocol::RNuma {
            block_cache_bytes: 128,
            page_cache_bytes: 320 * 1024,
            threshold: 2,
        }))
        .unwrap();
        let page_base = 0x8000u64;
        m.access(CPU_N0, Va(page_base), false);
        for i in 0..6 {
            let cpu = if i % 2 == 0 { CpuId(4) } else { CpuId(5) };
            m.access(cpu, Va(page_base), false);
            m.access(cpu, Va(page_base + 4 * 32), false);
        }
        assert!(m.metrics().relocation_interrupts >= 1);
        // Post-relocation accesses must see the S-COMA mapping (page
        // cache hits), not the stale CC-NUMA MRU entry.
        let before = m.metrics().page_cache_hits;
        m.access(CpuId(6), Va(page_base), false);
        assert!(m.metrics().page_cache_hits > before);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let mut m = machine(Protocol::paper_ccnuma());
        m.access(CPU_N0, Va(0), false);
        m.access(CPU_N1, Va(0x4000), false);
        let before = m.clock(CPU_N0).max(m.clock(CPU_N1));
        m.barrier_all();
        let expected = before + m.config().barrier_cost;
        assert_eq!(m.clock(CPU_N0), expected);
        assert_eq!(m.clock(CpuId(31)), expected);
    }

    #[test]
    fn think_time_advances_only_one_cpu() {
        let mut m = machine(Protocol::paper_ccnuma());
        m.advance(CPU_N0, Cycles(100));
        assert_eq!(m.clock(CPU_N0), Cycles(100));
        assert_eq!(m.clock(CPU_N1), Cycles::ZERO);
    }

    #[test]
    fn remote_write_invalidates_all_sharers() {
        let mut m = machine(Protocol::paper_ccnuma());
        let va = Va(0x8000);
        m.access(CPU_N0, va, false); // home
        m.access(CPU_N1, va, false); // sharer
        m.access(CPU_N2, va, false); // sharer
        m.access(CpuId(12), va, true); // node 3 writes
                                       // Node 1 and 2 re-read: coherence misses (not refetches), and
                                       // node 3's dirty copy must be pulled home.
        m.access(CPU_N1, va, false);
        assert_eq!(m.metrics().refetches, 0);
        // The write-invalidate messages were actually sent.
        assert!(m.metrics().net_messages > 4);
    }
}
