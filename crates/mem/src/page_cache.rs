//! The S-COMA page cache: main-memory frames for remote pages.
//!
//! A region of each node's main memory is set aside to cache remote pages
//! at page granularity (Section 2.2). The cache is fully associative —
//! the virtual-memory system provides the "tags" — and is replaced with
//! the paper's *Least Recently Missed* (LRM) policy: the frame list is
//! reordered on remote misses rather than on every reference
//! (Section 4), approximating LRU while being implementable with per-page
//! miss counters sampled by the OS.

use crate::addr::{FrameId, VPage, PAGE_BYTES};
use crate::fine_tags::{AccessTag, FineTags};
use crate::page_map::PageMap;

/// Victim-selection policy for a full page cache.
///
/// The paper uses Least Recently Missed and notes that "page
/// replacement policies are beyond the scope of this paper"; the
/// alternatives here support the ablation study in
/// `rnuma-bench --bin ablation_replacement`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the page whose last remote miss is oldest (the paper's
    /// policy: approximates LRU but only reorders on misses).
    #[default]
    LeastRecentlyMissed,
    /// Evict the page allocated earliest (ignores reuse entirely).
    Fifo,
    /// Evict a pseudo-random resident page (deterministic xorshift).
    Random,
}

/// A page selected for eviction, with the flush work it implies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageVictim {
    /// The page being evicted.
    pub vpage: VPage,
    /// Frame it occupied (reused by the incoming page).
    pub frame: FrameId,
    /// Blocks present in the frame (each must be invalidated; read-write
    /// ones flushed home).
    pub valid_blocks: u32,
    /// Snapshot of the frame's fine-grain tags at eviction, so the OS can
    /// issue the per-block write-backs the flush implies.
    pub tags: FineTags,
}

/// One frame of the page cache with its fine-grain tags.
#[derive(Clone, Debug)]
struct Frame {
    vpage: Option<VPage>,
    tags: FineTags,
}

/// A node's S-COMA page cache.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::VPage;
/// use rnuma_mem::page_cache::PageCache;
///
/// // The paper's base configuration: 320 KB = 80 frames.
/// let mut pc = PageCache::new(320 * 1024);
/// let frame = pc.allocate(VPage(3)).frame;
/// assert_eq!(pc.lookup(VPage(3)), Some(frame));
/// assert_eq!(pc.occupied(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct PageCache {
    frames: Vec<Frame>,
    /// One stamp per frame for the active policy: the last remote miss
    /// serviced into it (LRM) or its allocation (FIFO), both from
    /// `miss_clock`, so stamps are unique and the oldest is the victim.
    /// Random ignores them.
    stamps: Vec<u64>,
    by_page: PageMap<FrameId>,
    free: Vec<FrameId>,
    miss_clock: u64,
    policy: ReplacementPolicy,
    rng_state: u64,
}

/// Result of allocating a frame for an incoming page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageAlloc {
    /// Frame granted to the incoming page.
    pub frame: FrameId,
    /// The page that had to be evicted to free the frame, if any.
    pub victim: Option<PageVictim>,
}

impl PageCache {
    /// Creates a page cache of `bytes` capacity (4-KB frames).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds no complete frame.
    #[must_use]
    pub fn new(bytes: u64) -> PageCache {
        PageCache::with_policy(bytes, ReplacementPolicy::LeastRecentlyMissed)
    }

    /// Creates a page cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds no complete frame.
    #[must_use]
    pub fn with_policy(bytes: u64, policy: ReplacementPolicy) -> PageCache {
        let n = bytes / PAGE_BYTES;
        assert!(n > 0, "page cache smaller than one 4-KB frame");
        PageCache {
            frames: (0..n)
                .map(|_| Frame {
                    vpage: None,
                    tags: FineTags::new(),
                })
                .collect(),
            stamps: vec![0; n as usize],
            by_page: PageMap::new(),
            free: (0..n as u32).rev().map(FrameId).collect(),
            miss_clock: 0,
            policy,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The configured replacement policy.
    #[must_use]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of frames holding a page.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.frames.len() - self.free.len()
    }

    /// The frame holding `vpage`, if cached. This is the auxiliary
    /// SRAM translation lookup (GPA → LPA direction).
    #[must_use]
    pub fn lookup(&self, vpage: VPage) -> Option<FrameId> {
        self.by_page.get(vpage).copied()
    }

    /// Allocates a frame for `vpage`, evicting the least-recently-missed
    /// resident page if the cache is full.
    ///
    /// The caller (the OS model) is responsible for acting on the returned
    /// victim: flushing its dirty blocks home, unmapping it, and shooting
    /// down TLBs — the simulator charges those costs there.
    ///
    /// # Panics
    ///
    /// Panics if `vpage` is already resident (callers must check
    /// [`PageCache::lookup`] first).
    pub fn allocate(&mut self, vpage: VPage) -> PageAlloc {
        assert!(
            !self.by_page.contains_key(vpage),
            "page {vpage} already resident"
        );
        self.miss_clock += 1;
        let (frame, victim) = match self.free.pop() {
            Some(f) => (f, None),
            None => {
                let f = self.select_victim();
                let victim = self.evict(f);
                (f, Some(victim))
            }
        };
        let slot = &mut self.frames[frame.0 as usize];
        slot.vpage = Some(vpage);
        slot.tags = FineTags::new();
        self.stamps[frame.0 as usize] = self.miss_clock;
        self.by_page.insert(vpage, frame);
        PageAlloc { frame, victim }
    }

    /// Records a remote miss serviced into `vpage`'s frame, refreshing its
    /// LRM position. No-op if the page is not resident.
    pub fn record_miss(&mut self, vpage: VPage) {
        if self.policy != ReplacementPolicy::LeastRecentlyMissed {
            return; // only LRM stamps misses
        }
        if let Some(&frame) = self.by_page.get(vpage) {
            self.miss_clock += 1;
            self.stamps[frame.0 as usize] = self.miss_clock;
        }
    }

    /// Read access-control tag for a block of a resident page.
    #[must_use]
    pub fn tag(&self, vpage: VPage, block_index: u64) -> Option<AccessTag> {
        self.by_page
            .get(vpage)
            .map(|f| self.frames[f.0 as usize].tags.get(block_index))
    }

    /// Sets the access-control tag for a block of a resident page.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn set_tag(&mut self, vpage: VPage, block_index: u64, tag: AccessTag) {
        let frame = *self
            .by_page
            .get(vpage)
            .expect("set_tag on a page that is not resident");
        self.frames[frame.0 as usize].tags.set(block_index, tag);
    }

    /// Invalidates one block of a resident page (e.g., a remote node took
    /// exclusive ownership). No-op if the page is not resident.
    pub fn invalidate_block(&mut self, vpage: VPage, block_index: u64) {
        if let Some(&frame) = self.by_page.get(vpage) {
            self.frames[frame.0 as usize]
                .tags
                .set(block_index, AccessTag::Invalid);
        }
    }

    /// Downgrades one block of a resident page to read-only (a remote
    /// reader forced a flush of our dirty copy). No-op when absent.
    pub fn downgrade_block(&mut self, vpage: VPage, block_index: u64) {
        if let Some(&frame) = self.by_page.get(vpage) {
            let tags = &mut self.frames[frame.0 as usize].tags;
            if tags.get(block_index) == AccessTag::ReadWrite {
                tags.set(block_index, AccessTag::ReadOnly);
            }
        }
    }

    fn evict(&mut self, frame: FrameId) -> PageVictim {
        let slot = &mut self.frames[frame.0 as usize];
        let vpage = slot.vpage.take().expect("evicting an empty frame");
        let tags = slot.tags;
        slot.tags.clear();
        self.by_page.remove(vpage);
        PageVictim {
            vpage,
            frame,
            valid_blocks: tags.count_valid(),
            tags,
        }
    }

    /// Chooses the frame to evict. Only a full cache evicts, so every
    /// frame is occupied: the victim is an index into all frames.
    fn select_victim(&mut self) -> FrameId {
        debug_assert!(self.free.is_empty(), "victim from a cache with free frames");
        let idx = match self.policy {
            ReplacementPolicy::LeastRecentlyMissed | ReplacementPolicy::Fifo => {
                let (idx, _) = self
                    .stamps
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .expect("a page cache has at least one frame");
                idx
            }
            ReplacementPolicy::Random => {
                // xorshift64*: deterministic, independent of `rand`.
                self.rng_state ^= self.rng_state << 13;
                self.rng_state ^= self.rng_state >> 7;
                self.rng_state ^= self.rng_state << 17;
                (self.rng_state % self.frames.len() as u64) as usize
            }
        };
        FrameId(idx as u32)
    }

    /// Iterates over resident pages with their frames.
    pub fn iter(&self) -> impl Iterator<Item = (VPage, FrameId)> + '_ {
        self.by_page.iter().map(|(p, &f)| (p, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        assert_eq!(PageCache::new(320 * 1024).frames.len(), 80);
        assert_eq!(PageCache::new(40 * 1024 * 1024).frames.len(), 10240);
    }

    #[test]
    fn allocate_until_full_then_lrm_evicts() {
        let mut pc = PageCache::new(3 * PAGE_BYTES);
        assert!(pc.allocate(VPage(1)).victim.is_none());
        assert!(pc.allocate(VPage(2)).victim.is_none());
        assert!(pc.allocate(VPage(3)).victim.is_none());
        assert_eq!(pc.occupied(), 3);
        // Page 1 is least recently missed; refresh 2 and 3.
        pc.record_miss(VPage(2));
        pc.record_miss(VPage(3));
        let alloc = pc.allocate(VPage(4));
        let victim = alloc.victim.expect("cache full");
        assert_eq!(victim.vpage, VPage(1));
        assert_eq!(pc.lookup(VPage(1)), None);
        assert_eq!(pc.lookup(VPage(4)), Some(victim.frame));
    }

    #[test]
    fn lrm_reorders_on_miss_not_on_tag_reads() {
        let mut pc = PageCache::new(2 * PAGE_BYTES);
        pc.allocate(VPage(1));
        pc.allocate(VPage(2));
        // Touch page 1's tags (a hit path) — must NOT refresh LRM.
        pc.set_tag(VPage(1), 0, AccessTag::ReadOnly);
        let _ = pc.tag(VPage(1), 0);
        // Page 1 remains LRM victim because only allocation stamped it.
        let victim = pc.allocate(VPage(3)).victim.unwrap();
        assert_eq!(victim.vpage, VPage(1));
    }

    #[test]
    fn victim_reports_flush_work() {
        let mut pc = PageCache::new(PAGE_BYTES);
        pc.allocate(VPage(5));
        pc.set_tag(VPage(5), 0, AccessTag::ReadOnly);
        pc.set_tag(VPage(5), 1, AccessTag::ReadWrite);
        pc.set_tag(VPage(5), 2, AccessTag::ReadWrite);
        let victim = pc.allocate(VPage(6)).victim.unwrap();
        assert_eq!(victim.valid_blocks, 3);
        assert_eq!(victim.tags.get(0), AccessTag::ReadOnly);
        assert_eq!(victim.tags.get(1), AccessTag::ReadWrite);
        assert_eq!(victim.tags.get(2), AccessTag::ReadWrite);
        // The reused frame starts with clean tags.
        assert_eq!(pc.tag(VPage(6), 1), Some(AccessTag::Invalid));
    }

    #[test]
    fn tags_follow_the_page_not_the_frame() {
        let mut pc = PageCache::new(2 * PAGE_BYTES);
        pc.allocate(VPage(1));
        pc.set_tag(VPage(1), 7, AccessTag::ReadWrite);
        assert_eq!(pc.tag(VPage(1), 7), Some(AccessTag::ReadWrite));
        assert_eq!(pc.tag(VPage(2), 7), None, "page 2 not resident");
    }

    #[test]
    fn invalidate_and_downgrade_blocks() {
        let mut pc = PageCache::new(PAGE_BYTES);
        pc.allocate(VPage(1));
        pc.set_tag(VPage(1), 0, AccessTag::ReadWrite);
        pc.downgrade_block(VPage(1), 0);
        assert_eq!(pc.tag(VPage(1), 0), Some(AccessTag::ReadOnly));
        // Downgrade of RO/invalid is a no-op.
        pc.downgrade_block(VPage(1), 1);
        assert_eq!(pc.tag(VPage(1), 1), Some(AccessTag::Invalid));
        pc.invalidate_block(VPage(1), 0);
        assert_eq!(pc.tag(VPage(1), 0), Some(AccessTag::Invalid));
        // Non-resident pages are ignored.
        pc.invalidate_block(VPage(9), 0);
    }

    #[test]
    fn fifo_evicts_oldest_allocation() {
        let mut pc = PageCache::with_policy(2 * PAGE_BYTES, ReplacementPolicy::Fifo);
        pc.allocate(VPage(1));
        pc.allocate(VPage(2));
        // Refreshing page 1's miss stamp must NOT save it under FIFO.
        pc.record_miss(VPage(1));
        let victim = pc.allocate(VPage(3)).victim.unwrap();
        assert_eq!(victim.vpage, VPage(1));
        assert_eq!(pc.policy(), ReplacementPolicy::Fifo);
    }

    #[test]
    fn random_policy_is_deterministic_and_valid() {
        let run = || {
            let mut pc = PageCache::with_policy(4 * PAGE_BYTES, ReplacementPolicy::Random);
            for p in 0..4 {
                pc.allocate(VPage(p));
            }
            let mut victims = Vec::new();
            for p in 10..20u64 {
                let v = pc.allocate(VPage(p)).victim.unwrap();
                victims.push(v.vpage.0);
                assert!(pc.lookup(v.vpage).is_none());
                assert_eq!(pc.occupied(), 4);
            }
            victims
        };
        assert_eq!(run(), run(), "xorshift stream must replay");
    }

    #[test]
    fn default_policy_is_lrm() {
        assert_eq!(
            PageCache::new(PAGE_BYTES).policy(),
            ReplacementPolicy::LeastRecentlyMissed
        );
        assert_eq!(
            ReplacementPolicy::default(),
            ReplacementPolicy::LeastRecentlyMissed
        );
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_allocate_panics() {
        let mut pc = PageCache::new(2 * PAGE_BYTES);
        pc.allocate(VPage(1));
        pc.allocate(VPage(1));
    }
}
