//! Generic block-granularity cache structures.
//!
//! Two shapes are needed by the paper's machines:
//!
//! * [`DirectCache`] — a direct-mapped, tag-indexed cache, used for the
//!   8-KB processor caches and the CC-NUMA/R-NUMA block caches (both are
//!   direct-mapped in the paper, Sections 4 and 5).
//! * [`InfiniteCache`] — an unbounded cache used for the "ideal CC-NUMA
//!   with an infinite block cache" baseline all figures normalize to.

use crate::addr::VBlock;
use crate::fxmap::FxMap64;

/// One resident line: the block it holds plus caller-defined state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line<S> {
    /// Which block the line holds.
    pub block: VBlock,
    /// Protocol state attached by the caller (MOESI, dirty bits, ...).
    pub state: S,
}

/// The effect of inserting into a cache set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insert<S> {
    /// The line was placed in an empty slot.
    Placed,
    /// The line replaced `evicted`, which the caller must now handle
    /// (write back if dirty, maintain inclusion, ...).
    Evicted(Line<S>),
}

/// A direct-mapped cache over [`VBlock`] addresses with per-line state.
///
/// The cache tracks state only — the simulator never materializes data
/// contents, exactly like the protocol-level mode of the simulator used
/// in the paper.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::VBlock;
/// use rnuma_mem::cache::{DirectCache, Insert};
///
/// // A 128-byte block cache holds 4 lines of 32 bytes.
/// let mut bc: DirectCache<bool> = DirectCache::with_capacity_bytes(128);
/// assert_eq!(bc.num_lines(), 4);
/// bc.insert(VBlock(0), false);
/// // Block 4 maps to the same set as block 0 and evicts it.
/// match bc.insert(VBlock(4), false) {
///     Insert::Evicted(line) => assert_eq!(line.block, VBlock(0)),
///     Insert::Placed => unreachable!(),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct DirectCache<S> {
    lines: Vec<Option<Line<S>>>,
}

impl<S> DirectCache<S> {
    /// Creates a cache with `num_lines` direct-mapped slots.
    ///
    /// # Panics
    ///
    /// Panics if `num_lines` is zero.
    #[must_use]
    pub fn new(num_lines: usize) -> DirectCache<S> {
        assert!(num_lines > 0, "cache must have at least one line");
        DirectCache {
            lines: (0..num_lines).map(|_| None).collect(),
        }
    }

    /// Creates a cache sized in bytes of 32-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one line.
    #[must_use]
    pub fn with_capacity_bytes(bytes: u64) -> DirectCache<S> {
        let lines = bytes / crate::addr::BLOCK_BYTES;
        assert!(lines > 0, "cache smaller than one 32-byte line");
        DirectCache::new(lines as usize)
    }

    /// Number of line slots.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Number of slots currently holding a block.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }

    fn index(&self, block: VBlock) -> usize {
        (block.0 % self.lines.len() as u64) as usize
    }

    /// The resident line for `block`, if present.
    #[must_use]
    pub fn get(&self, block: VBlock) -> Option<&Line<S>> {
        let idx = self.index(block);
        self.lines[idx].as_ref().filter(|l| l.block == block)
    }

    /// Mutable access to the resident line for `block`, if present.
    pub fn get_mut(&mut self, block: VBlock) -> Option<&mut Line<S>> {
        let idx = self.index(block);
        self.lines[idx].as_mut().filter(|l| l.block == block)
    }

    /// `true` when `block` is resident.
    #[must_use]
    pub fn contains(&self, block: VBlock) -> bool {
        self.get(block).is_some()
    }

    /// Installs `block` with `state`, returning what happened to the slot.
    ///
    /// Re-inserting a resident block overwrites its state without an
    /// eviction.
    pub fn insert(&mut self, block: VBlock, state: S) -> Insert<S> {
        let idx = self.index(block);
        match self.lines[idx].take() {
            Some(old) if old.block == block => {
                self.lines[idx] = Some(Line { block, state });
                Insert::Placed
            }
            Some(old) => {
                self.lines[idx] = Some(Line { block, state });
                Insert::Evicted(old)
            }
            None => {
                self.lines[idx] = Some(Line { block, state });
                Insert::Placed
            }
        }
    }

    /// Removes `block` if resident, returning its line.
    pub fn remove(&mut self, block: VBlock) -> Option<Line<S>> {
        let idx = self.index(block);
        if self.lines[idx].as_ref().is_some_and(|l| l.block == block) {
            self.lines[idx].take()
        } else {
            None
        }
    }

    /// Iterates over resident lines in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &Line<S>> {
        self.lines.iter().flatten()
    }

    /// Removes every resident line satisfying `pred`, handing each to
    /// `sink` (no allocation).
    ///
    /// Used for page-granularity flushes (all blocks of a page leave the
    /// cache when the OS unmaps the page).
    pub fn drain_matching_with<F, G>(&mut self, mut pred: F, mut sink: G)
    where
        F: FnMut(&Line<S>) -> bool,
        G: FnMut(Line<S>),
    {
        for slot in &mut self.lines {
            if slot.as_ref().is_some_and(&mut pred) {
                sink(slot.take().expect("slot checked non-empty"));
            }
        }
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        for slot in &mut self.lines {
            *slot = None;
        }
    }
}

/// An unbounded cache for the paper's "infinite block cache" baseline.
///
/// Never evicts; otherwise mirrors the [`DirectCache`] interface the
/// simulator uses.
#[derive(Clone, Debug, Default)]
pub struct InfiniteCache<S> {
    lines: FxMap64<S>,
}

impl<S> InfiniteCache<S> {
    /// Creates an empty infinite cache.
    #[must_use]
    pub fn new() -> InfiniteCache<S> {
        InfiniteCache {
            lines: FxMap64::new(),
        }
    }

    /// State of `block` if resident.
    #[must_use]
    pub fn get(&self, block: VBlock) -> Option<&S> {
        self.lines.get(block.0)
    }

    /// Mutable state of `block` if resident.
    pub fn get_mut(&mut self, block: VBlock) -> Option<&mut S> {
        self.lines.get_mut(block.0)
    }

    /// `true` when `block` is resident.
    #[must_use]
    pub fn contains(&self, block: VBlock) -> bool {
        self.lines.contains_key(block.0)
    }

    /// Installs or overwrites `block`. Never evicts.
    pub fn insert(&mut self, block: VBlock, state: S) {
        self.lines.insert(block.0, state);
    }

    /// Removes `block`, returning its state.
    pub fn remove(&mut self, block: VBlock) -> Option<S> {
        self.lines.remove(block.0)
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` when nothing is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper_configurations() {
        // 8-KB L1 = 256 lines, 32-KB block cache = 1024 lines,
        // 1-KB = 32 lines, 128-B = 4 lines.
        assert_eq!(
            DirectCache::<()>::with_capacity_bytes(8 * 1024).num_lines(),
            256
        );
        assert_eq!(
            DirectCache::<()>::with_capacity_bytes(32 * 1024).num_lines(),
            1024
        );
        assert_eq!(DirectCache::<()>::with_capacity_bytes(1024).num_lines(), 32);
        assert_eq!(DirectCache::<()>::with_capacity_bytes(128).num_lines(), 4);
    }

    #[test]
    fn hit_miss_and_conflict() {
        let mut c: DirectCache<u8> = DirectCache::new(4);
        assert!(!c.contains(VBlock(1)));
        assert_eq!(c.insert(VBlock(1), 10), Insert::Placed);
        assert_eq!(c.get(VBlock(1)).unwrap().state, 10);
        // Same set, different tag.
        match c.insert(VBlock(5), 20) {
            Insert::Evicted(l) => {
                assert_eq!(l.block, VBlock(1));
                assert_eq!(l.state, 10);
            }
            Insert::Placed => panic!("expected conflict eviction"),
        }
        assert!(!c.contains(VBlock(1)));
        assert!(c.contains(VBlock(5)));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c: DirectCache<u8> = DirectCache::new(4);
        c.insert(VBlock(2), 1);
        assert_eq!(c.insert(VBlock(2), 9), Insert::Placed);
        assert_eq!(c.get(VBlock(2)).unwrap().state, 9);
        assert_eq!(c.occupied(), 1);
    }

    #[test]
    fn remove_only_removes_matching_tag() {
        let mut c: DirectCache<u8> = DirectCache::new(4);
        c.insert(VBlock(3), 1);
        assert!(c.remove(VBlock(7)).is_none(), "same set, wrong tag");
        assert!(c.contains(VBlock(3)));
        let l = c.remove(VBlock(3)).unwrap();
        assert_eq!(l.state, 1);
        assert_eq!(c.occupied(), 0);
    }

    #[test]
    fn get_mut_allows_state_transitions() {
        let mut c: DirectCache<u8> = DirectCache::new(2);
        c.insert(VBlock(0), 0);
        c.get_mut(VBlock(0)).unwrap().state = 42;
        assert_eq!(c.get(VBlock(0)).unwrap().state, 42);
        assert!(c.get_mut(VBlock(2)).is_none());
    }

    #[test]
    fn drain_matching_extracts_page_blocks() {
        use crate::addr::{VPage, BLOCKS_PER_PAGE};
        let mut c: DirectCache<u8> = DirectCache::new(512);
        let page = VPage(1);
        for b in page.blocks().take(10) {
            c.insert(b, 0);
        }
        // Maps to set 0, clear of page 1's blocks (sets 128..138).
        c.insert(VPage(4).block(0), 0);
        let mut drained = Vec::new();
        c.drain_matching_with(|l| l.block.vpage() == page, |l| drained.push(l));
        assert_eq!(drained.len(), 10);
        assert_eq!(c.occupied(), 1);
        assert!(drained.iter().all(|l| l.block.vpage() == page));
        let _ = BLOCKS_PER_PAGE;
    }

    #[test]
    fn clear_empties() {
        let mut c: DirectCache<u8> = DirectCache::new(8);
        for i in 0..8 {
            c.insert(VBlock(i), 0);
        }
        assert_eq!(c.occupied(), 8);
        c.clear();
        assert_eq!(c.occupied(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_panics() {
        let _ = DirectCache::<()>::new(0);
    }

    #[test]
    fn infinite_cache_never_evicts() {
        let mut c: InfiniteCache<u8> = InfiniteCache::new();
        for i in 0..10_000u64 {
            c.insert(VBlock(i), (i % 251) as u8);
        }
        assert_eq!(c.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(*c.get(VBlock(i)).unwrap(), (i % 251) as u8);
        }
        assert_eq!(c.remove(VBlock(3)), Some(3));
        assert!(!c.contains(VBlock(3)));
        assert!(!c.is_empty());
    }
}
