//! The CC-NUMA / R-NUMA remote block cache.
//!
//! The block cache is a direct-mapped, write-back SRAM cache on the RAD
//! that holds *remote* blocks only (Section 2.1). It maintains inclusion
//! with respect to the node's processor caches for blocks cached
//! read-write, but **not** for read-only blocks (Section 4): evicting a
//! read-write line therefore forces L1 invalidations, while read-only
//! blocks may outlive their block-cache line in some L1 — and, because
//! MBus lacks cache-to-cache transfer of non-owned lines, a later miss on
//! such a block still travels to the home node.
//!
//! An [`BlockCache::infinite`] variant implements the paper's "ideal
//! CC-NUMA with an infinite block cache" normalization baseline.

use crate::addr::{VBlock, VPage};
use crate::cache::{DirectCache, InfiniteCache, Insert};

/// Per-line protocol state in the block cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockState {
    /// `true` when the node holds the block with write permission.
    pub read_write: bool,
    /// `true` when the cached copy is newer than the home's memory.
    pub dirty: bool,
}

impl BlockState {
    /// A clean read-only copy.
    #[must_use]
    pub fn read_only() -> BlockState {
        BlockState {
            read_write: false,
            dirty: false,
        }
    }

    /// A writable copy (clean until written).
    #[must_use]
    pub fn writable() -> BlockState {
        BlockState {
            read_write: true,
            dirty: false,
        }
    }
}

/// A line displaced from the block cache, with its obligations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockEviction {
    /// The displaced block.
    pub block: VBlock,
    /// Its state; `read_write` requires L1 inclusion invalidations and
    /// `dirty` requires a write-back to the home node.
    pub state: BlockState,
}

#[derive(Clone, Debug)]
enum Store {
    Finite(DirectCache<BlockState>),
    Infinite(InfiniteCache<BlockState>),
}

/// The RAD's remote block cache (finite direct-mapped or ideal infinite).
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::VBlock;
/// use rnuma_mem::block_cache::{BlockCache, BlockState};
///
/// let mut bc = BlockCache::direct_mapped(128); // R-NUMA's tiny cache
/// bc.fill(VBlock(0), BlockState::read_only());
/// assert!(bc.probe(VBlock(0)).is_some());
/// // A conflicting fill evicts.
/// let ev = bc.fill(VBlock(4), BlockState::writable()).unwrap();
/// assert_eq!(ev.block, VBlock(0));
/// ```
#[derive(Clone, Debug)]
pub struct BlockCache {
    store: Store,
}

impl BlockCache {
    /// A direct-mapped cache of `bytes` capacity (32-byte lines).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one line.
    #[must_use]
    pub fn direct_mapped(bytes: u64) -> BlockCache {
        BlockCache {
            store: Store::Finite(DirectCache::with_capacity_bytes(bytes)),
        }
    }

    /// The ideal infinite cache used as the normalization baseline.
    #[must_use]
    pub fn infinite() -> BlockCache {
        BlockCache {
            store: Store::Infinite(InfiniteCache::new()),
        }
    }

    /// Line count for the finite variant; `None` when infinite.
    #[must_use]
    pub fn num_lines(&self) -> Option<usize> {
        match &self.store {
            Store::Finite(c) => Some(c.num_lines()),
            Store::Infinite(_) => None,
        }
    }

    /// State of `block` if resident.
    #[must_use]
    pub fn probe(&self, block: VBlock) -> Option<BlockState> {
        match &self.store {
            Store::Finite(c) => c.get(block).map(|l| l.state),
            Store::Infinite(c) => c.get(block).copied(),
        }
    }

    /// Installs `block`, returning the eviction it caused, if any.
    pub fn fill(&mut self, block: VBlock, state: BlockState) -> Option<BlockEviction> {
        match &mut self.store {
            Store::Finite(c) => match c.insert(block, state) {
                Insert::Placed => None,
                Insert::Evicted(l) => Some(BlockEviction {
                    block: l.block,
                    state: l.state,
                }),
            },
            Store::Infinite(c) => {
                c.insert(block, state);
                None
            }
        }
    }

    /// Upgrades a resident block to writable. No-op when absent (the
    /// caller will fill instead).
    pub fn grant_write(&mut self, block: VBlock) {
        if let Some(state) = self.state_mut(block) {
            state.read_write = true;
        }
    }

    /// Marks a resident block dirty (a processor wrote it and the block
    /// cache copy is now stale-in-memory). No-op when absent.
    pub fn mark_dirty(&mut self, block: VBlock) {
        if let Some(state) = self.state_mut(block) {
            debug_assert!(state.read_write, "dirty implies write permission");
            state.dirty = true;
        }
    }

    /// Downgrades a resident block to read-only clean (home forced a
    /// flush for a remote reader). No-op when absent.
    pub fn downgrade(&mut self, block: VBlock) {
        if let Some(state) = self.state_mut(block) {
            state.read_write = false;
            state.dirty = false;
        }
    }

    /// Removes `block` (remote writer invalidated it), returning its
    /// state if it was resident.
    pub fn invalidate(&mut self, block: VBlock) -> Option<BlockState> {
        match &mut self.store {
            Store::Finite(c) => c.remove(block).map(|l| l.state),
            Store::Infinite(c) => c.remove(block),
        }
    }

    /// Removes every block of `page` (page relocation or unmap),
    /// returning the removed lines. Hot callers should prefer
    /// [`BlockCache::flush_page_into`] with a reused buffer — this
    /// convenience form allocates a fresh `Vec` per call.
    pub fn flush_page(&mut self, page: VPage) -> Vec<BlockEviction> {
        let mut out = Vec::new();
        self.flush_page_into(page, &mut out);
        out
    }

    /// Removes every block of `page`, appending the evictions to a
    /// caller-provided buffer. No allocation occurs once the buffer has
    /// reached its high-water mark, which matters on the relocation path
    /// where every R-NUMA page switch flushes the block cache.
    pub fn flush_page_into(&mut self, page: VPage, out: &mut Vec<BlockEviction>) {
        match &mut self.store {
            Store::Finite(c) => {
                c.drain_matching_with(
                    |l| l.block.vpage() == page,
                    |l| {
                        out.push(BlockEviction {
                            block: l.block,
                            state: l.state,
                        });
                    },
                );
            }
            Store::Infinite(c) => {
                for b in page.blocks() {
                    if let Some(state) = c.remove(b) {
                        out.push(BlockEviction { block: b, state });
                    }
                }
            }
        }
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn occupied(&self) -> usize {
        match &self.store {
            Store::Finite(c) => c.occupied(),
            Store::Infinite(c) => c.len(),
        }
    }

    fn state_mut(&mut self, block: VBlock) -> Option<&mut BlockState> {
        match &mut self.store {
            Store::Finite(c) => c.get_mut(block).map(|l| &mut l.state),
            Store::Infinite(c) => c.get_mut(block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BLOCKS_PER_PAGE;

    #[test]
    fn paper_configurations() {
        assert_eq!(BlockCache::direct_mapped(128).num_lines(), Some(4));
        assert_eq!(BlockCache::direct_mapped(1024).num_lines(), Some(32));
        assert_eq!(BlockCache::direct_mapped(32 * 1024).num_lines(), Some(1024));
        assert_eq!(BlockCache::infinite().num_lines(), None);
    }

    #[test]
    fn fill_probe_invalidate() {
        let mut bc = BlockCache::direct_mapped(128);
        assert!(bc.probe(VBlock(9)).is_none());
        assert!(bc.fill(VBlock(9), BlockState::read_only()).is_none());
        assert_eq!(bc.probe(VBlock(9)), Some(BlockState::read_only()));
        assert_eq!(bc.invalidate(VBlock(9)), Some(BlockState::read_only()));
        assert!(bc.probe(VBlock(9)).is_none());
    }

    #[test]
    fn conflict_evictions_surface_obligations() {
        let mut bc = BlockCache::direct_mapped(128); // 4 lines
        bc.fill(VBlock(1), BlockState::writable());
        bc.mark_dirty(VBlock(1));
        let ev = bc.fill(VBlock(5), BlockState::read_only()).unwrap();
        assert_eq!(ev.block, VBlock(1));
        assert!(ev.state.read_write && ev.state.dirty);
    }

    #[test]
    fn write_upgrade_and_downgrade() {
        let mut bc = BlockCache::direct_mapped(128);
        bc.fill(VBlock(2), BlockState::read_only());
        bc.grant_write(VBlock(2));
        bc.mark_dirty(VBlock(2));
        let s = bc.probe(VBlock(2)).unwrap();
        assert!(s.read_write && s.dirty);
        bc.downgrade(VBlock(2));
        let s = bc.probe(VBlock(2)).unwrap();
        assert!(!s.read_write && !s.dirty);
    }

    #[test]
    fn flush_page_clears_only_that_page() {
        let mut bc = BlockCache::direct_mapped(32 * 1024);
        let page = VPage(2);
        for b in page.blocks().take(5) {
            bc.fill(b, BlockState::writable());
        }
        bc.fill(VPage(7).block(0), BlockState::read_only());
        let flushed = bc.flush_page(page);
        assert_eq!(flushed.len(), 5);
        assert_eq!(bc.occupied(), 1);
        let _ = BLOCKS_PER_PAGE;
    }

    #[test]
    fn flush_page_into_reuses_the_buffer() {
        let mut bc = BlockCache::direct_mapped(32 * 1024);
        let mut buf = Vec::new();
        for page in [VPage(2), VPage(3)] {
            for b in page.blocks().take(5) {
                bc.fill(b, BlockState::writable());
            }
            buf.clear();
            bc.flush_page_into(page, &mut buf);
            assert_eq!(buf.len(), 5);
            assert!(buf.iter().all(|ev| ev.block.vpage() == page));
        }
        // The convenience form agrees with the buffered form.
        for b in VPage(4).blocks().take(3) {
            bc.fill(b, BlockState::read_only());
        }
        assert_eq!(bc.flush_page(VPage(4)).len(), 3);
        // Infinite store goes through the same API.
        let mut inf = BlockCache::infinite();
        inf.fill(VPage(9).block(0), BlockState::read_only());
        buf.clear();
        inf.flush_page_into(VPage(9), &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn infinite_cache_never_evicts_and_flushes_pages() {
        let mut bc = BlockCache::infinite();
        for i in 0..100_000u64 {
            assert!(bc.fill(VBlock(i), BlockState::read_only()).is_none());
        }
        assert_eq!(bc.occupied(), 100_000);
        let page = VPage(0);
        let flushed = bc.flush_page(page);
        assert_eq!(flushed.len(), BLOCKS_PER_PAGE as usize);
        assert_eq!(bc.occupied(), 100_000 - BLOCKS_PER_PAGE as usize);
    }

    #[test]
    fn ops_on_absent_blocks_are_noops() {
        let mut bc = BlockCache::direct_mapped(128);
        bc.grant_write(VBlock(1));
        bc.downgrade(VBlock(1));
        assert!(bc.invalidate(VBlock(1)).is_none());
        assert_eq!(bc.occupied(), 0);
    }
}
