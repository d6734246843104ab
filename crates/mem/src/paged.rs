//! A paged dense map over per-block state.
//!
//! The home directory tracks state per 32-byte block, but directory
//! traffic is heavily clustered *within pages*: a remote page fetch,
//! flush, or relocation walks many blocks of one page back to back, and
//! streaming applications touch the blocks of a page consecutively. A
//! flat map keyed by block would pay a lookup per block; [`PagedMap`]
//! resolves the *page* once and then indexes a dense array per block:
//!
//! * `page -> slab` resolution goes through one [`PageMap`] indexed by
//!   the block's page number — the same dense table the rest of the
//!   per-page state uses;
//! * each slab is a dense `[V; BLOCKS_PER_PAGE]` array indexed by the
//!   block's offset in its page, plus a 128-bit *touched* bitmap that
//!   preserves the sparse-map distinction between "absent" and
//!   "present with default state".
//!
//! Slabs are allocated from an internal arena (a `Vec` of boxed slabs)
//! and never move or free individually, so `get`/`get_mut` are stable.

use crate::addr::{VBlock, VPage, BLOCKS_PER_PAGE};
use crate::page_map::PageMap;

const SLAB_LEN: usize = BLOCKS_PER_PAGE as usize;
const BITMAP_WORDS: usize = SLAB_LEN / 64;

/// One page's dense block-state array plus its touched bitmap.
#[derive(Clone)]
struct Slab<V> {
    touched: [u64; BITMAP_WORDS],
    cells: Box<[V]>,
}

impl<V: Default> Slab<V> {
    fn new() -> Slab<V> {
        Slab {
            touched: [0; BITMAP_WORDS],
            cells: (0..SLAB_LEN).map(|_| V::default()).collect(),
        }
    }

    #[inline]
    fn is_touched(&self, idx: usize) -> bool {
        self.touched[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Marks `idx` touched; returns `true` when it was untouched before.
    #[inline]
    fn touch(&mut self, idx: usize) -> bool {
        let word = &mut self.touched[idx / 64];
        let bit = 1u64 << (idx % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// A dense-per-page map from [`VBlock`] to `V`.
///
/// One page-indexed load, then a dense index per block — see the
/// module docs.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::VBlock;
/// use rnuma_mem::paged::PagedMap;
///
/// let mut m: PagedMap<u32> = PagedMap::new();
/// assert_eq!(m.get(VBlock(7)), None);
/// *m.entry_or_default(VBlock(7)) += 1;
/// assert_eq!(m.get(VBlock(7)), Some(&1));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone)]
pub struct PagedMap<V> {
    index: PageMap<u32>,
    slabs: Vec<Slab<V>>,
    len: usize,
}

impl<V> std::fmt::Debug for PagedMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedMap")
            .field("pages", &self.slabs.len())
            .field("len", &self.len)
            .finish()
    }
}

impl<V: Default> Default for PagedMap<V> {
    fn default() -> Self {
        PagedMap::new()
    }
}

impl<V: Default> PagedMap<V> {
    /// An empty map; slabs allocate on first touch of their page.
    #[must_use]
    pub fn new() -> PagedMap<V> {
        PagedMap {
            index: PageMap::new(),
            slabs: Vec::new(),
            len: 0,
        }
    }

    /// Number of touched blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no block has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages with at least one touched block (slab count).
    #[must_use]
    pub fn pages(&self) -> usize {
        self.slabs.len()
    }

    #[inline]
    fn slab_of(&self, page: VPage) -> Option<&Slab<V>> {
        self.index.get(page).map(|&i| &self.slabs[i as usize])
    }

    /// The state of `block`, if it was ever touched.
    #[inline]
    #[must_use]
    pub fn get(&self, block: VBlock) -> Option<&V> {
        let slab = self.slab_of(block.vpage())?;
        let idx = block.index_in_page() as usize;
        slab.is_touched(idx).then(|| &slab.cells[idx])
    }

    /// Mutable state of `block`, if it was ever touched.
    #[inline]
    pub fn get_mut(&mut self, block: VBlock) -> Option<&mut V> {
        let &slot = self.index.get(block.vpage())?;
        let slab = &mut self.slabs[slot as usize];
        let idx = block.index_in_page() as usize;
        slab.is_touched(idx).then(|| &mut slab.cells[idx])
    }

    /// The state of `block`, touching it with `V::default()` when absent.
    ///
    /// # Panics
    ///
    /// Panics if the block's page is untouched and at or past
    /// [`crate::addr::MAX_PAGES`].
    #[inline]
    pub fn entry_or_default(&mut self, block: VBlock) -> &mut V {
        let page = block.vpage();
        let slot = match self.index.get(page) {
            Some(&i) => i as usize,
            None => {
                let i = self.slabs.len();
                assert!(u32::try_from(i).is_ok(), "PagedMap slab index overflow");
                self.slabs.push(Slab::new());
                self.index.insert(page, i as u32);
                i
            }
        };
        let slab = &mut self.slabs[slot];
        let idx = block.index_in_page() as usize;
        if slab.touch(idx) {
            self.len += 1;
        }
        &mut slab.cells[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_blocks_read_none() {
        let m: PagedMap<u64> = PagedMap::new();
        assert_eq!(m.get(VBlock(0)), None);
        assert!(m.is_empty());
        assert_eq!(m.pages(), 0);
    }

    #[test]
    fn entry_or_default_touches_once() {
        let mut m: PagedMap<u64> = PagedMap::new();
        *m.entry_or_default(VBlock(130)) += 1;
        *m.entry_or_default(VBlock(130)) += 1;
        assert_eq!(m.get(VBlock(130)), Some(&2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.pages(), 1);
        // A default-valued touched block is still "present" — the
        // sparse-map distinction the directory's refetch logic needs.
        let _ = m.entry_or_default(VBlock(131));
        assert_eq!(m.get(VBlock(131)), Some(&0));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn untouched_neighbors_stay_absent() {
        let mut m: PagedMap<u64> = PagedMap::new();
        *m.entry_or_default(VPage(3).block(7)) = 9;
        // Same page, different block: slab exists, bit does not.
        assert_eq!(m.get(VPage(3).block(8)), None);
        assert_eq!(m.get_mut(VPage(3).block(8)), None);
        assert_eq!(m.get(VPage(3).block(7)), Some(&9));
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut m: PagedMap<u64> = PagedMap::new();
        *m.entry_or_default(VBlock(1000)) = 1;
        *m.get_mut(VBlock(1000)).unwrap() = 42;
        assert_eq!(m.get(VBlock(1000)), Some(&42));
    }

    /// Named for the flat `FxMap` the reference used to be; the
    /// reference is now a `BTreeMap` keyed by block.
    #[test]
    fn matches_fxmap_reference_on_mixed_traffic() {
        use std::collections::BTreeMap;
        let mut paged: PagedMap<u64> = PagedMap::new();
        let mut flat: BTreeMap<VBlock, u64> = BTreeMap::new();
        // Deterministic pseudo-random block traffic across many pages.
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let block = VBlock((x >> 16) % (64 * BLOCKS_PER_PAGE));
            if x.is_multiple_of(3) {
                *paged.entry_or_default(block) += 1;
                *flat.entry(block).or_default() += 1;
            } else {
                assert_eq!(paged.get(block), flat.get(&block), "block {block:?}");
            }
        }
        assert_eq!(paged.len(), flat.len());
        for page in 0..64u64 {
            for b in VPage(page).blocks() {
                assert_eq!(paged.get(b), flat.get(&b), "block {b:?}");
            }
        }
    }
}
