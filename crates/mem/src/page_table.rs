//! Per-node page tables.
//!
//! Every node runs the single OS image but keeps its own page table so
//! that allocation decisions are independent per node (Section 2). A
//! virtual page can be, from one node's point of view:
//!
//! * unmapped — the next reference takes a soft page fault;
//! * local — this node is (or has become, via first-touch migration) the
//!   page's home, and references go to ordinary local memory;
//! * CC-NUMA — mapped directly to the remote home's global physical
//!   address, so misses travel to the home via the block cache;
//! * S-COMA — mapped to a local page-cache frame guarded by fine-grain
//!   tags.
//!
//! The R-NUMA relocation flow is exactly a transition from `CcNuma` to
//! `SComa` for one page on one node.

use crate::addr::{FrameId, VPage};
use crate::page_map::PageMap;

/// How one node currently maps one virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mapping {
    /// The page's home is this node; plain local memory.
    Local,
    /// Mapped to the remote home's physical address (CC-NUMA mode).
    CcNuma,
    /// Mapped into the local S-COMA page cache at `FrameId`.
    SComa(FrameId),
}

/// One node's page table over the shared virtual address space.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::VPage;
/// use rnuma_mem::page_table::{Mapping, NodePageTable};
///
/// let mut pt = NodePageTable::new();
/// assert_eq!(pt.lookup(VPage(1)), None); // fault
/// pt.map(VPage(1), Mapping::CcNuma);
/// assert_eq!(pt.lookup(VPage(1)), Some(Mapping::CcNuma));
/// ```
#[derive(Clone, Debug, Default)]
pub struct NodePageTable {
    entries: PageMap<Mapping>,
    version: u64,
}

impl NodePageTable {
    /// An empty page table (everything faults).
    #[must_use]
    pub fn new() -> NodePageTable {
        NodePageTable::default()
    }

    /// A counter bumped on every `map`/`unmap`. Cached translations
    /// (e.g., the machine's per-CPU MRU entry) are valid only while the
    /// version they were read under is still current.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current mapping of `page`, or `None` when unmapped.
    #[inline]
    #[must_use]
    pub fn lookup(&self, page: VPage) -> Option<Mapping> {
        self.entries.get(page).copied()
    }

    /// Installs a mapping, replacing any previous one. Returns the
    /// previous mapping, which the OS uses to validate transitions.
    ///
    /// # Panics
    ///
    /// Panics if `page` is at or past [`crate::addr::MAX_PAGES`].
    pub fn map(&mut self, page: VPage, mapping: Mapping) -> Option<Mapping> {
        self.version += 1;
        self.entries.insert(page, mapping)
    }

    /// Removes the mapping for `page` (relocation or page-cache
    /// replacement), returning it.
    pub fn unmap(&mut self, page: VPage) -> Option<Mapping> {
        self.version += 1;
        self.entries.remove(page)
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no page is mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(page, mapping)` in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (VPage, Mapping)> + '_ {
        self.entries.iter().map(|(p, &m)| (p, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_pages_fault() {
        let pt = NodePageTable::new();
        assert_eq!(pt.lookup(VPage(0)), None);
        assert!(pt.is_empty());
    }

    #[test]
    fn map_lookup_unmap_cycle() {
        let mut pt = NodePageTable::new();
        assert_eq!(pt.map(VPage(1), Mapping::CcNuma), None);
        assert_eq!(pt.lookup(VPage(1)), Some(Mapping::CcNuma));
        // The R-NUMA relocation transition.
        let prev = pt.map(VPage(1), Mapping::SComa(FrameId(3)));
        assert_eq!(prev, Some(Mapping::CcNuma));
        assert_eq!(pt.lookup(VPage(1)), Some(Mapping::SComa(FrameId(3))));
        assert_eq!(pt.unmap(VPage(1)), Some(Mapping::SComa(FrameId(3))));
        assert_eq!(pt.lookup(VPage(1)), None);
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut pt = NodePageTable::new();
        let v0 = pt.version();
        pt.map(VPage(1), Mapping::CcNuma);
        let v1 = pt.version();
        assert_ne!(v0, v1);
        pt.unmap(VPage(1));
        assert_ne!(pt.version(), v1);
        // Lookups never invalidate cached translations.
        let v2 = pt.version();
        let _ = pt.lookup(VPage(1));
        assert_eq!(pt.version(), v2);
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut pt = NodePageTable::new();
        pt.map(VPage(2), Mapping::CcNuma);
        pt.map(VPage(1), Mapping::Local);
        let pages: Vec<u64> = pt.iter().map(|(p, _)| p.0).collect();
        assert_eq!(pages, vec![1, 2]);
    }
}
