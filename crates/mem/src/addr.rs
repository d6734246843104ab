//! Addresses, identifiers, and geometry constants.
//!
//! The machine exposes one global shared *virtual* address space to the
//! applications ([`Va`]). Coherence operates on 32-byte blocks ([`VBlock`],
//! the MBus line size) and allocation on 4-KB pages ([`VPage`]). Global
//! physical addresses in the real hardware encode the home node in their
//! high bits; in the simulator the OS keeps that association in a side
//! table, so a `(VPage, home NodeId)` pair plays the role of the paper's
//! GPA and an S-COMA page-cache [`FrameId`] plays the role of the LPA.

use std::fmt;

/// Bytes per coherence block (MBus line).
pub const BLOCK_BYTES: u64 = 32;
/// Bytes per virtual-memory page.
pub const PAGE_BYTES: u64 = 4096;
/// Coherence blocks per page.
pub const BLOCKS_PER_PAGE: u64 = PAGE_BYTES / BLOCK_BYTES;
/// Pages in the simulated address space (4 GiB). Per-page tables are
/// dense arrays indexed by page number (`page_map::PageMap`), so their
/// memory grows with the highest page touched; allocating or touching a
/// page at or past this bound panics.
pub const MAX_PAGES: u64 = 1 << 20;

/// A virtual byte address in the global shared address space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Va(pub u64);

/// A virtual page number (`Va >> 12`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VPage(pub u64);

/// A virtual block number (`Va >> 5`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VBlock(pub u64);

/// A node (SMP workstation) identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u8);

/// A global CPU identifier (`node * cpus_per_node + local`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u16);

/// A frame index within a node's S-COMA page cache (the paper's LPA page).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

impl Va {
    /// The page containing this address.
    #[must_use]
    pub fn vpage(self) -> VPage {
        VPage(self.0 / PAGE_BYTES)
    }

    /// The block containing this address.
    #[must_use]
    pub fn vblock(self) -> VBlock {
        VBlock(self.0 / BLOCK_BYTES)
    }

    /// Byte offset within the containing block.
    #[must_use]
    pub fn offset_in_block(self) -> u64 {
        self.0 % BLOCK_BYTES
    }
}

impl VPage {
    /// First byte address of the page.
    #[must_use]
    pub fn base(self) -> Va {
        Va(self.0 * PAGE_BYTES)
    }

    /// The `i`-th block of this page.
    ///
    /// # Panics
    ///
    /// Panics if `i >= BLOCKS_PER_PAGE`.
    #[must_use]
    pub fn block(self, i: u64) -> VBlock {
        assert!(i < BLOCKS_PER_PAGE, "block index {i} out of page");
        VBlock(self.0 * BLOCKS_PER_PAGE + i)
    }

    /// Iterates over all blocks of the page.
    pub fn blocks(self) -> impl Iterator<Item = VBlock> {
        (0..BLOCKS_PER_PAGE).map(move |i| VBlock(self.0 * BLOCKS_PER_PAGE + i))
    }
}

impl VBlock {
    /// The page containing this block.
    #[must_use]
    pub fn vpage(self) -> VPage {
        VPage(self.0 / BLOCKS_PER_PAGE)
    }

    /// Index of this block within its page (`0..BLOCKS_PER_PAGE`).
    #[must_use]
    pub fn index_in_page(self) -> u64 {
        self.0 % BLOCKS_PER_PAGE
    }

    /// First byte address of the block.
    #[must_use]
    pub fn base(self) -> Va {
        Va(self.0 * BLOCK_BYTES)
    }
}

impl CpuId {
    /// The node a CPU belongs to, given the machine's CPUs-per-node.
    ///
    /// # Panics
    ///
    /// Panics if `cpus_per_node` is zero.
    #[must_use]
    pub fn node(self, cpus_per_node: u16) -> NodeId {
        assert!(cpus_per_node > 0, "cpus_per_node must be positive");
        NodeId((self.0 / cpus_per_node) as u8)
    }
}

impl fmt::Display for Va {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl fmt::Display for VPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vp:{}", self.0)
    }
}

impl fmt::Display for VBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vb:{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A set of nodes, stored as a bitmask (at most 64 nodes).
///
/// Used for directory sharer sets and the voluntary-write-back
/// ("was-owner") state that enables read-write refetch detection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodeMask(u64);

impl NodeMask {
    /// The empty set.
    pub const EMPTY: NodeMask = NodeMask(0);

    /// A set containing exactly one node.
    #[must_use]
    pub fn single(node: NodeId) -> NodeMask {
        let mut m = NodeMask::EMPTY;
        m.insert(node);
        m
    }

    /// Adds a node to the set.
    ///
    /// # Panics
    ///
    /// Panics if `node.0 >= 64`.
    pub fn insert(&mut self, node: NodeId) {
        assert!(node.0 < 64, "NodeMask supports at most 64 nodes");
        self.0 |= 1 << node.0;
    }

    /// Removes a node from the set.
    pub fn remove(&mut self, node: NodeId) {
        if node.0 < 64 {
            self.0 &= !(1 << node.0);
        }
    }

    /// The raw 64-bit membership mask (bit *n* set means node *n* is a
    /// member) — a stable form for digesting a set.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Membership test.
    #[must_use]
    pub fn contains(self, node: NodeId) -> bool {
        node.0 < 64 && self.0 & (1 << node.0) != 0
    }

    /// Number of members.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// `true` when no nodes are present.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Iterates over member nodes in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        (0..64u8)
            .filter(move |&i| self.0 & (1 << i) != 0)
            .map(NodeId)
    }

    /// Members of `self` that are not `node`.
    #[must_use]
    pub fn without(self, node: NodeId) -> NodeMask {
        let mut m = self;
        m.remove(node);
        m
    }
}

impl fmt::Display for NodeMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for n in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<NodeId> for NodeMask {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeMask {
        let mut m = NodeMask::EMPTY;
        for n in iter {
            m.insert(n);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_match_the_paper() {
        // 32-byte MBus lines, 4-KB pages => 128 blocks/page.
        assert_eq!(BLOCK_BYTES, 32);
        assert_eq!(PAGE_BYTES, 4096);
        assert_eq!(BLOCKS_PER_PAGE, 128);
    }

    #[test]
    fn va_decomposition() {
        let va = Va(2 * PAGE_BYTES + 5 * BLOCK_BYTES + 7);
        assert_eq!(va.vpage(), VPage(2));
        assert_eq!(va.vblock(), VBlock(2 * BLOCKS_PER_PAGE + 5));
        assert_eq!(va.offset_in_block(), 7);
    }

    #[test]
    fn page_block_round_trip() {
        let p = VPage(17);
        let b = p.block(127);
        assert_eq!(b.vpage(), p);
        assert_eq!(b.index_in_page(), 127);
        assert_eq!(b.base().vblock(), b);
        assert_eq!(p.base().vpage(), p);
    }

    #[test]
    fn page_blocks_iterator_covers_page_exactly() {
        let p = VPage(3);
        let blocks: Vec<_> = p.blocks().collect();
        assert_eq!(blocks.len(), BLOCKS_PER_PAGE as usize);
        assert!(blocks.iter().all(|b| b.vpage() == p));
        assert_eq!(blocks[0].index_in_page(), 0);
        assert_eq!(blocks.last().unwrap().index_in_page(), BLOCKS_PER_PAGE - 1);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn block_index_out_of_page_panics() {
        let _ = VPage(0).block(BLOCKS_PER_PAGE);
    }

    #[test]
    fn cpu_to_node_mapping() {
        // The paper's machine: 8 nodes x 4 CPUs.
        assert_eq!(CpuId(0).node(4), NodeId(0));
        assert_eq!(CpuId(3).node(4), NodeId(0));
        assert_eq!(CpuId(4).node(4), NodeId(1));
        assert_eq!(CpuId(31).node(4), NodeId(7));
    }

    #[test]
    fn node_mask_set_operations() {
        let mut m = NodeMask::EMPTY;
        assert!(m.is_empty());
        m.insert(NodeId(0));
        m.insert(NodeId(7));
        assert!(m.contains(NodeId(0)));
        assert!(m.contains(NodeId(7)));
        assert!(!m.contains(NodeId(3)));
        assert_eq!(m.count(), 2);
        m.remove(NodeId(0));
        assert_eq!(m.count(), 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![NodeId(7)]);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn node_mask_union_and_without() {
        let a: NodeMask = [NodeId(1), NodeId(2)].into_iter().collect();
        let b = NodeMask::single(NodeId(3));
        let u: NodeMask = a.iter().chain(b.iter()).collect();
        assert_eq!(u.count(), 3);
        assert_eq!(u.without(NodeId(2)).count(), 2);
        // `without` does not mutate.
        assert!(u.contains(NodeId(2)));
    }

    #[test]
    fn node_mask_display() {
        let m: NodeMask = [NodeId(0), NodeId(5)].into_iter().collect();
        assert_eq!(m.to_string(), "{n0,n5}");
        assert_eq!(NodeMask::EMPTY.to_string(), "{}");
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(Va(32).to_string(), "va:0x20");
        assert_eq!(VPage(1).to_string(), "vp:1");
        assert_eq!(VBlock(2).to_string(), "vb:2");
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(CpuId(4).to_string(), "cpu4");
        assert_eq!(FrameId(5).to_string(), "f5");
    }
}
