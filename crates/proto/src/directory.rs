//! The full-map directory at each block's home node.
//!
//! All three machines (CC-NUMA, S-COMA, R-NUMA) run the *same* directory
//! protocol; they differ only in where remote data is cached (Section 2).
//! The directory tracks, per 32-byte block:
//!
//! * the current exclusive **owner**, if any;
//! * the **sharers** mask. The protocol is *non-notifying*: a node that
//!   silently drops a read-only copy stays in the mask, which is exactly
//!   what lets the home detect a read-only *refetch* "by simply keeping
//!   track of when a node requests a block that the directory state
//!   indicates it already has" (Section 3.1);
//! * the **was-owner** mask — the paper's "additional state to indicate
//!   that a processor previously held an exclusive block, but voluntarily
//!   wrote it back", which extends refetch detection to read-write
//!   blocks.
//!
//! Because the simulator resolves each transaction synchronously there
//! are no transient (busy) directory states; the returned
//! [`ReadOutcome`]/[`WriteOutcome`] tells the caller which remote actions
//! (owner fetch, invalidations) to charge and perform.

use rnuma_mem::addr::{NodeId, NodeMask, VBlock};
use rnuma_mem::paged::PagedMap;

/// Directory record for one block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Entry {
    /// Node holding the block exclusively (possibly dirty).
    pub owner: Option<NodeId>,
    /// Nodes that have been granted read-only copies (non-notifying, so
    /// possibly stale).
    pub sharers: NodeMask,
    /// Nodes that held the block exclusively and voluntarily wrote it
    /// back — the refetch-detection state for read-write data.
    pub was_owner: NodeMask,
}

/// What the home must do to satisfy a read request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The previous owner, which must be downgraded (its dirty data is
    /// forwarded/flushed home) before data is supplied. `None` when home
    /// memory is current.
    pub fetch_from: Option<NodeId>,
    /// `true` when the directory already shows the requester holding the
    /// block — a capacity/conflict *refetch*, the R-NUMA trigger event.
    pub refetch: bool,
}

/// What the home must do to satisfy a write (read-exclusive or upgrade)
/// request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The previous owner, which must be invalidated and its dirty data
    /// absorbed. `None` when no foreign owner exists.
    pub fetch_from: Option<NodeId>,
    /// Read-only copies to invalidate (requester excluded).
    pub invalidate: NodeMask,
    /// `true` when the directory already shows the requester holding the
    /// block.
    pub refetch: bool,
}

/// The directory for every block homed at one node.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::{NodeId, VBlock};
/// use rnuma_proto::directory::Directory;
///
/// let mut dir = Directory::new();
/// let first = dir.read(VBlock(7), NodeId(1));
/// assert!(!first.refetch);
/// // Node 1 silently loses the copy to a conflict, then asks again:
/// let again = dir.read(VBlock(7), NodeId(1));
/// assert!(again.refetch);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Directory {
    /// Per-block records in a paged dense array: directory traffic
    /// clusters within pages (fetch/flush/relocation walk a page's
    /// blocks back to back), so one page-indexed load plus a dense
    /// index per block beats a per-block map lookup.
    entries: PagedMap<Entry>,
}

impl Directory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Current state of `block` (all-empty when never referenced).
    #[must_use]
    pub fn entry(&self, block: VBlock) -> Entry {
        self.entries.get(block).copied().unwrap_or_default()
    }

    /// Handles a read (`GetShared`) from `requester` (which may be the
    /// home node itself — local reads at the home consult the same
    /// directory).
    pub fn read(&mut self, block: VBlock, requester: NodeId) -> ReadOutcome {
        let e = self.entries.entry_or_default(block);
        let refetch = e.sharers.contains(requester)
            || e.was_owner.contains(requester)
            || e.owner == Some(requester);
        let fetch_from = match e.owner {
            Some(o) if o != requester => Some(o),
            _ => None,
        };
        // Previous owner (if foreign) is downgraded to a sharer; home
        // memory becomes current.
        if let Some(o) = fetch_from {
            e.sharers.insert(o);
        }
        e.owner = None;
        e.sharers.insert(requester);
        // A node that re-acquires the block sheds its was-owner mark:
        // the refetch has been observed and counted once.
        e.was_owner.remove(requester);
        ReadOutcome {
            fetch_from,
            refetch,
        }
    }

    /// Handles a write (`GetExclusive` or `Upgrade`) from `requester`.
    ///
    /// `holds_copy` distinguishes an *upgrade* — the node still holds a
    /// read-only copy and asks only for permission — from a re-fetch of a
    /// block it lost. Only the latter is a capacity/conflict refetch: an
    /// upgrading node never evicted anything, so finding it in the
    /// sharers mask is expected, not a refetch signal.
    pub fn write(&mut self, block: VBlock, requester: NodeId, holds_copy: bool) -> WriteOutcome {
        let e = self.entries.entry_or_default(block);
        let refetch = !holds_copy
            && (e.sharers.contains(requester)
                || e.was_owner.contains(requester)
                || e.owner == Some(requester));
        let fetch_from = match e.owner {
            Some(o) if o != requester => Some(o),
            _ => None,
        };
        let invalidate = e.sharers.without(requester);
        // After a write, every other copy is gone. Clearing the sharers
        // and was-owner masks matters for correctness of refetch
        // detection: a node re-reading after being invalidated suffers a
        // *coherence* miss, not a capacity/conflict refetch, and must not
        // trip the R-NUMA counter (Section 3).
        e.owner = Some(requester);
        e.sharers.clear();
        e.was_owner.clear();
        WriteOutcome {
            fetch_from,
            invalidate,
            refetch,
        }
    }

    /// Handles a voluntary write-back (or notification of a clean
    /// exclusive eviction) from the current owner: the node keeps no
    /// copy but is remembered in `was_owner` so its next fetch counts as
    /// a refetch.
    ///
    /// Write-backs racing with a concurrent ownership change are ignored
    /// (the directory no longer shows the node as owner) — matching the
    /// late write-back acknowledgement of real protocols.
    pub fn writeback(&mut self, block: VBlock, from: NodeId) {
        if let Some(e) = self.entries.get_mut(block) {
            if e.owner == Some(from) {
                e.owner = None;
                e.was_owner.insert(from);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);
    const B: VBlock = VBlock(100);

    fn dir() -> Directory {
        Directory::new()
    }

    #[test]
    fn first_read_is_not_a_refetch() {
        let mut d = dir();
        let out = d.read(B, N1);
        assert!(!out.refetch);
        assert_eq!(out.fetch_from, None);
        assert!(d.entry(B).sharers.contains(N1));
    }

    #[test]
    fn reread_after_silent_drop_is_a_refetch() {
        let mut d = dir();
        d.read(B, N1);
        // Non-notifying protocol: N1 conflicts the block out silently.
        let out = d.read(B, N1);
        assert!(out.refetch, "read-only refetch detection is trivial");
    }

    #[test]
    fn voluntary_writeback_enables_rw_refetch_detection() {
        let mut d = dir();
        d.write(B, N1, false);
        d.writeback(B, N1);
        let e = d.entry(B);
        assert_eq!(e.owner, None);
        assert!(e.was_owner.contains(N1));
        let out = d.write(B, N1, false);
        assert!(out.refetch, "the paper's extra state at work");
    }

    #[test]
    fn reread_by_same_owner_counts_as_refetch() {
        let mut d = dir();
        d.write(B, N1, false);
        // N1 silently dropped a clean-exclusive copy, then reads again.
        let out = d.read(B, N1);
        assert!(out.refetch);
        assert_eq!(out.fetch_from, None, "no foreign owner to fetch from");
    }

    #[test]
    fn coherence_misses_are_not_refetches() {
        let mut d = dir();
        d.read(B, N1); // N1 shares
        let w = d.write(B, N2, false); // N2 invalidates N1
        assert!(w.invalidate.contains(N1));
        assert!(!w.refetch);
        // N1 rereads after invalidation: a coherence miss, NOT a refetch.
        let out = d.read(B, N1);
        assert!(!out.refetch, "invalidation cleared N1 from the masks");
        // But the *next* silent-drop reread is one again.
        let out = d.read(B, N1);
        assert!(out.refetch);
    }

    #[test]
    fn read_from_foreign_owner_is_three_hop() {
        let mut d = dir();
        d.write(B, N2, false);
        let out = d.read(B, N1);
        assert_eq!(out.fetch_from, Some(N2));
        let e = d.entry(B);
        assert_eq!(e.owner, None);
        assert!(e.sharers.contains(N1) && e.sharers.contains(N2));
    }

    #[test]
    fn write_collects_all_invalidations() {
        let mut d = dir();
        d.read(B, N1);
        d.read(B, N2);
        let out = d.write(B, HOME, false);
        assert!(out.invalidate.contains(N1) && out.invalidate.contains(N2));
        assert_eq!(out.invalidate.count(), 2);
        assert_eq!(d.entry(B).owner, Some(HOME));
        assert!(d.entry(B).sharers.is_empty());
    }

    #[test]
    fn getx_after_losing_copy_is_a_refetch_but_upgrade_is_not() {
        let mut d = dir();
        d.read(B, N1);
        // N1 lost its copy to a conflict, then writes: a refetch.
        let out = d.write(B, N1, false);
        assert!(out.refetch);
        assert_eq!(out.invalidate.count(), 0);

        // Reset: N1 reads again, then *upgrades* while still holding the
        // copy — not a refetch (nothing was evicted).
        let mut d = dir();
        d.read(B, N1);
        let out = d.write(B, N1, true);
        assert!(!out.refetch);
        assert_eq!(d.entry(B).owner, Some(N1));
    }

    #[test]
    fn stale_writeback_is_ignored() {
        let mut d = dir();
        d.write(B, N1, false);
        d.write(B, N2, false); // ownership moved
        d.writeback(B, N1); // late arrival
        assert_eq!(d.entry(B).owner, Some(N2));
        assert!(!d.entry(B).was_owner.contains(N1));
    }
}
