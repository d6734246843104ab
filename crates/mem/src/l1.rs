//! The per-processor data cache.
//!
//! Each of the node's four CPUs has an 8-KB direct-mapped data cache with
//! 32-byte lines (Section 4: small caches chosen because the SPLASH-2
//! primary working sets fit in 8 KB). Instruction caches are assumed
//! perfect, as in the paper, so only data caches are modeled.

use crate::addr::{VBlock, VPage};
use crate::cache::{DirectCache, Insert, Line};
use crate::moesi::Moesi;

/// Outcome of probing an L1 for a load or store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1Probe {
    /// The access completes inside the cache.
    Hit,
    /// The block is present but the access needs a bus upgrade
    /// (store to a `Shared`/`Owned` line).
    UpgradeMiss,
    /// The block is absent.
    Miss,
}

/// What an evicted line requires of the bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Eviction {
    /// The displaced block.
    pub block: VBlock,
    /// `true` when the victim was dirty (`M`/`O`) and must be written back.
    pub dirty: bool,
}

/// What a peer's bus transaction found in one cache, from the single
/// lookup [`L1Cache::snoop`] makes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snooped {
    /// The cache held the block in a valid state before the snoop.
    pub had_copy: bool,
    /// That copy was an owner's (`M`/`O`, the dirty states): a read
    /// snoop had it supply the data, a write snoop destroyed it (the
    /// dirty data is implicitly transferred to the writer).
    pub owned: bool,
}

/// An 8-KB-class direct-mapped write-back data cache with MOESI states.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::VBlock;
/// use rnuma_mem::l1::{L1Cache, L1Probe};
/// use rnuma_mem::moesi::Moesi;
///
/// let mut l1 = L1Cache::new(8 * 1024);
/// assert_eq!(l1.probe_read(VBlock(7)), L1Probe::Miss);
/// l1.fill(VBlock(7), Moesi::Exclusive);
/// assert_eq!(l1.probe_read(VBlock(7)), L1Probe::Hit);
/// assert_eq!(l1.probe_write(VBlock(7)), L1Probe::Hit); // E allows stores
/// ```
#[derive(Clone, Debug)]
pub struct L1Cache {
    lines: DirectCache<Moesi>,
}

impl L1Cache {
    /// Creates a cache of `bytes` capacity (32-byte lines, direct-mapped).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is smaller than one line.
    #[must_use]
    pub fn new(bytes: u64) -> L1Cache {
        L1Cache {
            lines: DirectCache::with_capacity_bytes(bytes),
        }
    }

    /// Number of lines.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.lines.num_lines()
    }

    /// Classifies a load.
    #[must_use]
    #[inline]
    pub fn probe_read(&self, block: VBlock) -> L1Probe {
        match self.lines.get(block) {
            Some(l) if l.state.can_read() => L1Probe::Hit,
            Some(_) | None => L1Probe::Miss,
        }
    }

    /// Classifies a store.
    #[must_use]
    pub fn probe_write(&self, block: VBlock) -> L1Probe {
        match self.lines.get(block) {
            Some(l) if l.state.can_write() => L1Probe::Hit,
            Some(l) if l.state.is_valid() => L1Probe::UpgradeMiss,
            Some(_) | None => L1Probe::Miss,
        }
    }

    /// Classifies a store and, on a hit, performs it in the same lookup:
    /// the line becomes `Modified`. The one-lookup form of
    /// [`L1Cache::probe_write`] followed by [`L1Cache::store_hit`].
    #[inline]
    pub fn try_store(&mut self, block: VBlock) -> L1Probe {
        match self.lines.get_mut(block) {
            Some(l) if l.state.can_write() => {
                l.state = l.state.after_store();
                L1Probe::Hit
            }
            Some(l) if l.state.is_valid() => L1Probe::UpgradeMiss,
            Some(_) | None => L1Probe::Miss,
        }
    }

    /// Current state of `block` (`Invalid` when absent).
    #[must_use]
    pub fn state(&self, block: VBlock) -> Moesi {
        self.lines.get(block).map_or(Moesi::Invalid, |l| l.state)
    }

    /// Installs `block` in `state`, returning the eviction the fill caused,
    /// if any.
    #[inline]
    pub fn fill(&mut self, block: VBlock, state: Moesi) -> Option<L1Eviction> {
        debug_assert!(state.is_valid(), "filling an invalid line is meaningless");
        match self.lines.insert(block, state) {
            Insert::Placed => None,
            Insert::Evicted(Line { block, state }) => Some(L1Eviction {
                block,
                dirty: state.is_dirty(),
            }),
        }
    }

    /// Records a store hit: the line becomes `Modified`.
    ///
    /// # Panics
    ///
    /// Panics if the block is not writable (callers must have upgraded).
    pub fn store_hit(&mut self, block: VBlock) {
        let line = self
            .lines
            .get_mut(block)
            .expect("store_hit requires residency");
        assert!(
            line.state.can_write(),
            "store_hit requires write permission"
        );
        line.state = line.state.after_store();
    }

    /// Grants write permission after a bus upgrade: the line becomes
    /// `Modified` (installing it if absent). One lookup: a fill of a
    /// resident block only overwrites its state.
    #[inline]
    pub fn grant_write(&mut self, block: VBlock) -> Option<L1Eviction> {
        self.fill(block, Moesi::Modified)
    }

    /// Applies a peer's bus transaction for `block` in one lookup: a
    /// read snoop (`invalidate == false`) downgrades `M`/`E` to `O`/`S`,
    /// a write or upgrade snoop (`invalidate == true`) drops the line.
    /// Equivalent to reading [`L1Cache::state`] and then calling
    /// [`L1Cache::snoop_read`] or [`L1Cache::snoop_write`].
    #[inline]
    pub fn snoop(&mut self, block: VBlock, invalidate: bool) -> Snooped {
        let before = if invalidate {
            self.lines.remove(block).map(|l| l.state)
        } else {
            self.lines.get_mut(block).map(|l| {
                let state = l.state;
                l.state = state.after_snoop_read();
                state
            })
        };
        before.map_or(Snooped::default(), |state| Snooped {
            had_copy: state.is_valid(),
            owned: state.is_owner(),
        })
    }

    /// Applies a peer read snoop. Returns `true` when this cache was the
    /// owner and supplied the data.
    pub fn snoop_read(&mut self, block: VBlock) -> bool {
        if let Some(line) = self.lines.get_mut(block) {
            let was_owner = line.state.is_owner();
            line.state = line.state.after_snoop_read();
            was_owner
        } else {
            false
        }
    }

    /// Applies a peer write/upgrade snoop, invalidating any copy.
    /// Returns `true` when a dirty copy was destroyed (it is implicitly
    /// transferred to the writer on a real bus).
    pub fn snoop_write(&mut self, block: VBlock) -> bool {
        match self.lines.remove(block) {
            Some(line) => line.state.is_dirty(),
            None => false,
        }
    }

    /// Invalidates `block` (inclusion enforcement or page flush).
    /// Returns the line if one was present.
    pub fn invalidate(&mut self, block: VBlock) -> Option<Moesi> {
        self.lines.remove(block).map(|l| l.state)
    }

    /// DSM-level downgrade: a remote reader forced the node to give up
    /// exclusivity; the dirty data has been flushed home, so any local
    /// copy becomes clean `Shared`. Returns `true` when a dirty copy was
    /// flushed.
    pub fn downgrade_to_shared(&mut self, block: VBlock) -> bool {
        if let Some(line) = self.lines.get_mut(block) {
            let was_dirty = line.state.is_dirty();
            line.state = Moesi::Shared;
            was_dirty
        } else {
            false
        }
    }

    /// Invalidates every block of `page`.
    pub fn invalidate_page(&mut self, page: VPage) {
        self.lines
            .drain_matching_with(|l| l.block.vpage() == page, |_| {});
    }

    /// Number of resident lines.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.lines.occupied()
    }

    /// Iterates over `(block, state)` for resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (VBlock, Moesi)> + '_ {
        self.lines.iter().map(|l| (l.block, l.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> L1Cache {
        L1Cache::new(128) // 4 lines: easy conflicts
    }

    #[test]
    fn paper_l1_is_256_lines() {
        assert_eq!(L1Cache::new(8 * 1024).num_lines(), 256);
    }

    #[test]
    fn read_miss_then_hit() {
        let mut l1 = small();
        assert_eq!(l1.probe_read(VBlock(1)), L1Probe::Miss);
        assert!(l1.fill(VBlock(1), Moesi::Shared).is_none());
        assert_eq!(l1.probe_read(VBlock(1)), L1Probe::Hit);
        assert_eq!(l1.state(VBlock(1)), Moesi::Shared);
    }

    #[test]
    fn store_to_shared_is_upgrade_miss() {
        let mut l1 = small();
        l1.fill(VBlock(2), Moesi::Shared);
        assert_eq!(l1.probe_write(VBlock(2)), L1Probe::UpgradeMiss);
        l1.grant_write(VBlock(2));
        assert_eq!(l1.probe_write(VBlock(2)), L1Probe::Hit);
        assert_eq!(l1.state(VBlock(2)), Moesi::Modified);
    }

    #[test]
    fn store_hit_on_exclusive_goes_modified_silently() {
        let mut l1 = small();
        l1.fill(VBlock(3), Moesi::Exclusive);
        assert_eq!(l1.probe_write(VBlock(3)), L1Probe::Hit);
        l1.store_hit(VBlock(3));
        assert_eq!(l1.state(VBlock(3)), Moesi::Modified);
    }

    #[test]
    fn conflict_eviction_reports_dirtiness() {
        let mut l1 = small();
        l1.fill(VBlock(0), Moesi::Modified);
        // Block 4 conflicts with block 0 in a 4-line cache.
        let ev = l1.fill(VBlock(4), Moesi::Shared).expect("conflict");
        assert_eq!(ev.block, VBlock(0));
        assert!(ev.dirty);
        let ev2 = l1.fill(VBlock(8), Moesi::Shared).expect("conflict");
        assert!(!ev2.dirty);
    }

    #[test]
    fn snoop_read_downgrades_and_reports_supply() {
        let mut l1 = small();
        l1.fill(VBlock(1), Moesi::Modified);
        assert!(l1.snoop_read(VBlock(1)), "M owner supplies data");
        assert_eq!(l1.state(VBlock(1)), Moesi::Owned);
        // Shared copies do not supply on MBus.
        let mut l2 = small();
        l2.fill(VBlock(1), Moesi::Shared);
        assert!(!l2.snoop_read(VBlock(1)));
        assert_eq!(l2.state(VBlock(1)), Moesi::Shared);
    }

    #[test]
    fn snoop_write_invalidates() {
        let mut l1 = small();
        l1.fill(VBlock(1), Moesi::Owned);
        assert!(l1.snoop_write(VBlock(1)), "dirty copy destroyed");
        assert_eq!(l1.state(VBlock(1)), Moesi::Invalid);
        assert!(!l1.snoop_write(VBlock(1)));
    }

    #[test]
    fn invalidate_page_sweeps_only_that_page() {
        let mut l1 = L1Cache::new(8 * 1024);
        let p = VPage(0);
        for (i, b) in p.blocks().take(6).enumerate() {
            l1.fill(
                b,
                if i % 2 == 0 {
                    Moesi::Modified
                } else {
                    Moesi::Shared
                },
            );
        }
        l1.fill(VPage(3).block(0), Moesi::Shared);
        l1.invalidate_page(p);
        assert_eq!(l1.occupied(), 1);
        assert!(l1.iter().all(|(b, _)| b.vpage() == VPage(3)));
    }

    #[test]
    #[should_panic(expected = "write permission")]
    fn store_hit_without_permission_panics() {
        let mut l1 = small();
        l1.fill(VBlock(1), Moesi::Shared);
        l1.store_hit(VBlock(1));
    }
}
