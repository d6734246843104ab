//! The five-state MOESI protocol used by the intra-node snoopy bus.
//!
//! Each node is a bus-based SMP kept coherent by a MOESI protocol modeled
//! after the SPARC MBus (Section 4 of the paper). Processor caches hold
//! blocks in one of the [`Moesi`] states; the state machine here captures
//! the transitions the node simulator applies on local accesses and
//! snoops.
//!
//! One MBus quirk matters for the DSM results and is modeled faithfully
//! upstream: MBus does *not* supply data cache-to-cache for blocks that no
//! cache *owns* (states `M` or `O`), so a read miss to a block cached
//! read-only by a peer still goes to memory — or, for remote pages, all
//! the way to the home node.

use std::fmt;

/// A MOESI cache-line state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Moesi {
    /// Not present.
    #[default]
    Invalid,
    /// Clean, possibly shared with other caches and memory.
    Shared,
    /// Clean, only copy among caches; memory is up to date.
    Exclusive,
    /// Dirty but shared: this cache is responsible for write-back.
    Owned,
    /// Dirty, only copy.
    Modified,
}

impl Moesi {
    /// `true` when the line is present (any state but `Invalid`).
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != Moesi::Invalid
    }

    /// `true` when the cache may satisfy a load without a bus transaction.
    #[must_use]
    pub fn can_read(self) -> bool {
        self.is_valid()
    }

    /// `true` when the cache may satisfy a store without a bus transaction.
    #[must_use]
    pub fn can_write(self) -> bool {
        matches!(self, Moesi::Exclusive | Moesi::Modified)
    }

    /// `true` when this cache must write the block back on eviction.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        matches!(self, Moesi::Owned | Moesi::Modified)
    }

    /// `true` when this cache owns the block (would supply it
    /// cache-to-cache on MBus).
    #[must_use]
    pub fn is_owner(self) -> bool {
        matches!(self, Moesi::Owned | Moesi::Modified)
    }

    /// State after this cache's own store hit (silent upgrade for `E`).
    ///
    /// A store to `S`/`O`/`I` requires a bus upgrade first; model that
    /// upstream, then call [`Moesi::after_store`] on the granted state.
    #[must_use]
    pub fn after_store(self) -> Moesi {
        match self {
            Moesi::Exclusive | Moesi::Modified => Moesi::Modified,
            // Upgrades land here after invalidating other copies.
            Moesi::Shared | Moesi::Owned | Moesi::Invalid => Moesi::Modified,
        }
    }

    /// State after observing another cache's read snoop.
    ///
    /// `M`/`E` degrade to `O`/`S`; `O`/`S` are unchanged.
    #[must_use]
    pub fn after_snoop_read(self) -> Moesi {
        match self {
            Moesi::Modified => Moesi::Owned,
            Moesi::Exclusive => Moesi::Shared,
            other => other,
        }
    }
}

impl fmt::Display for Moesi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Moesi::Invalid => 'I',
            Moesi::Shared => 'S',
            Moesi::Exclusive => 'E',
            Moesi::Owned => 'O',
            Moesi::Modified => 'M',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Moesi; 5] = [
        Moesi::Invalid,
        Moesi::Shared,
        Moesi::Exclusive,
        Moesi::Owned,
        Moesi::Modified,
    ];

    #[test]
    fn read_write_permissions() {
        assert!(!Moesi::Invalid.can_read());
        assert!(Moesi::Shared.can_read());
        assert!(!Moesi::Shared.can_write());
        assert!(Moesi::Exclusive.can_write());
        assert!(Moesi::Modified.can_write());
        assert!(!Moesi::Owned.can_write(), "O must upgrade before writing");
    }

    #[test]
    fn dirty_and_ownership() {
        assert!(Moesi::Modified.is_dirty() && Moesi::Modified.is_owner());
        assert!(Moesi::Owned.is_dirty() && Moesi::Owned.is_owner());
        assert!(!Moesi::Exclusive.is_dirty());
        assert!(!Moesi::Shared.is_owner());
    }

    #[test]
    fn store_always_ends_modified() {
        for s in ALL {
            assert_eq!(s.after_store(), Moesi::Modified);
        }
    }

    #[test]
    fn snoop_read_transitions() {
        assert_eq!(Moesi::Modified.after_snoop_read(), Moesi::Owned);
        assert_eq!(Moesi::Exclusive.after_snoop_read(), Moesi::Shared);
        assert_eq!(Moesi::Owned.after_snoop_read(), Moesi::Owned);
        assert_eq!(Moesi::Shared.after_snoop_read(), Moesi::Shared);
        assert_eq!(Moesi::Invalid.after_snoop_read(), Moesi::Invalid);
    }

    #[test]
    fn snoop_read_never_creates_dirtiness() {
        for s in ALL {
            assert_eq!(s.after_snoop_read().is_dirty(), s.is_dirty());
        }
    }

    #[test]
    fn default_is_invalid_and_display_single_letters() {
        assert_eq!(Moesi::default(), Moesi::Invalid);
        let letters: String = ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(letters, "ISEOM");
    }
}
