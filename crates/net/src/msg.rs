//! Coherence message vocabulary.
//!
//! The directory protocol exchanges a small set of message types between
//! requesting nodes and homes. The network model only needs each
//! message's *size class* (header-only control message vs. a message
//! carrying a 32-byte data block) to charge network-interface occupancy;
//! the kinds are also tallied for traffic reports.

use std::fmt;

/// Every message the directory protocol sends between nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Request a readable copy of a block.
    GetShared,
    /// Request an exclusive (writable) copy of a block.
    GetExclusive,
    /// Request write permission for a block already held read-only.
    Upgrade,
    /// Home grants a readable copy (carries data).
    DataShared,
    /// Home grants an exclusive copy (carries data).
    DataExclusive,
    /// Home grants write permission without data.
    AckUpgrade,
    /// Home tells a sharer to invalidate its copy.
    Invalidate,
    /// Sharer acknowledges an invalidation.
    InvalAck,
    /// Home asks the owner to send the dirty block home and downgrade.
    FetchDowngrade,
    /// Home asks the owner to send the dirty block home and invalidate.
    FetchInvalidate,
    /// Owner returns a dirty block (voluntary or forced; carries data).
    WriteBack,
    /// Home acknowledges a write-back.
    WriteBackAck,
    /// OS-level page migration payload (first-touch migration).
    PageMigrate,
}

/// Whether a message carries a data block or only a header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// Header-only control message.
    Control,
    /// Header plus one 32-byte block.
    Data,
    /// Header plus one 4-KB page (migration only).
    Page,
}

impl MsgKind {
    /// Number of message kinds (the length of [`MsgKind::all`]), for
    /// sizing array-backed statistics.
    pub const COUNT: usize = 13;

    /// The size class of this message kind.
    #[must_use]
    pub fn size_class(self) -> SizeClass {
        match self {
            MsgKind::GetShared
            | MsgKind::GetExclusive
            | MsgKind::Upgrade
            | MsgKind::AckUpgrade
            | MsgKind::Invalidate
            | MsgKind::InvalAck
            | MsgKind::FetchDowngrade
            | MsgKind::FetchInvalidate
            | MsgKind::WriteBackAck => SizeClass::Control,
            MsgKind::DataShared | MsgKind::DataExclusive | MsgKind::WriteBack => SizeClass::Data,
            MsgKind::PageMigrate => SizeClass::Page,
        }
    }

    /// All message kinds, for exhaustive statistics tables.
    #[must_use]
    pub fn all() -> &'static [MsgKind] {
        &[
            MsgKind::GetShared,
            MsgKind::GetExclusive,
            MsgKind::Upgrade,
            MsgKind::DataShared,
            MsgKind::DataExclusive,
            MsgKind::AckUpgrade,
            MsgKind::Invalidate,
            MsgKind::InvalAck,
            MsgKind::FetchDowngrade,
            MsgKind::FetchInvalidate,
            MsgKind::WriteBack,
            MsgKind::WriteBackAck,
            MsgKind::PageMigrate,
        ]
    }

    /// A dense index for array-backed statistics (declaration order,
    /// matching [`MsgKind::all`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgKind::GetShared => "GETS",
            MsgKind::GetExclusive => "GETX",
            MsgKind::Upgrade => "UPGR",
            MsgKind::DataShared => "DATA_S",
            MsgKind::DataExclusive => "DATA_X",
            MsgKind::AckUpgrade => "ACK_UP",
            MsgKind::Invalidate => "INV",
            MsgKind::InvalAck => "INV_ACK",
            MsgKind::FetchDowngrade => "FETCH_DG",
            MsgKind::FetchInvalidate => "FETCH_INV",
            MsgKind::WriteBack => "WB",
            MsgKind::WriteBackAck => "WB_ACK",
            MsgKind::PageMigrate => "PG_MIG",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes() {
        assert_eq!(MsgKind::GetShared.size_class(), SizeClass::Control);
        assert_eq!(MsgKind::DataShared.size_class(), SizeClass::Data);
        assert_eq!(MsgKind::WriteBack.size_class(), SizeClass::Data);
        assert_eq!(MsgKind::InvalAck.size_class(), SizeClass::Control);
        assert_eq!(MsgKind::PageMigrate.size_class(), SizeClass::Page);
    }

    #[test]
    fn all_is_exhaustive_and_indexable() {
        let all = MsgKind::all();
        assert_eq!(all.len(), MsgKind::COUNT);
        for (i, &k) in all.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn displays_are_unique_and_nonempty() {
        let mut seen = std::collections::BTreeSet::new();
        for &k in MsgKind::all() {
            let s = k.to_string();
            assert!(!s.is_empty());
            assert!(seen.insert(s), "duplicate display for {k:?}");
        }
    }
}
