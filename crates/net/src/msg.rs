//! Coherence message vocabulary.
//!
//! The directory protocol exchanges a small set of message types between
//! requesting nodes and homes. The network model only needs to know
//! whether a message carries a 32-byte data block or is header-only
//! ([`MsgKind::carries_data`]) to charge network-interface occupancy.

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
}

impl MsgKind {
    /// `true` for a message carrying one 32-byte block (header plus
    /// data); `false` for a header-only control message.
    #[must_use]
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            MsgKind::DataShared | MsgKind::DataExclusive | MsgKind::WriteBack
        )
    }

    /// All message kinds, in declaration order.
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
        ]
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
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes() {
        assert!(!MsgKind::GetShared.carries_data());
        assert!(MsgKind::DataShared.carries_data());
        assert!(MsgKind::WriteBack.carries_data());
        assert!(!MsgKind::InvalAck.carries_data());
        let data = MsgKind::all().iter().filter(|k| k.carries_data()).count();
        assert_eq!(data, 3, "only the two data replies and the write-back");
    }

    #[test]
    fn all_is_exhaustive_and_indexable() {
        let all = MsgKind::all();
        assert_eq!(all.len(), 11);
        for (i, &k) in all.iter().enumerate() {
            assert_eq!(k as usize, i, "{k} out of declaration order");
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
