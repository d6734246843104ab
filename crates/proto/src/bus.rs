//! Intra-node snoopy MOESI bus transactions.
//!
//! Within each SMP node, a 100-MHz split-transaction bus keeps the four
//! processor caches consistent with a snoopy MOESI protocol modeled
//! after the SPARC MBus (Section 4). This module implements the snoop
//! side: given the node's L1 array, apply one bus transaction issued by
//! one CPU and report who supplied the data.
//!
//! The MBus limitation the paper calls out is preserved: only an *owner*
//! (`M`/`O`) supplies data cache-to-cache. A block cached read-only by a
//! peer is **not** supplied by that peer; the request falls through to
//! local memory — or, for a remote page, to the RAD and possibly all the
//! way to the home node "even if there are copies of the block in other
//! processor caches on the node".

use rnuma_mem::addr::VBlock;
use rnuma_mem::l1::L1Cache;

/// A bus transaction kind, as issued by a CPU miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusRequest {
    /// Read miss: wants a readable copy.
    Read,
    /// Write miss: wants an exclusive copy (read-exclusive).
    ReadExclusive,
    /// Store to a resident read-only copy: wants permission only.
    Upgrade,
}

/// The outcome of snooping one transaction across the node's caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnoopResult {
    /// A peer cache owned the block and supplied it cache-to-cache.
    pub supplied_by_cache: bool,
    /// Some peer held a copy in any valid state before the transaction.
    pub peer_had_copy: bool,
}

/// Applies `request` for `block`, issued by the CPU at `issuer` (an index
/// into `l1s`), to every *other* cache on the node's bus.
///
/// The issuer's own cache is untouched; the caller installs the fill or
/// upgrade there after deciding where the data comes from.
///
/// # Panics
///
/// Panics if `issuer` is out of range.
#[inline]
pub fn snoop(
    l1s: &mut [L1Cache],
    issuer: usize,
    block: VBlock,
    request: BusRequest,
) -> SnoopResult {
    assert!(issuer < l1s.len(), "issuer {issuer} out of range");
    let (before, rest) = l1s.split_at_mut(issuer);
    let result = snoop_each(before, block, request, SnoopResult::default());
    snoop_each(&mut rest[1..], block, request, result)
}

/// Applies `request` for `block` issued by a non-CPU bus agent (the RAD
/// servicing a request from another node): every cache on the bus is
/// snooped.
#[inline]
pub fn snoop_all(l1s: &mut [L1Cache], block: VBlock, request: BusRequest) -> SnoopResult {
    snoop_each(l1s, block, request, SnoopResult::default())
}

/// Snoops each of `l1s` once ([`L1Cache::snoop`]: one lookup per cache)
/// and folds the replies into `result`.
#[inline]
fn snoop_each(
    l1s: &mut [L1Cache],
    block: VBlock,
    request: BusRequest,
    mut result: SnoopResult,
) -> SnoopResult {
    let invalidate = request != BusRequest::Read;
    for l1 in l1s {
        let reply = l1.snoop(block, invalidate);
        result.peer_had_copy |= reply.had_copy;
        // An owner supplies a read cache-to-cache and keeps its dirty
        // copy as `O`; a write absorbs the owner's dirty copy.
        result.supplied_by_cache |= reply.owned && !invalidate;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuma_mem::moesi::Moesi;

    fn node() -> Vec<L1Cache> {
        (0..4).map(|_| L1Cache::new(8 * 1024)).collect()
    }

    const B: VBlock = VBlock(42);

    #[test]
    fn owner_supplies_on_read() {
        let mut l1s = node();
        l1s[2].fill(B, Moesi::Modified);
        let r = snoop(&mut l1s, 0, B, BusRequest::Read);
        assert!(r.supplied_by_cache);
        assert_eq!(l1s[2].state(B), Moesi::Owned, "owner keeps dirty copy as O");
    }

    #[test]
    fn mbus_quirk_shared_copy_does_not_supply() {
        let mut l1s = node();
        l1s[1].fill(B, Moesi::Shared);
        let r = snoop(&mut l1s, 0, B, BusRequest::Read);
        assert!(!r.supplied_by_cache, "S copies never supply on MBus");
        assert!(r.peer_had_copy);
        assert_eq!(l1s[1].state(B), Moesi::Shared);
    }

    #[test]
    fn exclusive_peer_downgrades_to_shared_without_supplying() {
        let mut l1s = node();
        l1s[3].fill(B, Moesi::Exclusive);
        let r = snoop(&mut l1s, 0, B, BusRequest::Read);
        assert!(!r.supplied_by_cache);
        assert_eq!(l1s[3].state(B), Moesi::Shared);
    }

    #[test]
    fn write_invalidates_all_peers() {
        let mut l1s = node();
        l1s[1].fill(B, Moesi::Shared);
        l1s[2].fill(B, Moesi::Owned);
        l1s[3].fill(B, Moesi::Shared);
        let r = snoop(&mut l1s, 0, B, BusRequest::ReadExclusive);
        assert!(!r.supplied_by_cache, "a write takes the O copy's data");
        assert!(r.peer_had_copy);
        for (i, l1) in l1s.iter().enumerate().skip(1) {
            assert_eq!(l1.state(B), Moesi::Invalid, "cache {i}");
        }
    }

    #[test]
    fn upgrade_only_invalidates_others() {
        let mut l1s = node();
        l1s[0].fill(B, Moesi::Shared);
        l1s[1].fill(B, Moesi::Shared);
        let r = snoop(&mut l1s, 0, B, BusRequest::Upgrade);
        assert!(r.peer_had_copy);
        assert!(!r.supplied_by_cache);
        assert_eq!(l1s[0].state(B), Moesi::Shared, "issuer untouched");
        assert_eq!(l1s[1].state(B), Moesi::Invalid);
    }

    #[test]
    fn every_issuer_position_snoops_exactly_its_peers() {
        for issuer in 0..4 {
            let mut l1s = node();
            for l1 in &mut l1s {
                l1.fill(B, Moesi::Shared);
            }
            let r = snoop(&mut l1s, issuer, B, BusRequest::Upgrade);
            assert!(r.peer_had_copy);
            for (i, l1) in l1s.iter().enumerate() {
                let want = if i == issuer {
                    Moesi::Shared
                } else {
                    Moesi::Invalid
                };
                assert_eq!(l1.state(B), want, "issuer {issuer}, cache {i}");
            }
        }
    }

    #[test]
    fn empty_bus_reports_nothing() {
        let mut l1s = node();
        let r = snoop(&mut l1s, 0, B, BusRequest::Read);
        assert_eq!(r, SnoopResult::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_issuer_panics() {
        let mut l1s = node();
        snoop(&mut l1s, 9, B, BusRequest::Read);
    }
}
