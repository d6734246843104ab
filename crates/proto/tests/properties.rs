//! Property-based tests for the directory protocol's invariants.

use proptest::prelude::*;
use rnuma_mem::addr::{NodeId, VBlock};
use rnuma_mem::l1::L1Cache;
use rnuma_mem::moesi::Moesi;
use rnuma_proto::bus::{snoop, snoop_all, BusRequest};
use rnuma_proto::directory::Directory;
use rnuma_proto::reactive::RefetchCounters;

/// A random protocol operation against one block.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u8),
    Write(u8, bool),
    WriteBack(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::Read),
        ((0u8..8), any::<bool>()).prop_map(|(n, h)| Op::Write(n, h)),
        (0u8..8).prop_map(Op::WriteBack),
    ]
}

proptest! {
    /// Directory safety invariant: at any time a block has either one
    /// owner and no sharers, or no owner — never both.
    #[test]
    fn owner_and_sharers_are_mutually_exclusive(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut dir = Directory::new();
        let block = VBlock(42);
        for op in ops {
            match op {
                Op::Read(n) => { dir.read(block, NodeId(n)); }
                Op::Write(n, h) => { dir.write(block, NodeId(n), h); }
                Op::WriteBack(n) => { dir.writeback(block, NodeId(n)); }
            }
            let e = dir.entry(block);
            if e.owner.is_some() {
                prop_assert!(e.sharers.is_empty(),
                    "owner {:?} coexists with sharers {}", e.owner, e.sharers);
                prop_assert!(e.was_owner.is_empty());
            }
        }
    }

    /// A node that was just granted a copy is never flagged as a
    /// refetcher on that same grant, and IS flagged if it silently
    /// re-requests.
    #[test]
    fn refetch_flags_only_rerequests(nodes in prop::collection::vec(1u8..8, 1..40)) {
        let mut dir = Directory::new();
        let block = VBlock(7);
        let mut granted: std::collections::BTreeSet<u8> = Default::default();
        for n in nodes {
            let out = dir.read(block, NodeId(n));
            prop_assert_eq!(out.refetch, granted.contains(&n),
                "node {} grant state mismatch", n);
            granted.insert(n);
        }
    }

    /// A write wipes every other node's standing: subsequent reads by
    /// previously granted nodes are cold (coherence), not refetches.
    #[test]
    fn write_resets_refetch_state(readers in prop::collection::vec(1u8..8, 1..20), writer in 1u8..8) {
        let mut dir = Directory::new();
        let block = VBlock(9);
        for &n in &readers {
            dir.read(block, NodeId(n));
        }
        dir.write(block, NodeId(writer), false);
        for &n in &readers {
            if n != writer {
                let out = dir.read(block, NodeId(n));
                prop_assert!(!out.refetch, "node {n} flagged after invalidation");
                break; // only the first re-reader is guaranteed cold
            }
        }
    }

    /// Counters: interrupts fire exactly every `threshold` records for
    /// a single page.
    #[test]
    fn counter_period_is_threshold(threshold in 1u32..200, records in 1u32..1000) {
        let mut c = RefetchCounters::new(threshold);
        let page = rnuma_mem::addr::VPage(3);
        let mut fired = 0u32;
        for _ in 0..records {
            if c.record(page) {
                fired += 1;
            }
        }
        prop_assert_eq!(fired, records / threshold);
        prop_assert_eq!(c.count(page), records % threshold);
    }

    /// Bus snoops preserve the single-writer invariant within a node:
    /// after any sequence, at most one L1 holds a writable copy.
    #[test]
    fn at_most_one_writable_copy(ops in prop::collection::vec((0usize..4, any::<bool>()), 1..100)) {
        let mut l1s: Vec<L1Cache> = (0..4).map(|_| L1Cache::new(1024)).collect();
        let block = VBlock(5);
        for (cpu, is_write) in ops {
            if is_write {
                snoop(&mut l1s, cpu, block, BusRequest::ReadExclusive);
                l1s[cpu].grant_write(block);
            } else if l1s[cpu].state(block) == Moesi::Invalid {
                let result = snoop(&mut l1s, cpu, block, BusRequest::Read);
                let state = if result.peer_had_copy { Moesi::Shared } else { Moesi::Exclusive };
                l1s[cpu].fill(block, state);
            }
            let writable = l1s.iter().filter(|c| c.state(block).can_write()).count();
            prop_assert!(writable <= 1, "{writable} writable copies");
            let owners = l1s.iter().filter(|c| c.state(block).is_owner()).count();
            prop_assert!(owners <= 1, "{owners} owners");
        }
    }

    /// snoop_all behaves like snoop with a phantom issuer: it never
    /// leaves a valid copy after a write request.
    #[test]
    fn snoop_all_write_clears_node(filled in prop::collection::vec(any::<bool>(), 4)) {
        let mut l1s: Vec<L1Cache> = (0..4).map(|_| L1Cache::new(1024)).collect();
        let block = VBlock(6);
        for (l1, &f) in l1s.iter_mut().zip(&filled) {
            if f {
                l1.fill(block, Moesi::Shared);
            }
        }
        snoop_all(&mut l1s, block, BusRequest::ReadExclusive);
        for l1 in &l1s {
            prop_assert_eq!(l1.state(block), Moesi::Invalid);
        }
    }
}
