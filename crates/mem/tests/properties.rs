//! Property-based tests for memory-hierarchy invariants.

use proptest::prelude::*;
use rnuma_mem::addr::{NodeId, NodeMask, VBlock, VPage, Va, BLOCKS_PER_PAGE, PAGE_BYTES};
use rnuma_mem::block_cache::{BlockCache, BlockState};
use rnuma_mem::cache::DirectCache;
use rnuma_mem::fine_tags::{AccessTag, FineTags};
use rnuma_mem::fxmap::FxMap64;
use rnuma_mem::l1::L1Cache;
use rnuma_mem::moesi::Moesi;
use rnuma_mem::page_cache::{PageCache, ReplacementPolicy};
use rnuma_mem::paged::PagedMap;

fn arb_tag() -> impl Strategy<Value = AccessTag> {
    prop_oneof![
        Just(AccessTag::Invalid),
        Just(AccessTag::ReadOnly),
        Just(AccessTag::ReadWrite),
    ]
}

/// The page cache's victim rules as first written: a linear scan of
/// the occupied frames for the oldest per-frame stamp, and Random
/// drawing an index into the list of occupied frames. `PageCache` must
/// choose the same victims from its dense stamp array.
struct NaivePageCache {
    /// Per frame: `(page, last miss, allocation)` stamps, if occupied.
    frames: Vec<Option<(u64, u64, u64)>>,
    free: Vec<usize>,
    clock: u64,
    policy: ReplacementPolicy,
    rng: u64,
}

impl NaivePageCache {
    fn new(frames: usize, policy: ReplacementPolicy) -> NaivePageCache {
        NaivePageCache {
            frames: vec![None; frames],
            free: (0..frames).rev().collect(),
            clock: 0,
            policy,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn frame_of(&self, page: u64) -> Option<usize> {
        self.frames
            .iter()
            .position(|f| f.is_some_and(|(p, _, _)| p == page))
    }

    /// Returns `(frame, evicted page)`.
    fn allocate(&mut self, page: u64) -> (usize, Option<u64>) {
        self.clock += 1;
        let (frame, victim) = match self.free.pop() {
            Some(f) => (f, None),
            None => {
                let occupied: Vec<usize> = (0..self.frames.len())
                    .filter(|&i| self.frames[i].is_some())
                    .collect();
                let stamp =
                    |i: usize, pick: fn((u64, u64, u64)) -> u64| self.frames[i].map(pick).unwrap();
                let f = match self.policy {
                    ReplacementPolicy::LeastRecentlyMissed => *occupied
                        .iter()
                        .min_by_key(|&&i| stamp(i, |(_, miss, _)| miss))
                        .unwrap(),
                    ReplacementPolicy::Fifo => *occupied
                        .iter()
                        .min_by_key(|&&i| stamp(i, |(_, _, alloc)| alloc))
                        .unwrap(),
                    ReplacementPolicy::Random => {
                        self.rng ^= self.rng << 13;
                        self.rng ^= self.rng >> 7;
                        self.rng ^= self.rng << 17;
                        occupied[(self.rng % occupied.len() as u64) as usize]
                    }
                };
                (f, self.frames[f].map(|(p, _, _)| p))
            }
        };
        self.frames[frame] = Some((page, self.clock, self.clock));
        (frame, victim)
    }

    fn record_miss(&mut self, page: u64) {
        if let Some(f) = self.frame_of(page) {
            self.clock += 1;
            if let Some(slot) = self.frames[f].as_mut() {
                slot.1 = self.clock;
            }
        }
    }

    fn release(&mut self, page: u64) -> Option<usize> {
        let f = self.frame_of(page)?;
        self.frames[f] = None;
        self.free.push(f);
        Some(f)
    }
}

proptest! {
    /// Address decomposition is consistent: every Va belongs to the page
    /// of its block, and offsets recompose to the original address.
    #[test]
    fn address_round_trip(raw in 0u64..(1 << 44)) {
        let va = Va(raw);
        prop_assert_eq!(va.vblock().vpage(), va.vpage());
        let rebuilt = va.vpage().base().0
            + va.vblock().index_in_page() * 32
            + va.offset_in_block();
        prop_assert_eq!(rebuilt, raw);
    }

    /// A direct-mapped cache never holds more lines than its capacity and
    /// a resident block is always found at its own index.
    #[test]
    fn direct_cache_capacity_invariant(
        lines in 1usize..64,
        blocks in prop::collection::vec(0u64..10_000, 0..500),
    ) {
        let mut c: DirectCache<u8> = DirectCache::new(lines);
        for b in blocks {
            c.insert(VBlock(b), 0);
            prop_assert!(c.occupied() <= lines);
            prop_assert!(c.contains(VBlock(b)));
        }
    }

    /// Two blocks can conflict only if they share an index.
    #[test]
    fn direct_cache_conflicts_share_index(
        lines in 1usize..64,
        a in 0u64..10_000,
        b in 0u64..10_000,
    ) {
        prop_assume!(a != b);
        let mut c: DirectCache<u8> = DirectCache::new(lines);
        c.insert(VBlock(a), 0);
        let evicted = matches!(
            c.insert(VBlock(b), 0),
            rnuma_mem::cache::Insert::Evicted(_)
        );
        prop_assert_eq!(evicted, a % lines as u64 == b % lines as u64);
    }

    /// Fine-grain tags behave as an independent array of 2-bit cells.
    #[test]
    fn fine_tags_independent_cells(
        writes in prop::collection::vec((0u64..BLOCKS_PER_PAGE, arb_tag()), 0..300)
    ) {
        let mut tags = FineTags::new();
        let mut model = [AccessTag::Invalid; 128];
        for (i, t) in writes {
            tags.set(i, t);
            model[i as usize] = t;
        }
        for i in 0..BLOCKS_PER_PAGE {
            prop_assert_eq!(tags.get(i), model[i as usize]);
        }
        let valid = model.iter().filter(|t| t.readable()).count() as u32;
        let rw = model.iter().filter(|t| t.writable()).count() as u32;
        prop_assert_eq!(tags.count_valid(), valid);
        prop_assert_eq!(tags.count_read_write(), rw);
    }

    /// The page cache never exceeds its frame count, and lookup agrees
    /// with allocation history.
    #[test]
    fn page_cache_capacity_invariant(
        frames in 1u64..16,
        pages in prop::collection::vec(0u64..64, 1..200),
    ) {
        let mut pc = PageCache::new(frames * PAGE_BYTES);
        let mut resident: Vec<u64> = Vec::new();
        for p in pages {
            if pc.lookup(VPage(p)).is_some() {
                pc.record_miss(VPage(p));
                continue;
            }
            let alloc = pc.allocate(VPage(p));
            if let Some(v) = alloc.victim {
                prop_assert!(resident.contains(&v.vpage.0));
                resident.retain(|&x| x != v.vpage.0);
            }
            resident.push(p);
            prop_assert!(pc.occupied() <= frames as usize);
            prop_assert_eq!(pc.occupied(), resident.len());
        }
        for &p in &resident {
            prop_assert!(pc.lookup(VPage(p)).is_some());
        }
    }

    /// LRM evicts the resident page whose last miss is oldest.
    #[test]
    fn lrm_evicts_least_recently_missed(
        misses in prop::collection::vec(0u64..4, 0..50),
    ) {
        let mut pc = PageCache::new(4 * PAGE_BYTES);
        for p in 0..4u64 {
            pc.allocate(VPage(p));
        }
        let mut stamps = [0u64, 1, 2, 3]; // allocation order stamps
        let mut clock = 4u64;
        for m in misses {
            clock += 1;
            pc.record_miss(VPage(m));
            stamps[m as usize] = clock;
        }
        let oldest = (0..4).min_by_key(|&i| stamps[i]).unwrap() as u64;
        let victim = pc.allocate(VPage(99)).victim.unwrap();
        prop_assert_eq!(victim.vpage, VPage(oldest));
    }

    /// L1 dirtiness is preserved exactly by fills and snoops: a block
    /// reported dirty on eviction must have been stored to.
    #[test]
    fn l1_eviction_dirtiness_tracks_stores(
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..300)
    ) {
        let mut l1 = L1Cache::new(128); // 4 lines, lots of conflicts
        let mut wrote = std::collections::BTreeSet::new();
        for (b, is_write) in ops {
            let block = VBlock(b);
            let ev = if is_write {
                wrote.insert(b);
                l1.grant_write(block)
            } else if l1.state(block) == Moesi::Invalid {
                l1.fill(block, Moesi::Shared)
            } else {
                None
            };
            if let Some(ev) = ev {
                prop_assert_eq!(ev.dirty, wrote.contains(&ev.block.0));
                if ev.dirty {
                    wrote.remove(&ev.block.0);
                }
            }
        }
    }

    /// NodeMask is a faithful set over 0..64.
    #[test]
    fn node_mask_is_a_set(ids in prop::collection::vec(0u8..64, 0..100)) {
        let mut mask = NodeMask::EMPTY;
        let mut model = std::collections::BTreeSet::new();
        for id in ids {
            mask.insert(NodeId(id));
            model.insert(id);
        }
        prop_assert_eq!(mask.count() as usize, model.len());
        let from_mask: Vec<u8> = mask.iter().map(|n| n.0).collect();
        let from_model: Vec<u8> = model.into_iter().collect();
        prop_assert_eq!(from_mask, from_model);
    }

    /// The open-addressed FxMap agrees with a `std` map (`BTreeMap`)
    /// reference model under arbitrary insert/remove/lookup sequences — the
    /// correctness contract behind swapping it onto the hot path.
    #[test]
    fn fxmap_matches_hashmap_model(
        ops in prop::collection::vec((0u8..3, 0u64..64, 0u32..1000), 1..600)
    ) {
        let mut map: FxMap64<u32> = FxMap64::new();
        let mut model: std::collections::BTreeMap<u64, u32> =
            std::collections::BTreeMap::new();
        for (op, key, value) in ops {
            match op {
                0 => prop_assert_eq!(map.insert(key, value), model.insert(key, value)),
                1 => prop_assert_eq!(map.remove(key), model.remove(&key)),
                _ => prop_assert_eq!(map.get(key).copied(), model.get(&key).copied()),
            }
            prop_assert_eq!(map.len(), model.len());
        }
        // Full sweep: every surviving key agrees, and iteration covers
        // exactly the model's key set.
        for key in 0u64..64 {
            prop_assert_eq!(map.get(key).copied(), model.get(&key).copied());
        }
        let mut keys: Vec<u64> = map.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        let mut model_keys: Vec<u64> = model.keys().copied().collect();
        model_keys.sort_unstable();
        prop_assert_eq!(keys, model_keys);
    }

    /// The map also agrees with the model when keys collide heavily and
    /// the table grows through several resizes.
    #[test]
    fn fxmap_survives_growth_and_clustering(
        keys in prop::collection::vec(0u64..10_000, 1..800)
    ) {
        let mut map: FxMap64<u64> = FxMap64::new();
        let mut model = std::collections::BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            // Consecutive-ish keys cluster probe chains on purpose.
            let key = k / 3;
            map.insert(key, i as u64);
            model.insert(key, i as u64);
        }
        prop_assert_eq!(map.len(), model.len());
        for (&k, &v) in &model {
            prop_assert_eq!(map.get(k), Some(&v));
        }
    }

    /// The paged dense map agrees with a `BTreeMap` reference model
    /// under arbitrary touch/get/get_mut sequences — the correctness
    /// contract behind swapping it under the home directory. The
    /// touched-bitmap semantics the directory's refetch detection needs
    /// are covered by op 1: `entry_or_default` marks a block *present
    /// with default state*, observably different from absent, without
    /// notifying neighbors.
    #[test]
    fn pagedmap_matches_btreemap_model(
        ops in prop::collection::vec(
            (0u8..4, 0u64..(16 * BLOCKS_PER_PAGE), 1u32..100),
            1..600,
        )
    ) {
        let mut paged: PagedMap<u32> = PagedMap::new();
        let mut model: std::collections::BTreeMap<u64, u32> =
            std::collections::BTreeMap::new();
        for (op, b, v) in ops {
            let block = VBlock(b);
            match op {
                // Insert-or-update through the entry API.
                0 => {
                    *paged.entry_or_default(block) += v;
                    *model.entry(b).or_insert(0) += v;
                }
                // Bare touch: present-with-default, not absent.
                1 => {
                    let _ = paged.entry_or_default(block);
                    model.entry(b).or_insert(0);
                }
                // In-place mutation of already-touched blocks only.
                2 => {
                    prop_assert_eq!(paged.get_mut(block).is_some(), model.contains_key(&b));
                    if let Some(slot) = paged.get_mut(block) {
                        *slot = v;
                    }
                    if let Some(slot) = model.get_mut(&b) {
                        *slot = v;
                    }
                }
                // Read-only probe.
                _ => prop_assert_eq!(paged.get(block).copied(), model.get(&b).copied()),
            }
            prop_assert_eq!(paged.len(), model.len());
            prop_assert_eq!(paged.is_empty(), model.is_empty());
        }
        // Full sweep: every block agrees, touched or absent.
        for b in 0..(16 * BLOCKS_PER_PAGE) {
            prop_assert_eq!(paged.get(VBlock(b)).copied(), model.get(&b).copied());
        }
        // Slab count equals the model's distinct touched pages.
        let model_pages: std::collections::BTreeSet<u64> =
            model.keys().map(|&b| VBlock(b).vpage().0).collect();
        prop_assert_eq!(paged.pages(), model_pages.len());
        // Per-page iteration is exactly the model's ascending range.
        for page in 0..16u64 {
            let from_model: Vec<(VBlock, u32)> = model
                .range(page * BLOCKS_PER_PAGE..(page + 1) * BLOCKS_PER_PAGE)
                .map(|(&b, &v)| (VBlock(b), v))
                .collect();
            let from_paged: Vec<(VBlock, u32)> = paged
                .page_entries(VPage(page))
                .map(|(b, &v)| (b, v))
                .collect();
            prop_assert_eq!(from_paged, from_model, "page {}", page);
        }
    }

    /// Page-boundary-straddling access patterns: runs of *consecutive*
    /// blocks whose start offsets land anywhere in a page, long enough
    /// to cross the 64-bit touched-bitmap word boundary (index 63→64)
    /// and the page boundary (index 127→page+1) in one sweep. The
    /// bitmap must mark exactly the run's blocks — never bleeding into
    /// untouched neighbors on either side of a boundary — counts must
    /// track distinct blocks (not touches), and per-page iteration must
    /// come back in ascending block order regardless of the order the
    /// straddling runs arrived in.
    #[test]
    fn boundary_straddling_runs_touch_exactly_their_blocks(
        runs in prop::collection::vec(
            (0u64..15, 0u64..BLOCKS_PER_PAGE, 1u64..(2 * BLOCKS_PER_PAGE + 2)),
            1..40,
        )
    ) {
        let mut paged: PagedMap<u32> = PagedMap::new();
        let mut model: std::collections::BTreeMap<u64, u32> =
            std::collections::BTreeMap::new();
        for &(page, offset, len) in &runs {
            let start = page * BLOCKS_PER_PAGE + offset;
            for b in start..start + len {
                *paged.entry_or_default(VBlock(b)) += 1;
                *model.entry(b).or_insert(0) += 1;
            }
        }
        // Exactly the run blocks are touched, with per-block touch
        // counts intact (no bleed across word or page boundaries), and
        // everything else — including the immediate neighbors of every
        // run end — stays absent.
        let domain = 18 * BLOCKS_PER_PAGE;
        for b in 0..domain {
            prop_assert_eq!(
                paged.get(VBlock(b)).copied(),
                model.get(&b).copied(),
                "block {} (page {}, index {})",
                b,
                VBlock(b).vpage().0,
                VBlock(b).index_in_page()
            );
        }
        prop_assert_eq!(paged.len(), model.len());
        let pages: std::collections::BTreeSet<u64> =
            model.keys().map(|&b| VBlock(b).vpage().0).collect();
        prop_assert_eq!(paged.pages(), pages.len());
        // Iteration order: ascending within each page, tiling the model
        // exactly — a run that arrived high-to-low page still reads
        // back low-to-high.
        for page in 0..18u64 {
            let from_model: Vec<(VBlock, u32)> = model
                .range(page * BLOCKS_PER_PAGE..(page + 1) * BLOCKS_PER_PAGE)
                .map(|(&b, &v)| (VBlock(b), v))
                .collect();
            let from_paged: Vec<(VBlock, u32)> = paged
                .page_entries(VPage(page))
                .map(|(b, &v)| (b, v))
                .collect();
            for pair in from_paged.windows(2) {
                prop_assert!(pair[0].0 .0 < pair[1].0 .0, "page {} out of order", page);
            }
            prop_assert_eq!(from_paged, from_model, "page {}", page);
        }
    }

    /// Block-cache flush_page_into removes exactly the page's resident blocks.
    #[test]
    fn block_cache_flush_is_exact(
        page_blocks in prop::collection::vec(0u64..BLOCKS_PER_PAGE, 0..32),
        other_blocks in prop::collection::vec(0u64..10_000, 0..32),
    ) {
        let mut bc = BlockCache::infinite();
        let page = VPage(5);
        let mut expected = std::collections::BTreeSet::new();
        for i in &page_blocks {
            bc.fill(page.block(*i), BlockState::read_only());
            expected.insert(page.block(*i));
        }
        for b in &other_blocks {
            let blk = VBlock(*b);
            if blk.vpage() != page {
                bc.fill(blk, BlockState::read_only());
            }
        }
        let mut flushed = Vec::new();
        bc.flush_page_into(page, &mut flushed);
        let got: std::collections::BTreeSet<_> =
            flushed.iter().map(|e| e.block).collect();
        prop_assert_eq!(got, expected);
        for i in 0..BLOCKS_PER_PAGE {
            prop_assert!(bc.probe(page.block(i)).is_none());
        }
    }

    /// The word-level tag counts and bit walk equal their per-block
    /// definitions, on arrays from sparse to dense.
    #[test]
    fn fine_tags_word_ops_match_per_block_definitions(
        density in 0u8..8,
        cells in prop::collection::vec((0u8..8, any::<bool>()), 128),
    ) {
        let mut tags = FineTags::new();
        for (i, &(roll, rw)) in cells.iter().enumerate() {
            let tag = match (roll < density, rw) {
                (false, _) => AccessTag::Invalid,
                (true, false) => AccessTag::ReadOnly,
                (true, true) => AccessTag::ReadWrite,
            };
            tags.set(i as u64, tag);
        }
        let per_block: Vec<(u64, AccessTag)> = (0..BLOCKS_PER_PAGE)
            .map(|i| (i, tags.get(i)))
            .filter(|(_, t)| t.readable())
            .collect();
        let rw = per_block.iter().filter(|(_, t)| t.writable()).count() as u32;
        prop_assert_eq!(tags.count_valid(), per_block.len() as u32);
        prop_assert_eq!(tags.count_read_write(), rw);
        prop_assert_eq!(tags.iter_valid().collect::<Vec<_>>(), per_block);
    }

    /// Every policy's victims equal the naive model's over random
    /// allocate/record-miss/release sequences.
    #[test]
    fn page_cache_victims_match_naive_model(
        policy in 0u8..3,
        frames in 1usize..12,
        ops in prop::collection::vec((0u8..4, 0u64..24), 1..400),
    ) {
        let policy = match policy {
            0 => ReplacementPolicy::LeastRecentlyMissed,
            1 => ReplacementPolicy::Fifo,
            _ => ReplacementPolicy::Random,
        };
        let mut pc = PageCache::with_policy(frames as u64 * PAGE_BYTES, policy);
        let mut model = NaivePageCache::new(frames, policy);
        for (op, page) in ops {
            match op {
                // Allocate (or, when resident, miss into the page).
                0 | 1 => {
                    if pc.lookup(VPage(page)).is_some() {
                        pc.record_miss(VPage(page));
                        model.record_miss(page);
                    } else {
                        let alloc = pc.allocate(VPage(page));
                        let (frame, victim) = model.allocate(page);
                        prop_assert_eq!(alloc.frame.0 as usize, frame);
                        prop_assert_eq!(alloc.victim.map(|v| v.vpage.0), victim);
                    }
                }
                2 => {
                    pc.record_miss(VPage(page));
                    model.record_miss(page);
                }
                _ => {
                    let freed = pc.release(VPage(page)).map(|v| v.frame.0 as usize);
                    prop_assert_eq!(freed, model.release(page));
                }
            }
            prop_assert_eq!(
                pc.lookup(VPage(page)).map(|f| f.0 as usize),
                model.frame_of(page)
            );
        }
    }
}
