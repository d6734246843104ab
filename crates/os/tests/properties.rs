//! Property-based tests for the OS model.

use proptest::prelude::*;
use rnuma_mem::addr::{NodeId, VPage};
use rnuma_os::{CostModel, PageManager};

proptest! {
    /// Page homes are stable: once fixed, every subsequent toucher sees
    /// the same home.
    #[test]
    fn first_touch_home_is_stable(touches in prop::collection::vec((0u64..100, 0u8..8), 1..300)) {
        let mut pm = PageManager::new();
        let mut fixed: std::collections::BTreeMap<u64, NodeId> = Default::default();
        for (page, node) in touches {
            let home = pm.home_on_touch(VPage(page), NodeId(node));
            let expect = *fixed.entry(page).or_insert(home);
            prop_assert_eq!(home, expect, "page {} moved", page);
            prop_assert_eq!(pm.home_of(VPage(page)), Some(expect));
        }
    }

    /// Allocation cost is affine in the flush work and bounded by the
    /// paper's 3000–11500 range for up to a full page of blocks.
    #[test]
    fn allocation_cost_affine_and_in_range(blocks in 0u32..=128) {
        let c = CostModel::base();
        let cost = c.page_allocation(blocks);
        let base = c.page_allocation(0);
        prop_assert_eq!(cost, base + c.block_flush * u64::from(blocks));
        prop_assert!(cost.0 >= 3000);
        prop_assert!(cost.0 <= 11_500);
    }

    /// SOFT always dominates base for the same flush work.
    #[test]
    fn soft_dominates_base(blocks in 0u32..=128) {
        prop_assert!(
            CostModel::soft().page_allocation(blocks)
                > CostModel::base().page_allocation(blocks)
        );
    }
}
