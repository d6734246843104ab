//! Global page-home management and first-touch placement.
//!
//! The paper's systems allocate pages "on the same node as the processor
//! that uses them" via a first-touch migration policy (Section 2.1): a
//! user directive arms migration at the start of the parallel phase, and
//! the first request for each page fixes its home at the requester. The
//! reproduction applies the policy's steady-state effect directly — the
//! first *timed* toucher of a page becomes its home — because the
//! (untimed) initialization phase would otherwise home every page at the
//! master CPU's node. Pages touched by nobody keep their allocation-time
//! home.

use rnuma_mem::addr::{NodeId, VPage};
use rnuma_mem::page_map::PageMap;

/// Where each shared virtual page lives, and how it got there.
#[derive(Clone, Debug)]
pub struct PageManager {
    nodes: u8,
    /// Armed by the workload at the start of its parallel phase.
    first_touch_armed: bool,
    homes: PageMap<NodeId>,
    /// Pages whose home was fixed by first touch (vs. static allocation).
    first_touched: u64,
}

impl PageManager {
    /// Creates a manager for a machine of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(nodes: u8) -> PageManager {
        assert!(nodes > 0, "machine needs at least one node");
        PageManager {
            nodes,
            first_touch_armed: false,
            homes: PageMap::new(),
            first_touched: 0,
        }
    }

    /// Arms first-touch placement (the paper's user-invoked directive at
    /// the start of the parallel phase).
    pub fn arm_first_touch(&mut self) {
        self.first_touch_armed = true;
    }

    /// `true` once first-touch placement is armed.
    #[must_use]
    pub fn first_touch_armed(&self) -> bool {
        self.first_touch_armed
    }

    /// Statically assigns `page` to `home` at allocation time (used for
    /// explicitly distributed or master-initialized data).
    pub fn assign(&mut self, page: VPage, home: NodeId) {
        assert!(home.0 < self.nodes, "home {home} out of range");
        self.homes.insert(page, home);
    }

    /// The home of `page` as seen by `toucher`'s reference, fixing it by
    /// first touch when armed and not yet fixed.
    pub fn home_on_touch(&mut self, page: VPage, toucher: NodeId) -> NodeId {
        if let Some(&h) = self.homes.get(page) {
            return h;
        }
        self.homes.insert(page, toucher);
        if self.first_touch_armed {
            self.first_touched += 1;
        }
        toucher
    }

    /// The home of `page`, if fixed.
    #[must_use]
    pub fn home_of(&self, page: VPage) -> Option<NodeId> {
        self.homes.get(page).copied()
    }

    /// Number of pages homed by first touch.
    #[must_use]
    pub fn first_touched(&self) -> u64 {
        self.first_touched
    }

    /// Number of pages with a fixed home.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.homes.len()
    }

    /// Per-node page counts (placement balance diagnostics).
    #[must_use]
    pub fn census(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes as usize];
        for home in self.homes.values() {
            counts[home.0 as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_fixes_home_at_first_requester() {
        let mut pm = PageManager::new(8);
        pm.arm_first_touch();
        let h = pm.home_on_touch(VPage(1), NodeId(3));
        assert_eq!(h, NodeId(3));
        // Later touchers see the same home.
        assert_eq!(pm.home_on_touch(VPage(1), NodeId(5)), NodeId(3));
        assert_eq!(pm.first_touched(), 1);
    }

    #[test]
    fn static_assignment_wins_over_first_touch() {
        let mut pm = PageManager::new(8);
        pm.assign(VPage(2), NodeId(7));
        pm.arm_first_touch();
        assert_eq!(pm.home_on_touch(VPage(2), NodeId(0)), NodeId(7));
        assert_eq!(pm.first_touched(), 0);
    }

    #[test]
    fn unarmed_touch_still_fixes_home() {
        let mut pm = PageManager::new(2);
        assert_eq!(pm.home_on_touch(VPage(9), NodeId(1)), NodeId(1));
        assert_eq!(pm.home_of(VPage(9)), Some(NodeId(1)));
        assert_eq!(pm.first_touched(), 0, "not counted as first-touch");
    }

    #[test]
    fn home_of_unknown_page_is_none() {
        let pm = PageManager::new(2);
        assert_eq!(pm.home_of(VPage(0)), None);
        assert_eq!(pm.pages(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_home_panics() {
        PageManager::new(2).assign(VPage(0), NodeId(5));
    }
}
