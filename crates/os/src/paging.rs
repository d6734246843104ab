//! Global page homes and first-touch placement.
//!
//! The paper's systems allocate pages "on the same node as the processor
//! that uses them" via a first-touch migration policy (Section 2.1): the
//! first request for each page fixes its home at the requester. The
//! reproduction applies the policy's steady-state effect directly — the
//! first *timed* toucher of a page becomes its home — because the
//! (untimed) initialization phase would otherwise home every page at the
//! master CPU's node.

use rnuma_mem::addr::{NodeId, VPage};
use rnuma_mem::page_map::PageMap;

/// Where each shared virtual page lives.
#[derive(Clone, Debug, Default)]
pub struct PageManager {
    homes: PageMap<NodeId>,
}

impl PageManager {
    /// Creates a manager with no page homed yet.
    #[must_use]
    pub fn new() -> PageManager {
        PageManager::default()
    }

    /// The home of `page` as seen by `toucher`'s reference, fixing it at
    /// `toucher` on the page's first touch.
    pub fn home_on_touch(&mut self, page: VPage, toucher: NodeId) -> NodeId {
        if let Some(&h) = self.homes.get(page) {
            return h;
        }
        self.homes.insert(page, toucher);
        toucher
    }

    /// The home of `page`, if fixed.
    #[must_use]
    pub fn home_of(&self, page: VPage) -> Option<NodeId> {
        self.homes.get(page).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_fixes_home_at_first_requester() {
        let mut pm = PageManager::new();
        let h = pm.home_on_touch(VPage(1), NodeId(3));
        assert_eq!(h, NodeId(3));
        // Later touchers see the same home.
        assert_eq!(pm.home_on_touch(VPage(1), NodeId(5)), NodeId(3));
    }

    #[test]
    fn unarmed_touch_still_fixes_home() {
        // No directive precedes the touch: the toucher still becomes home.
        let mut pm = PageManager::new();
        assert_eq!(pm.home_on_touch(VPage(9), NodeId(1)), NodeId(1));
        assert_eq!(pm.home_of(VPage(9)), Some(NodeId(1)));
    }

    #[test]
    fn home_of_unknown_page_is_none() {
        let pm = PageManager::new();
        assert_eq!(pm.home_of(VPage(0)), None);
    }
}
