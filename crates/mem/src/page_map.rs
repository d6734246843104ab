//! A dense map over per-page state, indexed by page number.
//!
//! R-NUMA keeps its bookkeeping per page: homes, page tables, refetch
//! counters, page-cache frames and the per-page sharing profile. The
//! workloads allocate pages densely from page 1, so every one of those
//! tables is a small, nearly full array over the page numbers a run
//! touches. [`PageMap`] is that array: a `Vec<Option<V>>` indexed
//! directly by [`VPage`], so a lookup is one bounds-checked load.
//!
//! * Inserting past the end grows the vector on a cold path to the next
//!   power of two above the page, so a run grows each table a few
//!   times at most.
//! * Memory grows with the highest page inserted, so that page is
//!   bounded by [`MAX_PAGES`]; inserting past it panics and names the
//!   page.
//! * Iteration runs in ascending page order whatever the insertion
//!   history, and two maps compare equal exactly when they hold the
//!   same entries.

use crate::addr::{VPage, MAX_PAGES};
use std::fmt;

/// A dense `VPage -> V` map; see the module docs.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::VPage;
/// use rnuma_mem::page_map::PageMap;
///
/// let mut m: PageMap<u32> = PageMap::new();
/// m.insert(VPage(7), 1);
/// *m.entry_or_default(VPage(2)) += 5;
/// assert_eq!(m.get(VPage(7)), Some(&1));
/// // Iteration is in ascending page order.
/// let pages: Vec<u64> = m.iter().map(|(p, _)| p.0).collect();
/// assert_eq!(pages, vec![2, 7]);
/// assert_eq!(m.remove(VPage(7)), Some(1));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone)]
pub struct PageMap<V> {
    /// One slot per page number below `slots.len()`; `None` is absent.
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for PageMap<V> {
    fn default() -> Self {
        PageMap::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for PageMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.iter().map(|(p, v)| (p.0, v)))
            .finish()
    }
}

/// Equal when both maps hold the same `(page, value)` entries; how far
/// each vector has grown does not matter.
impl<V: PartialEq> PartialEq for PageMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V> PageMap<V> {
    /// An empty map; allocates on first insert.
    #[must_use]
    pub const fn new() -> Self {
        PageMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `page`.
    #[inline]
    #[must_use]
    pub fn get(&self, page: VPage) -> Option<&V> {
        self.slots.get(page.0 as usize)?.as_ref()
    }

    /// A mutable reference to the value for `page`.
    #[inline]
    pub fn get_mut(&mut self, page: VPage) -> Option<&mut V> {
        self.slots.get_mut(page.0 as usize)?.as_mut()
    }

    /// `true` when `page` is present.
    #[inline]
    #[must_use]
    pub fn contains_key(&self, page: VPage) -> bool {
        self.get(page).is_some()
    }

    /// Inserts `page -> value`, returning the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics if `page` is at or past [`MAX_PAGES`].
    pub fn insert(&mut self, page: VPage, value: V) -> Option<V> {
        let i = self.index_for_insert(page);
        let prev = self.slots[i].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// The value for `page`, inserting `V::default()` first when absent.
    ///
    /// # Panics
    ///
    /// Panics if `page` is absent and at or past [`MAX_PAGES`].
    #[inline]
    pub fn entry_or_default(&mut self, page: VPage) -> &mut V
    where
        V: Default,
    {
        let i = self.index_for_insert(page);
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(V::default)
    }

    /// Removes `page`, returning its value.
    pub fn remove(&mut self, page: VPage) -> Option<V> {
        let prev = self.slots.get_mut(page.0 as usize)?.take();
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// Iterates over `(page, &value)` in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (VPage, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((VPage(i as u64), v.as_ref()?)))
    }

    /// Iterates over the values in ascending page order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().flatten()
    }

    /// The slot index of `page`, growing the vector to hold it first.
    #[inline]
    fn index_for_insert(&mut self, page: VPage) -> usize {
        let i = page.0 as usize;
        if i >= self.slots.len() {
            self.grow(page);
        }
        i
    }

    /// Grows the vector to the next power of two above `page`.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, page: VPage) {
        assert!(
            page.0 < MAX_PAGES,
            "page {page} is past the simulated address space ({MAX_PAGES} pages)"
        );
        let len = (page.0 as usize + 1).next_power_of_two();
        self.slots.resize_with(len, || None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: PageMap<u32> = PageMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(VPage(1), 10), None);
        assert_eq!(m.insert(VPage(2), 20), None);
        assert_eq!(m.insert(VPage(1), 11), Some(10));
        assert_eq!(m.get(VPage(1)), Some(&11));
        assert_eq!(m.get(VPage(3)), None);
        assert_eq!(m.get(VPage(u64::MAX)), None, "far pages read absent");
        assert_eq!(m.remove(VPage(1)), Some(11));
        assert_eq!(m.remove(VPage(1)), None);
        assert_eq!(m.remove(VPage(1 << 40)), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(VPage(2)));
        *m.get_mut(VPage(2)).unwrap() += 1;
        assert_eq!(m.get(VPage(2)), Some(&21));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: PageMap<u64> = PageMap::new();
        for i in (0..10_000).rev() {
            m.insert(VPage(i), i * 3);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000 {
            assert_eq!(m.get(VPage(i)), Some(&(i * 3)), "page {i}");
        }
        assert_eq!(m.slots.len(), 16_384, "grown to the next power of two");
    }

    #[test]
    fn entry_or_default_inserts_once() {
        let mut m: PageMap<u64> = PageMap::new();
        *m.entry_or_default(VPage(5)) += 1;
        *m.entry_or_default(VPage(5)) += 1;
        assert_eq!(m.get(VPage(5)), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_ascending_page_order() {
        let mut m: PageMap<u64> = PageMap::new();
        for p in [90u64, 3, 64, 0, 17] {
            m.insert(VPage(p), p * 2);
        }
        m.remove(VPage(64));
        let seen: Vec<(u64, u64)> = m.iter().map(|(p, &v)| (p.0, v)).collect();
        assert_eq!(seen, vec![(0, 0), (3, 6), (17, 34), (90, 180)]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![0, 6, 34, 180]);
    }

    #[test]
    fn equality_ignores_growth() {
        let mut a: PageMap<u8> = PageMap::new();
        let mut b: PageMap<u8> = PageMap::new();
        a.insert(VPage(1), 7);
        b.insert(VPage(1), 7);
        b.insert(VPage(1000), 1);
        assert_ne!(a, b);
        b.remove(VPage(1000));
        assert_eq!(a, b, "same entries, different vector lengths");
    }

    #[test]
    fn last_page_below_the_bound_fits() {
        let mut m: PageMap<u8> = PageMap::new();
        m.insert(VPage(MAX_PAGES - 1), 1);
        assert_eq!(m.slots.len() as u64, MAX_PAGES);
        assert_eq!(m.get(VPage(MAX_PAGES - 1)), Some(&1));
    }

    #[test]
    #[should_panic(expected = "page vp:1048576 is past the simulated address space")]
    fn insert_at_max_pages_panics() {
        let mut m: PageMap<u8> = PageMap::new();
        m.insert(VPage(MAX_PAGES), 1);
    }
}
