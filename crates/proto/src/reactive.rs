//! The R-NUMA reactive refetch counters.
//!
//! "We assume that each R-NUMA RAD maintains a set of per-page counters
//! for its node and generates an interrupt when the count exceeds a
//! preset threshold" (Section 3.1). [`RefetchCounters`] is that hardware:
//! one saturating counter per remote page, compared against the
//! relocation threshold `T` on every capacity/conflict refetch.

use rnuma_mem::addr::VPage;
use rnuma_mem::page_map::PageMap;

/// Per-node, per-page refetch counters with a relocation threshold.
///
/// # Example
///
/// ```
/// use rnuma_mem::addr::VPage;
/// use rnuma_proto::reactive::RefetchCounters;
///
/// let mut counters = RefetchCounters::new(3);
/// assert!(!counters.record(VPage(1)));
/// assert!(!counters.record(VPage(1)));
/// assert!(counters.record(VPage(1)), "third refetch crosses T=3");
/// ```
#[derive(Clone, Debug)]
pub struct RefetchCounters {
    threshold: u32,
    counts: PageMap<u32>,
    interrupts: u64,
}

impl RefetchCounters {
    /// Creates counters with relocation threshold `threshold`
    /// (the paper's default is 64).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero — a zero threshold would relocate
    /// every page on its first refetch *before* any count existed, which
    /// the paper's model (`T >= 1`) excludes.
    #[must_use]
    pub fn new(threshold: u32) -> RefetchCounters {
        assert!(threshold > 0, "relocation threshold must be at least 1");
        RefetchCounters {
            threshold,
            counts: PageMap::new(),
            interrupts: 0,
        }
    }

    /// Records one refetch for `page`. Returns `true` when the count
    /// reaches the threshold — the RAD raises the relocation interrupt
    /// and the counter resets (the page is about to leave CC-NUMA mode).
    pub fn record(&mut self, page: VPage) -> bool {
        let count = self.counts.entry_or_default(page);
        *count = count.saturating_add(1);
        if *count >= self.threshold {
            self.counts.remove(page);
            self.interrupts += 1;
            true
        } else {
            false
        }
    }

    /// Current count for `page` (0 when never refetched).
    #[must_use]
    pub fn count(&self, page: VPage) -> u32 {
        self.counts.get(page).copied().unwrap_or(0)
    }

    /// Clears the counter for `page` (page replaced or relocated by
    /// other means; its history no longer applies).
    pub fn reset(&mut self, page: VPage) {
        self.counts.remove(page);
    }

    /// Number of relocation interrupts raised.
    #[must_use]
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_page() {
        let mut c = RefetchCounters::new(64);
        for _ in 0..10 {
            assert!(!c.record(VPage(1)));
        }
        c.record(VPage(2));
        assert_eq!(c.count(VPage(1)), 10);
        assert_eq!(c.count(VPage(2)), 1);
        assert_eq!(c.count(VPage(3)), 0);
    }

    #[test]
    fn threshold_crossing_raises_interrupt_and_resets() {
        let mut c = RefetchCounters::new(64);
        for i in 1..64 {
            assert!(!c.record(VPage(5)), "refetch {i} below threshold");
        }
        assert!(c.record(VPage(5)), "64th refetch crosses T=64");
        assert_eq!(c.interrupts(), 1);
        assert_eq!(c.count(VPage(5)), 0, "counter cleared after interrupt");
        // The page can accumulate again from scratch (it may have been
        // evicted from the page cache and returned to CC-NUMA mode).
        assert!(!c.record(VPage(5)));
    }

    #[test]
    fn threshold_one_relocates_on_first_refetch() {
        let mut c = RefetchCounters::new(1);
        assert!(c.record(VPage(9)));
        assert_eq!(c.interrupts(), 1);
    }

    #[test]
    fn reset_forgets_history() {
        let mut c = RefetchCounters::new(4);
        c.record(VPage(1));
        c.record(VPage(1));
        c.reset(VPage(1));
        assert_eq!(c.count(VPage(1)), 0);
        assert!(!c.record(VPage(1)));
        assert_eq!(c.interrupts(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_panics() {
        let _ = RefetchCounters::new(0);
    }
}
