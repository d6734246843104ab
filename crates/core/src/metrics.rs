//! Run metrics and per-page profiles.
//!
//! Everything the paper's evaluation reports is derived from these
//! counters: execution time (Figures 6–9), block refetches and page
//! replacements (Table 4), and the per-page refetch distribution
//! (Figure 5).

use rnuma_mem::addr::{NodeId, NodeMask, VPage};
use rnuma_mem::page_map::PageMap;
use rnuma_os::OsStats;
use rnuma_sim::{Cdf, Cycles};
use std::fmt;

/// Sharing profile of one virtual page, accumulated over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageProfile {
    /// Nodes that referenced the page at all.
    pub accessors: NodeMask,
    /// Nodes that wrote the page.
    pub writers: NodeMask,
    /// Directory-detected capacity/conflict refetches of this page's
    /// blocks (all nodes).
    pub refetches: u64,
    /// Remote fetches (requests that crossed the network) for this page.
    pub remote_fetches: u64,
}

impl PageProfile {
    /// `true` when more than one node touched the page (it is "remote"
    /// for at least one of them).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        self.accessors.count() >= 2
    }

    /// The paper's Table-4 classification: the page incurs both read and
    /// write sharing traffic (it is shared and somebody writes it).
    #[must_use]
    pub fn is_read_write_shared(&self) -> bool {
        self.is_shared() && !self.writers.is_empty()
    }
}

/// Aggregated results of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Loads retired.
    pub reads: u64,
    /// Stores retired.
    pub writes: u64,
    /// References satisfied inside the issuing CPU's cache.
    pub l1_hits: u64,
    /// L1-miss page translations satisfied by the per-CPU MRU entry
    /// (no page-table walk).
    pub mru_translation_hits: u64,
    /// References that needed a node-bus transaction.
    pub l1_misses: u64,
    /// Misses supplied cache-to-cache by a peer L1 (MOESI owner).
    pub c2c_transfers: u64,
    /// Fills from node-local memory (page homed here).
    pub local_fills: u64,
    /// Fills satisfied by the RAD's block cache.
    pub block_cache_hits: u64,
    /// Fills satisfied by the S-COMA page cache.
    pub page_cache_hits: u64,
    /// Requests sent to a remote home (block fetches and upgrades).
    pub remote_fetches: u64,
    /// Directory-detected capacity/conflict refetches.
    pub refetches: u64,
    /// R-NUMA relocation interrupts taken.
    pub relocation_interrupts: u64,
    /// Merged OS paging statistics (all nodes).
    pub os: OsStats,
    /// Execution time: the latest CPU clock at the end of the run.
    pub exec_cycles: Cycles,
    /// Per-CPU finishing times.
    pub per_cpu_cycles: Vec<Cycles>,
    /// Total messages injected into the interconnect.
    pub net_messages: u64,
    /// Total queueing delay at network interfaces.
    pub ni_wait: Cycles,
    /// Per-page sharing/refetch profiles, in ascending page order.
    pub pages: PageMap<PageProfile>,
}

impl Metrics {
    /// Total references retired.
    #[must_use]
    pub fn references(&self) -> u64 {
        self.reads + self.writes
    }

    /// L1 hit fraction (0 when no references).
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        if self.references() == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.references() as f64
        }
    }

    /// Pages accessed by at least two nodes (each is remote to somebody).
    #[must_use]
    pub fn shared_pages(&self) -> usize {
        self.pages.values().filter(|p| p.is_shared()).count()
    }

    /// The Figure-5 distribution: refetch weights per shared page.
    #[must_use]
    pub fn refetch_cdf(&self) -> Cdf {
        let weights: Vec<u64> = self
            .pages
            .values()
            .filter(|p| p.is_shared())
            .map(|p| p.refetches)
            .collect();
        Cdf::from_weights("refetches-by-remote-page", weights)
    }

    /// The Table-4 left column: fraction of refetches due to pages with
    /// both read and write sharing traffic (0 when no refetches).
    #[must_use]
    pub fn rw_page_refetch_fraction(&self) -> f64 {
        let total: u64 = self.pages.values().map(|p| p.refetches).sum();
        if total == 0 {
            return 0.0;
        }
        let rw: u64 = self
            .pages
            .values()
            .filter(|p| p.is_read_write_shared())
            .map(|p| p.refetches)
            .sum();
        rw as f64 / total as f64
    }

    /// Records that `node` touched `page` (with `wrote` set for stores).
    ///
    /// # Panics
    ///
    /// Panics if `page` is new and at or past
    /// [`MAX_PAGES`](rnuma_mem::addr::MAX_PAGES).
    #[inline]
    pub fn touch_page(&mut self, page: VPage, node: NodeId, wrote: bool) {
        let p = self.pages.entry_or_default(page);
        p.accessors.insert(node);
        if wrote {
            p.writers.insert(node);
        }
    }

    /// Records a directory-detected refetch of `page`.
    pub fn record_refetch(&mut self, page: VPage) {
        self.refetches += 1;
        self.pages.entry_or_default(page).refetches += 1;
    }

    /// Records a remote fetch for `page`.
    pub fn record_remote_fetch(&mut self, page: VPage) {
        self.remote_fetches += 1;
        self.pages.entry_or_default(page).remote_fetches += 1;
    }

    /// The per-page profiles in ascending page order, copied out of
    /// [`Metrics::pages`] (which already iterates in that order).
    #[must_use]
    pub fn pages_sorted(&self) -> Vec<(VPage, PageProfile)> {
        self.pages.iter().map(|(k, p)| (k, *p)).collect()
    }

    /// `true` when `other` is a bit-identical replay of this run: every
    /// field matches — event counters, clocks, OS statistics, network
    /// figures and per-page profiles. It is the derived `==`, so a field
    /// added later joins the comparison by construction.
    ///
    /// This is the determinism contract between execution modes (live,
    /// batched replay, parallel driver). The page maps compare by
    /// content: a [`PageMap`] has no layout of its own to differ in, only
    /// its entries in page order.
    #[must_use]
    pub fn replay_eq(&self, other: &Metrics) -> bool {
        self == other
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "exec time       : {}", self.exec_cycles)?;
        writeln!(
            f,
            "references      : {} ({} rd, {} wr), L1 hit {:.1}%",
            self.references(),
            self.reads,
            self.writes,
            self.l1_hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "fills           : local {}, block$ {}, page$ {}, c2c {}",
            self.local_fills, self.block_cache_hits, self.page_cache_hits, self.c2c_transfers
        )?;
        writeln!(
            f,
            "remote traffic  : {} fetches, {} refetches, {} msgs",
            self.remote_fetches, self.refetches, self.net_messages
        )?;
        writeln!(
            f,
            "paging          : {} ({} relocation interrupts)",
            self.os, self.relocation_interrupts
        )?;
        write!(
            f,
            "pages           : {} tracked, {} shared",
            self.pages.len(),
            self.shared_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_profile_classification() {
        let private = PageProfile {
            accessors: NodeMask::single(NodeId(0)),
            ..PageProfile::default()
        };
        assert!(!private.is_shared());
        assert!(!private.is_read_write_shared());
        let mut both = private.accessors;
        both.insert(NodeId(1));
        let read_shared = PageProfile {
            accessors: both,
            ..private
        };
        assert!(read_shared.is_shared());
        assert!(!read_shared.is_read_write_shared(), "read-only sharing");
        let rw_shared = PageProfile {
            writers: NodeMask::single(NodeId(1)),
            ..read_shared
        };
        assert!(rw_shared.is_read_write_shared());
    }

    #[test]
    fn touch_and_refetch_bookkeeping() {
        let mut m = Metrics::default();
        m.touch_page(VPage(1), NodeId(0), false);
        m.touch_page(VPage(1), NodeId(2), true);
        m.record_refetch(VPage(1));
        m.record_refetch(VPage(1));
        m.record_remote_fetch(VPage(1));
        let p = *m.pages.get(VPage(1)).expect("page 1 has a profile");
        assert_eq!(p.refetches, 2);
        assert_eq!(p.remote_fetches, 1);
        assert!(p.is_read_write_shared());
        assert_eq!(m.refetches, 2);
        assert_eq!(m.remote_fetches, 1);
    }

    #[test]
    fn rw_fraction_weights_by_refetches() {
        let mut m = Metrics::default();
        // RW-shared page with 3 refetches.
        m.touch_page(VPage(1), NodeId(0), false);
        m.touch_page(VPage(1), NodeId(1), true);
        for _ in 0..3 {
            m.record_refetch(VPage(1));
        }
        // RO-shared page with 1 refetch.
        m.touch_page(VPage(2), NodeId(0), false);
        m.touch_page(VPage(2), NodeId(1), false);
        m.record_refetch(VPage(2));
        assert!((m.rw_page_refetch_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rw_fraction_empty_is_zero() {
        assert_eq!(Metrics::default().rw_page_refetch_fraction(), 0.0);
    }

    #[test]
    fn cdf_only_counts_shared_pages() {
        let mut m = Metrics::default();
        m.touch_page(VPage(1), NodeId(0), false); // private
        m.touch_page(VPage(2), NodeId(0), false);
        m.touch_page(VPage(2), NodeId(1), false); // shared
        m.record_refetch(VPage(2));
        let cdf = m.refetch_cdf();
        assert_eq!(cdf.contributors(), 1);
        assert_eq!(cdf.total(), 1);
    }

    #[test]
    fn l1_hit_rate_is_hits_over_references() {
        let m = Metrics {
            reads: 80,
            writes: 20,
            l1_hits: 90,
            ..Metrics::default()
        };
        assert!((m.l1_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(Metrics::default().l1_hit_rate(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let m = Metrics::default();
        let s = m.to_string();
        assert!(s.contains("exec time"));
        assert!(s.contains("remote traffic"));
    }
}
