//! barnes: Barnes-Hut hierarchical N-body simulation (SPLASH-2).
//!
//! The paper's input: 16 K particles.
//!
//! The force phase dominates: every particle traversal starts at the
//! octree root and opens cells until the multipole approximation is
//! acceptable, then touches a handful of leaf bodies. The *upper tree
//! levels* are read by every CPU for every body — a small, intensely
//! reused remote set that overflows the 32-KB block cache but fits
//! easily in the 320-KB page cache. The *leaf/body* data is vast and
//! touched sparsely. This is R-NUMA's best case (Section 5.2): it
//! relocates the hot tree pages and "virtually eliminates all of the
//! refetches and replacements", beating both CC-NUMA (which thrashes
//! its block cache on the hot set) and S-COMA (whose page cache is
//! polluted by the cold bodies and replaces constantly).

use crate::Scale;
use rnuma::program::{Runner, Workload};
use rnuma_sim::DetRng;

/// Bytes per tree cell record (mass, center of mass, 8 child links).
const CELL: u64 = 96;
/// Bytes per body (position, velocity, acceleration).
const BODY: u64 = 72;
/// Instructions per opened cell (multipole acceptance test + moments).
const THINK_PER_CELL: u64 = 20;
/// Instructions per body-body interaction.
const THINK_PER_BODY: u64 = 16;

/// The barnes workload.
#[derive(Debug)]
pub struct Barnes {
    bodies: u64,
    iterations: u64,
    seed: u64,
}

impl Barnes {
    /// Creates the workload (paper: 16 K particles).
    #[must_use]
    pub fn new(scale: Scale) -> Barnes {
        Barnes {
            bodies: scale.apply(16 * 1024),
            iterations: 2,
            seed: 0xBA24_0001,
        }
    }
}

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "barnes"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let n = self.bodies;
        // Octree: levels of 8^d cells; ~n/3 internal cells in total.
        // Level sizes: 1, 8, 64, 512, 4096 ... capped by the body count.
        let mut level_sizes = Vec::new();
        let mut total_cells = 0u64;
        let mut width = 1u64;
        while total_cells + width < n / 2 {
            level_sizes.push(width);
            total_cells += width;
            width *= 8;
        }
        let cells = r.alloc(total_cells * CELL);
        let bodies = r.alloc(n * BODY);

        // Host-side tree topology: cell k at level d covers a spatial
        // octant; a body's traversal opens one cell per level along its
        // path plus the siblings of the path (the neighbor octants that
        // fail the opening criterion are still *read*).
        let mut rng = DetRng::seeded(self.seed);
        let level_base: Vec<u64> = level_sizes
            .iter()
            .scan(0u64, |acc, &w| {
                let base = *acc;
                *acc += w;
                Some(base)
            })
            .collect();
        // Each body's traversal jitter. The cell a body opens at depth
        // `d` is its *spatial* cell (bodies are stored in tree order, so
        // it follows the index) plus this small jitter — adjacent bodies
        // descend through the same upper-tree cells and nearby subtrees.
        let paths: Vec<u64> = (0..n).map(|_| rng.range_u64(0, u64::MAX / 2)).collect();
        // Interaction partners: mostly nearby bodies, plus one far
        // body per traversal (cell-opening pulls in distant leaves) —
        // the sparse cold traffic that pollutes the S-COMA page cache.
        let partners: Vec<[u64; 8]> = (0..n)
            .map(|i| {
                let mut row = [0u64; 8];
                for (k, slot) in row.iter_mut().enumerate() {
                    *slot = if k >= 7 {
                        rng.range_u64(0, n)
                    } else {
                        let span = 256.min(n);
                        let lo = i.saturating_sub(span / 2).min(n - span);
                        lo + ((paths[i as usize] >> (k * 3)) % span)
                    };
                }
                row
            })
            .collect();

        let items = r.block_partition(n);

        // Body initialization (first touch homes body pages at owners).
        // Tree cells are written by the CPUs that would build that
        // subtree: cell c at level d is built by the owner of the bodies
        // under it — approximated by striping cells across CPUs by
        // octant index.
        r.parallel(&items, |ctx, _cpu, i| {
            ctx.write_words(bodies.elem(i, BODY), 3);
        });
        r.barrier();
        // Cells are owned by the CPU whose spatial range covers them:
        // within each level, contiguous runs of octants belong to the
        // CPU owning the bodies beneath. Deep cells are therefore
        // built, refreshed, and mostly read by one CPU; only the top
        // levels are globally shared.
        let cpus = u64::from(r.cpus());
        let cell_owner = |c: u64| -> u64 {
            let mut level = 0usize;
            let mut base = 0u64;
            while level + 1 < level_base.len() && c >= level_base[level + 1] {
                base = level_base[level + 1];
                level += 1;
            }
            let width = level_sizes[level];
            let along = c - base;
            (along * cpus / width).min(cpus - 1)
        };
        let cell_items: Vec<Vec<u64>> = {
            let mut lists: Vec<Vec<u64>> = vec![Vec::new(); cpus as usize];
            for c in 0..total_cells {
                lists[cell_owner(c) as usize].push(c);
            }
            lists
        };
        r.parallel(&cell_items, |ctx, _cpu, c| {
            ctx.write_words(cells.elem(c, CELL), 4);
        });
        r.barrier();

        for _ in 0..self.iterations {
            // Force computation: each body's traversal. The multipole
            // acceptance criterion makes every body read *all* coarse
            // cells (they summarize distant space — the globally hot
            // reuse set), a ring of mid-level cells around and away from
            // its own octant, and only its nearest deep cells.
            r.parallel(&items, |ctx, _cpu, i| {
                let path = paths[i as usize];
                for (d, (&base, &width)) in level_base.iter().zip(level_sizes.iter()).enumerate() {
                    let spatial = i * width / n;
                    let jitter = (path >> (d * 3)) % 3;
                    // Cells read at this level: everything coarse, a
                    // spread ring mid-tree, a local neighborhood deep.
                    let reads: u64 = match width {
                        0..=8 => width, // all coarse cells
                        9..=64 => 24,   // distant-octant ring
                        65..=512 => 24, // mixed near/far ring
                        _ => 4,         // nearest subtrees only
                    };
                    let stride = (width / reads.max(1)).max(1);
                    for k in 0..reads {
                        let c = if width <= 512 {
                            // Spread across the level: distant octants.
                            base + (spatial + jitter + k * stride) % width
                        } else {
                            // Deep: immediate spatial neighbors.
                            base + (spatial + jitter + k) % width
                        };
                        ctx.read_words(cells.elem(c, CELL), 8);
                        ctx.think(THINK_PER_CELL);
                    }
                }
                // Near-field: read partner bodies.
                for &j in &partners[i as usize] {
                    ctx.read_words(bodies.elem(j, BODY), 3);
                    ctx.think(THINK_PER_BODY);
                }
                // Update own acceleration.
                ctx.update(bodies.elem(i, BODY));
            });
            r.barrier();

            // Tree-moment refresh: cell owners rewrite their cells
            // (invalidating the replicated copies — the read-write
            // sharing that makes barnes 97% RW pages in Table 4).
            r.parallel(&cell_items, |ctx, _cpu, c| {
                ctx.update(cells.elem(c, CELL));
                ctx.think(THINK_PER_CELL);
            });
            r.barrier();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuma::config::{MachineConfig, Protocol};
    use rnuma::experiment::run;

    #[test]
    fn barnes_has_hot_tree_pages() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Barnes::new(Scale::Tiny),
        );
        let m = &report.metrics;
        assert!(m.refetches > 0, "hot cells must thrash the block cache");
        // A small fraction of pages carries most refetches (Figure 5).
        let cdf = m.refetch_cdf();
        if cdf.total() > 100 {
            assert!(
                cdf.weight_of_top(0.3) > 0.5,
                "hot set should dominate, got {:.2}",
                cdf.weight_of_top(0.3)
            );
        }
    }

    #[test]
    fn barnes_rw_pages_dominate_refetches() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Barnes::new(Scale::Tiny),
        );
        // Table 4: 97% of barnes refetches are to read-write pages.
        assert!(
            report.metrics.rw_page_refetch_fraction() > 0.5,
            "got {:.2}",
            report.metrics.rw_page_refetch_fraction()
        );
    }

    #[test]
    fn barnes_rnuma_relocates_the_hot_set() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_rnuma()),
            &mut Barnes::new(Scale::Tiny),
        );
        assert!(report.metrics.relocation_interrupts > 0);
    }
}
