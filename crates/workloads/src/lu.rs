//! lu: blocked dense LU factorization (SPLASH-2).
//!
//! The paper's input: a 512×512 matrix in 16×16 blocks (a 32×32 grid of
//! 2-KB blocks), blocks 2-D-scattered over the CPUs.
//!
//! Step `k` factors the diagonal block, updates the perimeter row and
//! column blocks (each reading the diagonal), then updates every
//! interior block `(i, j)` as `A[i][j] -= A[i][k] * A[k][j]` — reading
//! one perimeter-column and one perimeter-row block. Perimeter blocks
//! are therefore *reuse* data: read by every interior owner in their row
//! or column, over and over within a step. The per-CPU reuse working set
//! (a strip of perimeter blocks) exceeds the 32-KB block cache early in
//! the run, which is why CC-NUMA suffers badly (Figure 7's b=1K bar hits
//! ~7×), while the 320-KB page cache holds it comfortably — S-COMA and
//! R-NUMA shine. The trailing steps shrink the active block set, giving
//! the load imbalance the paper blames for lu's elevated R-NUMA-SOFT
//! sensitivity (Section 5.5).

use crate::Scale;
use rnuma::program::{Ctx, Region, Runner, Workload};

/// Block side in elements (paper: 16×16 doubles = 2 KB).
const B: u64 = 16;
/// Bytes per matrix element.
const ELEM: u64 = 8;
/// Instructions per fused multiply-add.
const THINK_PER_FMA: u64 = 4;

/// The lu workload.
#[derive(Debug)]
pub struct Lu {
    /// Matrix side in elements.
    n: u64,
}

impl Lu {
    /// Creates the workload (paper: 512×512).
    #[must_use]
    pub fn new(scale: Scale) -> Lu {
        let n = match scale {
            Scale::Paper => 512,
            Scale::Small => 256,
            Scale::Tiny => 128,
        };
        Lu { n }
    }

    /// Blocks per matrix side.
    #[must_use]
    pub fn grid(&self) -> u64 {
        self.n / B
    }

    /// The SPLASH-2 2-D scatter: block (i, j) belongs to the CPU at
    /// position `(i mod pr, j mod pc)` of a `pr × pc` processor grid.
    ///
    /// CPU ids are assigned so that each SMP node's four CPUs occupy a
    /// 2×2 tile of the grid: both row-perimeter and column-perimeter
    /// reuse then crosses machine nodes, as it does on a real cluster
    /// where grid neighbors land on different boxes.
    fn owner(grid_i: u64, grid_j: u64, pr: u64, pc: u64) -> u64 {
        let (gi, gj) = (grid_i % pr, grid_j % pc);
        if pr.is_multiple_of(2) && pc.is_multiple_of(2) {
            let node = (gi / 2) * (pc / 2) + (gj / 2);
            let local = (gi % 2) * 2 + (gj % 2);
            node * 4 + local
        } else {
            gi * pc + gj
        }
    }

    /// Base address of block (i, j); blocks are stored contiguously
    /// (block-major), the SPLASH-2 "improved" layout.
    fn block(m: Region, grid: u64, i: u64, j: u64) -> rnuma_mem::addr::Va {
        m.elem((i * grid + j) * B * B, ELEM)
    }

    /// Reads an entire 16×16 block.
    fn read_block(ctx: &mut Ctx<'_>, base: rnuma_mem::addr::Va) {
        for w in 0..(B * B) {
            ctx.read(rnuma_mem::addr::Va(base.0 + w * ELEM));
        }
    }

    /// The dgemm-like interior update: `dst -= a * b`, charged per FMA,
    /// touching `dst` once per element and re-reading `a`/`b` per
    /// element row/column (registers hold the rest, as in the tuned
    /// SPLASH-2 kernel).
    fn update_block(
        ctx: &mut Ctx<'_>,
        dst: rnuma_mem::addr::Va,
        a: rnuma_mem::addr::Va,
        b: rnuma_mem::addr::Va,
    ) {
        Lu::read_block(ctx, a);
        Lu::read_block(ctx, b);
        for w in 0..(B * B) {
            let va = rnuma_mem::addr::Va(dst.0 + w * ELEM);
            ctx.read(va);
            ctx.think(THINK_PER_FMA * B / 4);
            ctx.write(va);
        }
    }
}

impl Workload for Lu {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let grid = self.grid();
        let cpus = u64::from(r.cpus());
        // Processor grid: as square as possible (8×4 for 32 CPUs).
        let mut pr = (cpus as f64).sqrt() as u64;
        while cpus % pr != 0 {
            pr -= 1;
        }
        let pc = cpus / pr;
        let matrix = r.alloc(self.n * self.n * ELEM);

        // Owners initialize their blocks: first touch homes each block's
        // pages at its owner.
        let all_blocks: Vec<Vec<u64>> = (0..cpus)
            .map(|cpu| {
                (0..grid * grid)
                    .filter(|&b| Lu::owner(b / grid, b % grid, pr, pc) == cpu)
                    .collect()
            })
            .collect();
        r.parallel(&all_blocks, |ctx, _cpu, b| {
            let base = Lu::block(matrix, grid, b / grid, b % grid);
            for w in 0..(B * B) {
                ctx.write(rnuma_mem::addr::Va(base.0 + w * ELEM));
            }
        });
        r.barrier();

        for k in 0..grid {
            // Diagonal factorization by its owner.
            let diag_items: Vec<Vec<u64>> = (0..cpus)
                .map(|cpu| {
                    if Lu::owner(k, k, pr, pc) == cpu {
                        vec![k]
                    } else {
                        vec![]
                    }
                })
                .collect();
            r.parallel(&diag_items, |ctx, _cpu, k| {
                let base = Lu::block(matrix, grid, k, k);
                for w in 0..(B * B) {
                    let va = rnuma_mem::addr::Va(base.0 + w * ELEM);
                    ctx.read(va);
                    ctx.think(THINK_PER_FMA * B / 2);
                    ctx.write(va);
                }
            });
            r.barrier();

            // Perimeter row and column updates read the diagonal block.
            let perim: Vec<Vec<u64>> = (0..cpus)
                .map(|cpu| {
                    let mut items = Vec::new();
                    for t in (k + 1)..grid {
                        if Lu::owner(t, k, pr, pc) == cpu {
                            items.push(t * 2); // column block (t, k)
                        }
                        if Lu::owner(k, t, pr, pc) == cpu {
                            items.push(t * 2 + 1); // row block (k, t)
                        }
                    }
                    items
                })
                .collect();
            r.parallel(&perim, |ctx, _cpu, coded| {
                let t = coded / 2;
                let diag = Lu::block(matrix, grid, k, k);
                let dst = if coded % 2 == 0 {
                    Lu::block(matrix, grid, t, k)
                } else {
                    Lu::block(matrix, grid, k, t)
                };
                Lu::update_block(ctx, dst, diag, diag);
            });
            r.barrier();

            // Interior updates: (i, j) reads perimeter (i, k) and (k, j).
            let interior: Vec<Vec<u64>> = (0..cpus)
                .map(|cpu| {
                    let mut items = Vec::new();
                    for i in (k + 1)..grid {
                        for j in (k + 1)..grid {
                            if Lu::owner(i, j, pr, pc) == cpu {
                                items.push(i * grid + j);
                            }
                        }
                    }
                    items
                })
                .collect();
            r.parallel(&interior, |ctx, _cpu, coded| {
                let (i, j) = (coded / grid, coded % grid);
                let dst = Lu::block(matrix, grid, i, j);
                let a = Lu::block(matrix, grid, i, k);
                let b = Lu::block(matrix, grid, k, j);
                Lu::update_block(ctx, dst, a, b);
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
    fn owner_scatter_covers_all_cpus() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..8 {
            for j in 0..8 {
                seen.insert(Lu::owner(i, j, 8, 4));
            }
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn lu_generates_reuse_refetches_in_ccnuma() {
        // Tiny inputs fit a 32-KB block cache (paper-scale inputs do
        // not); a 1-KB cache shows the conflict/capacity refetches.
        let report = run(
            MachineConfig::paper_base(Protocol::CcNuma {
                block_cache_bytes: Some(1024),
            }),
            &mut Lu::new(Scale::Tiny),
        );
        let m = &report.metrics;
        assert!(m.remote_fetches > 0);
        assert!(
            m.refetches > 0,
            "perimeter re-reads must overflow the block cache"
        );
    }

    #[test]
    fn lu_rnuma_relocates_reuse_pages() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_rnuma()),
            &mut Lu::new(Scale::Tiny),
        );
        assert!(
            report.metrics.relocation_interrupts > 0,
            "lu's perimeter blocks are reuse pages"
        );
    }
}
