//! ocean: eddy-current ocean simulation (SPLASH-2).
//!
//! The paper's input: a 258×258 ocean (256×256 interior points plus
//! boundary), 2-D partitioned into square-ish subgrids.
//!
//! Each time-step runs red-black Gauss-Seidel relaxation sweeps over
//! several 258×258 grids plus a small multigrid V-cycle. Interior work
//! is local; partition *boundaries* are remote. Horizontal boundaries
//! are contiguous rows (compact pages), but vertical boundaries stride
//! one full row (2064 bytes) per element — every boundary cell sits in
//! its own 32-byte block on (almost) its own page. The resulting remote
//! working set per node is both larger than the 32-KB block cache
//! (CC-NUMA thrashes; Figure 7 shows up to ~7× at b=1K) and spread over
//! far more pages than the 320-KB page cache holds (S-COMA thrashes
//! too). R-NUMA outperforms both but, as the paper notes, "block and
//! page traffic remain high"; only the 40-MB page cache of Figure 7
//! fully absorbs it.

use crate::Scale;
use rnuma::program::{Ctx, Region, Runner, Workload};
use rnuma_mem::addr::Va;

/// Bytes per grid element.
const ELEM: u64 = 8;
/// Instructions per stencil evaluation.
const THINK_PER_POINT: u64 = 10;
/// Number of full grids the solver sweeps per step (SPLASH-2 ocean
/// keeps ~25 grids; the relaxation phases cycle through this many).
const GRIDS: u64 = 12;

/// The ocean workload.
#[derive(Debug)]
pub struct Ocean {
    /// Grid side including boundary.
    side: u64,
    steps: u64,
}

impl Ocean {
    /// Creates the workload (paper: 258×258, a few time-steps).
    #[must_use]
    pub fn new(scale: Scale) -> Ocean {
        let side = match scale {
            Scale::Paper => 258,
            Scale::Small => 130,
            Scale::Tiny => 66,
        };
        Ocean {
            side,
            steps: scale.apply_iters(4),
        }
    }

    fn at(grid: Region, side: u64, row: u64, col: u64) -> Va {
        grid.elem(row * side + col, ELEM)
    }

    /// One red-black relaxation sweep over this CPU's subgrid.
    /// Reads the 5-point stencil, which pulls the neighbor subgrids'
    /// boundary rows/columns remotely.
    #[expect(
        clippy::too_many_arguments,
        reason = "a subgrid is its row and column bounds; bundling them would only rename the four numbers"
    )]
    fn sweep(
        ctx: &mut Ctx<'_>,
        grid: Region,
        side: u64,
        color: u64,
        r0: u64,
        r1: u64,
        c0: u64,
        c1: u64,
    ) {
        for row in r0..r1 {
            for col in c0..c1 {
                if (row + col) % 2 != color {
                    continue;
                }
                // 5-point stencil.
                ctx.read(Ocean::at(grid, side, row - 1, col));
                ctx.read(Ocean::at(grid, side, row + 1, col));
                ctx.read(Ocean::at(grid, side, row, col - 1));
                ctx.read(Ocean::at(grid, side, row, col + 1));
                let center = Ocean::at(grid, side, row, col);
                ctx.read(center);
                ctx.think(THINK_PER_POINT);
                ctx.write(center);
            }
        }
    }
}

impl Workload for Ocean {
    fn name(&self) -> &'static str {
        "ocean"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let side = self.side;
        let cpus = u64::from(r.cpus());
        // 2-D processor grid, as square as possible (8×4 for 32).
        let mut pr = (cpus as f64).sqrt() as u64;
        while cpus % pr != 0 {
            pr -= 1;
        }
        let pc = cpus / pr;
        let interior = side - 2;

        let grids: Vec<Region> = (0..GRIDS).map(|_| r.alloc(side * side * ELEM)).collect();

        // Subgrid bounds (interior coordinates 1..side-1) per CPU. CPUs
        // are placed on the processor grid in 2×2 node tiles, so both
        // horizontal (compact) and vertical (page-fragmented) partition
        // boundaries cross machine nodes — as on a real cluster.
        let bounds: Vec<(u64, u64, u64, u64)> = (0..cpus)
            .map(|cpu| {
                let (bi, bj) = if pr.is_multiple_of(2) && pc.is_multiple_of(2) {
                    let (node, local) = (cpu / 4, cpu % 4);
                    (
                        (node / (pc / 2)) * 2 + local / 2,
                        (node % (pc / 2)) * 2 + local % 2,
                    )
                } else {
                    (cpu / pc, cpu % pc)
                };
                let r0 = 1 + interior * bi / pr;
                let r1 = 1 + interior * (bi + 1) / pr;
                let c0 = 1 + interior * bj / pc;
                let c1 = 1 + interior * (bj + 1) / pc;
                (r0, r1, c0, c1)
            })
            .collect();

        // Owners initialize their subgrids in every array (first touch).
        let one_each: Vec<Vec<u64>> = (0..cpus).map(|c| vec![c]).collect();
        for &grid in &grids {
            r.parallel(&one_each, |ctx, _cpu, c| {
                let (r0, r1, c0, c1) = bounds[c as usize];
                for row in r0..r1 {
                    for col in c0..c1 {
                        ctx.write(Ocean::at(grid, side, row, col));
                    }
                }
            });
            r.barrier();
        }

        for _step in 0..self.steps {
            // Relaxation sweeps over each grid, red then black.
            for &grid in &grids {
                for color in 0..2 {
                    r.parallel(&one_each, |ctx, _cpu, c| {
                        let (r0, r1, c0, c1) = bounds[c as usize];
                        Ocean::sweep(ctx, grid, side, color, r0, r1, c0, c1);
                    });
                    r.barrier();
                }
            }
            // A coarse multigrid correction: restrict grid 0 into a
            // quarter-size region of grid 1 and relax it (reads span
            // 2×2 fine cells — more boundary traffic).
            r.parallel(&one_each, |ctx, _cpu, c| {
                let (r0, r1, c0, c1) = bounds[c as usize];
                for row in (r0..r1.saturating_sub(1)).step_by(2) {
                    for col in (c0..c1.saturating_sub(1)).step_by(2) {
                        ctx.read(Ocean::at(grids[0], side, row, col));
                        ctx.read(Ocean::at(grids[0], side, row + 1, col));
                        ctx.read(Ocean::at(grids[0], side, row, col + 1));
                        ctx.think(THINK_PER_POINT);
                        ctx.write(Ocean::at(grids[1], side, row / 2 + 1, col / 2 + 1));
                    }
                }
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
    fn ocean_has_large_remote_working_set() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Ocean::new(Scale::Tiny),
        );
        let m = &report.metrics;
        assert!(m.remote_fetches > 0);
        assert!(
            m.refetches > 0,
            "boundary reuse must overflow the block cache"
        );
    }

    #[test]
    fn ocean_boundaries_fragment_pages() {
        let report = run(
            MachineConfig::paper_base(Protocol::SComa {
                page_cache_bytes: 4 * 4096,
            }),
            &mut Ocean::new(Scale::Tiny),
        );
        assert!(
            report.metrics.os.page_replacements > 0,
            "column boundaries span many pages"
        );
    }
}
