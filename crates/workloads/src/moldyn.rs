//! moldyn: CHARMM-like molecular dynamics (shared-memory port).
//!
//! The paper's input: 2048 particles, 15 iterations.
//!
//! Each iteration evaluates pairwise forces over a precomputed neighbor
//! list and then integrates positions. Particles are block-partitioned;
//! forces are owner-accumulated (each CPU processes the pairs whose
//! first particle it owns, reading both particles' coordinates). The
//! whole coordinate set is only ~50 KB, but every node reads most of it
//! every iteration: the per-node remote working set (~40-90 KB)
//! overflows the 32-KB block cache — steady capacity refetches — while
//! the complete remote page set fits easily in the 320-KB page cache.
//! This is the paper's S-COMA showcase (Figure 6: CC-NUMA ≈ 1.8×,
//! S-COMA ≈ 1.05×): "the page cache can capture the complete set of
//! remote pages", and R-NUMA "simply relocates these pages into the
//! page cache and performs much like S-COMA".

use crate::Scale;
use rnuma::program::{Runner, Workload};
use rnuma_sim::DetRng;

/// Neighbors per particle in the pair list.
const NEIGHBORS: u64 = 20;
/// Instructions per pair interaction (distance + LJ force).
const THINK_PER_PAIR: u64 = 30;
/// Bytes per 3-vector (x, y, z doubles).
const VEC3: u64 = 24;

/// The moldyn workload.
#[derive(Debug)]
pub struct Moldyn {
    particles: u64,
    iterations: u64,
    seed: u64,
}

impl Moldyn {
    /// Creates the workload (paper: 2048 particles, 15 iterations).
    #[must_use]
    pub fn new(scale: Scale) -> Moldyn {
        Moldyn {
            particles: scale.apply(2048),
            iterations: scale.apply_iters(15),
            seed: 0x301D_0001,
        }
    }
}

impl Workload for Moldyn {
    fn name(&self) -> &'static str {
        "moldyn"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let n = self.particles;
        let coords = r.alloc(n * VEC3);
        let forces = r.alloc(n * VEC3);
        let velocities = r.alloc(n * VEC3);

        // Build the neighbor list (untimed, as the original builds it
        // every ~20 steps; the paper's 15 iterations reuse one list).
        // Neighbors are spatially clustered: mostly nearby indices with
        // a random remote tail, approximating a 3-D cutoff sphere over
        // a block distribution.
        let mut rng = DetRng::seeded(self.seed);
        let pairs: Vec<[u64; NEIGHBORS as usize]> = (0..n)
            .map(|i| {
                let mut row = [0u64; NEIGHBORS as usize];
                for (k, slot) in row.iter_mut().enumerate() {
                    *slot = if k % 4 == 3 {
                        rng.range_u64(0, n) // long-range partner
                    } else {
                        let span = 64.min(n);
                        let lo = i.saturating_sub(span / 2).min(n - span);
                        lo + rng.range_u64(0, span)
                    };
                }
                row
            })
            .collect();

        let items = r.block_partition(n);

        // Owners initialize their particles (first touch homes them;
        // a block distribution of 2048 particles interleaves pages
        // across nodes at ~256 particles per node).
        r.parallel(&items, |ctx, _cpu, i| {
            ctx.write(coords.elem(i, VEC3));
            ctx.write(velocities.elem(i, VEC3));
            ctx.write(forces.elem(i, VEC3));
        });
        r.barrier();

        for _ in 0..self.iterations {
            // Force phase: owner of i processes its pair row.
            r.parallel(&items, |ctx, _cpu, i| {
                ctx.read_words(coords.elem(i, VEC3), 3);
                for &j in &pairs[i as usize] {
                    ctx.read_words(coords.elem(j, VEC3), 3);
                    ctx.think(THINK_PER_PAIR);
                }
                // Accumulate into the owner's force row.
                ctx.update(forces.elem(i, VEC3));
            });
            r.barrier();
            // Integration: owners update positions and velocities.
            r.parallel(&items, |ctx, _cpu, i| {
                ctx.read_words(forces.elem(i, VEC3), 3);
                ctx.update(velocities.elem(i, VEC3));
                ctx.read_words(velocities.elem(i, VEC3), 3);
                ctx.write_words(coords.elem(i, VEC3), 3);
                ctx.think(40);
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
    fn moldyn_remote_pages_fit_page_cache() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_scoma()),
            &mut Moldyn::new(Scale::Tiny),
        );
        // The full data set is tiny: after initial allocation the page
        // cache absorbs everything — zero replacements.
        assert_eq!(report.metrics.os.page_replacements, 0);
        assert!(report.metrics.page_cache_hits > 0);
    }

    #[test]
    fn moldyn_refetches_under_small_block_cache() {
        let report = run(
            MachineConfig::paper_base(Protocol::CcNuma {
                block_cache_bytes: Some(1024),
            }),
            &mut Moldyn::new(Scale::Tiny),
        );
        assert!(
            report.metrics.refetches > 0,
            "coordinate re-reads must refetch under a tiny block cache"
        );
    }

    #[test]
    fn moldyn_rnuma_relocates_coordinate_pages() {
        let report = run(
            MachineConfig::paper_base(Protocol::RNuma {
                block_cache_bytes: 128,
                page_cache_bytes: 320 * 1024,
                threshold: 16,
            }),
            &mut Moldyn::new(Scale::Small),
        );
        assert!(report.metrics.relocation_interrupts > 0);
    }
}
