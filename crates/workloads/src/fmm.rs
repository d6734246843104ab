//! fmm: adaptive Fast Multipole Method N-body (SPLASH-2).
//!
//! The paper's input: 16 K particles.
//!
//! The dominant phase evaluates box-box interaction lists: each spatial
//! box reads the multipole expansions of the ~27 boxes in its
//! interaction list, most owned by neighboring CPUs. The expansions are
//! *reused* across the box's particles, but — crucially — box records
//! are scattered through memory amid per-box particle storage, so each
//! remote expansion sits on its own page. The reuse working set
//! therefore fits the 32-KB block cache by *bytes* but needs far more
//! page-cache frames than 320 KB provides. Exactly the paper's fmm
//! story: CC-NUMA ≈ ideal, S-COMA up to 4× worse, and R-NUMA slightly
//! worse than CC-NUMA (relocated pages bounce — Table 4 reports R-NUMA
//! refetching 142% of CC-NUMA).

use crate::Scale;
use rnuma::program::{Runner, Workload};
use rnuma_sim::DetRng;

/// Bytes reserved per box record region (expansion + particle storage):
/// one page, which is what scatters expansions one-per-page.
const BOX_STRIDE: u64 = 4096;

/// Byte offset of box `b`'s expansion within its page. Boxes are
/// allocated dynamically amid particle storage, so the expansion lands
/// at a varying offset — which also keeps page-strided records from
/// degenerately colliding in the direct-mapped block cache.
fn expansion_of(boxes: rnuma::Region, b: u64) -> rnuma_mem::addr::Va {
    rnuma_mem::addr::Va(boxes.elem(b, BOX_STRIDE).0 + (b % 12) * 40)
}
/// Words of multipole expansion read per interaction.
const EXPANSION_WORDS: u64 = 10;
/// Boxes in an interaction list.
const LIST_LEN: usize = 27;
/// Instructions per box-box translation.
const THINK_PER_INTERACTION: u64 = 60;

/// The fmm workload.
#[derive(Debug)]
pub struct Fmm {
    boxes: u64,
    particles_per_box: u64,
    iterations: u64,
    seed: u64,
}

impl Fmm {
    /// Creates the workload (paper: 16 K particles; ~1024 leaf boxes of
    /// 16 particles).
    #[must_use]
    pub fn new(scale: Scale) -> Fmm {
        Fmm {
            boxes: scale.apply(1024),
            particles_per_box: 16,
            iterations: 2,
            seed: 0xF33_0001,
        }
    }
}

impl Workload for Fmm {
    fn name(&self) -> &'static str {
        "fmm"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let nb = self.boxes;
        let side = (nb as f64).sqrt() as u64; // 2-D box grid
        let boxes = r.alloc(nb * BOX_STRIDE);

        // Interaction lists: the surrounding 5×5 halo minus near
        // neighbors, plus a few far links — spatial locality with a
        // remote tail.
        let mut rng = DetRng::seeded(self.seed);
        let lists: Vec<Vec<u64>> = (0..nb)
            .map(|b| {
                let (bi, bj) = (b / side, b % side);
                let mut list = Vec::with_capacity(LIST_LEN);
                for di in -2i64..=2 {
                    for dj in -2i64..=2 {
                        if di.abs() <= 1 && dj.abs() <= 1 {
                            continue; // near field handled directly
                        }
                        let ni = bi as i64 + di;
                        let nj = bj as i64 + dj;
                        if ni >= 0 && nj >= 0 && (ni as u64) < side && (nj as u64) < side {
                            list.push(ni as u64 * side + nj as u64);
                        }
                    }
                }
                while list.len() < LIST_LEN {
                    list.push(rng.range_u64(0, nb));
                }
                list
            })
            .collect();

        // Boxes are spatially partitioned: contiguous runs of the box
        // grid per CPU (a 2-D space-filling split).
        let items = r.block_partition(nb);

        // Owners initialize their boxes' expansions and particles.
        r.parallel(&items, |ctx, _cpu, b| {
            ctx.write_words(expansion_of(boxes, b), EXPANSION_WORDS);
        });
        r.barrier();

        for _ in 0..self.iterations {
            // Upward pass: owners refresh their expansions from their
            // particles (local work, rewrites the expansion words).
            r.parallel(&items, |ctx, _cpu, b| {
                let base = boxes.elem(b, BOX_STRIDE);
                for p in 0..self.particles_per_box {
                    ctx.read(rnuma_mem::addr::Va(
                        base.0 + 1024 + p * 24, // particle storage after the expansion
                    ));
                    ctx.think(12);
                }
                ctx.write_words(expansion_of(boxes, b), EXPANSION_WORDS);
            });
            r.barrier();

            // Interaction phase: each box reads its list's expansions.
            r.parallel(&items, |ctx, _cpu, b| {
                for &other in &lists[b as usize] {
                    ctx.read_words(expansion_of(boxes, other), EXPANSION_WORDS);
                    ctx.think(THINK_PER_INTERACTION);
                }
                // Accumulate the local expansion.
                ctx.update(expansion_of(boxes, b));
            });
            r.barrier();

            // Downward/evaluation pass: local particle updates.
            r.parallel(&items, |ctx, _cpu, b| {
                let base = boxes.elem(b, BOX_STRIDE);
                for p in 0..self.particles_per_box {
                    let va = rnuma_mem::addr::Va(base.0 + 1024 + p * 24);
                    ctx.read(va);
                    ctx.think(16);
                    ctx.write(va);
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
    fn fmm_expansions_are_one_per_page() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_scoma()),
            &mut Fmm::new(Scale::Small),
        );
        // 256 boxes at Small scale -> every remote box costs a frame;
        // the 80-frame cache must replace.
        assert!(
            report.metrics.os.page_replacements > 0,
            "sparse expansions must overflow the page cache"
        );
    }

    #[test]
    fn fmm_reuse_fits_a_32k_block_cache() {
        let big = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Fmm::new(Scale::Tiny),
        );
        let tiny = run(
            MachineConfig::paper_base(Protocol::CcNuma {
                block_cache_bytes: Some(128),
            }),
            &mut Fmm::new(Scale::Tiny),
        );
        assert!(
            tiny.metrics.refetches > big.metrics.refetches,
            "a 128-B cache must refetch more than 32 KB"
        );
    }
}
