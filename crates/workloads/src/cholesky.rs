//! cholesky: blocked sparse Cholesky factorization (SPLASH-2).
//!
//! The paper's input: the `tk16.O` matrix.
//!
//! The factorization processes supernodal *panels* from a task queue:
//! completing panel `j` produces updates to a sparse fan-out of later
//! panels. Processing a panel therefore reads several already-factored
//! source panels — data written once (by their factorer) and then read
//! many times. A large share of the traffic reads panels of the
//! *original* matrix, initialized before the timed region, which the
//! directory sees as read-only — Table 4 reports only 28% of cholesky's
//! refetches touching read-write pages. The active panel working set
//! (a few hundred KB) fits the 320-KB page cache but overflows the
//! 32-KB block cache: S-COMA beats CC-NUMA, and R-NUMA, relocating the
//! hot panels, reduces refetches to 30% of CC-NUMA's and replacements
//! to 15% of S-COMA's (Table 4), edging out both (Figure 6).

use crate::Scale;
use rnuma::program::{Runner, Workload};
use rnuma_sim::DetRng;

/// Bytes per panel (a supernode's column block: ~1 K doubles).
const PANEL: u64 = 8 * 1024;
/// Words read per source panel per update (the dense update kernel
/// walks the panel once).
const WORDS_PER_UPDATE: u64 = 256;
/// Instructions per update word (multiply-add plus index math).
const THINK_PER_WORD: u64 = 6;
/// Sparse fan-out: how many later panels one panel updates.
const FANOUT: usize = 8;
/// Bytes of symbolic row-index data per panel (read-only at run time).
const INDEX: u64 = 4096;

/// The cholesky workload.
#[derive(Debug)]
pub struct Cholesky {
    panels: u64,
    seed: u64,
}

impl Cholesky {
    /// Creates the workload (paper: tk16.O ≈ a few hundred supernodal
    /// panels).
    #[must_use]
    pub fn new(scale: Scale) -> Cholesky {
        Cholesky {
            panels: scale.apply(384),
            seed: 0xC801_0001,
        }
    }
}

impl Workload for Cholesky {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let np = self.panels;
        // Factored panels (written during the run), the original matrix
        // (read-only during the run: initialized untimed), and the
        // symbolic structure — per-panel row indices, read by every
        // consumer of a panel but never written after symbolic
        // factorization. The symbolic data is what shows up as
        // read-only remote traffic in Table 4 (cholesky: only 28% of
        // refetches from read-write pages).
        let factors = r.alloc(np * PANEL);
        let original = r.alloc(np * PANEL);
        let indices = r.alloc(np * INDEX);

        // Sparse dependency structure: panel j receives updates from
        // FANOUT earlier panels clustered near j (supernodal locality)
        // with a couple of long-range sources (the sparse "reach").
        let mut rng = DetRng::seeded(self.seed);
        let sources: Vec<Vec<u64>> = (0..np)
            .map(|j| {
                if j == 0 {
                    return Vec::new();
                }
                let mut list = Vec::with_capacity(FANOUT);
                for k in 0..FANOUT.min(j as usize) {
                    let src = if k == 0 {
                        j / 2 // elimination-tree descendant (far, shared)
                    } else if k == 1 {
                        j * 3 / 4
                    } else {
                        j - 1 - rng.range_u64(0, 8.min(j)) // nearby
                    };
                    list.push(src);
                }
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect();

        // Panels are assigned to CPUs cyclically (the SPLASH-2 task
        // queue's steady-state distribution).
        let items = r.cyclic_partition(np);

        // First touch: owners assemble their factor panels (the real
        // code's numeric assembly scatters the original values into the
        // factor storage), homing the factor pages. The original matrix
        // and symbolic indices are initialized before the timed region
        // and are homed lazily at their first reader.
        r.parallel(&items, |ctx, _cpu, j| {
            for w in (0..PANEL / 8).step_by(16) {
                ctx.write(factors.elem(j * PANEL / 8 + w, 8));
            }
        });
        r.barrier();

        // Factorization sweep: panels in dependency order. The cyclic
        // assignment means each step's panels spread across CPUs; the
        // min-clock scheduler interleaves them like the task queue.
        r.parallel(&items, |ctx, _cpu, j| {
            // Assemble from the original matrix (read-only reuse).
            for w in (0..WORDS_PER_UPDATE).step_by(2) {
                ctx.read(original.elem(j * PANEL / 8 + w * 2, 8));
            }
            ctx.think(WORDS_PER_UPDATE * THINK_PER_WORD / 2);
            // Apply updates from factored source panels, one destination
            // column strip at a time — the supernodal update re-reads
            // each source panel once per strip (the reuse that thrashes
            // a 32-KB block cache). Numeric values are read-write
            // reuse; the symbolic indices are read-only reuse.
            for _strip in 0..4 {
                for &src in &sources[j as usize] {
                    for w in 0..WORDS_PER_UPDATE / 4 {
                        ctx.read(factors.elem(src * PANEL / 8 + w * 16 % (PANEL / 8), 8));
                    }
                    for w in (0..INDEX / 8).step_by(8) {
                        ctx.read(indices.elem(src * INDEX / 8 + w, 8));
                    }
                    ctx.think(WORDS_PER_UPDATE / 4 * THINK_PER_WORD);
                }
            }
            // Dense internal factorization of the panel (local).
            for w in (0..PANEL / 8).step_by(4) {
                let va = factors.elem(j * PANEL / 8 + w, 8);
                ctx.read(va);
                ctx.write(va);
            }
            ctx.think(PANEL / 8 * THINK_PER_WORD);
        });
        r.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuma::config::{MachineConfig, Protocol};
    use rnuma::experiment::run;

    #[test]
    fn cholesky_mixes_ro_and_rw_refetches() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Cholesky::new(Scale::Small),
        );
        let m = &report.metrics;
        assert!(m.refetches > 0, "panel reuse must refetch");
        // Table 4: cholesky's RW fraction is low (28%) compared to the
        // 96-100% of barnes/em3d/moldyn/ocean.
        assert!(
            m.rw_page_refetch_fraction() < 0.8,
            "got {:.2}",
            m.rw_page_refetch_fraction()
        );
    }

    #[test]
    fn cholesky_rnuma_cuts_refetches() {
        let cc = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Cholesky::new(Scale::Tiny),
        );
        let rn = run(
            MachineConfig::paper_base(Protocol::paper_rnuma()),
            &mut Cholesky::new(Scale::Tiny),
        );
        assert!(
            rn.metrics.refetches < cc.metrics.refetches,
            "R-NUMA {} vs CC-NUMA {}",
            rn.metrics.refetches,
            cc.metrics.refetches
        );
    }
}
