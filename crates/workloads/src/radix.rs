//! radix: integer radix sort (SPLASH-2).
//!
//! The paper's input: 1 M integers, radix 1024 (two 10-bit digit
//! passes over 20-bit keys).
//!
//! Each pass: every CPU histograms its contiguous slice of the source
//! array (local reads after the first pass's all-to-all), the global
//! rank prefix is computed from all per-CPU histograms, and the
//! permutation writes every key to its destination rank — an all-to-all
//! scatter in which "processors march through a large number of remote
//! pages writing to a small number of blocks" (Section 5.1). Capacity
//! misses are spread *evenly* over the pages (the flat CDF line in
//! Figure 5), so R-NUMA's relocation heuristic finds no small hot set,
//! and S-COMA's 320-KB page cache is hopeless against a 4-MB scatter
//! target (Figure 6: S-COMA ≈ 4× CC-NUMA).

use crate::Scale;
use rnuma::program::{Runner, Workload};
use rnuma_sim::DetRng;

/// Radix (buckets per pass), as in the paper.
const RADIX: u64 = 1024;
/// Bits per digit.
const DIGIT_BITS: u64 = 10;
/// Key width in bits (1 M distinct keys need 20).
const KEY_BITS: u64 = 20;
/// Bytes per key (the SPLASH-2 code sorts word-sized integers).
const KEY: u64 = 8;
/// Instructions per key inspected.
const THINK_PER_KEY: u64 = 24;

/// The radix workload.
#[derive(Debug)]
pub struct Radix {
    keys: u64,
    seed: u64,
}

impl Radix {
    /// Creates the workload (paper: 1 M keys).
    #[must_use]
    pub fn new(scale: Scale) -> Radix {
        Radix {
            keys: scale.apply(1 << 20),
            seed: 0x5AD1_0001,
        }
    }
}

impl Workload for Radix {
    fn name(&self) -> &'static str {
        "radix"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let n = self.keys;
        let cpus = u64::from(r.cpus());
        let passes = KEY_BITS / DIGIT_BITS;

        let src = r.alloc(n * KEY);
        let dst = r.alloc(n * KEY);
        // Per-CPU histograms, one page apart to avoid false sharing.
        let hists = r.alloc(cpus * 4096);

        // Generate the keys (host-side state; the simulated writes
        // below place the pages). `order` mirrors the key sequence held
        // in `src` as the passes progress.
        let mut rng = DetRng::seeded(self.seed);
        let mut order: Vec<u32> = (0..n)
            .map(|_| rng.range_u64(0, 1 << KEY_BITS) as u32)
            .collect();

        let slices = r.block_partition(n);

        // Owners write their key slices (first touch homes them).
        r.parallel(&slices, |ctx, _cpu, i| {
            ctx.write(src.elem(i, KEY));
        });
        r.barrier();

        // The SPLASH-2 code swaps FROM/TO pointers each pass.
        let arrays = [src, dst];
        for pass in 0..passes {
            let shift = pass * DIGIT_BITS;
            let from = arrays[(pass % 2) as usize];
            let to = arrays[((pass + 1) % 2) as usize];

            // Phase 1: per-CPU histogram of the local slice.
            r.parallel(&slices, |ctx, cpu, i| {
                ctx.read(from.elem(i, KEY));
                ctx.think(THINK_PER_KEY);
                let digit = u64::from(order[i as usize] >> shift) % RADIX;
                // Histogram bins are hot in-cache; touch one word.
                ctx.update(hists.at(u64::from(cpu.0) * 4096 + (digit % 512) * 8));
            });
            r.barrier();

            // Phase 2: global rank computation — every CPU scans all
            // histograms (all-to-all read of one page per CPU).
            let one_each: Vec<Vec<u64>> = (0..cpus).map(|c| vec![c]).collect();
            r.parallel(&one_each, |ctx, _cpu, _| {
                for other in 0..cpus {
                    for w in (0..RADIX / 2).step_by(4) {
                        ctx.read(hists.at(other * 4096 + w * 8));
                    }
                }
                ctx.think(RADIX * 2);
            });
            r.barrier();

            // Host-side: stable counting sort to find each key's rank.
            let mut starts = {
                let mut counts = vec![0u64; RADIX as usize];
                for &k in &order {
                    counts[(u64::from(k >> shift) % RADIX) as usize] += 1;
                }
                let mut starts = vec![0u64; RADIX as usize];
                let mut acc = 0;
                for (d, &c) in counts.iter().enumerate() {
                    starts[d] = acc;
                    acc += c;
                }
                starts
            };
            let mut next: Vec<u32> = vec![0; order.len()];
            let mut ranks: Vec<u64> = vec![0; order.len()];
            for (i, &k) in order.iter().enumerate() {
                let d = (u64::from(k >> shift) % RADIX) as usize;
                ranks[i] = starts[d];
                next[starts[d] as usize] = k;
                starts[d] += 1;
            }

            // Phase 3: permutation — read each local key, write it to
            // its global rank in the destination (the all-to-all
            // scatter).
            r.parallel(&slices, |ctx, _cpu, i| {
                ctx.read(from.elem(i, KEY));
                ctx.write(to.elem(ranks[i as usize], KEY));
                ctx.think(THINK_PER_KEY);
            });
            r.barrier();
            order = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuma::config::{MachineConfig, Protocol};
    use rnuma::experiment::run;

    #[test]
    fn radix_scatter_spreads_misses_evenly() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Radix::new(Scale::Small),
        );
        let m = &report.metrics;
        assert!(m.remote_fetches > 0);
        // Figure 5: radix's refetch CDF is nearly the diagonal — the top
        // 10% of pages must NOT dominate. (The flatness improves with
        // scale: 0.42 at Small, 0.23 at the paper's 1M keys.)
        let cdf = m.refetch_cdf();
        if cdf.total() > 50 {
            assert!(
                cdf.weight_of_top(0.10) < 0.6,
                "radix misses should be spread out, got {:.2}",
                cdf.weight_of_top(0.10)
            );
        }
    }

    #[test]
    fn radix_thrashes_a_small_page_cache() {
        let report = run(
            MachineConfig::paper_base(Protocol::SComa {
                page_cache_bytes: 20 * 4096,
            }),
            &mut Radix::new(Scale::Tiny),
        );
        assert!(report.metrics.os.page_replacements > 50);
    }
}
