//! fft: complex 1-D radix-√n six-step FFT (SPLASH-2).
//!
//! The paper's input: 64 K complex points, i.e. a 256×256 matrix of
//! 16-byte complex values.
//!
//! The six-step algorithm: transpose, 1-D FFTs over rows, transpose,
//! twiddle + 1-D FFTs, transpose. Rows are block-partitioned across
//! CPUs. The transposes perform all-to-all communication, and — the
//! property that matters for S-COMA — read the *source* matrix by
//! column: with 256 complex values per row, a column walk strides
//! 4 KB, touching one 32-byte block per page across 256 pages. The
//! result is severe internal fragmentation of the page cache (Section
//! 2.2: "regular applications with large strides are particularly
//! susceptible"), so S-COMA thrashes while CC-NUMA's block cache holds
//! the tiny per-row working set (the paper's Figure 7 shows fft happy
//! with a 1-KB block cache).

use crate::Scale;
use rnuma::program::{Ctx, Region, Runner, Workload};

/// Bytes per complex element.
const CPLX: u64 = 16;
/// Instructions per butterfly stage per point.
const THINK_PER_POINT: u64 = 12;

/// The fft workload.
#[derive(Debug)]
pub struct Fft {
    /// Matrix side: `side * side` complex points in total.
    side: u64,
}

impl Fft {
    /// Creates the workload (paper: 64 K points → side 256).
    #[must_use]
    pub fn new(scale: Scale) -> Fft {
        // Scale the *point count* by the scale factor, keeping a square.
        let side = match scale {
            Scale::Paper => 256,
            Scale::Small => 128,
            Scale::Tiny => 64,
        };
        Fft { side }
    }

    /// Total complex points.
    #[must_use]
    pub fn points(&self) -> u64 {
        self.side * self.side
    }

    fn at(m: Region, side: u64, row: u64, col: u64) -> rnuma_mem::addr::Va {
        m.elem(row * side + col, CPLX)
    }

    /// Transposes one source-column patch into the CPU's destination
    /// rows `r0..r1`, patch-blocked as in the SPLASH-2 code: for each
    /// source row (`col`), the CPU reads the contiguous 128-byte segment
    /// `src[col][r0..r1]` — every 32-byte block exactly once, with
    /// spatial locality, so the direct-mapped caches never self-thrash —
    /// and scatters it into its own (local) destination rows. Each
    /// remote *page* still yields only `r1 - r0` elements per transpose,
    /// the fragmentation that defeats the S-COMA page cache.
    fn transpose_patch(
        ctx: &mut Ctx<'_>,
        src: Region,
        dst: Region,
        side: u64,
        (r0, r1): (u64, u64),
        col0: u64,
        patch: u64,
    ) {
        for col in col0..(col0 + patch).min(side) {
            for row in r0..r1 {
                // src[col][row] -> dst[row][col]
                ctx.read(Fft::at(src, side, col, row));
                ctx.write(Fft::at(dst, side, row, col));
            }
        }
    }

    /// One radix-√n row FFT: a couple of passes over the row with
    /// twiddle compute charged as think time.
    fn fft_row(ctx: &mut Ctx<'_>, m: Region, side: u64, row: u64) {
        for pass in 0..2 {
            for col in 0..side {
                ctx.read(Fft::at(m, side, row, col));
                ctx.think(THINK_PER_POINT);
                if pass == 1 {
                    ctx.write(Fft::at(m, side, row, col));
                }
            }
        }
    }
}

impl Workload for Fft {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let side = self.side;
        let x = r.alloc(side * side * CPLX);
        let trans = r.alloc(side * side * CPLX);

        let rows = r.block_partition(side);
        // Each CPU's contiguous destination-row range.
        let cpus = u64::from(r.cpus());
        let ranges: Vec<(u64, u64)> = (0..cpus)
            .map(|c| (side * c / cpus, side * (c + 1) / cpus))
            .collect();
        // Transpose work items: one per 16-column source patch.
        let patch = 16.min(side);
        let patches: Vec<Vec<u64>> = (0..cpus)
            .map(|_| (0..side).step_by(patch as usize).collect())
            .collect();

        // Owners initialize their rows (first touch homes them).
        r.parallel(&rows, |ctx, _cpu, row| {
            for col in 0..side {
                ctx.write(Fft::at(x, side, row, col));
            }
        });
        r.barrier();

        let transpose = |r: &mut Runner<'_>, src: Region, dst: Region| {
            r.parallel(&patches, |ctx, cpu, col0| {
                let range = ranges[cpu.0 as usize];
                Fft::transpose_patch(ctx, src, dst, side, range, col0, patch);
            });
            r.barrier();
        };
        let fft_phase = |r: &mut Runner<'_>, m: Region| {
            r.parallel(&rows, |ctx, _cpu, row| {
                Fft::fft_row(ctx, m, side, row);
            });
            r.barrier();
        };

        // The six-step algorithm's data movement.
        transpose(r, x, trans); // step 1
        fft_phase(r, trans); // step 2
        transpose(r, trans, x); // step 3 (plus twiddle)
        fft_phase(r, x); // step 4
        transpose(r, x, trans); // step 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuma::config::{MachineConfig, Protocol};
    use rnuma::experiment::run;

    #[test]
    fn fft_reference_count_matches_structure() {
        let mut w = Fft::new(Scale::Tiny);
        let n = w.points();
        let report = run(MachineConfig::paper_base(Protocol::ideal()), &mut w);
        // init (1 write) + 3 transposes (1r+1w) + 2 FFT phases (3 refs).
        let expected = n * (1 + 3 * 2 + 2 * 3);
        assert_eq!(report.metrics.references(), expected);
    }

    #[test]
    fn fft_transposes_fragment_the_page_cache() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_scoma()),
            &mut Fft::new(Scale::Tiny),
        );
        // Column-strided reads touch many pages with one block each:
        // plenty of allocations relative to the data size.
        assert!(
            report.metrics.os.scoma_allocations > 100,
            "got {}",
            report.metrics.os.scoma_allocations
        );
    }

    #[test]
    fn fft_is_insensitive_to_block_cache_size() {
        // Figure 7's statement for fft: the reuse working set is so small
        // that a 1-KB block cache performs like a 32-KB one. (At Tiny
        // scale multiple rows share a page, so some refetch traffic
        // exists, but it must not depend on block-cache capacity.)
        let big = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Fft::new(Scale::Tiny),
        );
        let small = run(
            MachineConfig::paper_base(Protocol::CcNuma {
                block_cache_bytes: Some(1024),
            }),
            &mut Fft::new(Scale::Tiny),
        );
        let ratio = small.cycles() as f64 / big.cycles() as f64;
        assert!(ratio < 1.15, "b=1K/b=32K ratio {ratio:.2}");
    }
}
