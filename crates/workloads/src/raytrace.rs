//! raytrace: 3-D scene rendering by ray tracing (SPLASH-2).
//!
//! The paper's input: the `car` scene.
//!
//! Rays are traced through a hierarchical (HUG/BVH) acceleration
//! structure over a read-only scene. The hierarchy's upper levels are
//! read by every ray on every CPU — heavy read-only reuse — while the
//! triangle data is vast and touched sparsely per ray. Pixels
//! (framebuffer) are written by their owners only. Table 4 shows the
//! consequence: just 5% of raytrace's refetches come from read-write
//! pages — it is the one application where plain read-only replication
//! would also have worked. R-NUMA relocates the hot hierarchy pages
//! and "virtually eliminates all of the refetches and replacements",
//! outperforming both base protocols (Section 5.2).

use crate::Scale;
use rnuma::program::{Runner, Workload};
use rnuma_sim::DetRng;

/// Bytes per BVH node (bounds + child links).
const BVH_NODE: u64 = 64;
/// Bytes per triangle record.
const TRI: u64 = 96;
/// Instructions per BVH node test.
const THINK_PER_NODE: u64 = 24;
/// Instructions per triangle intersection.
const THINK_PER_TRI: u64 = 40;

/// The raytrace workload.
#[derive(Debug)]
pub struct Raytrace {
    /// Image side in pixels.
    image_side: u64,
    /// Triangles in the scene (car ≈ 130 K faces scaled to record count).
    triangles: u64,
    seed: u64,
}

impl Raytrace {
    /// Creates the workload (paper: `car`; modeled as a 128×128 image
    /// over a ~16 K-triangle hierarchy).
    #[must_use]
    pub fn new(scale: Scale) -> Raytrace {
        Raytrace {
            image_side: match scale {
                Scale::Paper => 128,
                Scale::Small => 64,
                Scale::Tiny => 32,
            },
            triangles: scale.apply(16 * 1024),
            seed: 0x2A11_0001,
        }
    }
}

impl Workload for Raytrace {
    fn name(&self) -> &'static str {
        "raytrace"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let pixels = self.image_side * self.image_side;
        let nt = self.triangles;
        // BVH levels: 1, 8, 64, 512 ... roughly nt/4 nodes in total.
        let mut level_sizes = Vec::new();
        let mut total_nodes = 0u64;
        let mut width = 1u64;
        while total_nodes + width < nt / 2 {
            level_sizes.push(width);
            total_nodes += width;
            width *= 8;
        }
        let bvh = r.alloc(total_nodes * BVH_NODE);
        let tris = r.alloc(nt * TRI);
        let image = r.alloc(pixels * 8);

        let mut rng = DetRng::seeded(self.seed);
        let level_base: Vec<u64> = level_sizes
            .iter()
            .scan(0u64, |acc, &w| {
                let base = *acc;
                *acc += w;
                Some(base)
            })
            .collect();

        // Each pixel's ray: a jitter key for its BVH descent, a few
        // triangles near its leaf region (primary rays are coherent:
        // adjacent pixels hit adjacent geometry), and two scene-wide
        // triangles (shadow/reflection rays) — the sparse cold traffic
        // that pollutes the S-COMA page cache.
        let rays: Vec<(u64, [u64; 5])> = (0..pixels)
            .map(|p| {
                let key = rng.range_u64(0, u64::MAX / 2);
                let region = (p * nt / pixels).min(nt - 4);
                let mut hit = [0u64; 5];
                for (k, slot) in hit.iter_mut().enumerate() {
                    *slot = if k >= 4 && p % 4 == 0 {
                        rng.range_u64(0, nt)
                    } else {
                        (region + ((key >> (3 * k)) % 64)).min(nt - 1)
                    };
                }
                (key, hit)
            })
            .collect();

        // The scene is built before the timed region (the SPLASH-2 code
        // reads it from a file during initialization), so the hierarchy
        // and triangles are *never written* during rendering: their
        // pages are homed by first touch at their first reader and the
        // directory sees pure read sharing — Table 4's 5%-RW column.

        // Render: pixels block-partitioned (scanline groups per CPU).
        let pixel_items = r.block_partition(pixels);
        r.parallel(&pixel_items, |ctx, _cpu, p| {
            let (key, hits) = rays[p as usize];
            // Descend the hierarchy. Primary rays are coherent: the
            // path node follows the pixel's position (plus jitter), so
            // the upper levels are globally hot while deep nodes are
            // read by their spatial neighborhood. Shadow rays add two
            // spread reads at each mid level.
            for (d, (&base, &w)) in level_base.iter().zip(level_sizes.iter()).enumerate() {
                let spatial = p * w / pixels;
                let along = (spatial + (key >> (d * 3)) % 3) % w;
                ctx.read_words(bvh.elem(base + along, BVH_NODE), 6);
                ctx.read_words(bvh.elem(base + (along + 1) % w, BVH_NODE), 6);
                if w > 8 {
                    for k in 1..5u64 {
                        let c = base + (along + k * w / 5) % w;
                        ctx.read_words(bvh.elem(c, BVH_NODE), 6);
                    }
                }
                ctx.think(THINK_PER_NODE);
            }
            // Intersect candidate triangles.
            for &t in &hits {
                ctx.read_words(tris.elem(t, TRI), 4);
                ctx.think(THINK_PER_TRI);
            }
            // Shade and write the pixel (owner-local framebuffer).
            ctx.write(image.word(p));
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
    fn raytrace_refetches_are_read_only() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Raytrace::new(Scale::Tiny),
        );
        // Table 4: only ~5% of raytrace refetches come from RW pages.
        assert!(
            report.metrics.rw_page_refetch_fraction() < 0.5,
            "raytrace is read-only dominated, got {:.2}",
            report.metrics.rw_page_refetch_fraction()
        );
    }

    #[test]
    fn raytrace_hot_hierarchy_refetches() {
        let report = run(
            MachineConfig::paper_base(Protocol::CcNuma {
                block_cache_bytes: Some(1024),
            }),
            &mut Raytrace::new(Scale::Tiny),
        );
        assert!(report.metrics.refetches > 0);
    }
}
