//! em3d: 3-D electromagnetic wave propagation (Split-C benchmark).
//!
//! The paper's input: 76800 graph nodes, 15% remote edges, 5 iterations.
//!
//! em3d models electromagnetic waves on a bipartite graph: E nodes
//! depend on H nodes and vice versa. Each iteration alternates two
//! phases: every E node recomputes its value from its H neighbors, then
//! every H node from its E neighbors. Nodes are block-partitioned across
//! CPUs; with probability `remote_fraction` an edge crosses a *machine
//! node* boundary (Split-C's definition of "remote"), giving the
//! producer-consumer coherence traffic the paper describes: values are
//! rewritten by their owner every iteration, so consumer copies are
//! invalidated and re-fetched — coherence misses, not refetches. The
//! remote read set per node is far larger than the 320-KB page cache, so
//! S-COMA thrashes, while CC-NUMA's block cache rides the small
//! per-iteration working set (Section 5.2: em3d performs well in
//! CC-NUMA even with a 1-KB block cache).

use crate::Scale;
use rnuma::program::{Runner, Workload};
use rnuma_sim::DetRng;

/// Per-graph-node degree (dependencies per value), as in Split-C em3d.
const DEGREE: usize = 5;
/// Bytes per graph-node record. Split-C em3d stores each node as a
/// struct (value, coefficient, dependency pointers/counts), so a remote
/// neighbor read touches one block of a mostly-untouched page — the
/// scatter that makes S-COMA's page-granularity caching so expensive
/// for em3d (Figure 6).
const NODE_STRIDE: u64 = 128;
/// Instructions of compute charged per neighbor accumulation.
const THINK_PER_EDGE: u64 = 8;

/// The em3d workload.
#[derive(Debug)]
pub struct Em3d {
    nodes_per_side: u64,
    remote_fraction: f64,
    iterations: u64,
    seed: u64,
}

impl Em3d {
    /// Creates the workload at the given scale (paper: 76800 nodes
    /// total, 15% remote, 5 iterations).
    #[must_use]
    pub fn new(scale: Scale) -> Em3d {
        Em3d {
            nodes_per_side: scale.apply(38_400),
            remote_fraction: 0.15,
            iterations: scale.apply_iters(5),
            seed: 0xE3D_0001,
        }
    }
}

impl Workload for Em3d {
    fn name(&self) -> &'static str {
        "em3d"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let n = self.nodes_per_side;
        let cpus = u64::from(r.cpus());
        let cpus_per_node = 4; // the paper machine's SMP width
        let machine_nodes = cpus / cpus_per_node;

        // Shared node records (the value lives at offset 0 of each).
        let e_values = r.alloc(n * NODE_STRIDE);
        let h_values = r.alloc(n * NODE_STRIDE);

        // Wire the bipartite graph (untimed setup). Each node's
        // neighbors are local to its owner CPU's slice unless the edge
        // is remote, in which case the target lives on a different
        // *machine node* (uniformly chosen), per the Split-C generator.
        let mut rng = DetRng::seeded(self.seed);
        let per_cpu = n.div_ceil(cpus);
        let wire = |rng: &mut DetRng| -> Vec<[u64; DEGREE]> {
            (0..n)
                .map(|i| {
                    let my_cpu = (i / per_cpu).min(cpus - 1);
                    let my_node = my_cpu / cpus_per_node;
                    let mut deps = [0u64; DEGREE];
                    for d in deps.iter_mut() {
                        *d = if rng.chance(self.remote_fraction) && machine_nodes > 1 {
                            // A target slice on another machine node.
                            let mut other = rng.range_u64(0, machine_nodes);
                            if other == my_node {
                                other = (other + 1) % machine_nodes;
                            }
                            let target_cpu =
                                other * cpus_per_node + rng.range_u64(0, cpus_per_node);
                            let lo = target_cpu * per_cpu;
                            let hi = ((target_cpu + 1) * per_cpu).min(n);
                            rng.range_u64(lo.min(hi - 1), hi)
                        } else {
                            // Local neighbors cluster around the node
                            // itself (em3d graphs are spatially local),
                            // keeping local reads cache-friendly.
                            let lo = my_cpu * per_cpu;
                            let hi = ((my_cpu + 1) * per_cpu).min(n);
                            let center = i.clamp(lo, hi - 1);
                            let wlo = center.saturating_sub(16).max(lo);
                            let whi = (center + 16).min(hi - 1);
                            rng.range_u64(wlo, whi + 1)
                        };
                    }
                    deps
                })
                .collect()
        };
        let e_deps = wire(&mut rng);
        let h_deps = wire(&mut rng);

        let items = r.block_partition(n);

        // Owners write their values once so first touch homes each slice
        // locally (the Split-C program allocates node storage locally).
        r.parallel(&items, |ctx, _cpu, i| {
            ctx.write(e_values.elem(i, NODE_STRIDE));
            ctx.write(h_values.elem(i, NODE_STRIDE));
        });
        r.barrier();

        for _ in 0..self.iterations {
            // E phase: E[i] = f(H[deps]).
            r.parallel(&items, |ctx, _cpu, i| {
                for &d in &e_deps[i as usize] {
                    ctx.read(h_values.elem(d, NODE_STRIDE));
                    ctx.think(THINK_PER_EDGE);
                }
                ctx.write(e_values.elem(i, NODE_STRIDE));
            });
            r.barrier();
            // H phase: H[i] = f(E[deps]).
            r.parallel(&items, |ctx, _cpu, i| {
                for &d in &h_deps[i as usize] {
                    ctx.read(e_values.elem(d, NODE_STRIDE));
                    ctx.think(THINK_PER_EDGE);
                }
                ctx.write(h_values.elem(i, NODE_STRIDE));
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
    fn em3d_is_communication_bound_not_refetch_bound() {
        let report = run(
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            &mut Em3d::new(Scale::Tiny),
        );
        let m = &report.metrics;
        assert!(m.remote_fetches > 0, "remote edges must communicate");
        // Producer-consumer: coherence misses dominate; refetches are a
        // small fraction of remote fetches.
        assert!(
            (m.refetches as f64) < 0.3 * m.remote_fetches as f64,
            "refetches {} vs fetches {}",
            m.refetches,
            m.remote_fetches
        );
    }

    #[test]
    fn em3d_scoma_replaces_pages_heavily() {
        let report = run(
            MachineConfig::paper_base(Protocol::SComa {
                page_cache_bytes: 4 * 4096, // deliberately tight
            }),
            &mut Em3d::new(Scale::Tiny),
        );
        assert!(
            report.metrics.os.page_replacements > 0,
            "remote page set must overflow a tight page cache"
        );
    }

    #[test]
    fn em3d_references_scale_with_iterations() {
        let config = MachineConfig::paper_base(Protocol::ideal());
        let one = run(
            config,
            &mut Em3d {
                iterations: 1,
                ..Em3d::new(Scale::Tiny)
            },
        );
        let two = run(
            config,
            &mut Em3d {
                iterations: 2,
                ..Em3d::new(Scale::Tiny)
            },
        );
        assert!(two.metrics.references() > one.metrics.references());
    }
}
