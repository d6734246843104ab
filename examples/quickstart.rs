//! Quickstart: build the paper's base R-NUMA machine, run a small
//! shared-memory program on it, and read the metrics.
//!
//! Run with: `cargo run --release -p rnuma-bench --example quickstart`

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::run;
use rnuma::program::{Runner, Workload};

/// Every CPU repeatedly walks a shared lookup table that lives on one
/// node — the textbook "reuse page" pattern R-NUMA was built for.
struct TableWalk;

impl Workload for TableWalk {
    fn name(&self) -> &'static str {
        "table-walk"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        // 64 KB shared table, written once by CPU 0 (first touch homes
        // it on node 0), then read by everyone for several rounds.
        let table = r.alloc(64 * 1024);
        r.serial(rnuma_mem::addr::CpuId(0), |ctx| {
            for w in 0..table.len(8) {
                ctx.write(table.word(w));
            }
        });
        r.barrier();

        let words = table.len(8);
        let rounds: Vec<Vec<u64>> = (0..r.cpus()).map(|_| (0..8u64).collect()).collect();
        r.parallel(&rounds, |ctx, cpu, round| {
            // Each CPU strides through the table from its own offset.
            let start = u64::from(cpu.0) * 97 + round * 13;
            for k in 0..512 {
                ctx.read(table.word((start + k * 7) % words));
                ctx.think(8);
            }
        });
        r.barrier();
    }
}

fn main() {
    println!("R-NUMA quickstart: 8 nodes x 4 CPUs, Table-2 costs\n");
    for protocol in [
        Protocol::ideal(),
        Protocol::paper_ccnuma(),
        Protocol::paper_scoma(),
        Protocol::paper_rnuma(),
    ] {
        let report = run(MachineConfig::paper_base(protocol), &mut TableWalk);
        println!("=== {protocol} ===");
        println!("{}\n", report.metrics);
    }
    println!(
        "Note how R-NUMA's relocation turns the remote table pages into\n\
         local page-cache hits after the refetch threshold is crossed."
    );
}
