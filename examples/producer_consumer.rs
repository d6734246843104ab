//! Communication pages: a producer/consumer pipeline where every datum
//! is written by one node and read once by another. These pages gain
//! nothing from S-COMA's page cache (each block is used once per
//! version), so CC-NUMA wins — and R-NUMA, detecting no refetches,
//! correctly leaves the pages in CC-NUMA mode.
//!
//! Run with: `cargo run --release -p rnuma-bench --example producer_consumer`

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::run;
use rnuma::program::{Runner, Workload};

const SLOTS: u64 = 4096; // 8-byte slots per stage buffer
const ROUNDS: u64 = 8;

/// CPUs form a ring; each stage writes a buffer the next stage reads.
struct Pipeline;

impl Workload for Pipeline {
    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let cpus = u64::from(r.cpus());
        let buffers: Vec<_> = (0..cpus).map(|_| r.alloc(SLOTS * 8)).collect();

        // Each stage initializes its own outbound buffer (first touch).
        let one_each: Vec<Vec<u64>> = (0..cpus).map(|c| vec![c]).collect();
        r.parallel(&one_each, |ctx, _cpu, c| {
            for s in 0..SLOTS {
                ctx.write(buffers[c as usize].word(s));
            }
        });
        r.barrier();

        for _ in 0..ROUNDS {
            // Consume the upstream buffer, produce into our own.
            r.parallel(&one_each, |ctx, _cpu, c| {
                let upstream = buffers[((c + cpus - 1) % cpus) as usize];
                let own = buffers[c as usize];
                for s in 0..SLOTS {
                    ctx.read(upstream.word(s));
                    ctx.think(12);
                    ctx.write(own.word(s));
                }
            });
            r.barrier();
        }
    }
}

fn main() {
    println!("Producer/consumer ring: pure communication pages\n");
    let ideal = run(MachineConfig::paper_base(Protocol::ideal()), &mut Pipeline).cycles() as f64;
    println!(
        "{:10} {:>10} {:>11} {:>12} {:>13}",
        "protocol", "vs ideal", "refetches", "relocations", "replacements"
    );
    for protocol in [
        Protocol::paper_ccnuma(),
        Protocol::paper_scoma(),
        Protocol::paper_rnuma(),
    ] {
        let report = run(MachineConfig::paper_base(protocol), &mut Pipeline);
        println!(
            "{:10} {:9.2}x {:11} {:12} {:13}",
            report.protocol,
            report.cycles() as f64 / ideal,
            report.metrics.refetches,
            report.metrics.os.relocations,
            report.metrics.os.page_replacements,
        );
    }
    println!(
        "\nCoherence misses dominate: the directory sees almost no\n\
         refetches, R-NUMA relocates (almost) nothing, and S-COMA pays\n\
         page-cache allocations for single-use data."
    );
}
