//! Implementing your own workload against the public API, and sweeping
//! R-NUMA's relocation threshold over it (a miniature Figure 8).
//!
//! Run with: `cargo run --release -p rnuma-bench --example custom_workload`

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::run;
use rnuma::model::ModelParams;
use rnuma::program::{Runner, Workload};
use rnuma_os::CostModel;

/// A tunable synthetic: `reuse_pages` hot pages re-read every round by
/// every node, plus a cold streaming region. The reuse:streaming ratio
/// decides which protocol wins — exactly the spectrum the paper's
/// applications cover.
struct Synthetic {
    reuse_pages: u64,
    stream_pages: u64,
    rounds: u64,
}

impl Workload for Synthetic {
    fn name(&self) -> &'static str {
        "synthetic"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let hot = r.alloc(self.reuse_pages * 4096);
        let cold = r.alloc(self.stream_pages * 4096);

        // Hot data homed on node 0 (CPU 0 writes it first).
        r.serial(rnuma_mem::addr::CpuId(0), |ctx| {
            for w in 0..hot.len(8) {
                if w % 4 == 0 {
                    ctx.write(hot.word(w));
                }
            }
        });
        r.barrier();

        let rounds: Vec<Vec<u64>> = (0..r.cpus()).map(|_| (0..self.rounds).collect()).collect();
        let stream_words = cold.len(8);
        r.parallel(&rounds, |ctx, cpu, round| {
            // Hot phase: every CPU walks all reuse pages.
            for w in (0..hot.len(8)).step_by(4) {
                ctx.read(hot.word(w));
                ctx.think(6);
            }
            // Cold phase: stream a private slice once.
            let slice = stream_words / 32;
            let base = u64::from(cpu.0) * slice;
            for k in (0..slice).step_by(16) {
                ctx.read(cold.word(base + (k + round) % slice));
            }
        });
        r.barrier();
    }
}

fn main() {
    let make = || Synthetic {
        reuse_pages: 40,
        stream_pages: 512,
        rounds: 6,
    };

    println!("Custom workload under the analytical model's guidance\n");
    let params = ModelParams::from_costs(&CostModel::base());
    println!(
        "model: T* = {:.1}, worst-case bound = {:.2}\n",
        params.optimal_threshold(),
        params.worst_case_bound()
    );

    let cc = run(
        MachineConfig::paper_base(Protocol::paper_ccnuma()),
        &mut make(),
    )
    .cycles();
    let sc = run(
        MachineConfig::paper_base(Protocol::paper_scoma()),
        &mut make(),
    )
    .cycles();
    println!("CC-NUMA: {cc} cycles\nS-COMA : {sc} cycles\n");

    println!(
        "{:>10} {:>12} {:>12} {:>8} {:>14}",
        "threshold", "cycles", "vs best", "reloc", "model bound"
    );
    let best = cc.min(sc) as f64;
    for threshold in [1, 4, 16, 64, 256, 1024] {
        let report = run(
            MachineConfig::paper_base(Protocol::RNuma {
                block_cache_bytes: 128,
                page_cache_bytes: 320 * 1024,
                threshold,
            }),
            &mut make(),
        );
        let measured = report.cycles() as f64 / best;
        let bound = params.worst_case_at(f64::from(threshold));
        println!(
            "{threshold:10} {:12} {measured:11.2}x {:8} {bound:13.2}x",
            report.cycles(),
            report.metrics.os.relocations
        );
        assert!(
            measured <= bound,
            "measured ratio exceeded the analytical bound"
        );
    }
    println!(
        "\nEvery threshold keeps R-NUMA within the model's per-threshold\n\
         worst case max(EQ1, EQ2); the bound is tightest at T* = {:.0}.",
        params.optimal_threshold()
    );
}
