//! The hot-path gates: batched replay and live fine-grained items, each
//! against per-op dispatch of the same ops.
//!
//! The replay lane times batched replay against per-op live dispatch of
//! the same captured streams; the bench **fails** (exit 1) when that
//! speedup falls below `hotpath::REPLAY_GATE_FLOOR`. The
//! fine-grained-items lane times live `Runner` runs of radix (1–3-op
//! items) against per-op dispatch of the same ops, and fails the bench
//! below `hotpath::FINE_ITEMS_GATE_FLOOR`. The bench prints its lanes
//! and verdicts and writes no file.
//!
//! Run with: `cargo bench -p rnuma-bench --bench hotpath`

use rnuma_bench::hotpath;

fn main() {
    let (replay, fine) = hotpath::measure();
    println!(
        "replay lane ({} ops per pass): batched {:.1} ms, per-op {:.1} ms \
         (batched is {:.3}x faster)",
        replay.replay_ops,
        replay.batched_secs * 1e3,
        replay.perop_secs * 1e3,
        replay.speedup()
    );
    println!(
        "fine-grained-items lane ({}, {} ops in {} same-CPU runs per pass): live Runner {:.1} ms, \
         per-op {:.1} ms (live is {:.3}x per-op)",
        hotpath::FINE_ITEMS_APP,
        fine.ops,
        fine.runs,
        fine.live_secs * 1e3,
        fine.perop_secs * 1e3,
        fine.ratio()
    );
    let mut failed = false;
    for gate in [
        hotpath::replay_gate(replay.speedup()),
        hotpath::fine_items_gate(fine.ratio()),
    ] {
        match gate {
            Ok(line) => println!("{line}"),
            Err(line) => {
                eprintln!("{line}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
