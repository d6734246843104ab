//! Micro-benchmark of the `Machine::access` hot path and of batched
//! replay.
//!
//! Measures end-to-end simulator throughput (references per wall-clock
//! second) for each protocol on a synthetic mixed stream and the
//! page-cache-thrash lane (S-COMA with page replacement on the path).
//! The replay lane times batched replay against per-op live dispatch of the same
//! captured streams; the bench **fails** (exit 1) when that speedup
//! falls below `hotpath::REPLAY_GATE_FLOOR`. The fine-grained-items
//! lane times live `Runner` runs of radix (1–3-op items) against per-op
//! dispatch of the same ops, and fails the bench below
//! `hotpath::FINE_ITEMS_GATE_FLOOR`. Results are recorded in
//! `results/BENCH_hotpath.json` so subsequent PRs have a throughput
//! trajectory to beat.
//!
//! Run with: `cargo bench -p rnuma-bench --bench hotpath`

use rnuma_bench::hotpath;

fn main() {
    // ~200k references keeps a full run under a minute in bench builds
    // while exercising faults, refetches, and relocations.
    let report = hotpath::measure(200_000);

    println!(
        "Machine::access throughput (synthetic mixed stream, {} refs):",
        report.stream_refs
    );
    for p in &report.protocols {
        println!("  {:10} {:>12.0} refs/sec", p.label, p.refs_per_sec);
    }
    println!(
        "MRU fast path: {:.1}% of L1-miss translations served without a table walk",
        report.mru_hit_rate * 100.0
    );
    println!(
        "page-cache thrash (S-COMA, {} pages): {:.0} refs/sec, {} replacements, {:.0} ns/replacement",
        rnuma_bench::hotpath::THRASH_PAGES,
        report.thrash.refs_per_sec,
        report.thrash.page_replacements,
        report.thrash.ns_per_replacement
    );
    println!(
        "replay lane ({} ops per pass): batched {:.1} ms, per-op {:.1} ms \
         (batched is {:.3}x faster)",
        report.replay.replay_ops,
        report.replay.batched_secs * 1e3,
        report.replay.perop_secs * 1e3,
        report.replay.speedup()
    );
    let fine = &report.fine_items;
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
    let gates = [
        hotpath::replay_gate(report.replay.speedup()),
        hotpath::fine_items_gate(fine.ratio()),
    ];

    report.emit();
    let mut failed = false;
    for gate in gates {
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
