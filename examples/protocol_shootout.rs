//! Runs one Table-3 application (default: moldyn) across all four
//! machines — ideal, CC-NUMA, S-COMA, R-NUMA — and prints the
//! Figure-6-style normalized comparison plus traffic counters.
//!
//! Uses the trace-once/replay-many sweep driver the figure binaries use
//! (`rnuma_bench::sweep_grid`): the application executes once, on the
//! ideal baseline, and the captured reference stream replays against
//! the three finite machines (see `docs/SWEEP.md`).
//!
//! Run with:
//! `cargo run --release -p rnuma-bench --example protocol_shootout -- [app] [tiny|small|paper]`

use rnuma::config::{MachineConfig, Protocol};
use rnuma_bench::sweep_grid;
use rnuma_workloads::{Scale, APP_NAMES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = args.get(1).map_or("moldyn", String::as_str);
    let scale = match args.get(2).map(String::as_str) {
        Some("paper") => Scale::Paper,
        Some("small") => Scale::Small,
        _ => Scale::Tiny,
    };
    let app = APP_NAMES
        .into_iter()
        .find(|&name| name == arg)
        .unwrap_or_else(|| panic!("unknown app {arg}; choose one of {APP_NAMES:?}"));

    println!("{app} at {scale:?} scale on the paper's base machines\n");
    println!(
        "{:38} {:>12} {:>7} {:>9} {:>9} {:>7} {:>7}",
        "machine", "cycles", "norm", "fetches", "refetch", "reloc", "repl"
    );
    let configs = [
        Protocol::ideal(),
        Protocol::paper_ccnuma(),
        Protocol::paper_scoma(),
        Protocol::paper_rnuma(),
    ]
    .map(MachineConfig::paper_base);
    // One execution, three replays: every machine sees the same stream.
    let rows = sweep_grid(&[app], &configs, scale);
    let base = rows[0][0].cycles() as f64;
    for report in &rows[0] {
        println!(
            "{:38} {:12} {:7.2} {:9} {:9} {:7} {:7}",
            report.config.protocol.to_string(),
            report.cycles(),
            report.cycles() as f64 / base,
            report.metrics.remote_fetches,
            report.metrics.refetches,
            report.metrics.os.relocations,
            report.metrics.os.page_replacements,
        );
    }
}
