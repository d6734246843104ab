//! E4 — Figure 5: the cumulative distribution of CC-NUMA block
//! refetches over remote pages (32-KB block cache).
//!
//! The paper's reading: "in four of the applications, less than 10% of
//! the remote pages account for over 80% of the capacity and conflict
//! misses"; radix is the flat outlier. fft is omitted (it incurs no
//! capacity/conflict misses).
//!
//! Runs through the sweep driver on a one-configuration grid (CC-NUMA
//! only), so each application is one plain execution-driven `run` and
//! no trace is built (`docs/SWEEP.md`).

use rnuma::config::Protocol;
use rnuma_bench::{apps, parse_scale, save, sweep_protocol_grid, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    let fractions = [0.05, 0.10, 0.20, 0.30, 0.50, 0.70, 1.00];

    let mut t = TextTable::new(
        "application   refetches | cumulative % of refetches at top {5,10,20,30,50,70,100}% of remote pages",
    );
    let mut csv = String::from("app,page_fraction,refetch_fraction\n");
    let grid = sweep_protocol_grid(apps(), &[Protocol::paper_ccnuma()], scale);
    for (app, row) in apps().iter().zip(&grid) {
        let report = &row[0];
        let cdf = report.metrics.refetch_cdf();
        if *app == "fft" || cdf.total() == 0 {
            t.row(format!(
                "{app:12} {:10} | (omitted: no capacity/conflict misses)",
                cdf.total()
            ));
            continue;
        }
        let cells: Vec<String> = fractions
            .iter()
            .map(|&f| format!("{:5.1}", cdf.weight_of_top(f) * 100.0))
            .collect();
        t.row(format!("{app:12} {:10} | {}", cdf.total(), cells.join(" ")));
        for &(x, y) in cdf.points() {
            csv.push_str(&format!("{app},{x:.6},{y:.6}\n"));
        }
    }
    let out = t.render();
    print!("{out}");
    save("fig5_pages.txt", &out);
    save("fig5_pages.csv", &csv);
}
