//! Bench lane for the trace-once/replay-many sweep driver.
//!
//! Measures a real multi-application, multi-configuration sweep three
//! ways — through the shared `TraceStore` driver, with per-cell
//! capture, and as plain execution-driven runs — plus the batched
//! replay engine in isolation (batched vs. per-op live dispatch of the
//! same cells), and records everything in `results/BENCH_sweep.json`.
//!
//! With `RNUMA_SWEEP_GATE` set (CI does), the run **fails** when the
//! batched-vs-per-op replay speedup falls more than 10% below the
//! committed baseline (`crates/bench/baselines/BENCH_sweep.json`).
//!
//! Run with: `cargo bench -p rnuma-bench --bench sweep`

use rnuma::config::{MachineConfig, Protocol};
use rnuma_bench::sweep;
use rnuma_workloads::Scale;

fn main() {
    // The Figure-6 protocol axis (capture on the ideal baseline,
    // amortized across four configurations) on two contrasting apps:
    // em3d (refetch-heavy) and moldyn (compute-heavy).
    let apps = ["em3d", "moldyn"];
    let configs = [
        MachineConfig::paper_base(Protocol::ideal()),
        MachineConfig::paper_base(Protocol::paper_ccnuma()),
        MachineConfig::paper_base(Protocol::paper_scoma()),
        MachineConfig::paper_base(Protocol::paper_rnuma()),
    ];
    let lane = sweep::measure(&apps, &configs, Scale::Tiny);

    println!(
        "sweep lane: {} apps x {} configs ({} cells), capture on the ideal baseline",
        lane.apps.len(),
        lane.configs,
        lane.apps.len() * lane.configs
    );
    println!(
        "  trace store: {} ops captured, {} flat bytes -> {} encoded \
         ({:.2}x smaller, interning ratio {:.3})",
        lane.captured_ops,
        lane.trace_flat_bytes,
        lane.trace_encoded_bytes,
        lane.trace_footprint_ratio(),
        lane.trace_interning_ratio
    );
    println!(
        "  trace-once sweep   {:>8.1} ms/pass",
        lane.sweep_secs * 1e3
    );
    println!(
        "  per-cell capture   {:>8.1} ms/pass ({:.2}x slower)",
        lane.percell_secs * 1e3,
        lane.speedup_vs_percell_capture()
    );
    println!(
        "  direct runs        {:>8.1} ms/pass ({:.2}x slower)",
        lane.direct_secs * 1e3,
        lane.speedup_vs_direct()
    );

    println!(
        "  batched replay     {:>8.1} ms/pass ({:.1}M ops/s over {} replayed ops)",
        lane.replay_secs * 1e3,
        lane.replay_ops_per_sec() / 1e6,
        lane.replay_ops
    );
    println!(
        "  per-op replay      {:>8.1} ms/pass (batched is {:.2}x faster)",
        lane.perop_replay_secs * 1e3,
        lane.batched_speedup_vs_perop()
    );

    let target = 1.3;
    if lane.speedup_vs_percell_capture() >= target {
        println!(
            "sweep acceptance: PASS ({:.2}x >= {target}x over per-cell capture)",
            lane.speedup_vs_percell_capture()
        );
    } else {
        println!(
            "sweep acceptance: BELOW TARGET ({:.2}x < {target}x) — check host load",
            lane.speedup_vs_percell_capture()
        );
    }

    // The replay regression gate: always reported, fatal under
    // RNUMA_SWEEP_GATE (the CI sweep step sets it). A missing or
    // field-less baseline is a *disarmed* gate and fails the same way —
    // otherwise losing the committed file would turn the lane into a
    // permanent green no-op.
    let gated = rnuma::experiment::env_raw("RNUMA_SWEEP_GATE").is_some();
    let verdict = match sweep::committed_baseline() {
        Some(baseline) => sweep::gate_against(&lane, &baseline),
        None => Err("replay gate: committed baseline \
                     crates/bench/baselines/BENCH_sweep.json is missing — the gate cannot arm"
            .into()),
    };
    let failed = match verdict {
        Ok(line) => {
            println!("{line}");
            false
        }
        Err(line) => {
            eprintln!("{line}");
            true
        }
    };

    lane.emit();
    if failed {
        if gated {
            std::process::exit(1);
        }
        println!("(non-fatal: RNUMA_SWEEP_GATE is unset)");
    }
}
