//! Sweep-throughput measurement and the `BENCH_sweep.json` emitter.
//!
//! The trace-once/replay-many driver exists to amortize trace capture
//! across a configuration sweep (see `docs/SWEEP.md`). This lane
//! measures exactly that amortization on real application kernels:
//!
//! * **sweep** — the driver itself: capture each application's stream
//!   once on the baseline configuration, intern it, replay it on every
//!   other configuration;
//! * **per-cell capture** — the same replay infrastructure *without*
//!   the shared store: every cell captures its own trace and replays
//!   it (what a sweep without the store would pay);
//! * **direct** — plain execution-driven `run` per cell, for reference
//!   (it pays workload generation per cell but never materializes a
//!   trace).
//!
//! * **replay throughput** — the batched replay engine in isolation:
//!   the non-capture cells replayed from the interned store (batched,
//!   pre-split run tables) against the same cells driven through the
//!   live API one op at a time (`live_dispatch` — the thin wrapper
//!   standing in for the retired per-op replay path). The
//!   batched-vs-per-op speedup is the host-independent gate CI
//!   enforces (`RNUMA_SWEEP_GATE`).
//!
//! Results land in `results/BENCH_sweep.json` (the canonical
//! workspace-root directory) so subsequent PRs have a
//! sweep-throughput trajectory; the acceptance gates are the
//! sweep-vs-per-cell-capture speedup and the batched-vs-per-op replay
//! speedup against the committed baseline
//! (`crates/bench/baselines/BENCH_sweep.json`).

use rnuma::config::MachineConfig;
use rnuma::experiment::{run, run_traced, TraceStore};
use rnuma::{Machine, TraceOp};
use rnuma_workloads::{by_name, Scale};
use std::fmt::Write as _;
use std::time::Instant;

/// Drives `ops` through the live per-op API (`Machine::access` and
/// friends), one op at a time. The per-op replay entry points are
/// retired from the public API; this thin wrapper is their stand-in as
/// the reference leg of the batched-vs-per-op lanes — and of the
/// differential test suites, which share this one definition — paying
/// exactly the per-op dispatch and per-op engine setup the batched
/// loop eliminates.
pub fn live_dispatch(machine: &mut Machine, ops: &[TraceOp]) {
    for op in ops {
        match *op {
            TraceOp::Access { cpu, va, write } => {
                machine.access(cpu, va, write);
            }
            TraceOp::Think { cpu, dur } => machine.advance(cpu, dur),
            TraceOp::Barrier => machine.barrier_all(),
            TraceOp::ArmFirstTouch => machine.arm_first_touch(),
        }
    }
}

/// Everything `BENCH_sweep.json` records.
#[derive(Clone, Debug)]
pub struct SweepLane {
    /// Applications measured.
    pub apps: Vec<&'static str>,
    /// Configurations per application (capture amortized across these).
    pub configs: usize,
    /// Total operations captured per sweep pass.
    pub captured_ops: u64,
    /// Bytes the captured streams would occupy as flat `TraceOp`
    /// arrays (the storage format the encoded store replaces).
    pub trace_flat_bytes: u64,
    /// Bytes the columnar, delta-encoded store actually occupies.
    pub trace_encoded_bytes: u64,
    /// Stored over referenced profile bytes (≤ 1.0; below 1.0 when
    /// profile interning dedups shared reference patterns).
    pub trace_interning_ratio: f64,
    /// Seconds per full sweep through the trace-once driver.
    pub sweep_secs: f64,
    /// Seconds per full sweep with per-cell capture + replay.
    pub percell_secs: f64,
    /// Seconds per full sweep of plain execution-driven runs.
    pub direct_secs: f64,
    /// Ops replayed per replay-only pass (all non-capture cells).
    pub replay_ops: u64,
    /// Seconds per replay-only pass through the batched loop.
    pub replay_secs: f64,
    /// Seconds per replay-only pass through per-op live dispatch (the
    /// reference leg standing in for the retired per-op replay path).
    pub perop_replay_secs: f64,
    /// Hardware threads available to the measuring process — recorded
    /// so the wall-time lanes can be read in context.
    pub host_cores: usize,
}

impl SweepLane {
    /// End-to-end sweep speedup over per-cell capture — the gate.
    #[must_use]
    pub fn speedup_vs_percell_capture(&self) -> f64 {
        self.percell_secs / self.sweep_secs
    }

    /// Sweep speedup over plain per-cell execution-driven runs.
    #[must_use]
    pub fn speedup_vs_direct(&self) -> f64 {
        self.direct_secs / self.sweep_secs
    }

    /// Batched replay throughput, in trace ops per second.
    #[must_use]
    pub fn replay_ops_per_sec(&self) -> f64 {
        self.replay_ops as f64 / self.replay_secs
    }

    /// Batched-vs-per-op replay speedup — host-independent (both sides
    /// run on the same machine in the same process), so it is the
    /// number the CI regression gate compares across commits. "Per-op"
    /// is live dispatch through the public API (`live_dispatch`),
    /// the stand-in for the retired per-op replay path.
    #[must_use]
    pub fn batched_speedup_vs_perop(&self) -> f64 {
        self.perop_replay_secs / self.replay_secs
    }

    /// Trace memory compression: flat `TraceOp`-array bytes over
    /// encoded-store bytes (the ≥ 4× acceptance metric).
    #[must_use]
    pub fn trace_footprint_ratio(&self) -> f64 {
        if self.trace_encoded_bytes == 0 {
            1.0
        } else {
            self.trace_flat_bytes as f64 / self.trace_encoded_bytes as f64
        }
    }

    /// Renders the report as JSON (hand-rolled: the workspace carries no
    /// serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let apps: Vec<String> = self.apps.iter().map(|a| format!("\"{a}\"")).collect();
        let _ = writeln!(s, "  \"apps\": [{}],", apps.join(", "));
        let _ = writeln!(s, "  \"configs\": {},", self.configs);
        let _ = writeln!(s, "  \"cells\": {},", self.apps.len() * self.configs);
        let _ = writeln!(s, "  \"captured_ops\": {},", self.captured_ops);
        let _ = writeln!(s, "  \"trace_flat_bytes\": {},", self.trace_flat_bytes);
        let _ = writeln!(
            s,
            "  \"trace_encoded_bytes\": {},",
            self.trace_encoded_bytes
        );
        let _ = writeln!(
            s,
            "  \"trace_footprint_ratio\": {:.2},",
            self.trace_footprint_ratio()
        );
        let _ = writeln!(
            s,
            "  \"interning_ratio\": {:.3},",
            self.trace_interning_ratio
        );
        let _ = writeln!(s, "  \"sweep_secs\": {:.4},", self.sweep_secs);
        let _ = writeln!(s, "  \"percell_capture_secs\": {:.4},", self.percell_secs);
        let _ = writeln!(s, "  \"direct_run_secs\": {:.4},", self.direct_secs);
        let _ = writeln!(
            s,
            "  \"speedup_vs_percell_capture\": {:.2},",
            self.speedup_vs_percell_capture()
        );
        let _ = writeln!(
            s,
            "  \"speedup_vs_direct_run\": {:.2},",
            self.speedup_vs_direct()
        );
        let _ = writeln!(s, "  \"replay_ops\": {},", self.replay_ops);
        let _ = writeln!(s, "  \"replay_secs\": {:.4},", self.replay_secs);
        let _ = writeln!(s, "  \"perop_replay_secs\": {:.4},", self.perop_replay_secs);
        let _ = writeln!(
            s,
            "  \"replay_ops_per_sec\": {:.0},",
            self.replay_ops_per_sec()
        );
        let _ = writeln!(
            s,
            "  \"batched_speedup_vs_perop\": {:.3},",
            self.batched_speedup_vs_perop()
        );
        let _ = writeln!(s, "  \"host_cores\": {}", self.host_cores);
        s.push('}');
        s
    }

    /// Writes `results/BENCH_sweep.json` (creating the directory) and
    /// echoes the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors.
    pub fn emit(&self) {
        crate::save("BENCH_sweep.json", &self.to_json());
    }
}

/// Times `pass` (a full sweep in one of the measured modes) until at
/// least `budget` seconds of work have accumulated, returning seconds
/// per pass.
fn time_passes_for(budget: f64, mut pass: impl FnMut()) -> f64 {
    let mut passes = 0u32;
    let mut total = 0.0f64;
    while total < budget {
        let t0 = Instant::now();
        pass();
        total += t0.elapsed().as_secs_f64();
        passes += 1;
    }
    total / f64::from(passes)
}

/// [`time_passes_for`] with the default ~0.2 s budget.
fn time_passes(pass: impl FnMut()) -> f64 {
    time_passes_for(0.2, pass)
}

/// The encoded store's footprint statistics from one sweep pass.
#[derive(Clone, Copy, Debug)]
struct TraceStats {
    captured_ops: u64,
    flat_bytes: u64,
    encoded_bytes: u64,
    interning_ratio: f64,
}

/// One sweep pass through the trace-once/replay-many driver. Returns
/// the store's footprint statistics.
fn sweep_pass(apps: &[&'static str], configs: &[MachineConfig], scale: Scale) -> TraceStats {
    let mut store = TraceStore::new();
    let mut sink = 0u64;
    for &app in apps {
        let mut w = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
        let (id, report) = store.capture(configs[0], &mut w);
        sink ^= report.cycles();
        for &config in &configs[1..] {
            sink ^= store.replay_serial(id, config).cycles();
        }
    }
    std::hint::black_box(sink);
    TraceStats {
        captured_ops: store.captured_ops(),
        flat_bytes: store.flat_bytes(),
        encoded_bytes: store.encoded_bytes(),
        interning_ratio: store.interning_ratio(),
    }
}

/// One sweep pass with per-cell capture: every cell records its own
/// trace and replays it on a fresh machine.
fn percell_pass(apps: &[&'static str], configs: &[MachineConfig], scale: Scale) {
    let mut sink = 0u64;
    for &app in apps {
        for &config in configs {
            let mut w = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
            let (report, trace) = run_traced(config, &mut w);
            let mut machine = Machine::new(config).expect("valid config");
            machine.apply_batch(&trace);
            assert!(report.metrics.replay_eq(&machine.metrics()));
            sink ^= report.cycles();
        }
    }
    std::hint::black_box(sink);
}

/// One sweep pass of plain execution-driven runs.
fn direct_pass(apps: &[&'static str], configs: &[MachineConfig], scale: Scale) {
    let mut sink = 0u64;
    for &app in apps {
        for &config in configs {
            let mut w = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
            sink ^= run(config, &mut w).cycles();
        }
    }
    std::hint::black_box(sink);
}

/// Measures the sweep modes and the replay engine on `apps` × `configs`
/// at `scale`.
///
/// # Panics
///
/// Panics if an app is unknown or a configuration is invalid.
#[must_use]
pub fn measure(apps: &[&'static str], configs: &[MachineConfig], scale: Scale) -> SweepLane {
    // One warm-up-and-stats pass outside the timers.
    let stats = sweep_pass(apps, configs, scale);
    let sweep_secs = time_passes(|| {
        let _ = sweep_pass(apps, configs, scale);
    });
    let percell_secs = time_passes(|| percell_pass(apps, configs, scale));
    let direct_secs = time_passes(|| direct_pass(apps, configs, scale));

    // Replay-engine isolation: capture once outside the timers, then
    // time only the non-capture cells — batched (the production path,
    // consuming the store's pre-split run tables) against per-op live
    // dispatch (the stand-in for the retired per-op replay path), on
    // the same streams in the same process, so their ratio is
    // host-independent.
    let mut store = TraceStore::new();
    let ids: Vec<_> = apps
        .iter()
        .map(|&app| {
            let mut w = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
            store.capture(configs[0], &mut w).0
        })
        .collect();
    // The two replay lanes feed the CI regression gate, so they get a
    // longer budget than the reporting-only lanes: their *ratio* must
    // be stable against scheduler noise, not just indicative.
    let replay_ops = store.captured_ops() * (configs.len() as u64 - 1);
    let replay_secs = time_passes_for(0.6, || {
        let mut sink = 0u64;
        for &id in &ids {
            for &config in &configs[1..] {
                sink ^= store.replay_serial(id, config).cycles();
            }
        }
        std::hint::black_box(sink);
    });
    let perop_replay_secs = time_passes_for(0.6, || {
        let mut sink = 0u64;
        for &id in &ids {
            for &config in &configs[1..] {
                let mut machine = Machine::new(config).expect("valid config");
                store.for_each_batch(id, |ops, _| live_dispatch(&mut machine, ops));
                sink ^= machine.metrics().exec_cycles.0;
            }
        }
        std::hint::black_box(sink);
    });

    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    SweepLane {
        apps: apps.to_vec(),
        configs: configs.len(),
        captured_ops: stats.captured_ops,
        trace_flat_bytes: stats.flat_bytes,
        trace_encoded_bytes: stats.encoded_bytes,
        trace_interning_ratio: stats.interning_ratio,
        sweep_secs,
        percell_secs,
        direct_secs,
        replay_ops,
        replay_secs,
        perop_replay_secs,
        host_cores,
    }
}

/// Extracts a numeric field from a `BENCH_sweep.json`-style document
/// (flat `"key": number` pairs; no nesting of the queried key). Only
/// matches a key that begins its line (after whitespace or the opening
/// brace), so the same text quoted inside an earlier string value —
/// the baseline file carries a prose `note` — can never be parsed as
/// the field.
#[must_use]
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let mut search = 0usize;
    while let Some(rel) = doc[search..].find(&pat) {
        let at = search + rel;
        let line_start = doc[..at].rfind('\n').map_or(0, |p| p + 1);
        if doc[line_start..at]
            .chars()
            .all(|c| c.is_whitespace() || c == '{')
        {
            let rest = doc[at + pat.len()..].trim_start();
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
                .unwrap_or(rest.len());
            return rest[..end].parse().ok();
        }
        search = at + pat.len();
    }
    None
}

/// The committed replay-gate baseline
/// (`crates/bench/baselines/BENCH_sweep.json`), if present.
#[must_use]
pub fn committed_baseline() -> Option<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("baselines")
        .join("BENCH_sweep.json");
    std::fs::read_to_string(path).ok()
}

/// The CI regression gate: compares the lane's batched-vs-per-op replay
/// speedup against the committed baseline's. Returns `Err` with a
/// human-readable message when the current run regresses by more than
/// 10% (the host-independent ratio makes this meaningful across
/// machines); `Ok` carries the comparison line to print.
///
/// # Errors
///
/// Returns `Err` when the measured speedup falls more than 10% below
/// the committed baseline, or when the baseline document does not
/// record one (a disarmed gate must fail loudly, not skip silently).
pub fn gate_against(lane: &SweepLane, baseline_doc: &str) -> Result<String, String> {
    let Some(baseline) = json_number(baseline_doc, "batched_speedup_vs_perop") else {
        return Err(
            "replay gate: baseline records no batched_speedup_vs_perop — the gate cannot arm"
                .into(),
        );
    };
    let current = lane.batched_speedup_vs_perop();
    let floor = baseline * 0.9;
    if current < floor {
        Err(format!(
            "replay gate: FAIL — batched-vs-per-op speedup {current:.3}x fell more than 10% \
             below the recorded baseline {baseline:.3}x (floor {floor:.3}x)"
        ))
    } else {
        Ok(format!(
            "replay gate: PASS ({current:.3}x vs recorded baseline {baseline:.3}x, floor {floor:.3}x)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuma::config::Protocol;

    fn lane() -> SweepLane {
        SweepLane {
            apps: vec!["em3d", "moldyn"],
            configs: 4,
            captured_ops: 1000,
            trace_flat_bytes: 24_000,
            trace_encoded_bytes: 3_000,
            trace_interning_ratio: 0.5,
            sweep_secs: 1.0,
            percell_secs: 2.0,
            direct_secs: 1.5,
            replay_ops: 3000,
            replay_secs: 0.5,
            perop_replay_secs: 0.75,
            host_cores: 8,
        }
    }

    #[test]
    fn json_shape_is_sane() {
        let lane = lane();
        let json = lane.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cells\": 8"));
        assert!(json.contains("\"speedup_vs_percell_capture\": 2.00"));
        assert!(json.contains("\"speedup_vs_direct_run\": 1.50"));
        assert!(json.contains("\"replay_ops_per_sec\": 6000"));
        assert!(json.contains("\"batched_speedup_vs_perop\": 1.500"));
        assert!(!json.contains("pooled"));
        assert!(json.contains("\"host_cores\": 8"));
        assert!(json.contains("\"trace_flat_bytes\": 24000"));
        assert!(json.contains("\"trace_footprint_ratio\": 8.00"));
        assert!(json.contains("\"interning_ratio\": 0.500"));
        assert!((lane.trace_footprint_ratio() - 8.0).abs() < 1e-12);
        // The emitted document round-trips through the gate parser.
        assert_eq!(json_number(&json, "batched_speedup_vs_perop"), Some(1.5));
    }

    #[test]
    fn json_number_parses_flat_fields() {
        let doc = "{\n  \"a\": 12,\n  \"b\": 0.125,\n  \"c\": -3.5\n}";
        assert_eq!(json_number(doc, "a"), Some(12.0));
        assert_eq!(json_number(doc, "b"), Some(0.125));
        assert_eq!(json_number(doc, "c"), Some(-3.5));
        assert_eq!(json_number(doc, "missing"), None);
        // Single-line documents still parse (the key follows `{`).
        assert_eq!(json_number("{\"a\": 7}", "a"), Some(7.0));
    }

    #[test]
    fn json_number_ignores_keys_quoted_inside_string_values() {
        // A prose note that quotes the field in JSON form must not be
        // parsed as the field — only the real line-leading key counts.
        let doc = "{\n  \"note\": \"set \\\"gate\\\": 9.9 to tune\",\n  \"gate\": 1.25\n}";
        assert_eq!(json_number(doc, "gate"), Some(1.25));
        let noteonly = "{\n  \"note\": \"mentions \\\"gate\\\": 9.9 only\"\n}";
        assert_eq!(json_number(noteonly, "gate"), None);
    }

    #[test]
    fn gate_passes_within_ten_percent_and_fails_below() {
        let lane = lane(); // 1.5x batched-vs-per-op
        assert!(gate_against(&lane, "{\"batched_speedup_vs_perop\": 1.55}").is_ok());
        assert!(gate_against(&lane, "{\"batched_speedup_vs_perop\": 1.666}").is_ok());
        assert!(gate_against(&lane, "{\"batched_speedup_vs_perop\": 1.7}").is_err());
        // A baseline without the field is a disarmed gate: an error,
        // never a silent skip.
        assert!(gate_against(&lane, "{}").is_err());
    }

    #[test]
    fn sweep_pass_produces_trace_stats() {
        let configs = [
            MachineConfig::paper_base(Protocol::ideal()),
            MachineConfig::paper_base(Protocol::paper_rnuma()),
        ];
        let stats = sweep_pass(&["em3d"], &configs, Scale::Tiny);
        assert!(stats.captured_ops > 0);
        assert!(
            stats.encoded_bytes * 4 <= stats.flat_bytes,
            "encoding must compress ≥ 4× even at tiny scale \
             ({} flat vs {} encoded bytes)",
            stats.flat_bytes,
            stats.encoded_bytes
        );
        assert!(stats.interning_ratio <= 1.0);
    }
}
