//! Child process of the figure-regeneration benchmark (`perfbench/run.py`).
//!
//! Each invocation is one cold process in one mode:
//!
//! * `setup` builds the workload's grids, prints the plan (set-up time,
//!   scale, grid names, worker count) and exits: the set-up cost alone.
//!   `workload()` below is the one table of workloads; `run.py` reads
//!   the scale and grids from this output.
//! * `sweep` sets up, then regenerates every grid through the public call
//!   each figure binary makes — `rnuma_bench::sweep_grid`, or `run_grid`
//!   for table3 — with tracing off, and prints one digest per cell.
//! * `trace` regenerates the same cells serially, calling each layer's
//!   public function itself (`experiment::run_traced`, `TraceStore::insert`,
//!   `TraceStore::for_each_batch`, `TraceStore::replay_serial`) and timing
//!   a span around every call. Spans stay in memory until the end, then go
//!   to the `--spans` file.
//!
//! Every mode prints one JSON object on stdout; `run.py` checks the
//! digests and turns the timings into metrics.
//!
//! Usage: `rnuma-perfbench <setup|sweep|trace> --workload <name>
//! [--scale paper|small|tiny] [--seed <n>] [--spans <path>]`

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{parallel_workers, run_traced, RunReport, TraceStore};
use rnuma::metrics::Metrics;
use rnuma_bench::{run_grid, sweep_grid};
use rnuma_mem::page_cache::ReplacementPolicy;
use rnuma_os::CostModel;
use rnuma_sim::DetRng;
use rnuma_workloads::{by_name, Scale, APP_NAMES};
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which public entry point regenerates a grid.
#[derive(Clone, Copy)]
enum Driver {
    /// `run_grid`: every cell executes live (table3).
    Live,
    /// `sweep_grid`: capture on the first column, replay the rest.
    Sweep,
}

/// One figure's grid: applications (rows) × machine configurations
/// (columns), exactly as the figure binary builds it.
struct Grid {
    name: &'static str,
    driver: Driver,
    columns: Vec<(&'static str, MachineConfig)>,
    apps: Vec<&'static str>,
}

/// The grids `all_experiments` simulates, in its order.
const SUITE: [&str; 8] = [
    "table3", "fig5", "table4", "fig6", "fig7", "fig8", "fig9", "ablation",
];

/// A workload's default scale and grids.
fn workload(name: &str) -> Option<(Scale, &'static [&'static str])> {
    match name {
        "fig6-paper" => Some((Scale::Paper, &["fig6"])),
        "fig5-capture-paper" => Some((Scale::Paper, &["fig5"])),
        "suite-small" => Some((Scale::Small, &SUITE)),
        _ => None,
    }
}

/// The columns of one grid, mirroring its binary in `crates/bench/src/bin`.
fn columns(grid: &str) -> (Driver, Vec<(&'static str, MachineConfig)>) {
    let base = MachineConfig::paper_base;
    let soft = |protocol| MachineConfig {
        costs: CostModel::soft(),
        ..base(protocol)
    };
    let policy = |protocol, page_policy| MachineConfig {
        page_policy,
        ..base(protocol)
    };
    let rnuma = |block_cache_bytes, page_cache_bytes, threshold| Protocol::RNuma {
        block_cache_bytes,
        page_cache_bytes,
        threshold,
    };
    let ideal = ("ideal", base(Protocol::ideal()));
    let ccnuma = ("ccnuma", base(Protocol::paper_ccnuma()));
    let scoma = ("scoma", base(Protocol::paper_scoma()));
    let rn = ("rnuma", base(Protocol::paper_rnuma()));
    let columns = match grid {
        "table3" => return (Driver::Live, vec![ideal]),
        "fig5" => vec![ccnuma],
        "table4" => vec![ccnuma, scoma, rn],
        "fig6" => vec![ideal, ccnuma, scoma, rn],
        "fig7" => vec![
            ideal,
            (
                "cc_1k",
                base(Protocol::CcNuma {
                    block_cache_bytes: Some(1024),
                }),
            ),
            ("cc_32k", ccnuma.1),
            ("rn_128_320k", rn.1),
            ("rn_32k_320k", base(rnuma(32 * 1024, 320 * 1024, 64))),
            ("rn_128_40m", base(rnuma(128, 40 * 1024 * 1024, 64))),
        ],
        "fig8" => vec![
            ("rn_t16", base(rnuma(128, 320 * 1024, 16))),
            ("rn_t64", base(rnuma(128, 320 * 1024, 64))),
            ("rn_t256", base(rnuma(128, 320 * 1024, 256))),
            ("rn_t1024", base(rnuma(128, 320 * 1024, 1024))),
        ],
        "fig9" => vec![
            ideal,
            scoma,
            ("scoma_soft", soft(Protocol::paper_scoma())),
            rn,
            ("rnuma_soft", soft(Protocol::paper_rnuma())),
        ],
        "ablation" => {
            let lrm = ReplacementPolicy::LeastRecentlyMissed;
            let fifo = ReplacementPolicy::Fifo;
            let random = ReplacementPolicy::Random;
            vec![
                ("scoma_lrm", policy(Protocol::paper_scoma(), lrm)),
                ("scoma_fifo", policy(Protocol::paper_scoma(), fifo)),
                ("scoma_random", policy(Protocol::paper_scoma(), random)),
                ("rnuma_lrm", policy(Protocol::paper_rnuma(), lrm)),
                ("rnuma_fifo", policy(Protocol::paper_rnuma(), fifo)),
                ("rnuma_random", policy(Protocol::paper_rnuma(), random)),
            ]
        }
        other => unreachable!("no grid named {other}"),
    };
    (Driver::Sweep, columns)
}

/// The order in which apps enter one grid. The kernels' own RNG seeds are
/// fixed, so the order is the one input property a seed can vary. Seed 0
/// keeps the paper's order; any other seed shuffles the apps inside each
/// of the paper order's `workers`-sized capture chunks. The chunks and
/// their sequence stay as the figure binaries have them: which raw traces
/// are resident together, and how full the store is by then, set peak
/// memory (radix's 16 M-op trace is 400 MB flat), so moving radix's chunk
/// alone shifts peak RSS by ~30% between seeds.
fn app_order(rng: &mut DetRng, seed: u64, workers: usize) -> Vec<&'static str> {
    let mut apps = APP_NAMES.to_vec();
    if seed != 0 {
        for chunk in apps.chunks_mut(workers) {
            rng.shuffle(chunk);
        }
    }
    apps
}

struct Args {
    mode: String,
    workload: String,
    scale: Option<Scale>,
    seed: u64,
    spans: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("rnuma-perfbench: {msg}");
    eprintln!(
        "usage: rnuma-perfbench <setup|sweep|trace> --workload <name> \
         [--scale paper|small|tiny] [--seed <n>] [--spans <path>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        usage("missing mode");
    };
    if !["setup", "sweep", "trace"].contains(&mode.as_str()) {
        usage(&format!("unknown mode {mode:?}"));
    }
    let mut args = Args {
        mode: mode.clone(),
        workload: String::new(),
        scale: None,
        seed: 0,
        spans: None,
    };
    for pair in rest.chunks(2) {
        let [flag, value] = pair else {
            usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--scale" => {
                args.scale = Some(match value.as_str() {
                    "paper" => Scale::Paper,
                    "small" => Scale::Small,
                    "tiny" => Scale::Tiny,
                    _ => usage(&format!("unknown scale {value:?}")),
                });
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed {value:?}")));
            }
            "--spans" => args.spans = Some(value.clone()),
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    args
}

/// Everything decided before the first simulation call.
struct Plan {
    scale: Scale,
    grids: Vec<Grid>,
    workers: usize,
}

/// The set-up phase: configs, app orders, workload construction, the
/// results directory and the worker count the sweep pool will use.
fn setup(args: &Args) -> Plan {
    let Some((default_scale, grid_names)) = workload(&args.workload) else {
        usage(&format!("unknown workload {:?}", args.workload));
    };
    let scale = args.scale.unwrap_or(default_scale);
    let workers = parallel_workers(APP_NAMES.len());
    let mut rng = DetRng::seeded(args.seed);
    let grids = grid_names
        .iter()
        .map(|&name| {
            let (driver, columns) = columns(name);
            Grid {
                name,
                driver,
                columns,
                apps: app_order(&mut rng, args.seed, workers),
            }
        })
        .collect();
    for app in APP_NAMES {
        black_box(by_name(app, scale).expect("every Table-3 app is registered"));
    }
    if let Err(err) = std::fs::create_dir_all("results") {
        eprintln!("rnuma-perfbench: cannot create results/: {err}");
        std::process::exit(1);
    }
    Plan {
        scale,
        grids,
        workers,
    }
}

/// The plan's JSON fields, printed by every mode: `run.py` learns the
/// workload's scale and grids from them.
fn plan_json(plan: &Plan, setup_s: f64) -> String {
    let names: Vec<&str> = plan.grids.iter().map(|g| g.name).collect();
    format!(
        "\"setup_s\":{setup_s:.9},\"scale\":\"{}\",\"grids\":{},\"workers\":{}",
        format!("{:?}", plan.scale).to_lowercase(),
        json_list(&names),
        plan.workers
    )
}

/// FNV-1a over the simulated results — every field `Metrics::replay_eq`
/// compares, pages in sorted order — so a digest is equal exactly when
/// two runs are bit-identical replays of each other.
fn digest(m: &Metrics) -> u64 {
    let mut h = FNV_OFFSET;
    let mut feed = |v: u64| h = fnv1a(h, &v.to_le_bytes());
    for v in [
        m.reads,
        m.writes,
        m.l1_hits,
        m.mru_translation_hits,
        m.l1_misses,
        m.c2c_transfers,
        m.local_fills,
        m.block_cache_hits,
        m.page_cache_hits,
        m.remote_fetches,
        m.refetches,
        m.relocation_interrupts,
        m.os.page_faults,
        m.os.ccnuma_maps,
        m.os.scoma_allocations,
        m.os.page_replacements,
        m.os.relocations,
        m.os.tlb_shootdowns,
        m.os.blocks_flushed,
        m.exec_cycles.0,
        m.net_messages,
        m.ni_wait.0,
    ] {
        feed(v);
    }
    feed(m.per_cpu_cycles.len() as u64);
    for c in &m.per_cpu_cycles {
        feed(c.0);
    }
    let pages = m.pages_sorted();
    feed(pages.len() as u64);
    for (page, p) in pages {
        for v in [
            page.0,
            p.accessors.bits(),
            p.writers.bits(),
            p.refetches,
            p.remote_fetches,
        ] {
            feed(v);
        }
    }
    h
}

fn cell_key(grid: &Grid, app: &str, column: &str) -> String {
    format!("{}/{app}/{column}", grid.name)
}

/// One cell's result as JSON; `ops` is the stream length when known.
fn cell_json(key: &str, report: &RunReport, ops: Option<usize>) -> String {
    let m = &report.metrics;
    let mut out = format!("{{\"key\":\"{key}\",\"digest\":\"{:016x}\"", digest(m));
    if let Some(ops) = ops {
        let _ = write!(
            out,
            ",\"class\":\"{}\",\"ops\":{ops},\"references\":{},\"l1_misses\":{},\
             \"remote_fetches\":{},\"refetches\":{},\"relocations\":{}",
            class(&report.config),
            m.references(),
            m.l1_misses,
            m.remote_fetches,
            m.refetches,
            m.os.relocations
        );
    }
    out.push('}');
    out
}

/// The protocol family a replay rate is reported under.
fn class(config: &MachineConfig) -> &'static str {
    match config.protocol {
        Protocol::CcNuma {
            block_cache_bytes: None,
        } => "ideal",
        Protocol::CcNuma { .. } => "ccnuma",
        Protocol::SComa { .. } => "scoma",
        Protocol::RNuma { .. } => "rnuma",
    }
}

/// Identity of a capture configuration, so two grids capturing the same
/// (app, config) stream can be recognised.
fn config_id(config: &MachineConfig) -> u64 {
    fnv1a(FNV_OFFSET, format!("{config:?}").as_bytes())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Regenerates every grid through the figure binaries' entry points.
fn sweep(plan: &Plan, cells: &mut Vec<String>, failed: &mut Vec<&'static str>) {
    for grid in &plan.grids {
        let configs: Vec<MachineConfig> = grid.columns.iter().map(|&(_, c)| c).collect();
        let rows = catch_unwind(AssertUnwindSafe(|| match grid.driver {
            Driver::Live => run_grid(&grid.apps, &configs, plan.scale),
            Driver::Sweep => sweep_grid(&grid.apps, &configs, plan.scale),
        }));
        let Ok(rows) = rows else {
            failed.push(grid.name);
            continue;
        };
        for (app, row) in grid.apps.iter().zip(&rows) {
            for (&(column, _), report) in grid.columns.iter().zip(row) {
                cells.push(cell_json(&cell_key(grid, app, column), report, None));
            }
        }
    }
}

/// Spans recorded around layer calls, kept in memory until the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    cell: String,
    attrs: String,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>, cell: &str) -> usize {
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent,
            cell: cell.to_string(),
            attrs: String::new(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
    }

    /// Attaches a numeric attribute to a span.
    fn attr(&mut self, id: usize, key: &str, value: impl std::fmt::Display) {
        let attrs = &mut self.spans[id].attrs;
        if !attrs.is_empty() {
            attrs.push(',');
        }
        let _ = write!(attrs, "\"{key}\":{value}");
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\
                 \"parent\":{parent},\"cell\":\"{}\",\"attrs\":{{{}}}}}",
                s.name, s.start, s.end, s.cell, s.attrs
            );
        }
        out
    }
}

/// The traced run of one sweep grid: every layer called on its own, one
/// cell at a time, in the sweep's phase order (captures, then replays).
fn trace_sweep(tr: &mut Tracer, g: usize, grid: &Grid, scale: Scale, cells: &mut Vec<String>) {
    let (capture_column, capture_config) = grid.columns[0];
    let mut store = TraceStore::new();
    let mut ids = Vec::with_capacity(grid.apps.len());
    for &app in &grid.apps {
        let key = cell_key(grid, app, capture_column);
        let s = tr.open("capture", Some(g), &key);
        let mut w = by_name(app, scale).expect("every Table-3 app is registered");
        let (report, trace) = run_traced(capture_config, w.as_mut());
        tr.close(s);
        tr.attr(s, "ops", trace.len());
        tr.attr(s, "flat_bytes", std::mem::size_of_val(trace.as_slice()));
        tr.attr(s, "config_id", config_id(&capture_config));
        let s = tr.open("encode", Some(g), &key);
        let id = store.insert(report.workload, capture_config, &trace);
        drop(trace);
        tr.close(s);
        let ops = usize::try_from(store.ops(id)).expect("op count fits");
        cells.push(cell_json(&key, &report, Some(ops)));
        ids.push(id);
    }
    tr.attr(g, "captured_ops", store.captured_ops());
    tr.attr(g, "flat_bytes", store.flat_bytes());
    tr.attr(g, "encoded_bytes", store.encoded_bytes());
    tr.attr(g, "resident_bytes", store.resident_bytes());
    tr.attr(g, "interning_ratio", store.interning_ratio());
    for (&app, &id) in grid.apps.iter().zip(&ids) {
        let ops = usize::try_from(store.ops(id)).expect("op count fits");
        for &(column, config) in &grid.columns[1..] {
            let key = cell_key(grid, app, column);
            let s = tr.open("decode", Some(g), &key);
            store.for_each_batch(id, |ops, runs| {
                black_box((ops, runs));
            });
            tr.close(s);
            tr.attr(s, "ops", ops);
            let s = tr.open("replay", Some(g), &key);
            let report = store.replay_serial(id, config);
            tr.close(s);
            tr.attr(s, "ops", ops);
            tr.attr(s, "l1_misses", report.metrics.l1_misses);
            cells.push(cell_json(&key, &report, Some(ops)));
        }
    }
}

/// The traced run of table3's live grid. `run_traced` stands in for
/// `run` so the cell's stream length is known; its report is the same.
fn trace_live(tr: &mut Tracer, g: usize, grid: &Grid, scale: Scale, cells: &mut Vec<String>) {
    for &app in &grid.apps {
        for &(column, config) in &grid.columns {
            let key = cell_key(grid, app, column);
            let s = tr.open("live", Some(g), &key);
            let mut w = by_name(app, scale).expect("every Table-3 app is registered");
            let (report, trace) = run_traced(config, w.as_mut());
            let ops = trace.len();
            drop(trace);
            tr.close(s);
            tr.attr(s, "ops", ops);
            cells.push(cell_json(&key, &report, Some(ops)));
        }
    }
}

fn json_list(items: &[&str]) -> String {
    let body: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
    format!("[{}]", body.join(","))
}

fn main() {
    let t0 = Instant::now();
    let args = parse_args();
    let plan = setup(&args);
    let setup_s = t0.elapsed().as_secs_f64();
    if args.mode == "setup" {
        println!("{{\"mode\":\"setup\",{}}}", plan_json(&plan, setup_s));
        // Skip destructors: the process ends where the first simulation
        // call would start.
        std::process::exit(0);
    }
    // A panicking grid is reported by name; the default hook's message
    // still goes to stderr.
    let mut cells = Vec::new();
    let mut failed = Vec::new();
    let started = Instant::now();
    if args.mode == "sweep" {
        sweep(&plan, &mut cells, &mut failed);
    } else {
        let mut tr = Tracer {
            t0,
            spans: Vec::new(),
        };
        let root = tr.open("run", None, "");
        for grid in &plan.grids {
            let g = tr.open("grid", Some(root), grid.name);
            tr.attr(g, "apps", grid.apps.len());
            let ok = catch_unwind(AssertUnwindSafe(|| match grid.driver {
                Driver::Live => trace_live(&mut tr, g, grid, plan.scale, &mut cells),
                Driver::Sweep => trace_sweep(&mut tr, g, grid, plan.scale, &mut cells),
            }));
            if ok.is_err() {
                failed.push(grid.name);
            }
            tr.close(g);
        }
        tr.close(root);
        let path = args.spans.as_deref().unwrap_or("spans.jsonl");
        if let Err(err) = std::fs::write(path, tr.to_jsonl()) {
            eprintln!("rnuma-perfbench: cannot write {path}: {err}");
            std::process::exit(1);
        }
    }
    let run_s = started.elapsed().as_secs_f64();
    let orders: Vec<String> = plan
        .grids
        .iter()
        .map(|g| format!("\"{}\":{}", g.name, json_list(&g.apps)))
        .collect();
    println!(
        "{{\"mode\":\"{}\",{},\"run_s\":{run_s:.9},\"app_orders\":{{{}}},\
         \"failed_grids\":{},\"cells\":[{}]}}",
        args.mode,
        plan_json(&plan, setup_s),
        orders.join(","),
        json_list(&failed),
        cells.join(",")
    );
}
