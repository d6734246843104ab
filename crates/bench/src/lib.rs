//! Experiment harness for the R-NUMA reproduction.
//!
//! One binary per table/figure of the paper (`RESULTS.md` maps each to
//! the paper and records its output):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_model` | §3.2 analytical model (EQ 1–3, Table 1 parameters) |
//! | `table2_costs` | Table 2 (base system latencies) |
//! | `table3_apps` | Table 3 (application inventory) |
//! | `fig5_pages` | Figure 5 (refetch CDF over remote pages) |
//! | `table4_traffic` | Table 4 (RW-page refetches; R-NUMA traffic ratios) |
//! | `fig6_base` | Figure 6 (base-system execution times) |
//! | `fig7_cache` | Figure 7 (cache-size sensitivity) |
//! | `fig8_threshold` | Figure 8 (relocation-threshold sensitivity) |
//! | `fig9_overhead` | Figure 9 (page-fault/TLB overhead sensitivity) |
//! | `ablation_replacement` | page-cache replacement-policy ablation (not a paper figure) |
//! | `all_experiments` | everything above, in order |
//!
//! Every binary accepts `--scale paper|small|tiny` (default `paper`) and
//! writes both a text report to stdout and machine-readable CSV under
//! `results/`. Every binary that runs an application grid runs it on
//! [`sweep_grid`] (directly or through [`sweep_protocol_grid`]). Both
//! grid drivers, [`sweep_grid`] and [`run_grid`], run their cells on one
//! work queue, the workspace's only worker pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{parallel_workers, run, RunReport, TraceId, TraceStore};
use rnuma_workloads::{by_name, Scale, APP_NAMES};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod hotpath;

/// Parses `--scale` from argv; defaults to the paper's inputs.
///
/// # Panics
///
/// Panics with a usage message on an unknown scale name.
#[must_use]
pub fn parse_scale(args: &[String]) -> Scale {
    match args.iter().position(|a| a == "--scale") {
        None => Scale::Paper,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("paper") => Scale::Paper,
            Some("small") => Scale::Small,
            Some("tiny") => Scale::Tiny,
            other => panic!("usage: --scale paper|small|tiny (got {other:?})"),
        },
    }
}

/// Exits with status 1 after one line of diagnostic on stderr — how
/// the figure binaries report emitter I/O failures (a full panic
/// backtrace buries the actionable line: which path failed and why).
fn die(context: &str, err: &std::io::Error) -> ! {
    eprintln!("rnuma-bench: {context}: {err}");
    std::process::exit(1);
}

/// The workspace root a binary at `exe` belongs to: the first ancestor
/// of `exe` that holds `crates/bench/Cargo.toml`, or `fallback` when no
/// ancestor does (a binary copied out of its checkout).
fn workspace_root_of(exe: &Path, fallback: &Path) -> PathBuf {
    exe.ancestors()
        .find(|dir| dir.join("crates/bench/Cargo.toml").is_file())
        .unwrap_or(fallback)
        .to_path_buf()
}

/// Returns the canonical results directory — `results/` at the
/// *workspace root* — creating it if needed. `RNUMA_RESULTS_DIR`
/// overrides it (resolved relative to the process working directory
/// when not absolute).
///
/// Anchoring to the workspace root rather than the working directory
/// matters: figure binaries are launched from both the root and the
/// crate directory, and a CWD-relative `results/` used to scatter
/// drifting copies of their outputs under `crates/bench/results/`. The
/// root is resolved at run time from the running binary's location, so
/// a copied checkout that reuses the original's `target/` still writes
/// into its own tree; the compile-time workspace path is only the
/// fallback.
///
/// # Exits
///
/// Exits the process with status 1 (one-line diagnostic on stderr) if
/// the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = rnuma::experiment::env_raw("RNUMA_RESULTS_DIR").map_or_else(
        || {
            // crates/bench -> crates -> workspace root.
            let built_in = Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .unwrap_or(Path::new("."));
            let root = std::env::current_exe().map_or_else(
                |_| built_in.to_path_buf(),
                |exe| workspace_root_of(&exe, built_in),
            );
            root.join("results")
        },
        PathBuf::from,
    );
    if let Err(err) = std::fs::create_dir_all(&dir) {
        die(
            &format!("cannot create results directory {}", dir.display()),
            &err,
        );
    }
    dir
}

/// Writes `content` to `results/<name>` and echoes the path.
///
/// # Exits
///
/// Exits the process with status 1 (one-line diagnostic on stderr) on
/// I/O errors.
pub fn save(name: &str, content: &str) {
    let path = results_dir().join(name);
    if let Err(err) = std::fs::write(&path, content) {
        die(&format!("cannot write {}", path.display()), &err);
    }
    println!("[saved {}]", path.display());
}

/// Runs one app on a custom machine configuration.
///
/// # Panics
///
/// Panics if `app` is not a Table-3 application.
#[must_use]
pub fn run_app_config(app: &str, config: MachineConfig, scale: Scale) -> RunReport {
    let mut workload = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
    run(config, &mut workload)
}

/// All Table-3 application names.
#[must_use]
pub fn apps() -> &'static [&'static str] {
    &APP_NAMES
}

/// Runs every `(application, configuration)` pair of the grid in
/// parallel across the host's cores, one live simulation per pair.
///
/// Returns one row per application (in `apps` order); row `i` holds one
/// [`RunReport`] per configuration (in `configs` order). Each report is
/// bit-identical to a serial `run_app_config` of the same pair — every
/// simulation owns its machine, so the result does not depend on the
/// worker count.
///
/// The cells run on [`sweep_grid`]'s work queue, handed out in
/// row-major order to `RNUMA_JOBS` workers (default: the host's
/// parallelism). A panicking cell stops dispatch; once every worker has
/// returned, the first panic is re-raised with its payload.
///
/// # Example
///
/// ```
/// use rnuma::config::{MachineConfig, Protocol};
/// use rnuma_bench::run_grid;
/// use rnuma_workloads::Scale;
///
/// let configs = [
///     MachineConfig::paper_base(Protocol::ideal()),
///     MachineConfig::paper_base(Protocol::paper_rnuma()),
/// ];
/// let rows = run_grid(&["em3d"], &configs, Scale::Tiny);
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0].len(), 2);
/// // The ideal machine bounds the finite one from below.
/// assert!(rows[0][1].cycles() >= rows[0][0].cycles());
/// ```
///
/// # Panics
///
/// Panics if any `app` is not a Table-3 application.
#[must_use]
pub fn run_grid(
    apps: &[&'static str],
    configs: &[MachineConfig],
    scale: Scale,
) -> Vec<Vec<RunReport>> {
    let cells = (0..apps.len()).flat_map(|a| (0..configs.len()).map(move |c| Job::Run(a, c)));
    queue_grid(apps, configs, scale, cells.collect())
}

/// [`run_grid`], the trace-once/replay-many way: each application's
/// operation stream is captured **once**, on `configs[0]` (the
/// baseline — conventionally the ideal machine), into that
/// application's own [`TraceStore`], and replayed against every other
/// configuration.
///
/// One pool of `RNUMA_JOBS` workers (default: the host's parallelism)
/// pulls every cell from one work queue, the one [`run_grid`] runs on.
/// A worker takes the next pending capture first, in `apps` order,
/// since captures are what release more work; the capture encodes the
/// stream as the machine produces it, so the flat op array is never
/// built. A finished capture fills its row's first cell and releases
/// the row's replay cells. Otherwise
/// a worker takes the ready replay with the longest stream, ties going
/// to the lower `(app, config)` index. A panicking cell stops dispatch;
/// once every worker has returned, the first panic is re-raised with
/// its payload.
///
/// Returns the same row shape as [`run_grid`]. The difference in
/// *meaning*: every cell of a row simulates the **same** reference
/// stream (the fixed-trace methodology), and each cell is bit-identical
/// to a serial batched replay of that stream on its configuration —
/// enforced across the whole figure grid by
/// `tests/replay_determinism.rs`. See `docs/SWEEP.md`.
///
/// A grid with one configuration has no replay cells, so nothing would
/// read a trace: it is the [`run_grid`] of the same grid, a plain
/// [`run`] of each workload on `configs[0]`, and no trace or
/// [`TraceStore`] is built. The capture cell's report is that same
/// `run`, so the rows are identical either way.
///
/// # Example
///
/// ```
/// use rnuma::config::{MachineConfig, Protocol};
/// use rnuma_bench::sweep_grid;
/// use rnuma_workloads::Scale;
///
/// let configs = [
///     MachineConfig::paper_base(Protocol::ideal()),
///     MachineConfig::paper_base(Protocol::paper_rnuma()),
/// ];
/// let rows = sweep_grid(&["em3d"], &configs, Scale::Tiny);
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0].len(), 2);
/// // Both cells replay the same captured stream.
/// assert_eq!(
///     rows[0][0].metrics.references(),
///     rows[0][1].metrics.references(),
/// );
/// ```
///
/// # Panics
///
/// Panics if `configs` is empty, any `app` is not a Table-3
/// application, or a replay configuration's cluster shape differs from
/// `configs[0]`'s.
#[must_use]
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub fn sweep_grid(
    apps: &[&'static str],
    configs: &[MachineConfig],
    scale: Scale,
) -> Vec<Vec<RunReport>> {
    assert!(
        !configs.is_empty(),
        "need at least a baseline configuration"
    );
    if configs.len() == 1 {
        return run_grid(apps, configs, scale);
    }
    queue_grid(
        apps,
        configs,
        scale,
        (0..apps.len()).map(Job::Capture).collect(),
    )
}

/// Runs the grid's cells on one pool of [`parallel_workers`] workers
/// pulling from a [`SweepQueue`] seeded with `seed`, and returns its
/// rows.
#[deny(clippy::unwrap_used, clippy::expect_used)]
fn queue_grid(
    apps: &[&'static str],
    configs: &[MachineConfig],
    scale: Scale,
    seed: Vec<Job>,
) -> Vec<Vec<RunReport>> {
    // Each app's stream sits alone in its own store, so no capture ever
    // waits on another app's encoding.
    let captured: Vec<OnceLock<(TraceStore, TraceId)>> =
        apps.iter().map(|_| OnceLock::new()).collect();
    let queue = SweepQueue::new(apps.len(), configs.len(), seed);
    let run_job = |job: Job| match job {
        Job::Run(a, c) => (run_app_config(apps[a], configs[c], scale), 0),
        Job::Capture(a) => {
            let app = apps[a];
            let mut w = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
            let mut store = TraceStore::new();
            let (id, report) = store.capture(configs[0], &mut w);
            let ops = store.ops(id);
            assert!(
                captured[a].set((store, id)).is_ok(),
                "each app is captured once"
            );
            (report, ops)
        }
        Job::Replay(a, c) => {
            #[expect(
                clippy::expect_used,
                reason = "the queue releases app a's replays only when its capture completed and set captured[a]; a miss is a queue bug, and the worker's catch_unwind re-raises it as a job panic"
            )]
            let (store, id) = captured[a].get().expect("replay released before capture");
            (store.replay_serial(*id, configs[c]), 0)
        }
    };
    let workers = parallel_workers(apps.len() * configs.len());
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| queue.work(&run_job));
        }
        queue.work(&run_job);
    });
    queue.into_rows()
}

/// A unit of grid work: run cell `(a, c)` live, capture app `a` on the
/// baseline, or replay app `a`'s stream on configuration `c`.
#[derive(Clone, Copy, Debug)]
enum Job {
    Run(usize, usize),
    Capture(usize),
    Replay(usize, usize),
}

/// The dependency-driven queue behind [`run_grid`] and [`sweep_grid`]:
/// the seeded jobs (live cells or captures) are handed out first, in
/// seed order; each finished capture releases its row's replays, and
/// ready replays go longest stream first.
struct SweepQueue {
    state: Mutex<QueueState>,
    changed: Condvar,
}

struct QueueState {
    apps: usize,
    configs: usize,
    /// The seeded jobs not yet handed out.
    seeded: std::vec::IntoIter<Job>,
    /// Ready replays as `(stream ops, Reverse((app, config)))`: the
    /// max-heap pops the longest stream, ties to the lowest cell.
    ready: BinaryHeap<(u64, Reverse<(usize, usize)>)>,
    running: usize,
    /// Row-major `apps × configs` results.
    cells: Vec<Option<RunReport>>,
    /// The first job panic; set, it stops all dispatch.
    panic: Option<Box<dyn Any + Send>>,
}

impl SweepQueue {
    fn new(apps: usize, configs: usize, seed: Vec<Job>) -> SweepQueue {
        SweepQueue {
            state: Mutex::new(QueueState {
                apps,
                configs,
                seeded: seed.into_iter(),
                ready: BinaryHeap::new(),
                running: 0,
                cells: (0..apps * configs).map(|_| None).collect(),
                panic: None,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker's loop: take jobs until the grid is done or a job
    /// has panicked. `run` returns the cell's report and the length of
    /// the stream a capture recorded (0 for any other job).
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn work(&self, run: &(impl Fn(Job) -> (RunReport, u64) + Sync)) {
        loop {
            let job = {
                let mut st = self.lock();
                loop {
                    if st.panic.is_some() {
                        return;
                    }
                    if let Some(job) = st.next_job() {
                        st.running += 1;
                        break job;
                    }
                    if st.running == 0 {
                        // Nothing ready and nothing running that could
                        // release more: the grid is done.
                        return;
                    }
                    st = self
                        .changed
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| run(job)));
            let mut st = self.lock();
            st.running -= 1;
            match outcome {
                Ok((report, ops)) => st.complete(job, report, ops),
                Err(payload) => {
                    st.panic.get_or_insert(payload);
                }
            }
            self.changed.notify_all();
        }
    }

    /// The rows, once every worker has returned; re-raises the first
    /// job panic instead if there was one.
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn into_rows(self) -> Vec<Vec<RunReport>> {
        let st = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = st.panic {
            resume_unwind(payload);
        }
        #[expect(
            clippy::expect_used,
            reason = "without a job panic the workers return only once nothing is seeded, ready or running; the seed covers every row, and every capture releases its row's replays, so every cell is filled"
        )]
        let mut cells = st
            .cells
            .into_iter()
            .map(|cell| cell.expect("the queue ran every cell"));
        (0..st.apps)
            .map(|_| cells.by_ref().take(st.configs).collect())
            .collect()
    }
}

impl QueueState {
    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn next_job(&mut self) -> Option<Job> {
        if let Some(job) = self.seeded.next() {
            return Some(job);
        }
        let (_, Reverse((a, c))) = self.ready.pop()?;
        Some(Job::Replay(a, c))
    }

    #[deny(clippy::unwrap_used, clippy::expect_used)]
    fn complete(&mut self, job: Job, report: RunReport, ops: u64) {
        let (a, c) = match job {
            Job::Capture(a) => {
                self.ready
                    .extend((1..self.configs).map(|c| (ops, Reverse((a, c)))));
                (a, 0)
            }
            Job::Run(a, c) | Job::Replay(a, c) => (a, c),
        };
        self.cells[a * self.configs + c] = Some(report);
    }
}

/// [`sweep_grid`] over protocols on the paper's base machine — what the
/// figure binaries call.
///
/// # Panics
///
/// As [`sweep_grid`].
#[must_use]
pub fn sweep_protocol_grid(
    apps: &[&'static str],
    protocols: &[Protocol],
    scale: Scale,
) -> Vec<Vec<RunReport>> {
    let configs: Vec<MachineConfig> = protocols
        .iter()
        .map(|&p| MachineConfig::paper_base(p))
        .collect();
    sweep_grid(apps, &configs, scale)
}

/// Renders a unit-scaled horizontal ASCII bar.
#[must_use]
pub fn bar(value: f64, per_unit: f64, max_width: usize) -> String {
    let width = ((value * per_unit).round() as usize).min(max_width);
    "#".repeat(width)
}

/// A tiny fixed-width table builder for the text reports.
#[derive(Debug, Default)]
pub struct TextTable {
    header: String,
    rows: Vec<String>,
}

impl TextTable {
    /// Starts a table with a preformatted header line.
    #[must_use]
    pub fn new(header: &str) -> TextTable {
        TextTable {
            header: header.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a preformatted row.
    pub fn row(&mut self, row: String) {
        self.rows.push(row);
    }

    /// Renders header, separator, and rows.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        let _ = writeln!(out, "{}", "-".repeat(self.header.len().min(100)));
        for r in &self.rows {
            let _ = writeln!(out, "{r}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let args = |s: &str| vec!["prog".to_string(), "--scale".to_string(), s.to_string()];
        assert_eq!(parse_scale(&args("tiny")), Scale::Tiny);
        assert_eq!(parse_scale(&args("small")), Scale::Small);
        assert_eq!(parse_scale(&args("paper")), Scale::Paper);
        assert_eq!(parse_scale(&["prog".to_string()]), Scale::Paper);
    }

    #[test]
    fn bar_widths() {
        assert_eq!(bar(1.0, 10.0, 40), "##########");
        assert_eq!(bar(10.0, 10.0, 40), "#".repeat(40));
        assert_eq!(bar(0.0, 10.0, 40), "");
    }

    #[test]
    fn table_renders_all_rows() {
        let mut t = TextTable::new("a  b");
        t.row("1  2".into());
        t.row("3  4".into());
        let s = t.render();
        assert!(s.contains("a  b"));
        assert!(s.contains("1  2") && s.contains("3  4"));
    }

    #[test]
    fn workspace_root_is_the_nearest_checkout_above_the_binary() {
        let tree = std::env::temp_dir().join(format!("rnuma-root-{}", std::process::id()));
        let checkout = tree.join("checkout");
        let exe_dir = checkout.join("target/release/deps");
        std::fs::create_dir_all(checkout.join("crates/bench")).unwrap();
        std::fs::create_dir_all(&exe_dir).unwrap();
        std::fs::write(checkout.join("crates/bench/Cargo.toml"), "").unwrap();
        let fallback = Path::new("/built/in/workspace");
        assert_eq!(
            workspace_root_of(&exe_dir.join("fig6_base"), fallback),
            checkout
        );
        // No ancestor holds the bench crate: the compile-time path.
        assert_eq!(
            workspace_root_of(&tree.join("elsewhere/fig6_base"), fallback),
            fallback
        );
        let _ = std::fs::remove_dir_all(&tree);
    }

    #[test]
    fn results_dir_is_anchored_at_the_workspace_root() {
        // With no override, the directory is absolute, named
        // `results`, and sits next to the workspace manifest — never
        // relative to the process CWD.
        if rnuma::experiment::env_raw("RNUMA_RESULTS_DIR").is_none() {
            let dir = results_dir();
            assert!(dir.is_absolute());
            assert!(dir.ends_with("results"));
            assert!(dir.parent().unwrap().join("Cargo.toml").exists());
        }
    }

    #[test]
    fn run_app_smoke() {
        let r = run_app_config(
            "moldyn",
            MachineConfig::paper_base(Protocol::ideal()),
            Scale::Tiny,
        );
        assert!(r.cycles() > 0);
        assert_eq!(r.workload, "moldyn");
    }
}
