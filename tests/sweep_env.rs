//! The sweep driver's environment contract: `RNUMA_JOBS` sizes both
//! worker pools — `parallel_map`'s (behind `rnuma_bench::run_grid`) and
//! `rnuma_bench::sweep_grid`'s work queue — through `parallel_workers`
//! (misconfigured values follow the warn-once-then-default contract),
//! the sweep's result is independent of the worker count, and a
//! failing cell — or an `RNUMA_FAULTS` abort under `RNUMA_JOURNAL` —
//! propagates out of the queue instead of hanging it.
//!
//! These tests mutate the process environment, so they live in their own
//! integration-test binary (their own process) and each holds
//! [`env_lock`] for its whole body.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{parallel_workers, run, run_traced, RunReport, TraceStore};
use rnuma::journal::{cell_key, Journal};
use rnuma_bench::sweep_grid;
use rnuma_workloads::{by_name, Scale, APP_NAMES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[path = "support.rs"]
mod support;
use support::figure_configs;

/// Serializes the tests of this binary: they share one process
/// environment.
fn env_lock() -> MutexGuard<'static, ()> {
    static ENV: Mutex<()> = Mutex::new(());
    ENV.lock().unwrap_or_else(PoisonError::into_inner)
}

fn with_var<R>(name: &str, value: Option<&str>, body: impl FnOnce() -> R) -> R {
    match value {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    }
    let out = body();
    std::env::remove_var(name);
    out
}

fn with_jobs<R>(value: Option<&str>, body: impl FnOnce() -> R) -> R {
    with_var("RNUMA_JOBS", value, body)
}

/// Routing of the sweep's cells across its workers: `RNUMA_JOBS`
/// parsing, and the sweep's cells against per-op live dispatch.
#[test]
fn rnuma_jobs_routing() {
    let _env = env_lock();

    // RNUMA_JOBS follows the warn-once misconfiguration contract of
    // the numeric knobs (the shared env_usize helper): unset
    // means the host's parallelism, a valid count sticks (clamped to
    // the job count), and zero or garbage warn once to stderr and fall
    // back to the host default — never a silent coercion to serial.
    // The one-warning-per-process stderr shape is pinned subprocess-
    // style in tests/robust_env.rs.
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    with_jobs(None, || assert_eq!(parallel_workers(8), host.clamp(1, 8)));
    with_jobs(Some("3"), || {
        assert_eq!(parallel_workers(8), 3.clamp(1, 8));
        assert_eq!(parallel_workers(2), 2, "workers never exceed the jobs");
    });
    with_jobs(Some("1"), || assert_eq!(parallel_workers(8), 1));
    with_jobs(Some("0"), || {
        assert_eq!(parallel_workers(8), host.clamp(1, 8), "0 is not serial");
    });
    with_jobs(Some("banana"), || {
        assert_eq!(parallel_workers(8), host.clamp(1, 8));
    });

    let configs = [
        MachineConfig::paper_base(Protocol::ideal()),
        MachineConfig::paper_base(Protocol::paper_rnuma()),
    ];
    let reference = sweep_grid(&["em3d"], &configs, Scale::Tiny);
    // The sweep's cells run the batched replay loop; pin them to a
    // per-op live-dispatch reference (the thin stand-in for the
    // retired per-op replay entry points), proving batched ≡ per-op
    // dispatch on the sweep path. The worker-count test below extends
    // the result to every worker count.
    let (_, trace) = run_traced(configs[0], &mut by_name("em3d", Scale::Tiny).unwrap());
    for (r, &config) in reference[0].iter().zip(&configs) {
        let mut per_op = rnuma::Machine::new(config).unwrap();
        rnuma_bench::sweep::live_dispatch(&mut per_op, &trace);
        assert!(
            r.metrics.replay_eq(&per_op.metrics()),
            "sweep cell diverged from per-op replay on {}",
            config.protocol
        );
    }
}

fn assert_same_grid(a: &[Vec<RunReport>], b: &[Vec<RunReport>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (row_a, row_b) in a.iter().zip(b) {
        assert_eq!(row_a.len(), row_b.len(), "{what}: row length");
        for (x, y) in row_a.iter().zip(row_b) {
            assert_eq!((x.workload, x.protocol), (y.workload, y.protocol));
            assert!(
                x.metrics.replay_eq(&y.metrics),
                "{what}: {} on {} diverged",
                x.workload,
                x.protocol
            );
        }
    }
}

/// The content hash `TraceStore::insert` gives `app`'s flat stream on
/// `config`.
fn flat_stream_hash(app: &'static str, config: MachineConfig) -> u64 {
    let (_, flat) = run_traced(config, &mut by_name(app, Scale::Tiny).unwrap());
    let mut store = TraceStore::new();
    let id = store.insert(app, config, &flat);
    store.content_hash(id)
}

/// `sweep_grid`'s result does not depend on how its queue schedules
/// cells: the figure grid is bit-identical under 1, 2 and 3 workers,
/// its capture column is the plain execution-driven run, and each
/// per-app streaming capture hashes (and so journals) exactly like the
/// flat stream inserted whole.
#[test]
fn sweep_grid_is_independent_of_the_worker_count() {
    let _env = env_lock();
    let configs = figure_configs();
    let grids: Vec<Vec<Vec<RunReport>>> = ["1", "2", "3"]
        .into_iter()
        .map(|jobs| with_jobs(Some(jobs), || sweep_grid(&APP_NAMES, &configs, Scale::Tiny)))
        .collect();
    for (jobs, grid) in ["2", "3"].into_iter().zip(&grids[1..]) {
        assert_same_grid(&grids[0], grid, &format!("RNUMA_JOBS={jobs} vs 1"));
    }
    for (&app, row) in APP_NAMES.iter().zip(&grids[0]) {
        let live = run(configs[0], &mut by_name(app, Scale::Tiny).unwrap());
        assert!(
            row[0].metrics.replay_eq(&live.metrics),
            "capture cell of {app} is not the live run"
        );
        let mut store = TraceStore::new();
        let (id, _) = store.capture(configs[0], &mut by_name(app, Scale::Tiny).unwrap());
        assert_eq!(
            store.content_hash(id),
            flat_stream_hash(app, configs[0]),
            "streaming capture of {app} changed its journal key"
        );
    }
}

fn panic_message(outcome: std::thread::Result<Vec<Vec<RunReport>>>) -> String {
    let payload = outcome.expect_err("the sweep did not panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// A panicking cell propagates out of `sweep_grid` with its payload
/// instead of hanging the queue — for a failing capture and a failing
/// replay alike — and a journaled rerun after the crash completes
/// bit-identical to a clean sweep.
#[test]
fn sweep_grid_failures_propagate() {
    let _env = env_lock();
    let configs = figure_configs();
    let apps = ["em3d", "moldyn"];
    let dir = std::env::temp_dir().join(format!("rnuma-sweep-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep_journal.jsonl");
    let _ = std::fs::remove_file(&path);
    with_jobs(Some("2"), || {
        let capture = catch_unwind(AssertUnwindSafe(|| {
            sweep_grid(&["em3d", "doom"], &configs, Scale::Tiny)
        }));
        assert_eq!(panic_message(capture), "unknown app doom");

        let clean = sweep_grid(&apps, &configs, Scale::Tiny);
        with_var("RNUMA_JOURNAL", Some(path.to_str().unwrap()), || {
            let replay = with_var("RNUMA_FAULTS", Some("abort@0"), || {
                catch_unwind(AssertUnwindSafe(|| {
                    sweep_grid(&apps, &configs, Scale::Tiny)
                }))
            });
            let message = panic_message(replay);
            assert!(message.starts_with("injected:"), "wrong payload: {message}");
            assert!(
                Journal::open(&path).unwrap().entries() >= 1,
                "the aborted sweep journaled no cell"
            );
            let resumed = sweep_grid(&apps, &configs, Scale::Tiny);
            assert_same_grid(&clean, &resumed, "journal-resumed sweep");
        });

        // The journal is keyed by the flat stream's hash.
        let journal = Journal::open(&path).unwrap();
        for &app in &apps {
            let hash = flat_stream_hash(app, configs[0]);
            for config in &configs[1..] {
                assert!(
                    journal.lookup(cell_key(app, hash, config)).is_some(),
                    "{app} on {} is not journaled under its flat-stream key",
                    config.protocol
                );
            }
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
