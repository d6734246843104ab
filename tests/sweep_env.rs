//! The grid drivers' environment contract: `RNUMA_JOBS` sizes the one
//! worker pool — the work queue behind `rnuma_bench::run_grid` and
//! `rnuma_bench::sweep_grid` — through `parallel_workers`
//! (misconfigured values follow the warn-once-then-default contract),
//! both drivers' results are independent of the worker count, a failing
//! cell propagates out of the queue instead of hanging it, and a failed
//! sweep leaves nothing behind that a later sweep could trip over.
//!
//! These tests mutate the process environment, so they live in their own
//! integration-test binary (their own process) and each holds
//! [`env_lock`] for its whole body.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{parallel_workers, run_traced, RunReport, TraceStore};
use rnuma_bench::{run_grid, sweep_grid};
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

fn with_jobs<R>(value: Option<&str>, body: impl FnOnce() -> R) -> R {
    match value {
        Some(v) => std::env::set_var("RNUMA_JOBS", v),
        None => std::env::remove_var("RNUMA_JOBS"),
    }
    let out = body();
    std::env::remove_var("RNUMA_JOBS");
    out
}

/// Routing of the sweep's cells across its workers: `RNUMA_JOBS`
/// parsing, and the sweep's cells against per-op live dispatch.
#[test]
fn rnuma_jobs_routing() {
    let _env = env_lock();

    // RNUMA_JOBS follows the warn-once misconfiguration contract:
    // unset means the host's parallelism, a valid count sticks
    // (clamped to the job count), and zero or garbage warn once to
    // stderr and fall back to the host default — never a silent
    // coercion to serial.
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
        rnuma_bench::hotpath::live_dispatch(&mut per_op, &trace);
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

/// Neither driver's result depends on how the queue schedules cells:
/// `sweep_grid`'s figure grid and `run_grid`'s live grid are each
/// bit-identical under 1, 2 and 3 workers, the sweep's capture column
/// is the live run (`run_grid`'s first column; `tests/determinism.rs`
/// pins `run_grid` to serial `run`s), each per-app streaming capture
/// decodes to exactly the flat stream `run_traced` records, and an
/// empty app list gives no rows.
#[test]
fn sweep_grid_is_independent_of_the_worker_count() {
    let _env = env_lock();
    let configs = figure_configs();
    let swept = one_grid_for_every_worker_count("sweep_grid", sweep_grid, &configs);
    let live = one_grid_for_every_worker_count("run_grid", run_grid, &configs);
    for ((&app, row), live_row) in APP_NAMES.iter().zip(&swept).zip(&live) {
        assert!(
            row[0].metrics.replay_eq(&live_row[0].metrics),
            "capture cell of {app} is not the live run"
        );
        let mut store = TraceStore::new();
        let (id, _) = store.capture(configs[0], &mut by_name(app, Scale::Tiny).unwrap());
        let (_, flat) = run_traced(configs[0], &mut by_name(app, Scale::Tiny).unwrap());
        assert!(
            store.decode(id) == flat,
            "streaming capture of {app} stored a different stream"
        );
    }
}

type GridDriver = fn(&[&'static str], &[MachineConfig], Scale) -> Vec<Vec<RunReport>>;

/// Runs `driver` over the figure grid under 1, 2 and 3 workers, asserts
/// the three grids are bit-identical and that no apps give no rows, and
/// returns the one-worker grid.
fn one_grid_for_every_worker_count(
    name: &str,
    driver: GridDriver,
    configs: &[MachineConfig],
) -> Vec<Vec<RunReport>> {
    let mut grids = ["1", "2", "3"]
        .map(|jobs| with_jobs(Some(jobs), || driver(&APP_NAMES, configs, Scale::Tiny)));
    for (jobs, grid) in ["2", "3"].into_iter().zip(&grids[1..]) {
        assert_same_grid(&grids[0], grid, &format!("{name}: RNUMA_JOBS={jobs} vs 1"));
    }
    assert!(
        driver(&[], configs, Scale::Tiny).is_empty(),
        "{name} returned rows without apps"
    );
    std::mem::take(&mut grids[0])
}

fn panic_message(outcome: std::thread::Result<Vec<Vec<RunReport>>>) -> String {
    let payload = outcome.expect_err("the sweep did not panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// A panicking cell propagates out of the queue with its payload instead
/// of hanging it — for a failing capture (an unknown app), a failing
/// replay (a configuration whose cluster shape differs from the capture
/// baseline's) and a failing live `run_grid` cell alike.
#[test]
fn sweep_grid_failures_propagate() {
    let _env = env_lock();
    let configs = figure_configs();
    with_jobs(Some("2"), || {
        let capture = catch_unwind(AssertUnwindSafe(|| {
            sweep_grid(&["em3d", "doom"], &configs, Scale::Tiny)
        }));
        assert_eq!(panic_message(capture), "unknown app doom");

        let mut reshaped = configs;
        reshaped[1].nodes /= 2;
        let replay = catch_unwind(AssertUnwindSafe(|| {
            sweep_grid(&["em3d", "moldyn"], &reshaped, Scale::Tiny)
        }));
        let message = panic_message(replay);
        assert!(
            message.contains("replay configuration must match the capture cluster shape"),
            "wrong payload: {message}"
        );

        let live = catch_unwind(AssertUnwindSafe(|| {
            run_grid(&["em3d", "doom"], &configs, Scale::Tiny)
        }));
        assert_eq!(panic_message(live), "unknown app doom");
    });
}

/// A worker of `sweep_grid`'s pool dying mid-sweep (here: a cell naming
/// an unknown app panics) fails that sweep only. A later sweep in the
/// same process runs to completion and is bit-identical to the same
/// sweep run before the failure.
#[test]
fn pool_survives_worker_death_for_later_runs() {
    let _env = env_lock();
    let configs = figure_configs();
    let before = sweep_grid(&["em3d", "moldyn"], &configs, Scale::Tiny);
    let died = catch_unwind(AssertUnwindSafe(|| {
        sweep_grid(&["em3d", "doom", "moldyn"], &configs, Scale::Tiny)
    }));
    assert!(died.is_err(), "the sweep with a dead worker did not fail");
    let after = sweep_grid(&["em3d", "moldyn"], &configs, Scale::Tiny);
    assert_same_grid(&before, &after, "sweep after a worker death");
}
