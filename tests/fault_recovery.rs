//! Fault-injection drills for the two injection points that exist:
//! capture-time allocation pressure must degrade trace interning but
//! never results, and a sweep killed mid-run by an injected abort must
//! leave no spill file behind and, resumed from its journal, finish
//! bit-identical to a clean uninterrupted sweep, whichever cell the
//! abort hits. The journal drills drive the figure driver itself,
//! through `sweep_grid_journaled`, its explicit-journal entry point. A sweep whose worker dies leaves nothing behind that
//! later sweeps in the same process could trip over (see
//! `docs/ROBUSTNESS.md`).

use rnuma::config::MachineConfig;
use rnuma::experiment::{run_traced, RunReport, SweepAbort, TraceStore};
use rnuma::journal::Journal;
use rnuma::TraceOp;
use rnuma_bench::{sweep_grid, sweep_grid_journaled};
use rnuma_sim::fault::{FaultKind, FaultPlan};
use rnuma_workloads::{by_name, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "support.rs"]
mod support;

/// Captures em3d@Tiny's reference stream on `config`.
fn trace_on(config: MachineConfig) -> Vec<TraceOp> {
    let (_, trace) = run_traced(config, &mut by_name("em3d", Scale::Tiny).unwrap());
    trace
}

/// Capture-time allocation pressure downgrades trace interning to
/// verbatim storage — more resident ops, identical replay results.
#[test]
fn capture_pressure_degrades_interning_not_results() {
    let configs = support::figure_configs();
    let trace = trace_on(configs[0]);

    let mut clean = TraceStore::new();
    clean.set_fault_plan(None);
    let clean_id = clean.insert("em3d", configs[0], &trace);

    let mut pressured = TraceStore::new();
    pressured.set_fault_plan(Some(
        FaultPlan::new(5).rate(FaultKind::CapturePressure, 1.0),
    ));
    let pressured_id = pressured.insert("em3d", configs[0], &trace);

    // The fault fired exactly once (interning is off afterwards, so no
    // further decisions are taken) and the store kept every segment —
    // paying verbatim profile storage for it.
    assert_eq!(pressured.fault_log().count(FaultKind::CapturePressure), 1);
    assert!(pressured.encoded_bytes() >= clean.encoded_bytes());
    assert!(pressured.interning_ratio() >= clean.interning_ratio());
    assert_eq!(pressured.captured_ops(), clean.captured_ops());

    for &config in &configs {
        let a = clean.replay_serial(clean_id, config);
        let b = pressured.replay_serial(pressured_id, config);
        assert!(
            a.metrics.replay_eq(&b.metrics),
            "pressure changed replay results on {}",
            config.protocol
        );
    }
}

/// The spill-leak drill: `RNUMA_TRACE_SPILL` profile files must not
/// outlive their store. An injected `abort@0` that unwinds past a
/// spilling store drops the file on the way out; a process *killed*
/// without unwinding leaves its file behind (simulated by a dead-pid
/// spill planted in the directory), and the next spilling store reaps
/// it at construction. Either way the directory ends clean.
#[test]
fn abort_drill_leaves_no_spill_file_behind() {
    let dir = std::env::temp_dir().join(format!("rnuma-spill-drill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A sweep killed mid-run (no unwind) leaks its pid-named spill
    // file; pid 999999999 is far above any real pid_max, so this file
    // is exactly what such a corpse leaves behind.
    let stale = dir.join("rnuma-trace-spill-999999999-0.bin");
    std::fs::write(&stale, b"leak").unwrap();

    let configs = support::figure_configs();
    let trace = trace_on(configs[0]);
    let mut store = TraceStore::spilled_to(&dir);
    assert!(
        !stale.exists(),
        "constructing a spilling store must reap dead processes' files"
    );
    let id = store.insert("em3d", configs[0], &trace);
    assert!(
        store.spill_path().is_some(),
        "store must spill under {dir:?}"
    );
    assert!(store.spilled_bytes() > 0, "capture never reached the spill");
    // Replay reads back through the spill file before the crash.
    let _ = store.replay_serial(id, configs[0]);

    // The abort@0 crash drill: the injected panic unwinds past the
    // store, whose teardown must take the spill file with it.
    let abort = SweepAbort::with_plan(Some(FaultPlan::new(0).at(FaultKind::SweepAbort, 0)));
    let crashed = catch_unwind(AssertUnwindSafe(move || {
        let _store = store;
        abort.after_cell();
    }));
    assert!(crashed.is_err(), "the injected abort did not fire");

    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("rnuma-trace-spill-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "abort drill left spill files behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The grid the journal drills sweep: two apps, so abort points land in
/// both rows, on the figure configurations.
const DRILL_APPS: [&str; 2] = ["em3d", "lu"];

/// One journaled run of the drill grid through the figure driver.
fn drill_sweep(journal: Option<&Journal>, abort: &SweepAbort) -> Vec<Vec<RunReport>> {
    sweep_grid_journaled(
        &DRILL_APPS,
        &support::figure_configs(),
        Scale::Tiny,
        journal,
        abort,
    )
}

/// Asserts two drill grids agree cell for cell.
fn assert_grids_equal(clean: &[Vec<RunReport>], resumed: &[Vec<RunReport>], what: &str) {
    assert_eq!(clean.len(), resumed.len());
    for (row_c, row_r) in clean.iter().zip(resumed) {
        assert_eq!(row_c.len(), row_r.len());
        for (c, r) in row_c.iter().zip(row_r) {
            assert_eq!((c.workload, c.protocol), (r.workload, r.protocol));
            assert!(
                c.metrics.replay_eq(&r.metrics),
                "{what}: resumed sweep diverged from clean on {} / {}",
                r.workload,
                r.protocol
            );
        }
    }
}

/// The checkpoint/resume drill: a sweep killed mid-run by an injected
/// abort, resumed from its journal, produces a grid bit-identical to a
/// clean uninterrupted sweep — without re-simulating journaled cells.
/// The resumed grid is then pinned against a fresh serial batched
/// replay of the same streams: a journal restore is bit-identical to
/// re-execution.
#[test]
fn journal_resume_is_bit_identical_to_clean_sweep() {
    let dir = std::env::temp_dir().join(format!("rnuma-fault-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep_journal.jsonl");
    let configs = support::figure_configs();

    let clean = drill_sweep(None, &SweepAbort::with_plan(None));

    // Crash the journaled sweep right after its first completed cell.
    let journal = Journal::open(&path).unwrap();
    let abort = SweepAbort::with_plan(Some(FaultPlan::new(0).at(FaultKind::SweepAbort, 0)));
    let crashed = catch_unwind(AssertUnwindSafe(|| drill_sweep(Some(&journal), &abort)));
    assert!(crashed.is_err(), "the injected abort did not fire");

    // The killed sweep checkpointed at least the cell it completed.
    let journal = Journal::open(&path).unwrap();
    assert!(
        journal.entries() >= 1,
        "no cells were journaled before the crash"
    );

    // Resume: journaled cells restore, the rest re-simulate.
    let resumed = drill_sweep(Some(&journal), &SweepAbort::with_plan(None));
    assert_grids_equal(&clean, &resumed, "abort@0");

    // Cells restored from the journal are bit-identical to a fresh
    // serial batched replay of the same stream.
    for (&app, row) in DRILL_APPS.iter().zip(&resumed) {
        let mut store = TraceStore::new();
        let (id, _) = store.capture(configs[0], &mut by_name(app, Scale::Tiny).unwrap());
        for r in row {
            let replayed = store.replay_serial(id, r.config);
            assert!(
                r.metrics.replay_eq(&replayed.metrics),
                "batched re-execution diverged from the resumed journal on {app} / {}",
                r.protocol
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every abort point: a journaled sweep killed by an injected panic
/// after its `k`-th completed replay cell — for every `k`, across both
/// rows of the grid — journals at least the `k + 1` cells it completed,
/// and its resumed run is bit-identical to a clean uninterrupted sweep.
#[test]
fn injected_panics_recover_bit_identical() {
    let dir = std::env::temp_dir().join(format!("rnuma-abort-points-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let clean = drill_sweep(None, &SweepAbort::with_plan(None));
    // One abort decision per journaled cell: every cell of every row
    // but the capture baseline.
    let cells = (DRILL_APPS.len() * (support::figure_configs().len() - 1)) as u64;
    for k in 0..cells {
        let path = dir.join(format!("abort_at_{k}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        let abort = SweepAbort::with_plan(Some(FaultPlan::new(0).at(FaultKind::SweepAbort, k)));
        let crashed = catch_unwind(AssertUnwindSafe(|| drill_sweep(Some(&journal), &abort)));
        assert!(crashed.is_err(), "abort@{k} did not fire");
        let journal = Journal::open(&path).unwrap();
        assert!(
            journal.entries() as u64 > k,
            "abort@{k} journaled only {} cells",
            journal.entries()
        );
        let resumed = drill_sweep(Some(&journal), &SweepAbort::with_plan(None));
        assert_grids_equal(&clean, &resumed, &format!("abort@{k}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker of `sweep_grid`'s pool dying mid-sweep (here: a cell naming
/// an unknown app panics) fails that sweep only. A later sweep in the
/// same process runs to completion and is bit-identical to the same
/// sweep run before the failure.
#[test]
fn pool_survives_worker_death_for_later_runs() {
    let configs = support::figure_configs();
    let before = sweep_grid(&["em3d", "moldyn"], &configs, Scale::Tiny);
    let died = catch_unwind(AssertUnwindSafe(|| {
        sweep_grid(&["em3d", "doom", "moldyn"], &configs, Scale::Tiny)
    }));
    assert!(died.is_err(), "the sweep with a dead worker did not fail");
    let after = sweep_grid(&["em3d", "moldyn"], &configs, Scale::Tiny);
    assert_eq!(before.len(), after.len());
    for (row_b, row_a) in before.iter().zip(&after) {
        for (b, a) in row_b.iter().zip(row_a) {
            assert_eq!((b.workload, b.protocol), (a.workload, a.protocol));
            assert!(
                b.metrics.replay_eq(&a.metrics),
                "{} on {} changed after a worker death",
                a.workload,
                a.protocol
            );
        }
    }
}
