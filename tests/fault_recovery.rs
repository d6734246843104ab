//! Fault-injection drills for the one injection point that exists: a
//! sweep killed mid-run by an injected abort (`SweepAbort`) must,
//! resumed from its journal, finish bit-identical to a clean
//! uninterrupted sweep, whichever cell the abort hits. The journal
//! drills drive the figure driver itself, through
//! `sweep_grid_journaled`, its explicit-journal entry point. A sweep
//! whose worker dies leaves nothing behind that later sweeps in the
//! same process could trip over (see `docs/ROBUSTNESS.md`).

use rnuma::experiment::{RunReport, SweepAbort, TraceStore};
use rnuma::journal::Journal;
use rnuma_bench::{sweep_grid, sweep_grid_journaled};
use rnuma_workloads::{by_name, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "support.rs"]
mod support;

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

    let clean = drill_sweep(None, &SweepAbort::default());

    // Crash the journaled sweep right after its first completed cell.
    let journal = Journal::open(&path).unwrap();
    let abort = SweepAbort::at(&[0]);
    let crashed = catch_unwind(AssertUnwindSafe(|| drill_sweep(Some(&journal), &abort)));
    assert!(crashed.is_err(), "the injected abort did not fire");

    // The killed sweep checkpointed at least the cell it completed.
    let journal = Journal::open(&path).unwrap();
    assert!(
        journal.entries() >= 1,
        "no cells were journaled before the crash"
    );

    // Resume: journaled cells restore, the rest re-simulate.
    let resumed = drill_sweep(Some(&journal), &SweepAbort::default());
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
    let clean = drill_sweep(None, &SweepAbort::default());
    // One abort decision per journaled cell: every cell of every row
    // but the capture baseline.
    let cells = (DRILL_APPS.len() * (support::figure_configs().len() - 1)) as u64;
    for k in 0..cells {
        let path = dir.join(format!("abort_at_{k}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        let abort = SweepAbort::at(&[k]);
        let crashed = catch_unwind(AssertUnwindSafe(|| drill_sweep(Some(&journal), &abort)));
        assert!(crashed.is_err(), "abort@{k} did not fire");
        let journal = Journal::open(&path).unwrap();
        assert!(
            journal.entries() as u64 > k,
            "abort@{k} journaled only {} cells",
            journal.entries()
        );
        let resumed = drill_sweep(Some(&journal), &SweepAbort::default());
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
