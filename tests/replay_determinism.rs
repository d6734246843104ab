//! The determinism contract of the trace-once/replay-many sweep
//! driver: every cell a sweep produces is **bit-identical** to a serial
//! batched replay of the captured stream on that cell's configuration —
//! across the paper's entire figure grid and through the interned
//! `TraceStore` arena.
//!
//! See `docs/SWEEP.md` for the model these tests enforce and
//! `docs/DETERMINISM.md` for the contract. The `RNUMA_JOBS`
//! worker-count combinations are covered in `tests/sweep_env.rs`
//! (environment mutation needs its own process).

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::TraceStore;
use rnuma_bench::sweep_grid;
use rnuma_workloads::{by_name, Scale, APP_NAMES};

#[path = "support.rs"]
mod support;
use support::figure_configs;

/// The full figure grid through the real driver (`sweep_grid`): every
/// cell must be bit-identical to an independently captured and
/// serially replayed stream — the serial path of the sweep model.
#[test]
fn sweep_grid_cells_are_bit_identical_to_serial_replay() {
    let configs = figure_configs();
    let rows = sweep_grid(&APP_NAMES, &configs, Scale::Tiny);
    assert_eq!(rows.len(), APP_NAMES.len());
    for (&app, row) in APP_NAMES.iter().zip(&rows) {
        assert_eq!(row.len(), configs.len());
        let mut store = TraceStore::new();
        let mut w = by_name(app, Scale::Tiny).expect("known app");
        let (id, capture) = store.capture(configs[0], &mut w);
        assert!(
            capture.metrics.replay_eq(&row[0].metrics),
            "{app}: sweep capture cell diverged from a fresh capture"
        );
        for (c, &config) in configs.iter().enumerate().skip(1) {
            let serial = store.replay_serial(id, config);
            assert!(
                serial.metrics.replay_eq(&row[c].metrics),
                "{app} on {}: sweep cell diverged from serial replay\n\
                 serial: {}\nsweep:  {}",
                config.protocol,
                serial.metrics,
                row[c].metrics
            );
        }
    }
}

/// A cell does not depend on which other cells share the sweep's
/// worker pool: the figure grid cut into shards — one sweep per app,
/// each app's replay configurations split across two sweeps that keep
/// the grid's capture baseline — yields cells bit-identical to the
/// whole grid swept at once.
#[test]
fn replayed_cells_shard_deterministically_on_the_pool() {
    let configs = figure_configs();
    let apps = ["em3d", "lu", "radix"];
    let whole = sweep_grid(&apps, &configs, Scale::Tiny);
    let shards: [&[usize]; 2] = [&[0, 1], &[0, 2, 3]];
    for (a, &app) in apps.iter().enumerate() {
        for shard in shards {
            let subset: Vec<MachineConfig> = shard.iter().map(|&c| configs[c]).collect();
            let rows = sweep_grid(&[app], &subset, Scale::Tiny);
            for (cell, &c) in rows[0].iter().zip(shard) {
                assert!(
                    cell.metrics.replay_eq(&whole[a][c].metrics),
                    "{app} on {}: sharded sweep {shard:?} diverged from the whole grid",
                    configs[c].protocol
                );
            }
        }
    }
}

/// A one-configuration sweep (what fig5 and table3 run) is a plain
/// execution-driven run of each cell, with no trace built, and matches
/// `run` bit-for-bit — on fig5's CC-NUMA and on table3's ideal
/// machine.
#[test]
fn single_config_sweep_equals_direct_run() {
    for protocol in [Protocol::paper_ccnuma(), Protocol::ideal()] {
        let config = MachineConfig::paper_base(protocol);
        let rows = sweep_grid(&["barnes"], &[config], Scale::Tiny);
        let mut w = by_name("barnes", Scale::Tiny).expect("known app");
        let direct = rnuma::experiment::run(config, &mut w);
        assert!(
            rows[0][0].metrics.replay_eq(&direct.metrics),
            "one-cell sweep diverged from a direct run on {protocol}"
        );
    }
}
