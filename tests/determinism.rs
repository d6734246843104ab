//! Reproducibility: a run is a pure function of (configuration,
//! workload). Identical inputs must give bit-identical outputs across
//! repeated executions, for every protocol and application.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::run;
use rnuma_workloads::{by_name, Scale, APP_NAMES};

fn fingerprint(app: &str, protocol: Protocol) -> (u64, u64, u64, u64, u64) {
    let mut w = by_name(app, Scale::Tiny).expect("known app");
    let r = run(MachineConfig::paper_base(protocol), &mut w);
    (
        r.cycles(),
        r.metrics.references(),
        r.metrics.remote_fetches,
        r.metrics.refetches,
        r.metrics.os.page_replacements + r.metrics.os.relocations,
    )
}

#[test]
fn every_app_is_deterministic_on_every_protocol() {
    for app in APP_NAMES {
        for protocol in [
            Protocol::paper_ccnuma(),
            Protocol::paper_scoma(),
            Protocol::paper_rnuma(),
        ] {
            let a = fingerprint(app, protocol);
            let b = fingerprint(app, protocol);
            assert_eq!(a, b, "{app} diverged on {protocol}");
        }
    }
}

#[test]
fn parallel_driver_reports_are_bit_identical_to_serial() {
    // `run_grid` fans (app, config) cells out over the worker pool;
    // every cell must match a serial `run` of the same pair exactly,
    // on real application kernels, in grid order.
    let configs = [
        MachineConfig::paper_base(Protocol::ideal()),
        MachineConfig::paper_base(Protocol::paper_ccnuma()),
        MachineConfig::paper_base(Protocol::paper_scoma()),
        MachineConfig::paper_base(Protocol::paper_rnuma()),
    ];
    let apps = ["em3d", "lu", "moldyn"];
    let rows = rnuma_bench::run_grid(&apps, &configs, Scale::Tiny);
    assert_eq!(rows.len(), apps.len());
    for (&app, row) in apps.iter().zip(&rows) {
        assert_eq!(row.len(), configs.len(), "{app} row length changed");
        for (par, &config) in row.iter().zip(&configs) {
            let ser = run(config, &mut by_name(app, Scale::Tiny).expect("known app"));
            assert_eq!(
                (par.workload, par.protocol),
                (ser.workload, ser.protocol),
                "{app} order changed"
            );
            assert!(
                par.metrics.replay_eq(&ser.metrics),
                "{app} on {}: parallel cell diverged from serial run\n\
                 serial:   {}\nparallel: {}",
                config.protocol,
                ser.metrics,
                par.metrics
            );
        }
    }
}

#[test]
fn protocol_choice_does_not_change_reference_stream() {
    // The same workload must issue exactly the same loads and stores
    // regardless of protocol; only timing and traffic differ.
    for app in ["moldyn", "fft", "radix"] {
        let refs: Vec<u64> = [
            Protocol::ideal(),
            Protocol::paper_ccnuma(),
            Protocol::paper_scoma(),
            Protocol::paper_rnuma(),
        ]
        .into_iter()
        .map(|p| {
            let mut w = by_name(app, Scale::Tiny).expect("known");
            run(MachineConfig::paper_base(p), &mut w)
                .metrics
                .references()
        })
        .collect();
        assert!(
            refs.windows(2).all(|w| w[0] == w[1]),
            "{app} reference counts diverged across protocols: {refs:?}"
        );
    }
}
