//! Smoke tests for every experiment's core loop at Tiny scale: each
//! table/figure generator must complete and produce sane series.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::model::ModelParams;
use rnuma_bench::run_app_config;
use rnuma_os::CostModel;
use rnuma_workloads::{Scale, APP_NAMES};

const SCALE: Scale = Scale::Tiny;

#[test]
fn e1_model_series() {
    let p = ModelParams::from_costs(&CostModel::base());
    assert!((p.worst_case_bound() - 3.0).abs() < 0.1);
    assert!(p.optimal_threshold() > 1.0);
}

#[test]
fn e4_fig5_cdf_series() {
    for app in ["barnes", "radix"] {
        let cdf = run_app_config(
            app,
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            SCALE,
        )
        .metrics
        .refetch_cdf();
        assert!(cdf.contributors() > 0, "{app}: empty CDF");
        let last = cdf.points().last().copied().unwrap_or((0.0, 0.0));
        assert!((last.0 - 1.0).abs() < 1e-9);
    }
}

#[test]
fn e5_table4_columns() {
    for app in ["barnes", "raytrace"] {
        let cc = run_app_config(
            app,
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            SCALE,
        );
        let frac = cc.metrics.rw_page_refetch_fraction();
        assert!((0.0..=1.0).contains(&frac), "{app}: fraction {frac}");
    }
}

#[test]
fn e6_fig6_normalization() {
    for app in ["moldyn", "em3d"] {
        let ideal = run_app_config(app, MachineConfig::paper_base(Protocol::ideal()), SCALE)
            .cycles() as f64;
        for protocol in [
            Protocol::paper_ccnuma(),
            Protocol::paper_scoma(),
            Protocol::paper_rnuma(),
        ] {
            let norm = run_app_config(app, MachineConfig::paper_base(protocol), SCALE).cycles()
                as f64
                / ideal;
            assert!(
                (0.999..50.0).contains(&norm),
                "{app}/{protocol}: normalized {norm}"
            );
        }
    }
}

#[test]
fn e7_fig7_block_cache_monotonicity() {
    // A bigger CC-NUMA block cache is never (meaningfully) slower.
    for app in ["moldyn", "lu"] {
        let small = run_app_config(
            app,
            MachineConfig::paper_base(Protocol::CcNuma {
                block_cache_bytes: Some(1024),
            }),
            SCALE,
        )
        .cycles() as f64;
        let large = run_app_config(
            app,
            MachineConfig::paper_base(Protocol::paper_ccnuma()),
            SCALE,
        )
        .cycles() as f64;
        assert!(
            large <= small * 1.05,
            "{app}: 32K ({large}) slower than 1K ({small})"
        );
    }
}

#[test]
fn e8_fig8_threshold_sweep_runs() {
    for threshold in [16u32, 64, 256, 1024] {
        let r = run_app_config(
            "moldyn",
            MachineConfig::paper_base(Protocol::RNuma {
                block_cache_bytes: 128,
                page_cache_bytes: 320 * 1024,
                threshold,
            }),
            SCALE,
        );
        assert!(r.cycles() > 0);
    }
}

#[test]
fn e9_fig9_soft_systems_are_slower() {
    for app in ["em3d", "radix"] {
        let base = run_app_config(
            app,
            MachineConfig::paper_base(Protocol::paper_scoma()),
            SCALE,
        )
        .cycles() as f64;
        let mut config = MachineConfig::paper_base(Protocol::paper_scoma());
        config.costs = CostModel::soft();
        let soft = run_app_config(app, config, SCALE).cycles() as f64;
        assert!(
            soft >= base,
            "{app}: SOFT S-COMA ({soft}) faster than base ({base})"
        );
    }
}

#[test]
fn all_apps_tiny_complete_quickly() {
    for app in APP_NAMES {
        let r = run_app_config(
            app,
            MachineConfig::paper_base(Protocol::paper_rnuma()),
            SCALE,
        );
        assert!(r.cycles() > 0, "{app} produced no cycles");
    }
}
