//! Robustness environment plumbing: `RNUMA_FAULTS` and `RNUMA_JOURNAL`
//! parsing — plus the CLI contracts of the figure binaries (warn-once
//! misconfiguration on stderr for `RNUMA_JOBS` and `RNUMA_FAULTS`;
//! one-line diagnostic and nonzero exit on emitter I/O failure).
//!
//! The in-process tests mutate the environment, so they live in their
//! own binary and one `#[test]` owns all the scenarios. The subprocess
//! tests use `env_clear()` and are hermetic.

use rnuma::{Journal, SweepAbort};
use std::process::Command;

fn with_var<R>(name: &str, value: Option<&str>, body: impl FnOnce() -> R) -> R {
    // Restore (not just remove) afterwards: a caller may export these
    // very variables around this whole binary.
    let prev = std::env::var_os(name);
    match value {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    }
    let out = body();
    match prev {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    }
    out
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rnuma-robust-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One test owns every env-mutation scenario (shared process).
#[test]
fn robustness_env_plumbing() {
    // RNUMA_FAULTS: unset and empty never fire; an abort list fires at
    // its decisions; a malformed string disables injection (warn-once)
    // rather than crashing.
    let never_fires = |abort: &SweepAbort| (0..8).all(|_| !abort.should_fire());
    with_var("RNUMA_FAULTS", None, || {
        assert!(never_fires(&SweepAbort::from_env()));
    });
    with_var("RNUMA_FAULTS", Some(""), || {
        assert!(never_fires(&SweepAbort::from_env()));
    });
    with_var("RNUMA_FAULTS", Some("abort@0 abort@2"), || {
        let abort = SweepAbort::from_env();
        let fired: Vec<bool> = (0..4).map(|_| abort.should_fire()).collect();
        assert_eq!(
            fired,
            [true, false, true, false],
            "pinned events at 0 and 2"
        );
    });
    // Garbage, the retired seeded-rate grammar, and the kinds of the
    // retired worker pool are malformed.
    for bad in [
        "banana",
        "abort@0,seed=7",
        "pressure~0.5,seed=9",
        "panic_before@0",
        "hang~0.5,hang_ms=25",
    ] {
        with_var("RNUMA_FAULTS", Some(bad), || {
            assert!(never_fires(&SweepAbort::from_env()), "{bad} fired");
        });
    }

    // RNUMA_JOURNAL: the one resolver treats the value as a path and
    // resolves the literal "1" to results/sweep_journal.jsonl; an
    // unopenable journal (here: a directory) disables checkpointing,
    // never aborts.
    let dir = temp_dir("journal");
    let explicit = dir.join("explicit.jsonl");
    with_var("RNUMA_JOURNAL", None, || {
        assert!(rnuma_bench::sweep_journal_from_env().is_none());
    });
    with_var("RNUMA_JOURNAL", Some(explicit.to_str().unwrap()), || {
        assert_eq!(
            rnuma_bench::sweep_journal_from_env()
                .expect("fresh journal")
                .path(),
            explicit
        );
    });
    with_var("RNUMA_JOURNAL", Some(dir.to_str().unwrap()), || {
        assert!(
            rnuma_bench::sweep_journal_from_env().is_none(),
            "a directory is not a journal"
        );
    });
    with_var("RNUMA_RESULTS_DIR", Some(dir.to_str().unwrap()), || {
        with_var("RNUMA_JOURNAL", Some("1"), || {
            let journal = rnuma_bench::sweep_journal_from_env().expect("canonical journal");
            assert_eq!(journal.path(), dir.join("sweep_journal.jsonl"));
        });
    });

    // End-to-end through the bench driver: a journaled sweep_grid
    // checkpoints its replay cells, and a second journaled run restores
    // them bit-identically.
    let configs = [
        rnuma::MachineConfig::paper_base(rnuma::Protocol::ideal()),
        rnuma::MachineConfig::paper_base(rnuma::Protocol::paper_rnuma()),
    ];
    let clean = rnuma_bench::sweep_grid(&["em3d"], &configs, rnuma_workloads::Scale::Tiny);
    let journaled = with_var("RNUMA_JOURNAL", Some(explicit.to_str().unwrap()), || {
        let first = rnuma_bench::sweep_grid(&["em3d"], &configs, rnuma_workloads::Scale::Tiny);
        assert!(
            Journal::open(&explicit).unwrap().entries() >= 1,
            "journaled sweep recorded no cells"
        );
        let second = rnuma_bench::sweep_grid(&["em3d"], &configs, rnuma_workloads::Scale::Tiny);
        (first, second)
    });
    for rows in [&journaled.0, &journaled.1] {
        for (r, b) in rows[0].iter().zip(&clean[0]) {
            assert!(
                r.metrics.replay_eq(&b.metrics),
                "journaled sweep diverged from clean on {}",
                r.protocol
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable results directory is a one-line diagnostic and exit
/// status 1 — not a panic backtrace.
#[test]
fn emitter_io_failure_exits_nonzero_with_one_line() {
    let dir = temp_dir("io-fail");
    let file = dir.join("occupied");
    std::fs::write(&file, "not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_table1_model"))
        .env_clear()
        .env("RNUMA_RESULTS_DIR", file.join("nested"))
        .output()
        .expect("spawn table1_model");
    assert!(!out.status.success(), "expected a nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rnuma-bench: cannot create results directory"),
        "missing diagnostic; stderr was: {stderr}"
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "want exactly one diagnostic line; stderr was: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `RNUMA_JOBS=0` (the classic "disable it" guess) is a
/// misconfiguration, not a request for serial execution: it warns
/// exactly once per process on stderr — even though every parallel
/// fan-out consults it — falls back to the documented default (the
/// host's parallelism), and the figure still regenerates successfully.
#[test]
fn jobs_misconfiguration_warns_once_and_completes() {
    let dir = temp_dir("jobs-warn-once");
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_pages"))
        .args(["--scale", "tiny"])
        .env_clear()
        .env("RNUMA_RESULTS_DIR", &dir)
        .env("RNUMA_JOBS", "0")
        .output()
        .expect("spawn fig5_pages");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fig5_pages failed; stderr: {stderr}");
    assert_eq!(
        stderr.matches("RNUMA_JOBS").count(),
        1,
        "want exactly one warning; stderr was: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed `RNUMA_FAULTS` spec — garbage, a fault kind of the
/// retired worker pool, or the retired capture-pressure plan — warns
/// exactly once per process on stderr — even though every sweep reads
/// the variable — and the figure still regenerates successfully.
#[test]
fn fault_misconfiguration_warns_once_and_completes() {
    let dir = temp_dir("faults-warn-once");
    for spec in ["banana", "panic_before@0,seed=7", "pressure~0.2,seed=42"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig5_pages"))
            .args(["--scale", "tiny"])
            .env_clear()
            .env("RNUMA_RESULTS_DIR", &dir)
            .env("RNUMA_FAULTS", spec)
            .output()
            .expect("spawn fig5_pages");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "fig5_pages failed; stderr: {stderr}");
        assert_eq!(
            stderr.matches("ignoring RNUMA_FAULTS").count(),
            1,
            "want exactly one warning for {spec:?}; stderr was: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
