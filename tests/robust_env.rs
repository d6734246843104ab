//! Robustness environment plumbing: the `RNUMA_RESULTS_DIR` override —
//! plus the CLI contracts of the figure binaries (warn-once
//! misconfiguration on stderr for `RNUMA_JOBS`; one-line diagnostic and
//! nonzero exit on emitter I/O failure).
//!
//! The in-process test mutates the environment, so it lives in its own
//! binary and one `#[test]` owns all the scenarios. The subprocess
//! tests use `env_clear()` and are hermetic.

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

/// One test owns every env-mutation scenario (shared process):
/// `RNUMA_RESULTS_DIR` redirects the emitters into a directory that
/// need not exist yet — `results_dir` creates it, and `save` writes
/// there — and unsetting it restores the workspace `results/`.
#[test]
fn robustness_env_plumbing() {
    let dir = temp_dir("results-dir");
    let nested = dir.join("a/b");
    with_var("RNUMA_RESULTS_DIR", Some(nested.to_str().unwrap()), || {
        assert_eq!(rnuma_bench::results_dir(), nested);
        assert!(nested.is_dir(), "the override directory was not created");
        rnuma_bench::save("plumbing.txt", "ok");
        assert_eq!(
            std::fs::read_to_string(nested.join("plumbing.txt")).unwrap(),
            "ok"
        );
    });
    with_var("RNUMA_RESULTS_DIR", None, || {
        assert_ne!(rnuma_bench::results_dir(), nested);
    });
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
