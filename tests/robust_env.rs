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
    #[expect(
        clippy::disallowed_methods,
        reason = "saves the caller's value to restore it; the code under test reads it through experiment::env_raw"
    )]
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

/// Every `.rs` file under `crates/`, `tests/` and `examples/`, as
/// `(workspace-relative path, contents)`; `target/` and dot-directories
/// are skipped.
fn workspace_sources(root: &std::path::Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut dirs: Vec<std::path::PathBuf> = ["crates", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().into();
                out.push((rel, std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    out
}

/// The `RNUMA_[A-Z0-9_]+` names in `text` (trailing `_` trimmed; the
/// bare prefix is not a name).
fn env_names(text: &str, out: &mut std::collections::BTreeSet<String>) {
    // Built with concat! so this file does not name a knob itself.
    const PREFIX: &str = concat!("RNUMA", "_");
    for (at, _) in text.match_indices(PREFIX) {
        let tail = &text[at + PREFIX.len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        let name = tail[..end].trim_end_matches('_');
        if !name.is_empty() {
            out.insert(format!("{PREFIX}{name}"));
        }
    }
}

/// The source-level contracts the compiler cannot see:
/// * the env knobs the source names are exactly the rows of README's
///   env table (`| \`RNUMA_…\` | … |`), so neither side drifts;
/// * the per-op replay path stays retired: no file names its old
///   per-op entry point (the `retired_op` needle below), and
///   `machine.rs` does not publish `replay`/`replay_segments` again
///   (replay goes through `Machine::replay_segment`).
#[test]
fn source_agrees_with_the_env_table_and_keeps_per_op_replay_retired() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = workspace_sources(&root);
    assert!(
        sources.iter().any(|(rel, _)| rel.ends_with("machine.rs")),
        "the walk found no sources under {}",
        root.display()
    );

    let mut in_source = std::collections::BTreeSet::new();
    for (_, text) in &sources {
        env_names(text, &mut in_source);
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let mut in_readme = std::collections::BTreeSet::new();
    for row in readme.lines() {
        if let Some(cell) = row.trim_start().strip_prefix("| `") {
            env_names(cell.split('`').next().unwrap_or(""), &mut in_readme);
        }
    }
    assert_eq!(
        in_source, in_readme,
        "the RNUMA_* names in source differ from README's env table rows"
    );

    let retired_op = concat!("apply", "_op");
    for (rel, text) in &sources {
        assert!(
            !text.contains(retired_op),
            "{rel} names the retired per-op replay entry `{retired_op}`"
        );
        if rel.ends_with("crates/core/src/machine.rs") {
            let words: Vec<&str> = text.split_whitespace().collect();
            for w in words.windows(3) {
                let name = w[2]
                    .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .next()
                    .unwrap_or("");
                assert!(
                    !(w[0] == "pub"
                        && w[1] == "fn"
                        && ["replay", "replay_segments"].contains(&name)),
                    "{rel} publishes the retired per-op replay entry `{name}` again"
                );
            }
        }
    }
}
