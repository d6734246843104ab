//! End-to-end fixture drills for the `rnuma-lint` binary.
//!
//! Each drill materializes a miniature workspace tree in a temp
//! directory, runs the real binary over it with `--root`, and asserts
//! on the exit status and the `file:line` diagnostics. The seeded tree
//! violates **all six** lint IDs at known lines; the clean tree shows
//! the blessed shape (plus one reasoned escape) and must come out
//! green.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rnuma-lint")
}

fn fresh_tree(case: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rnuma-lint-fix-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create fixture root");
    root
}

fn put(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("fixture files sit in a directory"))
        .expect("create fixture dir");
    std::fs::write(path, contents).expect("write fixture file");
}

fn run(root: &Path, extra: &[&str]) -> (bool, String) {
    let out = Command::new(bin())
        .arg("--check")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run rnuma-lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn seeded_violations_fire_all_six_lints_with_file_line_diagnostics() {
    let root = fresh_tree("bad");
    put(
        &root,
        "README.md",
        "| `RNUMA_JOBS=n` | a knob |\n| `RNUMA_STALE=1` | documented but unread |\n",
    );
    // D01: std HashMap in a result-bearing crate.
    put(
        &root,
        "crates/proto/src/bad_map.rs",
        "use std::collections::HashMap;\n",
    );
    // D02: wall clock in a simulation crate.
    put(
        &root,
        "crates/sim/src/clock.rs",
        "fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    // D03: raw env read outside experiment.rs; the name also has a
    // README row, so it does NOT double as an E01 violation.
    put(
        &root,
        "crates/core/src/knobs.rs",
        "fn f() -> Option<String> { std::env::var(\"RNUMA_JOBS\").ok() }\n",
    );
    // E01 (source side): a knob with no README row.
    put(
        &root,
        "crates/core/src/rogue.rs",
        "const K: &str = \"RNUMA_ROGUE\";\n",
    );
    // P01: the retired entry point reintroduced, and a stray caller.
    put(
        &root,
        "crates/core/src/machine.rs",
        "impl Machine { fn apply_op(&mut self, op: &TraceOp) {} }\n",
    );
    put(
        &root,
        "crates/core/src/stray.rs",
        "fn f(m: &mut Machine, op: &TraceOp) { m.apply_op(op); }\n",
    );
    // R01: a panic in the sweep pool's dispatch loop.
    put(
        &root,
        "crates/bench/src/lib.rs",
        "fn work(&self) { self.state.lock().unwrap(); }\n",
    );

    let (ok, text) = run(&root, &[]);
    assert!(!ok, "seeded tree must fail:\n{text}");
    for (needle, why) in [
        ("crates/proto/src/bad_map.rs:1: D01", "std HashMap import"),
        ("crates/sim/src/clock.rs:1: D02", "Instant in sim crate"),
        ("crates/core/src/knobs.rs:1: D03", "raw env read"),
        ("crates/core/src/rogue.rs:1: E01", "knob without README row"),
        ("README.md:2: E01", "README row without source reader"),
        ("crates/core/src/machine.rs:1: P01", "reintroduced apply_op"),
        ("crates/core/src/stray.rs:1: P01", "stray apply_op caller"),
        ("crates/bench/src/lib.rs:1: R01", "unwrap in pool dispatch"),
    ] {
        assert!(text.contains(needle), "missing {why} ({needle}):\n{text}");
    }

    // JSON mode reports the same findings machine-readably.
    let (ok, json) = run(&root, &["--format", "json"]);
    assert!(!ok);
    assert!(json.contains("\"ok\":false"), "{json}");
    for id in ["D01", "D02", "D03", "E01", "R01", "P01"] {
        assert!(
            json.contains(&format!("\"id\":\"{id}\"")),
            "{id} in json:\n{json}"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn clean_tree_with_reasoned_escape_exits_zero_and_prints_the_inventory() {
    let root = fresh_tree("clean");
    put(&root, "README.md", "| `RNUMA_JOBS=n` | a knob |\n");
    // The blessed tree shape for P01: batched replay only…
    put(
        &root,
        "crates/core/src/machine.rs",
        "impl Machine { pub fn replay_segment(&mut self, ops: &[TraceOp]) {} }\n",
    );
    // …a justified invariant in the pool's dispatch loop for R01…
    put(
        &root,
        "crates/bench/src/lib.rs",
        "fn into_rows(self) {\n\
         // lint: allow(R01, the queue fills every cell before it returns)\n\
         cell.expect(\"ran\");\n}\n",
    );
    // …the blessed env helper for D03…
    put(
        &root,
        "crates/core/src/experiment.rs",
        "pub fn env_raw(name: &str) -> Option<String> { std::env::var(name).ok() }\n\
         pub fn jobs() -> Option<String> { std::env::var(\"RNUMA_JOBS\").ok() }\n",
    );
    // …deterministic maps, std maps only under cfg(test)…
    put(
        &root,
        "crates/proto/src/good_map.rs",
        "use std::collections::BTreeMap;\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n",
    );
    // …and a reasoned escape on an otherwise-red line.
    put(
        &root,
        "crates/net/src/escaped.rs",
        "// lint: allow(D01, membership-only set, iteration order never observed)\n\
         use std::collections::HashSet;\n",
    );

    let (ok, text) = run(&root, &[]);
    assert!(ok, "clean tree must pass:\n{text}");
    assert!(text.contains("escape inventory"), "{text}");
    assert!(
        text.contains("allow D01 crates/net/src/escaped.rs:1"),
        "{text}"
    );
    assert!(text.contains("0 finding(s)"), "{text}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reasonless_escape_is_itself_a_finding() {
    let root = fresh_tree("noreason");
    put(&root, "README.md", "\n");
    put(
        &root,
        "crates/net/src/escaped.rs",
        "// lint: allow(D01)\nuse std::collections::HashSet;\n",
    );
    let (ok, text) = run(&root, &[]);
    assert!(!ok, "reasonless escape must fail:\n{text}");
    assert!(text.contains("L00"), "{text}");
    assert!(text.contains("D01"), "the escape must not suppress: {text}");
    let _ = std::fs::remove_dir_all(&root);
}
