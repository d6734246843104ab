//! The project lints and the analysis driver.
//!
//! Each lint is a named invariant of the workspace's determinism or
//! robustness contract (see `docs/LINTS.md` for the rationale and
//! `docs/DETERMINISM.md` for the contracts):
//!
//! | ID  | invariant |
//! |-----|-----------|
//! | D01 | no `std::collections::HashMap/HashSet` in result-bearing crates (RandomState iteration order) |
//! | D02 | no wall clock / ambient randomness in simulation crates (simulated time + `DetRng` only) |
//! | D03 | no raw `std::env::var("RNUMA_*")` outside the blessed helpers in `experiment.rs` |
//! | E01 | every `RNUMA_*` literal in source has a row in README's env table, and vice versa |
//! | R01 | no `.unwrap()`/`.expect(` in `sweep_grid`'s worker pool dispatch (`crates/bench/src/lib.rs`) |
//! | P01 | the per-op replay path stays retired (no `apply_op` anywhere) |
//!
//! A finding is suppressed by an inline escape on the same or the
//! preceding line — `// lint: allow(ID, reason)` — with the reason
//! mandatory; the active escapes are inventoried in the report.

use crate::scan::{scan, FileScan, Kind, Tok};

/// Lint IDs that exist (used to reject `allow` escapes for unknown
/// lints; `L00` is the malformed-annotation diagnostic itself and is
/// deliberately not escapable).
pub const KNOWN_IDS: &[&str] = &["D01", "D02", "D03", "E01", "R01", "P01"];

/// Crates whose code computes simulated results: determinism lints
/// (D01/D02) apply to their `src/` trees. `bench` and the offline
/// shims are exempt by contract (wall-clock measurement is their job).
const SIM_CRATES: &[&str] = &["core", "proto", "mem", "net", "os", "sim", "workloads"];

/// The blessed env-access module: the only file allowed to call
/// `std::env::var` on an `RNUMA_*` name (D03).
const BLESSED_ENV_FILE: &str = "crates/core/src/experiment.rs";

/// The file holding `sweep_grid`'s dependency-driven work queue (R01).
/// It is one of two worker pools in the workspace; the other,
/// `rnuma::experiment::parallel_map` behind `run_grid`, runs every job
/// on a scoped thread whose panic the scope propagates, so it has no
/// dispatch loop to strand.
const POOL_FILE: &str = "crates/bench/src/lib.rs";

/// Functions in [`POOL_FILE`] forming the pool's worker/dispatch region,
/// where a panic must not escape as anything but a job panic the queue
/// catches and re-raises (R01). Closures inherit their enclosing named
/// function.
const POOL_DISPATCH_FNS: &[&str] = &["sweep_grid", "work", "into_rows", "next_job", "complete"];

/// Wall-clock / ambient-randomness identifiers banned in simulation
/// crates (D02). `Instant`/`SystemTime` cover `::now()` and every
/// other use; `thread_rng`/`from_entropy` are OS-entropy seeding.
const AMBIENT_IDENTS: &[&str] = &["Instant", "SystemTime", "thread_rng", "from_entropy"];

/// One diagnostic: a violated invariant at `file:line`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint ID (`D01` … `P01`, or `L00` for a malformed annotation).
    pub id: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

/// One parsed `// lint: allow(ID, reason)` escape.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The lint being waived.
    pub id: String,
    /// Workspace-relative path of the annotation.
    pub file: String,
    /// Line of the annotation comment.
    pub line: u32,
    /// The mandatory justification.
    pub reason: String,
    /// Lines the escape applies to (its own and the next code line).
    applies: Vec<u32>,
    /// Set when the escape suppressed at least one finding.
    pub used: bool,
}

/// The result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Surviving findings, sorted by `(file, line, id)`.
    pub findings: Vec<Finding>,
    /// Every annotation encountered (the escape inventory).
    pub allows: Vec<Allow>,
}

/// Analyzes `files` (`(workspace-relative path, contents)` pairs).
///
/// `readme` is the README's contents when the caller scanned the whole
/// workspace; the global lint (E01's registry cross-check) only runs in
/// that mode, because it reasons about the tree as a whole.
#[must_use]
pub fn analyze(files: &[(String, String)], readme: Option<&str>) -> Analysis {
    let mut findings: Vec<Finding> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    // name -> first (file, line) for every "RNUMA_*" string literal.
    let mut env_literals: Vec<(String, String, u32)> = Vec::new();

    for (rel, src) in files {
        let fs = scan(rel, src);
        collect_allows(&fs, &mut allows, &mut findings);
        lint_d01(&fs, &mut findings);
        lint_d02(&fs, &mut findings);
        lint_d03(&fs, &mut findings);
        lint_r01(&fs, &mut findings);
        lint_p01(&fs, &mut findings);
        collect_env_literals(&fs, &mut env_literals);
    }

    if let Some(readme) = readme {
        lint_e01(&env_literals, readme, &mut findings);
    }

    // Apply the escapes: a finding on a line an allow of the same ID
    // covers is suppressed (and the allow is marked used).
    findings.retain(|f| {
        for a in &mut allows {
            if a.id == f.id && a.file == f.file && a.applies.contains(&f.line) {
                a.used = true;
                return false;
            }
        }
        true
    });

    findings.sort_by(|a, b| (&a.file, a.line, &a.id).cmp(&(&b.file, b.line, &b.id)));
    Analysis { findings, allows }
}

/// Parses `// lint: allow(ID, reason)` escapes out of the file's line
/// comments. A comment that *attempts* the grammar but gets it wrong
/// (missing reason, unknown ID) is itself a finding (`L00`), so a typo
/// can never silently waive a lint.
fn collect_allows(fs: &FileScan, allows: &mut Vec<Allow>, findings: &mut Vec<Finding>) {
    for c in &fs.comments {
        let Some(pos) = c.text.find("lint:") else {
            continue;
        };
        let rest = c.text[pos + 5..].trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            findings.push(Finding {
                id: "L00".into(),
                file: fs.rel.clone(),
                line: c.line,
                msg: format!(
                    "malformed lint annotation {rest:?} (grammar: lint: allow(ID, reason))"
                ),
            });
            continue;
        };
        let Some(close) = body.rfind(')') else {
            findings.push(Finding {
                id: "L00".into(),
                file: fs.rel.clone(),
                line: c.line,
                msg: "unclosed lint annotation (grammar: lint: allow(ID, reason))".into(),
            });
            continue;
        };
        let body = &body[..close];
        let (id, reason) = body.split_once(',').unwrap_or((body, ""));
        let (id, reason) = (id.trim(), reason.trim());
        if !KNOWN_IDS.contains(&id) {
            findings.push(Finding {
                id: "L00".into(),
                file: fs.rel.clone(),
                line: c.line,
                msg: format!("lint annotation names unknown lint {id:?} (known: {KNOWN_IDS:?})"),
            });
            continue;
        }
        if reason.is_empty() {
            findings.push(Finding {
                id: "L00".into(),
                file: fs.rel.clone(),
                line: c.line,
                msg: format!("lint: allow({id}) without a reason — the justification is mandatory"),
            });
            continue;
        }
        let mut applies = vec![c.line];
        if let Some(next) = fs.next_code_line(c.line) {
            applies.push(next);
        }
        allows.push(Allow {
            id: id.to_string(),
            file: fs.rel.clone(),
            line: c.line,
            reason: reason.to_string(),
            applies,
            used: false,
        });
    }
}

/// The crate name when `rel` is a `src/` file of a simulation crate.
fn sim_crate_src(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (krate, sub) = rest.split_once('/')?;
    (SIM_CRATES.contains(&krate) && sub.starts_with("src/")).then_some(krate)
}

/// D01: `std::collections::HashMap`/`HashSet` in result-bearing code.
///
/// Matches both the import (`use std::collections::{…, HashMap}`) and
/// inline paths (`std::collections::HashMap::new()`); `#[cfg(test)]`
/// regions are exempt (tests assert membership, not iteration order).
fn lint_d01(fs: &FileScan, findings: &mut Vec<Finding>) {
    if sim_crate_src(&fs.rel).is_none() {
        return;
    }
    let t = &fs.toks;
    for i in 0..t.len() {
        if !(t[i].is_ident("std")
            && matches_path(t, i + 1, &["collections"])
            && t.get(i + 4).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 5).is_some_and(|x| x.is_punct(':')))
        {
            continue;
        }
        // Walk the rest of the path/use-tree until it ends.
        let mut j = i + 6; // first token past `std::collections::`
        while let Some(tok) = t.get(j) {
            match &tok.kind {
                Kind::Ident if tok.text == "HashMap" || tok.text == "HashSet" => {
                    if !fs.in_test(tok.line) {
                        findings.push(Finding {
                            id: "D01".into(),
                            file: fs.rel.clone(),
                            line: tok.line,
                            msg: format!(
                                "std::collections::{} iterates in RandomState order; \
                                 use rnuma_mem::fxmap::FxMap or BTreeMap/BTreeSet in \
                                 result-bearing crates",
                                tok.text
                            ),
                        });
                    }
                    j += 1;
                }
                Kind::Ident => j += 1,
                Kind::Punct(':' | '{' | '}' | ',' | '*') => j += 1,
                _ => break,
            }
        }
    }
}

/// D02: wall-clock and ambient-randomness identifiers in simulation
/// crates. Simulated time (`rnuma_sim::time`) and the seeded
/// `DetRng` are the only clocks/entropy the determinism contract
/// admits; the bench crate (which measures real time) is exempt.
fn lint_d02(fs: &FileScan, findings: &mut Vec<Finding>) {
    if sim_crate_src(&fs.rel).is_none() {
        return;
    }
    for (i, tok) in fs.toks.iter().enumerate() {
        let banned = (tok.kind == Kind::Ident && AMBIENT_IDENTS.contains(&tok.text.as_str()))
            || (tok.is_ident("rand")
                && fs.toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && fs.toks.get(i + 2).is_some_and(|x| x.is_punct(':')));
        if banned {
            findings.push(Finding {
                id: "D02".into(),
                file: fs.rel.clone(),
                line: tok.line,
                msg: format!(
                    "`{}` is wall-clock/ambient entropy; simulation crates use \
                     simulated time and the seeded DetRng only",
                    tok.text
                ),
            });
        }
    }
}

/// D03: a raw `std::env::var("RNUMA_*")` / `var_os` read outside the
/// blessed helpers in `experiment.rs`. Routing every knob through one
/// module keeps the warn-once misconfiguration contract uniform and
/// the knob inventory greppable in one place.
fn lint_d03(fs: &FileScan, findings: &mut Vec<Finding>) {
    if fs.rel == BLESSED_ENV_FILE {
        return;
    }
    let t = &fs.toks;
    for i in 0..t.len() {
        let is_var = t[i].kind == Kind::Ident && (t[i].text == "var" || t[i].text == "var_os");
        if !is_var {
            continue;
        }
        // Require an `env::` path prefix so helper names like
        // `env_raw` never false-positive.
        let env_prefixed =
            i >= 3 && t[i - 1].is_punct(':') && t[i - 2].is_punct(':') && t[i - 3].is_ident("env");
        if !env_prefixed {
            continue;
        }
        let lit_is_knob = t.get(i + 1).is_some_and(|x| x.is_punct('('))
            && t.get(i + 2)
                .is_some_and(|x| x.kind == Kind::Str && x.text.starts_with("RNUMA_"));
        if lit_is_knob {
            findings.push(Finding {
                id: "D03".into(),
                file: fs.rel.clone(),
                line: t[i].line,
                msg: "raw std::env read of an RNUMA_* knob; go through the blessed \
                      helpers in crates/core/src/experiment.rs (env_usize / env_raw)"
                    .into(),
            });
        }
    }
}

/// R01: `.unwrap()` / `.expect(` inside `sweep_grid`'s worker/dispatch
/// region, where a failure must surface as a job panic the queue
/// catches and re-raises (or as typed handling), never as a panic in
/// the dispatch loop itself that would strand the other workers.
fn lint_r01(fs: &FileScan, findings: &mut Vec<Finding>) {
    if fs.rel != POOL_FILE {
        return;
    }
    walk_fns(&fs.toks, |t, i, enclosing| {
        let is_call = t[i].is_punct('.')
            && t.get(i + 1).is_some_and(|x| {
                x.kind == Kind::Ident && (x.text == "unwrap" || x.text == "expect")
            })
            && t.get(i + 2).is_some_and(|x| x.is_punct('('));
        if !is_call {
            return;
        }
        let line = t[i + 1].line;
        if fs.in_test(line) {
            return;
        }
        if let Some(f) = enclosing {
            if POOL_DISPATCH_FNS.contains(&f) {
                findings.push(Finding {
                    id: "R01".into(),
                    file: fs.rel.clone(),
                    line,
                    msg: format!(
                        ".{}() in the sweep pool's worker/dispatch path `{f}`; handle \
                         the case or justify the invariant with a reasoned allow",
                        t[i + 1].text
                    ),
                });
            }
        }
    });
}

/// P01: the per-op replay path stays retired. Replay goes through
/// `Machine::replay_segment`; in `machine.rs` no
/// `apply_op` may be defined and `replay`/`replay_segments` may not be
/// public again, and no other file may name `apply_op` at all.
fn lint_p01(fs: &FileScan, findings: &mut Vec<Finding>) {
    let t = &fs.toks;
    let in_machine = fs.rel == "crates/core/src/machine.rs";
    for i in 0..t.len() {
        let hit = if in_machine {
            let defined =
                t[i].is_ident("fn") && t.get(i + 1).is_some_and(|x| x.is_ident("apply_op"));
            let republished = t[i].is_ident("pub")
                && t.get(i + 1).is_some_and(|x| x.is_ident("fn"))
                && t.get(i + 2).is_some_and(|x| {
                    x.kind == Kind::Ident && matches!(x.text.as_str(), "replay" | "replay_segments")
                });
            if defined {
                Some(i + 1)
            } else if republished {
                Some(i + 2)
            } else {
                None
            }
        } else if t[i].is_ident("apply_op") {
            Some(i)
        } else {
            None
        };
        if let Some(at) = hit {
            findings.push(Finding {
                id: "P01".into(),
                file: fs.rel.clone(),
                line: t[at].line,
                msg: format!(
                    "retired per-op replay entry point `{}` is back; replay goes \
                     through Machine::replay_segment",
                    t[at].text
                ),
            });
        }
    }
}

/// Collects every `RNUMA_[A-Z0-9_]+` name occurring in string literals.
fn collect_env_literals(fs: &FileScan, out: &mut Vec<(String, String, u32)>) {
    for tok in &fs.toks {
        if tok.kind != Kind::Str {
            continue;
        }
        for name in extract_env_names(&tok.text) {
            out.push((name, fs.rel.clone(), tok.line));
        }
    }
}

/// The `RNUMA_*` names embedded in one string.
fn extract_env_names(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(pos) = rest.find("RNUMA_") {
        let tail = &rest[pos + 6..];
        let end = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if end > 0 {
            out.push(format!("RNUMA_{}", tail[..end].trim_end_matches('_')));
        }
        rest = &rest[pos + 6..];
    }
    out
}

/// E01: the env-knob registry cross-check. Every `RNUMA_*` literal in
/// source must have a row in README's env table (`| \`RNUMA_…\` | … |`),
/// and every row must correspond to a knob the source still reads —
/// doc drift dies structurally instead of by review.
fn lint_e01(source: &[(String, String, u32)], readme: &str, findings: &mut Vec<Finding>) {
    let mut table: Vec<(String, u32)> = Vec::new();
    for (n, line) in readme.lines().zip(1u32..) {
        let Some(rest) = n.trim_start().strip_prefix("| `RNUMA_") else {
            continue;
        };
        let end = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        table.push((format!("RNUMA_{}", &rest[..end]), line));
    }
    for (name, file, line) in source {
        if !table.iter().any(|(t, _)| t == name) {
            findings.push(Finding {
                id: "E01".into(),
                file: file.clone(),
                line: *line,
                msg: format!("{name} is referenced in source but has no row in README's env table"),
            });
        }
    }
    let mut seen: Vec<&str> = Vec::new();
    for (name, line) in &table {
        if seen.contains(&name.as_str()) {
            continue;
        }
        seen.push(name);
        if !source.iter().any(|(n, _, _)| n == name) {
            findings.push(Finding {
                id: "E01".into(),
                file: "README.md".into(),
                line: *line,
                msg: format!("README env table documents {name}, which no source file references"),
            });
        }
    }
}

/// `true` when the tokens at `i` spell `:: seg` for each `segs` entry.
fn matches_path(t: &[Tok], i: usize, segs: &[&str]) -> bool {
    let mut j = i;
    for seg in segs {
        if !(t.get(j).is_some_and(|x| x.is_punct(':'))
            && t.get(j + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(j + 2).is_some_and(|x| x.is_ident(seg)))
        {
            return false;
        }
        j += 3;
    }
    true
}

/// Walks the token stream maintaining the innermost *named* enclosing
/// function, calling `f(tokens, index, enclosing_fn_name)` per token.
/// Closures and blocks inherit the named function they sit in —
/// exactly the attribution the region lints want.
fn walk_fns(t: &[Tok], mut f: impl FnMut(&[Tok], usize, Option<&str>)) {
    let mut stack: Vec<(String, i32)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0i32;
    for i in 0..t.len() {
        match &t[i].kind {
            Kind::Ident if t[i].text == "fn" => {
                if let Some(next) = t.get(i + 1) {
                    if next.kind == Kind::Ident {
                        pending = Some(next.text.clone());
                    }
                }
            }
            Kind::Punct('{') => {
                depth += 1;
                if let Some(name) = pending.take() {
                    stack.push((name, depth));
                }
            }
            Kind::Punct('}') => {
                if stack.last().is_some_and(|(_, d)| *d == depth) {
                    stack.pop();
                }
                depth -= 1;
            }
            Kind::Punct(';') => {
                pending = None;
            }
            _ => {}
        }
        f(t, i, stack.last().map(|(n, _)| n.as_str()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, src: &str) -> Analysis {
        analyze(&[(rel.to_string(), src.to_string())], None)
    }

    fn ids(a: &Analysis) -> Vec<&str> {
        a.findings.iter().map(|f| f.id.as_str()).collect()
    }

    // ---- D01 ---------------------------------------------------

    #[test]
    fn d01_fires_on_import_and_inline_path() {
        let a = one(
            "crates/proto/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let s = std::collections::HashSet::<u8>::new(); }",
        );
        assert_eq!(ids(&a), ["D01", "D01"]);
        assert_eq!(a.findings[0].line, 1);
        assert_eq!(a.findings[1].line, 2);
    }

    #[test]
    fn d01_fires_inside_brace_imports() {
        let a = one(
            "crates/os/src/x.rs",
            "use std::collections::{BTreeMap, HashMap};",
        );
        assert_eq!(ids(&a), ["D01"]);
    }

    #[test]
    fn d01_silent_on_btree_tests_and_nonsim_crates() {
        let clean = one("crates/mem/src/x.rs", "use std::collections::BTreeMap;");
        assert!(clean.findings.is_empty());
        let test_code = one(
            "crates/mem/src/x.rs",
            "#[cfg(test)]\nmod tests { use std::collections::HashMap; }",
        );
        assert!(test_code.findings.is_empty(), "{:?}", test_code.findings);
        let bench = one("crates/bench/src/x.rs", "use std::collections::HashMap;");
        assert!(bench.findings.is_empty());
    }

    #[test]
    fn d01_honors_a_reasoned_allow() {
        let a = one(
            "crates/net/src/x.rs",
            "// lint: allow(D01, order never observed; keys are compared only)\nuse std::collections::HashSet;",
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.allows.len(), 1);
        assert!(a.allows[0].used);
    }

    // ---- D02 ---------------------------------------------------

    #[test]
    fn d02_fires_on_wall_clock_and_entropy() {
        let a = one(
            "crates/sim/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }",
        );
        assert!(ids(&a).contains(&"D02"));
        assert!(a.findings.len() >= 2, "{:?}", a.findings);
    }

    #[test]
    fn d02_silent_in_bench_and_on_duration() {
        let bench = one(
            "crates/bench/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert!(bench.findings.is_empty());
        let dur = one(
            "crates/sim/src/x.rs",
            "fn f() { let d = std::time::Duration::from_millis(5); }",
        );
        assert!(dur.findings.is_empty());
    }

    // ---- D03 ---------------------------------------------------

    #[test]
    fn d03_fires_on_raw_env_reads_outside_experiment() {
        let a = one(
            "crates/core/src/other.rs",
            r#"fn f() { let v = std::env::var("RNUMA_JOBS"); let w = std::env::var_os("RNUMA_RESULTS_DIR"); }"#,
        );
        assert_eq!(ids(&a), ["D03", "D03"]);
    }

    #[test]
    fn d03_silent_in_experiment_and_on_helpers_and_other_vars() {
        let blessed = one(
            "crates/core/src/experiment.rs",
            r#"fn f() { let v = std::env::var("RNUMA_JOBS"); }"#,
        );
        assert!(blessed.findings.is_empty());
        let helper = one(
            "crates/core/src/other.rs",
            r#"fn f() { let v = crate::experiment::env_raw("RNUMA_JOBS"); }"#,
        );
        assert!(helper.findings.is_empty(), "{:?}", helper.findings);
        let other_var = one(
            "crates/core/src/other.rs",
            r#"fn f() { let v = std::env::var("PATH"); }"#,
        );
        assert!(other_var.findings.is_empty());
    }

    // ---- R01 ---------------------------------------------------

    #[test]
    fn r01_fires_in_recovery_fns_only() {
        let a = one(
            "crates/bench/src/lib.rs",
            "fn work(&self) { self.x.lock().unwrap(); }\n\
             fn sweep_grid() { let job = |a| captured[a].get().expect(\"set\"); }\n\
             fn elsewhere() { foo().unwrap(); }",
        );
        assert_eq!(ids(&a), ["R01", "R01"]);
        assert_eq!((a.findings[0].line, a.findings[1].line), (1, 2));
    }

    #[test]
    fn r01_silent_on_unwrap_or_else_tests_and_other_files() {
        let a = one(
            "crates/bench/src/lib.rs",
            "fn work(&self) { self.q.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n\
             fn into_rows(self) {\n\
             // lint: allow(R01, the queue completes every cell before it returns)\n\
             cell.expect(\"ran\"); }\n\
             fn sweep_grid() {\n\
             // lint: allow(R01, the queue releases a replay only after its capture)\n\
             let job = |a| captured[a].get().expect(\"set\"); }\n\
             #[cfg(test)]\nmod tests { fn sweep_grid() { x().unwrap(); } }",
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        let other = one("crates/core/src/trace.rs", "fn work() { x().unwrap(); }");
        assert!(other.findings.is_empty());
    }

    // ---- P01 ---------------------------------------------------

    #[test]
    fn p01_fires_on_republished_entry_points_and_stray_callers() {
        let a = analyze(
            &[
                (
                    "crates/core/src/machine.rs".into(),
                    "impl Machine { pub(crate) fn apply_op(&mut self, op: &TraceOp) {} \
                     pub fn replay(&mut self) {} }"
                        .into(),
                ),
                (
                    "crates/core/src/other.rs".into(),
                    "fn f(m: &mut Machine, op: &TraceOp) { m.apply_op(op); }".into(),
                ),
            ],
            None,
        );
        assert_eq!(ids(&a), ["P01", "P01", "P01"], "{:?}", a.findings);
    }

    #[test]
    fn p01_accepts_the_blessed_tree_shape() {
        let a = analyze(
            &[(
                "crates/core/src/machine.rs".into(),
                "impl Machine { fn access_run(&mut self, ops: &[TraceOp]) {} \
                 pub fn replay_segment(&mut self) {} }"
                    .into(),
            )],
            None,
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    // ---- E01 ---------------------------------------------------

    const README_OK: &str = "| `RNUMA_GOOD=n` | a knob |\n";

    #[test]
    fn e01_cross_checks_both_directions() {
        let a = analyze(
            &[(
                "crates/core/src/x.rs".into(),
                r#"fn f() { let v = crate::experiment::env_raw("RNUMA_ROGUE"); }"#.into(),
            )],
            Some(README_OK),
        );
        let msgs: Vec<&str> = a.findings.iter().map(|f| f.msg.as_str()).collect();
        assert_eq!(ids(&a), ["E01", "E01"], "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("RNUMA_ROGUE")));
        assert!(msgs.iter().any(|m| m.contains("RNUMA_GOOD")));
    }

    #[test]
    fn e01_silent_when_registry_matches() {
        let a = analyze(
            &[(
                "crates/core/src/x.rs".into(),
                r#"fn f() { let v = crate::experiment::env_raw("RNUMA_GOOD"); }"#.into(),
            )],
            Some(README_OK),
        );
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    // ---- annotations -------------------------------------------

    #[test]
    fn reasonless_or_unknown_allows_are_findings() {
        let a = one(
            "crates/core/src/other.rs",
            "// lint: allow(D03)\n// lint: allow(Z99, because)\nfn f() {}",
        );
        assert_eq!(ids(&a), ["L00", "L00"]);
    }

    #[test]
    fn unused_allows_are_inventoried_not_fatal() {
        let a = one(
            "crates/core/src/other.rs",
            "// lint: allow(D03, spare)\nfn f() {}",
        );
        assert!(a.findings.is_empty());
        assert_eq!(a.allows.len(), 1);
        assert!(!a.allows[0].used);
    }
}
