//! `rnuma-lint` — the workspace determinism & robustness static pass.
//!
//! Walks every workspace `.rs` file (under `crates/`, `tests/`, and
//! `examples/`) and enforces the project invariants as named lints
//! with `file:line` diagnostics. See `docs/LINTS.md` for the lint
//! catalogue, the `// lint: allow(ID, reason)` escape grammar, and how
//! to add a lint.
//!
//! ```text
//! rnuma-lint [--check] [--format text|json] [--root DIR] [FILE ...]
//! ```
//!
//! * `--check` (and the no-argument default) scans the whole
//!   workspace, including the global lint (E01 registry cross-check),
//!   and exits nonzero on any finding.
//! * Explicit `FILE` arguments restrict the scan to those files;
//!   the global lint is skipped because it needs the whole tree.
//! * `--format json` emits machine-readable findings + escape
//!   inventory instead of text.
//!
//! Exit status: `0` clean, `1` findings, `2` usage or I/O error.

#![forbid(unsafe_code)]

mod lints;
mod scan;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut format_json = false;
    let mut root: Option<PathBuf> = None;
    let mut explicit: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {} // the default behavior, named for CI readability
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                other => return usage(&format!("--format wants text|json, got {other:?}")),
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root wants a directory"),
            },
            "--help" | "-h" => {
                println!(
                    "rnuma-lint [--check] [--format text|json] [--root DIR] [FILE ...]\n\
                     Workspace determinism & robustness lints; see docs/LINTS.md."
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag:?}")),
            path => explicit.push(path.to_string()),
        }
    }

    let root = match root.map_or_else(find_workspace_root, Ok) {
        Ok(r) => r,
        Err(e) => return usage(&e),
    };

    let full_scan = explicit.is_empty();
    let mut files: Vec<(String, String)> = Vec::new();
    if full_scan {
        for top in ["crates", "tests", "examples"] {
            collect_rs_files(&root, &root.join(top), &mut files);
        }
        files.sort_by(|a, b| a.0.cmp(&b.0));
    } else {
        for path in &explicit {
            let p = PathBuf::from(path);
            let abs = if p.is_absolute() { p } else { root.join(&p) };
            match std::fs::read_to_string(&abs) {
                Ok(src) => files.push((rel_to(&root, &abs), src)),
                Err(e) => return usage(&format!("cannot read {}: {e}", abs.display())),
            }
        }
    }

    let readme = if full_scan {
        match std::fs::read_to_string(root.join("README.md")) {
            Ok(s) => Some(s),
            Err(e) => return usage(&format!("cannot read README.md under --root: {e}")),
        }
    } else {
        None
    };

    let analysis = lints::analyze(&files, readme.as_deref());
    if format_json {
        print_json(&analysis);
    } else {
        print_text(&analysis, files.len());
    }
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("rnuma-lint: {msg}");
    ExitCode::from(2)
}

/// The nearest ancestor of the current directory whose `Cargo.toml`
/// declares a `[workspace]` — the scan root when `--root` is absent.
fn find_workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    for dir in cwd.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Ok(dir.to_path_buf());
            }
        }
    }
    Err("no workspace Cargo.toml above the current directory (use --root)".into())
}

/// Recursively collects `.rs` files under `dir`, skipping build
/// output. Paths are stored workspace-relative with `/` separators.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs_files(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            if let Ok(src) = std::fs::read_to_string(&path) {
                out.push((rel_to(root, &path), src));
            }
        }
    }
}

fn rel_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn print_text(a: &lints::Analysis, files: usize) {
    for f in &a.findings {
        println!("{}:{}: {} {}", f.file, f.line, f.id, f.msg);
    }
    if !a.allows.is_empty() {
        println!("escape inventory ({} annotation(s)):", a.allows.len());
        for al in &a.allows {
            let used = if al.used { "" } else { " (unused)" };
            println!(
                "  allow {} {}:{}{} — {}",
                al.id, al.file, al.line, used, al.reason
            );
        }
    }
    println!(
        "rnuma-lint: {} finding(s) across {} file(s)",
        a.findings.len(),
        files
    );
}

fn print_json(a: &lints::Analysis) {
    let mut out = String::from("{\"ok\":");
    out.push_str(if a.findings.is_empty() {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"findings\":[");
    for (i, f) in a.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"file\":{},\"line\":{},\"msg\":{}}}",
            json_str(&f.id),
            json_str(&f.file),
            f.line,
            json_str(&f.msg)
        ));
    }
    out.push_str("],\"allows\":[");
    for (i, al) in a.allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"file\":{},\"line\":{},\"used\":{},\"reason\":{}}}",
            json_str(&al.id),
            json_str(&al.file),
            al.line,
            al.used,
            json_str(&al.reason)
        ));
    }
    out.push_str("]}");
    println!("{out}");
}

/// Minimal JSON string encoder (the diagnostics are ASCII-safe by
/// construction; control characters are escaped defensively).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
