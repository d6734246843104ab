//! A comment/string/raw-string-aware Rust token scanner.
//!
//! The offline build environment has no crates.io, so `rnuma-lint`
//! cannot lean on `syn` or `proc-macro2`; this module hand-rolls the
//! small slice of Rust lexing the lints need:
//!
//! * identifiers, punctuation, and numeric literals as a flat token
//!   stream with line numbers;
//! * string literals (cooked, raw `r#"…"#`, byte, and C variants) with
//!   their *contents* preserved — the env-registry lint (E01) and the
//!   raw-env lint (D03) key on `"RNUMA_*"` literals;
//! * line and block comments stripped from the token stream but
//!   line comments *captured*, because the `// lint: allow(ID, reason)`
//!   escape grammar lives there;
//! * char literals vs. lifetimes disambiguated, so `'a` in generics
//!   never desynchronizes the string lexer;
//! * `#[cfg(test)]`-gated regions located by brace matching, so lints
//!   can scope themselves to result-bearing (non-test) code.
//!
//! The scanner is intentionally *approximate where it is safe to be*
//! (it does not expand macros or resolve paths) and *exact where the
//! lints need it* (comments and strings can never leak tokens).

/// What a token is. Punctuation keeps its character; identifier and
/// string tokens carry their text in [`Tok::text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// An identifier or keyword (`fn`, `HashMap`, `var`, …).
    Ident,
    /// A single punctuation character (`{`, `:`, `.`, …).
    Punct(char),
    /// A string literal of any flavor; `text` is the raw contents
    /// between the delimiters (escapes unprocessed).
    Str,
    /// A numeric literal (value unused by the lints).
    Num,
    /// A character or byte literal.
    CharLit,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: Kind,
    /// Identifier text or string contents; empty for other kinds.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` when this token is the identifier `name`.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == Kind::Ident && self.text == name
    }

    /// `true` when this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct(c)
    }
}

/// One captured `//` line comment (doc comments included).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text including the leading slashes.
    pub text: String,
}

/// A scanned source file: tokens, line comments, and the line ranges
/// covered by `#[cfg(test)]`-gated items.
#[derive(Debug)]
pub struct FileScan {
    /// Workspace-relative path (`/`-separated).
    pub rel: String,
    /// The token stream, comments and whitespace removed.
    pub toks: Vec<Tok>,
    /// Captured `//` comments, in file order.
    pub comments: Vec<Comment>,
    /// Inclusive `(first_line, last_line)` ranges of `#[cfg(test)]`
    /// items (typically the `mod tests { … }` block).
    pub test_regions: Vec<(u32, u32)>,
}

impl FileScan {
    /// `true` when `line` falls inside a `#[cfg(test)]` region.
    #[must_use]
    pub fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// The first token line strictly after `line` (for attaching an
    /// annotation comment to the code line that follows it).
    #[must_use]
    pub fn next_code_line(&self, line: u32) -> Option<u32> {
        self.toks.iter().map(|t| t.line).find(|&l| l > line)
    }
}

fn ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lexes `src` (at workspace-relative path `rel`) into a [`FileScan`].
#[must_use]
pub fn scan(rel: &str, src: &str) -> FileScan {
    let b = src.as_bytes();
    let mut toks: Vec<Tok> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    text: src[start..i].to_string(),
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1u32;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let tok_line = line;
                let (content, ni, nl) = lex_cooked_string(src, i + 1, line);
                toks.push(Tok {
                    kind: Kind::Str,
                    text: content,
                    line: tok_line,
                });
                i = ni;
                line = nl;
            }
            b'\'' => {
                let (tok, ni, nl) = lex_quote(src, i, line);
                toks.push(tok);
                i = ni;
                line = nl;
            }
            c if ident_start(c) => {
                let start = i;
                while i < b.len() && ident_cont(b[i]) {
                    i += 1;
                }
                let ident = &src[start..i];
                // Literal prefixes: r"", r#""#, b"", br"", c"", cr"", b''.
                let next = b.get(i).copied();
                let is_str_prefix = matches!(ident, "r" | "b" | "br" | "c" | "cr" | "rb");
                if is_str_prefix && (next == Some(b'"') || next == Some(b'#')) {
                    let raw = ident.contains('r');
                    if raw {
                        let (content, ni, nl) = lex_raw_string(src, i, line);
                        toks.push(Tok {
                            kind: Kind::Str,
                            text: content,
                            line,
                        });
                        i = ni;
                        line = nl;
                    } else if next == Some(b'"') {
                        let (content, ni, nl) = lex_cooked_string(src, i + 1, line);
                        toks.push(Tok {
                            kind: Kind::Str,
                            text: content,
                            line,
                        });
                        i = ni;
                        line = nl;
                    } else {
                        // `b#` / `c#` is not a literal; emit the ident.
                        toks.push(Tok {
                            kind: Kind::Ident,
                            text: ident.to_string(),
                            line,
                        });
                    }
                } else if ident == "b" && next == Some(b'\'') {
                    let (tok, ni, nl) = lex_quote(src, i, line);
                    toks.push(tok);
                    i = ni;
                    line = nl;
                } else {
                    toks.push(Tok {
                        kind: Kind::Ident,
                        text: ident.to_string(),
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric()
                        || b[i] == b'_'
                        || (b[i] == b'.'
                            && b.get(i + 1).is_some_and(u8::is_ascii_digit)
                            && b.get(i.wrapping_sub(1)) != Some(&b'.')))
                {
                    i += 1;
                }
                toks.push(Tok {
                    kind: Kind::Num,
                    text: String::new(),
                    line,
                });
            }
            _ => {
                toks.push(Tok {
                    kind: Kind::Punct(c as char),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }

    let test_regions = find_test_regions(&toks);
    FileScan {
        rel: rel.to_string(),
        toks,
        comments,
        test_regions,
    }
}

/// Lexes a cooked (escaped) string starting just past the opening
/// quote. Returns `(contents, index_past_close, line_after)`.
fn lex_cooked_string(src: &str, mut i: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let start = i;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => {
                return (src[start..i].to_string(), i + 1, line);
            }
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (src[start..].to_string(), i, line)
}

/// Lexes a raw string starting at the `#`s/quote after the `r`/`br`
/// prefix. Returns `(contents, index_past_close, line_after)`.
fn lex_raw_string(src: &str, mut i: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        // Not actually a raw string (e.g. `r#ident`); treat as empty.
        return (String::new(), i, line);
    }
    i += 1;
    let start = i;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let close = &b[i + 1..];
            if close.len() >= hashes && close[..hashes].iter().all(|&h| h == b'#') {
                return (src[start..i].to_string(), i + 1 + hashes, line);
            }
        }
        i += 1;
    }
    (src[start..].to_string(), i, line)
}

/// Lexes the token starting at a `'` (or `b'`): a char/byte literal or
/// a lifetime. Returns `(token, index_past, line_after)`.
fn lex_quote(src: &str, at: usize, line: u32) -> (Tok, usize, u32) {
    let b = src.as_bytes();
    // Position of the opening quote (skip a `b` prefix).
    let q = if b[at] == b'\'' { at } else { at + 1 };
    let after = q + 1;
    if b.get(after) == Some(&b'\\') {
        // Escaped char literal: scan to the closing quote.
        let mut i = after + 1;
        while i < b.len() && b[i] != b'\'' {
            i += if b[i] == b'\\' { 2 } else { 1 };
        }
        return (
            Tok {
                kind: Kind::CharLit,
                text: String::new(),
                line,
            },
            (i + 1).min(b.len()),
            line,
        );
    }
    let first = b.get(after).copied().unwrap_or(b' ');
    if ident_start(first) || first.is_ascii_digit() {
        // `'a'` is a char literal; `'a` / `'static` is a lifetime.
        let mut i = after;
        while i < b.len() && ident_cont(b[i]) {
            i += 1;
        }
        if b.get(i) == Some(&b'\'') {
            return (
                Tok {
                    kind: Kind::CharLit,
                    text: String::new(),
                    line,
                },
                i + 1,
                line,
            );
        }
        return (
            Tok {
                kind: Kind::Lifetime,
                text: src[after..i].to_string(),
                line,
            },
            i,
            line,
        );
    }
    // Punctuation char literal like `'('`, `'\u{..}'` handled above.
    if b.get(after + 1) == Some(&b'\'') {
        return (
            Tok {
                kind: Kind::CharLit,
                text: String::new(),
                line,
            },
            after + 2,
            line,
        );
    }
    // A lone quote (macro land); emit as punctuation.
    (
        Tok {
            kind: Kind::Punct('\''),
            text: String::new(),
            line,
        },
        after,
        line,
    )
}

/// Finds `#[cfg(test)]`-gated items by matching the braces of the item
/// that follows the attribute.
fn find_test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_at(toks, i) {
            let start_line = toks[i].line;
            // Skip to the item's opening brace (or `;` for `mod t;`).
            let mut j = i + 7;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let mut depth = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct('{') {
                        depth += 1;
                    } else if toks[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let end_line = toks.get(j).map_or(start_line, |t| t.line);
                out.push((start_line, end_line));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// `true` when tokens at `i` spell exactly `#[cfg(test)]`.
fn is_cfg_test_at(toks: &[Tok], i: usize) -> bool {
    toks.len() > i + 6
        && toks[i].is_punct('#')
        && toks[i + 1].is_punct('[')
        && toks[i + 2].is_ident("cfg")
        && toks[i + 3].is_punct('(')
        && toks[i + 4].is_ident("test")
        && toks[i + 5].is_punct(')')
        && toks[i + 6].is_punct(']')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_hide_tokens() {
        let s = scan(
            "x.rs",
            "// HashMap in comment\nlet s = \"HashMap::new()\"; /* var(\"RNUMA_X\") */ fn f() {}",
        );
        assert!(!s.toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(!s.toks.iter().any(|t| t.is_ident("var")));
        assert!(s.toks.iter().any(|t| t.is_ident("fn")));
        assert_eq!(s.comments.len(), 1);
    }

    #[test]
    fn string_contents_are_preserved() {
        let s = scan("x.rs", r#"let v = std::env::var("RNUMA_JOBS");"#);
        let lit = s.toks.iter().find(|t| t.kind == Kind::Str).unwrap();
        assert_eq!(lit.text, "RNUMA_JOBS");
    }

    #[test]
    fn raw_strings_and_hash_delimiters() {
        let s = scan("x.rs", r###"let v = r#"quote " inside RNUMA_A"# ;"###);
        let lit = s.toks.iter().find(|t| t.kind == Kind::Str).unwrap();
        assert!(lit.text.contains("RNUMA_A"));
        assert!(s.toks.last().unwrap().is_punct(';'));
    }

    #[test]
    fn lifetimes_do_not_break_the_lexer() {
        let s = scan("x.rs", "fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(
            s.toks.iter().filter(|t| t.kind == Kind::Lifetime).count(),
            3
        );
        // Lexer stayed in sync: the body tokens are visible.
        assert!(s.toks.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn char_literals_are_not_lifetimes() {
        let s = scan("x.rs", r"let c = 'x'; let n = '\n'; let q = '\'';");
        assert_eq!(s.toks.iter().filter(|t| t.kind == Kind::CharLit).count(), 3);
    }

    #[test]
    fn cfg_test_regions_cover_the_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let s = scan("x.rs", src);
        assert_eq!(s.test_regions.len(), 1);
        assert!(!s.in_test(1));
        assert!(s.in_test(4));
        assert!(!s.in_test(6));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let s = scan("x.rs", "for i in 0..10 { let f = 1.5e3; }");
        assert!(s.toks.iter().any(|t| t.is_punct('.')));
        assert_eq!(s.toks.iter().filter(|t| t.kind == Kind::Num).count(), 3);
    }
}
