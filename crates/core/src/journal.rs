//! Append-only checkpoint/resume journal for parameter sweeps.
//!
//! A paper-scale sweep is hours of deterministic work; a killed process
//! should not restart it from zero. The journal records each completed
//! sweep cell — one line of JSON per `(application, trace, config)`
//! cell, keyed by a stable content hash — in the canonical results
//! directory. A re-run of the same sweep consults the journal first and
//! *resumes*: journaled cells are restored verbatim (metrics are stored
//! exactly, every counter and per-page profile), and only the missing
//! cells execute. Because every cell is a pure function of its key, a
//! resumed sweep's final report is identical to an uninterrupted run's
//! — the property `tests/fault_recovery.rs` asserts.
//!
//! The file format is JSONL: one self-contained JSON object per line,
//! appended and flushed as each cell completes, so a kill at any moment
//! loses at most the line being written. Loading skips unparsable lines
//! (a torn final write) instead of failing.
//!
//! This module is the file format and the in-memory index; it reads no
//! environment. The sweep driver (`rnuma_bench::sweep_grid`) opens a
//! journal when `RNUMA_JOURNAL` is set, through its one resolver,
//! `rnuma_bench::sweep_journal_from_env`: the value `1` means
//! `sweep_journal.jsonl` in the canonical results directory, any other
//! non-empty value is the journal file path.
//!
//! Capture cells (the baseline every replay derives its stream from)
//! are *not* journaled: a resume must re-capture to regenerate the
//! trace anyway, and captures are deterministic, so re-running them is
//! both necessary and exact.

use crate::config::MachineConfig;
use crate::metrics::{Metrics, PageProfile};
use rnuma_mem::addr::{NodeMask, VPage};
use rnuma_mem::fxmap::FxMap64;
use rnuma_os::OsStats;
use rnuma_sim::Cycles;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The stable identity of one sweep cell: the workload's name, the
/// content hash of the reference stream it replays, and the
/// configuration it replays against. Two cells collide only if all
/// three match — in which case their results are identical by the
/// determinism contract, which is exactly when reuse is sound.
#[must_use]
pub fn cell_key(workload: &str, trace_hash: u64, config: &MachineConfig) -> u64 {
    const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
    let feed = |h: &mut u64, v: u64| *h = (*h ^ v).wrapping_mul(MIX).rotate_left(23);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in workload.bytes() {
        feed(&mut h, u64::from(b));
    }
    feed(&mut h, 0xff); // terminator: "ab"+"c" never keys like "a"+"bc"
    feed(&mut h, trace_hash);
    // The configuration's derived Debug form covers every field
    // (protocol, geometry, latencies, policies); hashing it is stable
    // for a given build of the workspace, which is the resume contract.
    for b in format!("{config:?}").bytes() {
        feed(&mut h, u64::from(b));
    }
    h
}

/// An append-only JSONL journal of completed sweep cells.
///
/// Concurrent appends (sweep cells complete on parallel driver workers)
/// are serialized internally; each append is written and flushed as one
/// line, so the journal is crash-safe at line granularity.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    entries: FxMap64<Metrics>,
    append_lock: Mutex<()>,
}

impl Journal {
    /// Opens (or starts) the journal at `path`, loading every
    /// well-formed entry already present. Unparsable lines — a torn
    /// final write from a killed process — are skipped, not fatal.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an existing journal file cannot be
    /// read (a *missing* file is fine: the journal starts empty).
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        let mut entries = FxMap64::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    if let Some((key, metrics)) = parse_entry(line) {
                        entries.insert(key, metrics);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Journal {
            path,
            entries,
            append_lock: Mutex::new(()),
        })
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of entries loaded at open (later appends do not count:
    /// a resumed cell is never looked up twice in one sweep).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// The journaled metrics for `key`, if that cell already completed
    /// in an earlier run.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<&Metrics> {
        self.entries.get(key)
    }

    /// Appends one completed cell. `workload` and `protocol` are
    /// recorded for human readers; [`lookup`](Self::lookup) keys on
    /// `key` alone.
    ///
    /// Failure to append warns on stderr and is otherwise ignored: a
    /// sweep that cannot checkpoint must still complete.
    pub fn record(&self, key: u64, workload: &str, protocol: &str, metrics: &Metrics) {
        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"key\":\"{key:016x}\",\"app\":\"{workload}\",\"protocol\":\"{protocol}\",\
             \"metrics\":"
        );
        push_metrics_json(metrics, &mut line);
        line.push_str("}\n");
        let guard = self
            .append_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| {
                f.write_all(line.as_bytes())?;
                f.flush()
            });
        drop(guard);
        if let Err(e) = result {
            eprintln!(
                "warning: cannot append to sweep journal {}: {e}",
                self.path.display()
            );
        }
    }
}

/// Serializes `m` exactly: every counter as a decimal integer, pages in
/// ascending page order with their raw [`NodeMask`] bits. No floats
/// anywhere, so a round trip is bit-identical ([`Metrics::replay_eq`]).
fn push_metrics_json(m: &Metrics, out: &mut String) {
    let _ = write!(
        out,
        "{{\"reads\":{},\"writes\":{},\"l1_hits\":{},\"mru_translation_hits\":{},\
         \"l1_misses\":{},\"c2c_transfers\":{},\"local_fills\":{},\"block_cache_hits\":{},\
         \"page_cache_hits\":{},\"remote_fetches\":{},\"refetches\":{},\
         \"relocation_interrupts\":{}",
        m.reads,
        m.writes,
        m.l1_hits,
        m.mru_translation_hits,
        m.l1_misses,
        m.c2c_transfers,
        m.local_fills,
        m.block_cache_hits,
        m.page_cache_hits,
        m.remote_fetches,
        m.refetches,
        m.relocation_interrupts,
    );
    let _ = write!(
        out,
        ",\"os\":{{\"page_faults\":{},\"ccnuma_maps\":{},\"scoma_allocations\":{},\
         \"page_replacements\":{},\"relocations\":{},\"tlb_shootdowns\":{},\
         \"blocks_flushed\":{}}}",
        m.os.page_faults,
        m.os.ccnuma_maps,
        m.os.scoma_allocations,
        m.os.page_replacements,
        m.os.relocations,
        m.os.tlb_shootdowns,
        m.os.blocks_flushed,
    );
    let _ = write!(
        out,
        ",\"exec_cycles\":{},\"net_messages\":{},\"ni_wait\":{},\"per_cpu_cycles\":[",
        m.exec_cycles.0, m.net_messages, m.ni_wait.0
    );
    for (i, c) in m.per_cpu_cycles.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", c.0);
    }
    out.push_str("],\"pages\":[");
    for (i, (page, p)) in m.pages_sorted().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[{},{},{},{},{}]",
            page.0,
            p.accessors.bits(),
            p.writers.bits(),
            p.refetches,
            p.remote_fetches
        );
    }
    out.push_str("]}");
}

/// Parses one journal line into its key and exact metrics. `None` for
/// anything malformed (torn writes, foreign lines) — the loader skips
/// those.
fn parse_entry(line: &str) -> Option<(u64, Metrics)> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let top = Json::parse(line)?;
    let key = u64::from_str_radix(top.get("key")?.as_str()?, 16).ok()?;
    let m = top.get("metrics")?;
    let os = m.get("os")?;
    let mut metrics = Metrics {
        reads: m.field("reads")?,
        writes: m.field("writes")?,
        l1_hits: m.field("l1_hits")?,
        mru_translation_hits: m.field("mru_translation_hits")?,
        l1_misses: m.field("l1_misses")?,
        c2c_transfers: m.field("c2c_transfers")?,
        local_fills: m.field("local_fills")?,
        block_cache_hits: m.field("block_cache_hits")?,
        page_cache_hits: m.field("page_cache_hits")?,
        remote_fetches: m.field("remote_fetches")?,
        refetches: m.field("refetches")?,
        relocation_interrupts: m.field("relocation_interrupts")?,
        os: OsStats {
            page_faults: os.field("page_faults")?,
            ccnuma_maps: os.field("ccnuma_maps")?,
            scoma_allocations: os.field("scoma_allocations")?,
            page_replacements: os.field("page_replacements")?,
            relocations: os.field("relocations")?,
            tlb_shootdowns: os.field("tlb_shootdowns")?,
            blocks_flushed: os.field("blocks_flushed")?,
        },
        exec_cycles: Cycles(m.field("exec_cycles")?),
        per_cpu_cycles: m
            .get("per_cpu_cycles")?
            .as_arr()?
            .iter()
            .map(|v| v.as_u64().map(Cycles))
            .collect::<Option<Vec<_>>>()?,
        net_messages: m.field("net_messages")?,
        ni_wait: Cycles(m.field("ni_wait")?),
        pages: rnuma_mem::fxmap::FxMap::new(),
    };
    for row in m.get("pages")?.as_arr()? {
        let row = row.as_arr()?;
        if row.len() != 5 {
            return None;
        }
        metrics.pages.insert(
            VPage(row[0].as_u64()?),
            PageProfile {
                accessors: NodeMask::from_bits(row[1].as_u64()?),
                writers: NodeMask::from_bits(row[2].as_u64()?),
                refetches: row[3].as_u64()?,
                remote_fetches: row[4].as_u64()?,
            },
        );
    }
    Some((key, metrics))
}

/// The minimal JSON subset the journal uses: objects, arrays, strings
/// without escapes, and unsigned decimal integers. Hand-rolled because
/// the workspace deliberately carries no external dependencies.
#[derive(Debug)]
enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(s: &str) -> Option<Json> {
        let mut p = Parser {
            s: s.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn field(&self, name: &str) -> Option<u64> {
        self.get(name)?.as_u64()
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match self.s.get(self.i)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Some(Json::Str(self.string()?)),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let start = self.i;
        while *self.s.get(self.i)? != b'"' {
            // The journal never writes escapes; a backslash means a
            // foreign or corrupt line.
            if self.s[self.i] == b'\\' {
                return None;
            }
            self.i += 1;
        }
        let out = std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .to_string();
        self.i += 1;
        Some(out)
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).ok()?;
        text.parse().ok().map(Json::Num)
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.s.get(self.i)? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Some(Json::Obj(fields));
        }
        loop {
            self.ws();
            let name = self.string()?;
            self.eat(b':')?;
            fields.push((name, self.value()?));
            self.ws();
            match self.s.get(self.i)? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Some(Json::Obj(fields));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuma_mem::addr::NodeId;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics {
            reads: 101,
            writes: 17,
            l1_hits: 90,
            mru_translation_hits: 5,
            l1_misses: 28,
            c2c_transfers: 3,
            local_fills: 9,
            block_cache_hits: 2,
            page_cache_hits: 1,
            remote_fetches: 12,
            refetches: 4,
            relocation_interrupts: 1,
            os: OsStats {
                page_faults: 7,
                ccnuma_maps: 6,
                scoma_allocations: 5,
                page_replacements: 4,
                relocations: 3,
                tlb_shootdowns: 2,
                blocks_flushed: 1,
            },
            exec_cycles: Cycles(123_456),
            per_cpu_cycles: vec![Cycles(10), Cycles(0), Cycles(123_456)],
            net_messages: 55,
            ni_wait: Cycles(7),
            pages: rnuma_mem::fxmap::FxMap::new(),
        };
        m.touch_page(VPage(3), NodeId(0), true);
        m.touch_page(VPage(3), NodeId(5), false);
        m.record_refetch(VPage(3));
        m.touch_page(VPage(1), NodeId(2), false);
        m
    }

    #[test]
    fn metrics_round_trip_is_bit_identical() {
        let m = sample_metrics();
        let mut line = String::from(
            "{\"key\":\"00000000000000ab\",\"app\":\"x\",\"protocol\":\"y\",\"metrics\":",
        );
        push_metrics_json(&m, &mut line);
        line.push('}');
        let (key, parsed) = parse_entry(&line).expect("round trip parses");
        assert_eq!(key, 0xab);
        assert!(m.replay_eq(&parsed), "round trip must be exact");
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        for junk in [
            "",
            "   ",
            "{",
            "{\"key\":\"zz\"}",
            "{\"key\":\"10\",\"metrics\":{}}",
            "not json at all",
            "{\"key\":\"10\",\"metrics\":{\"reads\":1}} trailing",
        ] {
            assert!(parse_entry(junk).is_none(), "{junk:?} must not parse");
        }
    }

    #[test]
    fn journal_resume_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "rnuma-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);

        let j = Journal::open(&path).unwrap();
        assert_eq!(j.entries(), 0);
        let m = sample_metrics();
        j.record(42, "em3d", "R-NUMA", &m);
        j.record(43, "moldyn", "S-COMA", &m);
        drop(j);
        // Simulate a torn final write from a killed process.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "{{\"key\":\"0000000000").unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.entries(), 2, "torn tail line is skipped");
        assert!(j.lookup(42).unwrap().replay_eq(&m));
        assert!(j.lookup(43).unwrap().replay_eq(&m));
        assert!(j.lookup(44).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Json::get finds the *first* matching field, so a duplicate
    /// field name cannot smuggle a second value past the parser.
    #[test]
    fn duplicate_json_fields_first_wins() {
        let m = sample_metrics();
        let mut line =
            String::from("{\"key\":\"00000000000000aa\",\"key\":\"00000000000000bb\",\"metrics\":");
        push_metrics_json(&m, &mut line);
        line.push('}');
        let (key, parsed) = parse_entry(&line).expect("duplicate fields still parse");
        assert_eq!(key, 0xaa, "first key field wins");
        assert!(m.replay_eq(&parsed));
    }

    /// Builds a `Metrics` from flat random material: 22 counters, a
    /// per-CPU cycle vector, and a page-profile table.
    #[allow(clippy::type_complexity)]
    fn metrics_from(vals: &[u64], per_cpu: &[u64], pages: &[(u64, u64, u64, u64, u64)]) -> Metrics {
        let mut m = Metrics {
            reads: vals[0],
            writes: vals[1],
            l1_hits: vals[2],
            mru_translation_hits: vals[3],
            l1_misses: vals[4],
            c2c_transfers: vals[5],
            local_fills: vals[6],
            block_cache_hits: vals[7],
            page_cache_hits: vals[8],
            remote_fetches: vals[9],
            refetches: vals[10],
            relocation_interrupts: vals[11],
            os: OsStats {
                page_faults: vals[12],
                ccnuma_maps: vals[13],
                scoma_allocations: vals[14],
                page_replacements: vals[15],
                relocations: vals[16],
                tlb_shootdowns: vals[17],
                blocks_flushed: vals[18],
            },
            exec_cycles: Cycles(vals[19]),
            per_cpu_cycles: per_cpu.iter().copied().map(Cycles).collect(),
            net_messages: vals[20],
            ni_wait: Cycles(vals[21]),
            pages: rnuma_mem::fxmap::FxMap::new(),
        };
        for &(page, accessors, writers, refetches, remote) in pages {
            m.pages.insert(
                VPage(page),
                PageProfile {
                    accessors: NodeMask::from_bits(accessors),
                    writers: NodeMask::from_bits(writers),
                    refetches,
                    remote_fetches: remote,
                },
            );
        }
        m
    }

    /// Serializes `m` exactly as `Journal::record` writes it (sans the
    /// trailing newline).
    fn entry_line(key: u64, m: &Metrics) -> String {
        let mut line =
            format!("{{\"key\":\"{key:016x}\",\"app\":\"a\",\"protocol\":\"p\",\"metrics\":");
        push_metrics_json(m, &mut line);
        line.push('}');
        line
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any serializable `Metrics` — random counters across the
        /// full magnitude range, random CPU-cycle vectors, random page
        /// profiles — survives a serialize/parse round trip **exactly**
        /// (`replay_eq`), with its cell key intact.
        #[test]
        fn serialized_metrics_round_trip_exactly(
            key in 0u64..u64::MAX,
            vals in prop::collection::vec(0u64..u64::MAX / 2, 22..23),
            per_cpu in prop::collection::vec(0u64..1_000_000_000_000, 0..9),
            pages in prop::collection::vec(
                (0u64..(1 << 40), 0u64..(1 << 16), 0u64..(1 << 16), 0u64..1_000, 0u64..1_000),
                0..12,
            ),
        ) {
            let m = metrics_from(&vals, &per_cpu, &pages);
            let (k, parsed) = parse_entry(&entry_line(key, &m))
                .expect("well-formed entries parse");
            prop_assert_eq!(k, key);
            prop_assert!(m.replay_eq(&parsed), "round trip must be bit-identical");
        }

        /// Every strict prefix of a well-formed journal line — the torn
        /// tail a killed process leaves — fails to parse. No truncation
        /// point yields a silently different entry.
        #[test]
        fn torn_prefixes_never_parse(
            key in 0u64..u64::MAX,
            vals in prop::collection::vec(0u64..u64::MAX / 2, 22..23),
            per_cpu in prop::collection::vec(0u64..1_000_000, 1..5),
            cut_permille in 0usize..1000,
        ) {
            let m = metrics_from(&vals, &per_cpu, &[(7, 3, 1, 0, 2)]);
            let line = entry_line(key, &m);
            let cut = cut_permille * line.len() / 1000;
            prop_assert!(cut < line.len(), "cut must be strict");
            prop_assert!(
                parse_entry(&line[..cut]).is_none(),
                "torn prefix of length {} (of {}) must not parse",
                cut,
                line.len()
            );
        }

        /// Duplicate cell keys across journal lines: `Journal::open`
        /// keeps the *last* record — a re-run that re-journals a cell
        /// supersedes the stale entry, never resurrects it.
        #[test]
        fn duplicate_cell_keys_last_record_wins(
            key in 0u64..u64::MAX,
            a in prop::collection::vec(0u64..1_000_000, 22..23),
            b in prop::collection::vec(0u64..1_000_000, 22..23),
        ) {
            let first = metrics_from(&a, &[1, 2], &[]);
            let second = metrics_from(&b, &[3], &[(9, 1, 1, 0, 0)]);
            let dir = std::env::temp_dir().join(format!(
                "rnuma-journal-prop-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("dup.jsonl");
            std::fs::write(
                &path,
                format!("{}\n{}\n", entry_line(key, &first), entry_line(key, &second)),
            )
            .unwrap();
            let j = Journal::open(&path).unwrap();
            prop_assert_eq!(j.entries(), 1, "duplicate keys collapse to one entry");
            prop_assert!(
                j.lookup(key).expect("key is present").replay_eq(&second),
                "the later record must win"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn cell_keys_separate_all_components() {
        let a = MachineConfig::paper_base(crate::config::Protocol::paper_rnuma());
        let b = MachineConfig::paper_base(crate::config::Protocol::paper_scoma());
        let k = cell_key("em3d", 7, &a);
        assert_eq!(k, cell_key("em3d", 7, &a), "stable");
        assert_ne!(k, cell_key("em3d", 8, &a), "trace hash matters");
        assert_ne!(k, cell_key("em3e", 7, &a), "workload matters");
        assert_ne!(k, cell_key("em3d", 7, &b), "config matters");
        assert_ne!(cell_key("ab", 0, &a), cell_key("a", 0, &a));
    }
}
