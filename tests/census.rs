//! Public-surface census: every exported item has a caller.
//!
//! A plain source scan, in the style of `tests/hermetic.rs`. It lists every
//! `pub fn|struct|enum|trait|const|type|static` declared under `crates/`
//! (outside `crates/bench` and `crates/testkit`, which are tooling) and
//! fails on any item that no other `.rs` file under `crates/`, `tests/` or
//! `examples/` uses and that is not on [`ALLOWLIST`]. An item declared at
//! the top level of a file is used where its name appears as a whole word;
//! a method (a `pub fn` declared inside a block) only where it appears
//! qualified, as `Type::name` or as a call `.name(` — so a method is not
//! kept alive by an unrelated method, field or local of the same name. A name that only `bench/` mentions counts as uncalled too:
//! the benchmark package is frozen between benchmark changes, so what it
//! alone keeps alive is listed here, with a reason, until it retires.
//!
//! A fourth test keeps bulk PRF output inside `hear-prf`: no library code
//! elsewhere calls a bulk fill.
//!
//! The compiler guards the other half: every library crate has
//! `#![deny(unreachable_pub)]`, so a `pub` item inside a private module
//! must be `pub(crate)`. Together they keep "public" meaning "called".
//!
//! To fix a failure: delete the item (with the tests that only exercised
//! it), make it private or `pub(crate)`, or add a `(path, name, reason)`
//! row to [`ALLOWLIST`]. A row whose item is gone or has gained a caller
//! fails as well, so the list never outlives its reasons.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Exported items kept without a caller elsewhere, each with its reason.
const ALLOWLIST: &[(&str, &str, &str)] = &[
    // Types that only appear in the signature of a called function.
    (
        "crates/baselines/src/lib.rs",
        "Verdict",
        "field type of `Table1Row`",
    ),
    (
        "crates/baselines/src/lib.rs",
        "Table1Row",
        "row type of the Table 1 regenerator's output",
    ),
    (
        "crates/core/src/properties.rs",
        "SecurityClass",
        "field type of `SchemeRow`",
    ),
    (
        "crates/core/src/properties.rs",
        "SchemeRow",
        "element type of `TABLE2`",
    ),
    (
        "crates/dnn/src/lib.rs",
        "Workload",
        "element type of `paper_workloads()`",
    ),
    (
        "crates/mpi/src/tcp/wire.rs",
        "WireError",
        "error type of `FrameDecoder::next_frame`",
    ),
    (
        "crates/telemetry/src/parse.rs",
        "ParseError",
        "error type of the three parsers",
    ),
    (
        "crates/telemetry/src/parse.rs",
        "ChromeEvent",
        "element type of `parse_chrome_trace`",
    ),
    (
        "crates/telemetry/src/parse.rs",
        "PromSample",
        "element type of `parse_prometheus`",
    ),
    // Named only by the frozen benchmark package `bench/`.
    (
        "crates/dnn/src/sharded.rs",
        "ShardedSgd",
        "the `zero_step_mem` workload's subject (paper §7.2)",
    ),
    (
        "crates/dnn/src/sharded.rs",
        "StepStats",
        "what `ShardedSgd::step` returns to the `zero_step_mem` workload",
    ),
    (
        "crates/mpi/src/collectives.rs",
        "allreduce_ring",
        "the plaintext twin of the ring workloads in bench/",
    ),
    (
        "crates/mpi/src/collectives.rs",
        "reduce_scatter",
        "the plaintext reduce-scatter the `zero_step_mem` workload checks against",
    ),
    (
        "crates/dnn/src/sharded.rs",
        "step",
        "the `zero_step_mem` workload's one call per step",
    ),
    (
        "crates/dnn/src/sharded.rs",
        "params",
        "the `zero_step_mem` workload reads the replica after each step",
    ),
    (
        "crates/mpi/src/tcp/wire.rs",
        "FrameDecoder",
        "bench/ times the frame decoder; retire in ROADMAP 4",
    ),
    (
        "crates/mpi/src/tcp/wire.rs",
        "next_frame",
        "bench/ times the frame decoder; retire in ROADMAP 4",
    ),
    (
        "crates/prf/src/lib.rs",
        "keystream_u64",
        "bench/ pads its cells with it; retire in ROADMAP 4",
    ),
    (
        "crates/telemetry/src/parse.rs",
        "Json",
        "bench/ reads trace arguments through it",
    ),
    (
        "crates/telemetry/src/parse.rs",
        "as_str",
        "bench/ reads trace arguments through it",
    ),
    (
        "crates/telemetry/src/parse.rs",
        "as_arr",
        "bench/ reads trace arguments through it",
    ),
];

/// Repo root, derived from this file's compile-time location
/// (`<repo>/tests/census.rs`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")) // crates/hear
        .ancestors()
        .nth(2)
        .expect("crates/hear has a grandparent")
        .to_path_buf()
}

/// Every `.rs` file under `dir`, as a `/`-separated path relative to
/// `root`; build output (`target/`) is skipped.
fn rust_files(root: &Path, dir: &str, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(root.join(dir)) else {
        return;
    };
    for entry in entries {
        let entry = entry.expect("readable directory entry");
        let name = entry.file_name().into_string().expect("UTF-8 file name");
        let rel = format!("{dir}/{name}");
        let kind = entry.file_type().expect("file type");
        if kind.is_dir() && name != "target" {
            rust_files(root, &rel, out);
        } else if kind.is_file() && name.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// The identifiers in `text`: maximal runs of `[A-Za-z0-9_]` that do not
/// start with a digit (what a regex `\bname\b` would match on).
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The identifiers in `text` used the way a method is: after `::` (a
/// path, `false`), or after `.` and followed by a call — `(`, or a
/// turbofish `::<` (a method call, `true`).
fn qualified_uses(text: &str) -> impl Iterator<Item = (&str, bool)> {
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let bytes = text.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        while at < bytes.len() {
            let start = at;
            if !ident(bytes[at]) {
                at += 1;
                continue;
            }
            while at < bytes.len() && ident(bytes[at]) {
                at += 1;
            }
            let (before, word, after) = (&text[..start], &text[start..at], &text[at..]);
            let call = after.starts_with('(') || after.starts_with("::<");
            if before.ends_with("::") {
                return Some((word, false));
            }
            if before.ends_with('.') && call {
                return Some((word, true));
            }
        }
        None
    })
}

/// The `pub` items a line declares: `(kind, name)` for
/// `pub [unsafe|const|async ]*(fn|struct|enum|trait|const|type|static) name`.
/// `pub(crate)` and friends are not exported and do not match.
fn declared_item(line: &str) -> Option<(&str, &str)> {
    let mut toks = line.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut kind = toks.next()?;
    while matches!(kind, "unsafe" | "async") || (kind == "const" && line.contains(" fn ")) {
        kind = toks.next()?;
    }
    if !matches!(
        kind,
        "fn" | "struct" | "enum" | "trait" | "const" | "type" | "static"
    ) {
        return None;
    }
    let mut name = toks.next()?;
    if name == "mut" {
        name = toks.next()?;
    }
    let end = name
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    Some((kind, &name[..end])).filter(|(_, n)| !n.is_empty())
}

/// One exported item: where it is declared and what it is called.
struct Item {
    path: String,
    line: usize,
    kind: String,
    name: String,
    /// A `pub fn` declared inside a block (an `impl` or a `trait`): used
    /// only where it appears qualified.
    method: bool,
}

struct Census {
    items: Vec<Item>,
    /// Identifier → the files (outside `bench/`) that mention it.
    named_in: BTreeMap<String, BTreeSet<String>>,
    /// Identifier → the files (outside `bench/`) that use it qualified
    /// ([`qualified_uses`]), a method call only where that file declares
    /// no `fn` of the same name.
    qualified_in: BTreeMap<String, BTreeSet<String>>,
    /// Identifiers `bench/` mentions.
    bench_names: BTreeSet<String>,
}

impl Census {
    fn take(root: &Path) -> Census {
        let mut files = Vec::new();
        for dir in ["crates", "tests", "examples", "bench"] {
            rust_files(root, dir, &mut files);
        }
        files.sort();
        let mut census = Census {
            items: Vec::new(),
            named_in: BTreeMap::new(),
            qualified_in: BTreeMap::new(),
            bench_names: BTreeSet::new(),
        };
        let mut calls_in: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut own_fns: BTreeSet<(String, String)> = BTreeSet::new();
        for path in files {
            // This file names every allowlisted item; it calls none.
            if path == "tests/census.rs" {
                continue;
            }
            let text = fs::read_to_string(root.join(&path)).expect("readable source");
            if path.starts_with("bench/") {
                census.bench_names.extend(words(&text).map(str::to_string));
                continue;
            }
            for w in words(&text) {
                let files = census.named_in.entry(w.to_string()).or_default();
                if !files.contains(&path) {
                    files.insert(path.clone());
                }
            }
            for line in text.lines() {
                let mut toks = line.split_whitespace();
                while let Some(tok) = toks.next() {
                    if tok == "fn" {
                        if let Some(name) = toks.next().and_then(|t| words(t).next()) {
                            own_fns.insert((path.clone(), name.to_string()));
                        }
                    }
                }
            }
            for (w, call) in qualified_uses(&text) {
                let index = if call {
                    &mut calls_in
                } else {
                    &mut census.qualified_in
                };
                let files: &mut BTreeSet<String> = index.entry(w.to_string()).or_default();
                if !files.contains(&path) {
                    files.insert(path.clone());
                }
            }
            let tooling = path.starts_with("crates/bench/") || path.starts_with("crates/testkit/");
            if path.starts_with("crates/") && !tooling {
                for (i, line) in text.lines().enumerate() {
                    if let Some((kind, name)) = declared_item(line) {
                        census.items.push(Item {
                            path: path.clone(),
                            line: i + 1,
                            kind: kind.to_string(),
                            name: name.to_string(),
                            method: kind == "fn" && line.starts_with(char::is_whitespace),
                        });
                    }
                }
            }
        }
        // A `.name(` call in a file that declares a `fn name` of its own,
        // public or not, is taken to call that one: `sum.accumulate(…)`
        // next to `StepStats::accumulate` keeps no other type's
        // `accumulate` alive.
        for (name, files) in calls_in {
            let foreign: Vec<String> = (files.into_iter())
                .filter(|f| !own_fns.contains(&(f.clone(), name.clone())))
                .collect();
            census.qualified_in.entry(name).or_default().extend(foreign);
        }
        census
    }

    /// True when some file other than the item's own uses it: names it,
    /// or for a method, names it qualified.
    fn called(&self, item: &Item) -> bool {
        let index = if item.method {
            &self.qualified_in
        } else {
            &self.named_in
        };
        index
            .get(&item.name)
            .is_some_and(|files| files.iter().any(|f| *f != item.path))
    }

    /// Items named nowhere outside their own file (`bench/` aside).
    fn uncalled(&self) -> Vec<&Item> {
        self.items.iter().filter(|i| !self.called(i)).collect()
    }
}

/// The one scan of the tree every test reads.
fn census() -> &'static Census {
    static CENSUS: OnceLock<Census> = OnceLock::new();
    CENSUS.get_or_init(|| Census::take(&repo_root()))
}

fn allowed(item: &Item) -> bool {
    ALLOWLIST
        .iter()
        .any(|&(path, name, _)| path == item.path && name == item.name)
}

fn describe(item: &Item, census: &Census) -> String {
    let bench = if census.bench_names.contains(&item.name) {
        " (named only by bench/)"
    } else {
        ""
    };
    format!(
        "  {}:{}  pub {} {}{bench}",
        item.path, item.line, item.kind, item.name
    )
}

#[test]
fn every_public_item_has_a_caller_or_an_allowlisted_reason() {
    let census = census();
    assert!(
        census.items.len() > 100,
        "the scan found only {} public items: is the repo layout unchanged?",
        census.items.len()
    );
    let unlisted: Vec<String> = (census.uncalled().into_iter())
        .filter(|i| !allowed(i))
        .map(|i| describe(i, census))
        .collect();
    assert!(
        unlisted.is_empty(),
        "{} public item(s) are named in no other file under crates/, tests/ or \
         examples/; delete each, make it private or pub(crate), or give it a \
         reason in ALLOWLIST (tests/census.rs):\n{}",
        unlisted.len(),
        unlisted.join("\n")
    );
}

#[test]
fn every_allowlist_row_has_a_reason_and_is_still_needed() {
    let census = census();
    let uncalled = census.uncalled();
    let mut stale = Vec::new();
    for &(path, name, reason) in ALLOWLIST {
        assert!(!reason.trim().is_empty(), "{path} {name}: empty reason");
        let needed = uncalled.iter().any(|i| i.path == path && i.name == name);
        if !needed {
            stale.push(format!("  {path}  {name}"));
        }
    }
    assert!(
        stale.is_empty(),
        "ALLOWLIST rows whose item is gone or now has a caller; remove them:\n{}",
        stale.join("\n")
    );
}

/// `text`'s lines, numbered from 1, outside `#[cfg(test)]` items (each
/// skipped through its matching close brace, or its `;`).
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((i, line)) = lines.next() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            let mut depth = 0;
            for (_, l) in lines.by_ref() {
                depth += l.matches('{').count() as i64 - l.matches('}').count() as i64;
                if depth <= 0 && (l.contains('}') || l.trim_end().ends_with(';')) {
                    break;
                }
            }
            continue;
        }
        out.push((i + 1, line));
    }
    out
}

/// Bulk PRF output comes from `hear-prf`'s pad passes alone, through its
/// `Stream`s, so a pad auditor has one place to hook: outside `crates/prf`
/// (and the `crates/bench` tooling) no non-test code calls a bulk fill.
/// Scalar `eval_block` calls (key progression, point-to-point keys, the
/// scalar references) stay allowed.
#[test]
fn bulk_prf_blocks_come_from_hear_prf_alone() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_files(&root, "crates", &mut files);
    let library = |p: &&String| !p.starts_with("crates/prf/") && !p.starts_with("crates/bench/");
    let mut fills = Vec::new();
    for path in files.iter().filter(library) {
        let text = fs::read_to_string(root.join(path)).expect("readable source");
        for (n, line) in non_test_lines(&text) {
            let code = line.split("//").next().unwrap_or_default();
            if code.contains(".fill_blocks(") || code.contains("fill_blocks_uncounted") {
                fills.push(format!("  {path}:{n}  {}", line.trim()));
            }
        }
    }
    assert!(
        files.len() > 50,
        "the scan found only {} files: is the repo layout unchanged?",
        files.len()
    );
    assert!(
        fills.is_empty(),
        "bulk PRF fills outside hear-prf; derive the blocks in a \
         `hear_prf::par_block_pass` over `Stream`s instead:\n{}",
        fills.join("\n")
    );
}

#[test]
fn the_declaration_scanner_reads_every_exported_form() {
    let cases = [
        ("pub fn f(x: u8) {", Some(("fn", "f"))),
        ("    pub unsafe fn g<T>()", Some(("fn", "g"))),
        ("pub const fn h() -> u8", Some(("fn", "h"))),
        ("pub const MAX: usize = 3;", Some(("const", "MAX"))),
        ("pub static mut S: u8 = 0;", Some(("static", "S"))),
        ("pub struct Packet<W> {", Some(("struct", "Packet"))),
        ("pub enum E {", Some(("enum", "E"))),
        ("pub trait Scheme: Sized {", Some(("trait", "Scheme"))),
        ("pub type Lanes = [u64; 2];", Some(("type", "Lanes"))),
        ("pub(crate) fn hidden() {", None),
        ("pub mod wire;", None),
        ("pub use crate::x::Y;", None),
        ("    pub field: u8,", None),
        ("// pub fn commented() {}", None),
    ];
    for (line, want) in cases {
        assert_eq!(declared_item(line), want, "{line:?}");
    }
    let ws: Vec<&str> = words("a.b_c(2x, _d::E9)").collect();
    assert_eq!(ws, ["a", "b_c", "_d", "E9"]);
    let text = "x.call(1); y.field; T::assoc; s.turbo::<u8>(); let bare = accumulate; z.m ()";
    let qs: Vec<(&str, bool)> = qualified_uses(text).collect();
    assert_eq!(qs, [("call", true), ("assoc", false), ("turbo", true)]);
}
