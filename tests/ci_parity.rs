//! CI parity guard: `scripts/ci.sh` and `.github/workflows/ci.yml` run the
//! same rows.
//!
//! Five groups of rows exist in both files with a "keep identical"
//! comment beside them: the suites re-run over the TCP transport
//! (`HEAR_TRANSPORT=tcp`), the suites re-run on a 4-thread budget
//! (`HEAR_THREADS=4`), the benchmark package's build and test rows (with
//! the `--skip` of its known flake), the lint rows, and the Fig. 4 smoke
//! and its output checks. This test
//! parses each file's shell commands with a small std-only scanner,
//! drops what legitimately differs (the workflow's `+<toolchain>` and
//! `--offline`; the script exports `CARGO_NET_OFFLINE` instead), and fails
//! if a group differs — a suite added to one list and not the other, a
//! skip widened in one place, a lint row dropped.

use std::fs;
use std::path::{Path, PathBuf};

/// Repo root, derived from this file's compile-time location
/// (`<repo>/tests/ci_parity.rs`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")) // crates/hear
        .ancestors()
        .nth(2)
        .expect("crates/hear has a grandparent")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// One command with the toolchain selector and `--offline` removed and
/// whitespace collapsed.
fn normalise(cmd: &str) -> String {
    let cmd = cmd.replace("+${{ matrix.toolchain }}", "");
    let tokens = cmd.split_whitespace().filter(|t| *t != "--offline");
    tokens.collect::<Vec<_>>().join(" ")
}

/// Shell lines joined across `\` continuations, comments and blank lines
/// dropped.
fn shell_commands<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let lines = lines.map(str::trim);
    for line in lines.filter(|l| !l.is_empty() && !l.starts_with('#')) {
        match line.strip_suffix('\\') {
            Some(head) => {
                current.push_str(head);
                current.push(' ');
            }
            None => {
                current.push_str(line);
                out.push(normalise(&current));
                current.clear();
            }
        }
    }
    out
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The commands of every `run:` step: inline, a folded `>-` block (one
/// command) or a literal `|` block (shell lines).
fn workflow_commands(yml: &str) -> Vec<String> {
    let lines: Vec<&str> = yml.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("run:") else {
            continue;
        };
        let block = lines[i + 1..]
            .iter()
            .take_while(|l| !l.trim().is_empty() && indent(l) > indent(line))
            .copied();
        match rest.trim() {
            ">-" | ">" => out.push(normalise(&block.collect::<Vec<_>>().join(" "))),
            "|" => out.extend(shell_commands(block)),
            inline => out.extend(shell_commands(std::iter::once(inline))),
        }
    }
    out
}

/// The row groups both files must carry identically.
fn groups(commands: &[String]) -> [(&'static str, Vec<String>); 5] {
    let pick = |keep: &dyn Fn(&str) -> bool| {
        let rows = commands.iter().filter(|c| keep(c));
        rows.cloned().collect::<Vec<_>>()
    };
    [
        (
            "TCP row",
            pick(&|c| c.starts_with("HEAR_TRANSPORT=tcp cargo test")),
        ),
        (
            "thread-budget row",
            pick(&|c| c.starts_with("HEAR_THREADS=4 cargo test")),
        ),
        (
            "benchmark-package rows",
            pick(&|c| {
                let build_or_test = c.starts_with("cargo build") || c.starts_with("cargo test");
                build_or_test && c.contains("--manifest-path bench/Cargo.toml")
            }),
        ),
        (
            "lint rows",
            pick(&|c| c.starts_with("cargo fmt") || c.starts_with("cargo clippy")),
        ),
        ("Fig. 4 smoke rows", pick(&|c| c.contains("fig4"))),
    ]
}

#[test]
fn ci_script_and_workflow_run_the_same_tcp_bench_and_lint_rows() {
    let script = shell_commands(read("scripts/ci.sh").lines());
    let workflow = workflow_commands(&read(".github/workflows/ci.yml"));
    for ((name, in_script), (_, in_workflow)) in groups(&script).into_iter().zip(groups(&workflow))
    {
        assert!(!in_script.is_empty(), "scripts/ci.sh has no {name}");
        assert_eq!(
            in_script, in_workflow,
            "{name}: scripts/ci.sh and .github/workflows/ci.yml differ"
        );
    }
}

/// The TCP row re-runs every transport-sensitive suite, and the benchmark
/// package skips nothing but its one known flake.
#[test]
fn the_tcp_row_lists_every_transport_suite_and_the_bench_skips_one_test() {
    let script = shell_commands(read("scripts/ci.sh").lines());
    let [(_, tcp), _, (_, bench), _, _] = groups(&script);
    let suites: Vec<&str> = tcp[0]
        .split(" --test ")
        .skip(1)
        .map(|s| s.split_whitespace().next().unwrap_or_default())
        .collect();
    assert_eq!(
        suites,
        [
            "matrix",
            "chaos",
            "collectives",
            "socket",
            "telemetry_e2e",
            "posted_blocks"
        ],
        "{tcp:?}"
    );
    let skips: Vec<&str> = bench
        .iter()
        .flat_map(|c| c.split(" --skip ").skip(1))
        .collect();
    assert_eq!(
        skips,
        ["timed_loop_runs_the_same_count_on_every_rank"],
        "{bench:?}"
    );
}
