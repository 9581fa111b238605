//! # cij_lint — the workspace invariant checker
//!
//! The repo's value proposition — byte-exact parity of pairs, tuples,
//! counters and page accesses across thread counts, storage backends, leaf
//! layouts and exec modes — rests on contracts that used to live only in
//! prose (module docs, PR descriptions). This crate turns them into
//! failing builds: a hand-rolled comment/string/raw-string-aware token
//! scanner ([`lexer`]) plus a rule engine ([`rules`]) walks every
//! production `.rs` file in the workspace and enforces the invariants
//! below. Zero dependencies, in keeping with the vendored-offline policy.
//!
//! It runs three ways:
//!
//! * `cargo run -p cij_lint` — the CLI, printing `path:line: [RULE] msg`
//!   diagnostics and exiting nonzero on any finding (the dedicated CI step);
//! * `tests/lint.rs` in the workspace root — the same scan as a test, so
//!   plain tier-1 `cargo test -q` enforces the invariants;
//! * [`rules::scan_file`] directly — what the fixture and property tests
//!   use to feed synthetic sources through the rules.
//!
//! # Rule catalogue
//!
//! | ID | Protects | Introduced by |
//! |----|----------|---------------|
//! | `CIJ-D101` | **Determinism — entropy sources.** `SystemTime::now`, `Instant::now` and `thread_rng` are forbidden outside `crates/bench`, `crates/datagen` and test code. Result paths must be a pure function of inputs + config; a clock read that leaks into emission or counters breaks the replay parity the whole evaluation rests on. | PR 2 (trace/replay parity) |
//! | `CIJ-D102` | **Determinism — iteration order.** `HashMap`/`HashSet` are forbidden in the result-emitting modules (`core::{engine,chunk,nm,multiway,filter,service}`, `cij_voronoi`): anything iterated there must have deterministic order (`BTreeMap`, sorted `Vec`). Membership-only uses (never iterated) may be allowlisted with a reason. | PR 1–4 (ordered streams) |
//! | `CIJ-D103` | **Determinism — the environment.** `env::var`, `env::var_os`, `env::vars` and `env::vars_os` are forbidden outside `crates/bench`, `crates/datagen` and test code. A run is its inputs and its `CijConfig`; the parity guarantee (same rows and counters on every backend, worker count and mode) is checked by tests that name each cell, not by rerunning the suite under environment overrides. `env::temp_dir` (where anonymous page files go) stays legal. | the environment overrides' removal |
//! | `CIJ-U201` | **Unsafe audit — justification.** Every `unsafe` block/fn/impl must be immediately preceded by a `// SAFETY:` comment stating the invariant that makes it sound (contiguous comment/attribute lines above it are searched). | PR 8 (raw `mmap` bindings) |
//! | `CIJ-U202` | **Unsafe audit — budget.** Every `unsafe` occurrence must be covered by an exact per-file count in `lint.toml`, so any new unsafe (or removed unsafe that leaves the budget stale) shows up as a reviewable `lint.toml` diff. | PR 8 |
//! | `CIJ-I301` | **I/O accounting.** Every `PageBackend::read`/`write` call site (and every `write_back` call) must pass a *literal* `IoClass::Metered`/`IoClass::Unmetered` — classifying through a variable would let a call site launder metered traffic past review. | PR 8 (`BackendIo` metered/unmetered split) |
//! | `CIJ-I302` | **I/O accounting.** `PageStore::drop_buffer` is the measurement-reset path: every transfer inside it must stay `Unmetered` (the PR-3 "uncounted-but-real" hole, machine-closed). | PR 8 |
//! | `CIJ-A401` | **Atomics.** A file using `Ordering::Relaxed` must declare the contract making relaxed ordering sound in its `//!` module docs (the phrase "relaxed-consistency contract"). | PR 7 (`IoStats::snapshot` consistency contract) |
//! | `CIJ-C501` | **Concurrency discipline.** `thread::spawn` is forbidden outside the scoped worker pool (`run_ordered_scratch`, `core::chunk`) and the `service` worker pool — free threads bypass both the determinism protocol and panic isolation. | PR 2 / PR 7 |
//! | `CIJ-C502` | **Concurrency discipline.** `unwrap()`/`expect()` are forbidden in non-test `core::service` code: worker paths must stay `catch_unwind`-recoverable, and a poisoned lock must not cascade panics across workers (use the poison-recovering lock helpers). | PR 7 (worker isolation) |
//! | `CIJ-G601` | **One tolerance policy.** Every geometric threshold comes from `cij_geom::tolerance` (one constant, scaled with the operands): non-test code elsewhere may not name a tolerance — no non-zero float literal of magnitude ≤ `1e-6`, no `f64::EPSILON` / `f32::EPSILON`. | ROADMAP item 5(b) |
//! | `CIJ-X901` | **Meta.** An allowlist entry whose count does not exactly match the diagnostics it suppresses — stale suppressions (zero matches) and out-of-date budgets both fail, so `lint.toml` can never rot. Not allowlistable. | this PR |
//!
//! # Scope
//!
//! The scan covers `src/` and `crates/*/src/` — the production code.
//! `vendor/` (third-party stand-ins), `tests/`, `benches/`, `examples/`
//! and fixture directories are excluded, and tokens inside `#[cfg(test)]`
//! items or `#[test]` fns are skipped by the determinism and concurrency
//! rules (`CIJ-U201`/`U202` still apply there: the unsafe audit covers
//! whole files).
//!
//! # Allowlisting a violation
//!
//! Add an `[[allow]]` entry to `lint.toml` at the workspace root:
//!
//! ```toml
//! [[allow]]
//! rule = "CIJ-D102"
//! path = "crates/core/src/nm.rs"
//! count = 6
//! reason = "true-hit dedup is membership-only (insert/len/clear); never iterated"
//! ```
//!
//! `count` must equal the number of matching diagnostics **exactly**;
//! `reason` is mandatory. See [`config`] for the format.

#![warn(clippy::all)]
#![deny(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

use config::AllowEntry;
use rules::Diagnostic;
use std::path::{Path, PathBuf};

/// Directory names never descended into during the workspace walk.
const SKIP_DIRS: [&str; 7] = [
    "target", "vendor", "fixtures", "tests", "benches", "examples", ".git",
];

/// The outcome of a workspace run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Diagnostics that survived the allowlist, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of diagnostics suppressed by `lint.toml` entries.
    pub suppressed: usize,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "cij_lint: {} file(s) scanned, {} diagnostic(s), {} suppressed",
            self.files_scanned,
            self.diagnostics.len(),
            self.suppressed
        )
    }
}

/// Scans the workspace rooted at `root` and applies the `lint.toml`
/// allowlist found there (a missing `lint.toml` means an empty allowlist).
///
/// Returns `Err` on unreadable files or a malformed allowlist — those must
/// fail the build as loudly as any diagnostic.
pub fn run(root: &Path) -> Result<Report, String> {
    let allow_path = root.join("lint.toml");
    let allow = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
        config::parse(&text).map_err(|e| format!("lint.toml:{e}"))?
    } else {
        Vec::new()
    };
    let files = collect_rs_files(root)?;
    let files_scanned = files.len();
    let mut diagnostics = Vec::new();
    for (rel, abs) in files {
        let source =
            std::fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        let scan = lexer::scan(&source);
        diagnostics.extend(rules::scan_file(&rel, &scan));
    }
    let (diagnostics, suppressed) = apply_allowlist(diagnostics, &allow);
    Ok(Report {
        diagnostics,
        files_scanned,
        suppressed,
    })
}

/// Applies `allow` entries to `diags`: an entry suppresses the diagnostics
/// of its (rule, path) group only when its `count` matches the group size
/// exactly; any mismatch, stale entry or duplicate becomes a `CIJ-X901`
/// meta diagnostic against `lint.toml`. Returns the surviving diagnostics
/// (sorted) and the number suppressed.
pub fn apply_allowlist(diags: Vec<Diagnostic>, allow: &[AllowEntry]) -> (Vec<Diagnostic>, usize) {
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for entry in allow {
        let key = (entry.rule.as_str(), entry.path.as_str());
        if seen.contains(&key) {
            out.push(Diagnostic {
                rule: rules::X901,
                path: "lint.toml".to_string(),
                line: entry.line,
                message: format!(
                    "duplicate [[allow]] entry for {} at {}",
                    entry.rule, entry.path
                ),
            });
        }
        seen.push(key);
    }
    // Route each diagnostic to the first entry matching its (rule, path),
    // or straight to the output.
    let mut matched: Vec<Vec<Diagnostic>> = allow.iter().map(|_| Vec::new()).collect();
    for d in diags {
        match allow
            .iter()
            .position(|e| e.rule == d.rule && e.path == d.path)
        {
            Some(i) => matched[i].push(d),
            None => out.push(d),
        }
    }
    // An entry suppresses its group only on an exact count match; otherwise
    // the group resurfaces alongside a meta diagnostic, so both new
    // violations and rotted suppressions fail the build.
    let mut suppressed = 0usize;
    for (entry, group) in allow.iter().zip(matched) {
        if group.len() == entry.count {
            suppressed += group.len();
            continue;
        }
        let msg = if group.is_empty() {
            format!(
                "stale [[allow]] entry: no {} diagnostics at {} — delete it",
                entry.rule, entry.path
            )
        } else {
            format!(
                "[[allow]] budget out of date: entry allows {} {} diagnostic(s) at {}, found {}",
                entry.count,
                entry.rule,
                entry.path,
                group.len()
            )
        };
        out.push(Diagnostic {
            rule: rules::X901,
            path: "lint.toml".to_string(),
            line: entry.line,
            message: msg,
        });
        out.extend(group);
    }
    out.sort_by(|a, b| (a.path.clone(), a.line, a.rule).cmp(&(b.path.clone(), b.line, b.rule)));
    (out, suppressed)
}

/// Collects the production `.rs` files: `src/` and `crates/*/src/` under
/// `root`, skipping [`SKIP_DIRS`]. Paths come back workspace-relative with
/// `/` separators, sorted — the scan order (and therefore the diagnostic
/// order) is deterministic, as this tool preaches.
fn collect_rs_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = entries
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip prefix: {e}"))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}
