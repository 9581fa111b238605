//! The rule families — each turns one of the workspace's prose contracts
//! into diagnostics. See the crate docs for the catalogue (what each rule
//! protects, which PR introduced the contract, how to allowlist).
//!
//! Every rule is a pure function of a [`FileScan`] plus the file's
//! workspace-relative path (several rules are scoped to specific modules),
//! returning zero or more [`Diagnostic`]s. Rules skip tokens inside
//! `#[cfg(test)]` / `#[test]` regions except where noted (`CIJ-U201` and
//! `CIJ-U202` apply to test code too: unsound test helpers are still
//! unsound, and the unsafe budget must cover the whole file).

use crate::lexer::FileScan;

/// One lint finding: rule ID, file, 1-based line, human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule ID (`CIJ-D101`, …, `CIJ-X901`).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line of the finding (0 for file- or config-level findings).
    pub line: usize,
    /// Explanation of the violation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Determinism: wall-clock and RNG sources.
pub const D101: &str = "CIJ-D101";
/// Determinism: hash-ordered collections in result-emitting modules.
pub const D102: &str = "CIJ-D102";
/// Determinism: environment variables read by product code.
pub const D103: &str = "CIJ-D103";
/// Unsafe audit: `// SAFETY:` comment required.
pub const U201: &str = "CIJ-U201";
/// Unsafe audit: per-file budget in `lint.toml`.
pub const U202: &str = "CIJ-U202";
/// I/O accounting: literal `IoClass` at backend call sites.
pub const I301: &str = "CIJ-I301";
/// I/O accounting: `drop_buffer` stays unmetered.
pub const I302: &str = "CIJ-I302";
/// Atomics: `Ordering::Relaxed` needs a declared contract.
pub const A401: &str = "CIJ-A401";
/// Concurrency: unmanaged `thread::spawn`.
pub const C501: &str = "CIJ-C501";
/// Concurrency: `unwrap`/`expect` in service worker paths.
pub const C502: &str = "CIJ-C502";
/// Geometry: a tolerance literal outside the tolerance module.
pub const G601: &str = "CIJ-G601";
/// Meta: allowlist entry stale or its budget out of date.
pub const X901: &str = "CIJ-X901";

/// Every real rule ID (everything an allowlist entry may name), plus the
/// meta rule last.
pub const ALL_RULES: [&str; 12] = [
    D101, D102, D103, U201, U202, I301, I302, A401, C501, C502, G601, X901,
];

/// Crates whose code is *supposed* to read clocks and RNGs: the bench
/// harness measures wall time and the data generators are seeded RNG users.
/// `CIJ-D103` exempts the same two.
const D101_EXEMPT_PREFIXES: [&str; 2] = ["crates/bench/", "crates/datagen/"];

/// The result-emitting modules (paths) where pair/tuple/counter emission
/// order must never depend on hash-map iteration order.
const EMISSION_MODULES: [&str; 6] = [
    "crates/core/src/engine.rs",
    "crates/core/src/chunk.rs",
    "crates/core/src/nm.rs",
    "crates/core/src/multiway.rs",
    "crates/core/src/filter.rs",
    "crates/core/src/service.rs",
];

/// Modules allowed to spawn OS threads: the scoped worker pool
/// (`run_ordered_scratch`) and the service worker pool.
const SPAWN_MODULES: [&str; 2] = ["crates/core/src/chunk.rs", "crates/core/src/service.rs"];

/// The service module, whose worker paths must stay
/// `catch_unwind`-recoverable.
const SERVICE_MODULE: &str = "crates/core/src/service.rs";

/// The page store, whose `drop_buffer` path must stay unmetered.
const STORE_MODULE: &str = "crates/pagestore/src/store.rs";

/// The one module allowed to state a geometric tolerance.
const TOLERANCE_MODULE: &str = "crates/geom/src/tolerance.rs";

/// The largest float literal `CIJ-G601` takes for a tolerance: every
/// geometric threshold in the workspace sat at or below it (`1e-7`, `1e-9`,
/// `1e-6`), every genuine constant (`0.5`, `2.0`, a load factor) above it.
const TOLERANCE_LITERAL_LIMIT: f64 = 1.0 / 1_000_000.0;

/// The phrase a file using `Ordering::Relaxed` must declare in its `//!`
/// module docs.
pub const RELAXED_CONTRACT_PHRASE: &str = "relaxed-consistency contract";

/// Runs every rule over one file scan. `path` must be workspace-relative
/// with `/` separators (rule scoping matches on it).
pub fn scan_file(path: &str, scan: &FileScan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_d101(path, scan, &mut out);
    rule_d102(path, scan, &mut out);
    rule_d103(path, scan, &mut out);
    rule_u201(path, scan, &mut out);
    rule_u202(path, scan, &mut out);
    rule_i301(path, scan, &mut out);
    rule_i302(path, scan, &mut out);
    rule_a401(path, scan, &mut out);
    rule_c501(path, scan, &mut out);
    rule_c502(path, scan, &mut out);
    rule_g601(path, scan, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn diag(out: &mut Vec<Diagnostic>, rule: &'static str, path: &str, line: usize, message: String) {
    out.push(Diagnostic {
        rule,
        path: path.to_string(),
        line,
        message,
    });
}

/// CIJ-D101: `SystemTime::now`, `Instant::now` and `thread_rng` are
/// forbidden outside `crates/bench`, `crates/datagen` and test code —
/// result paths must be wall-clock- and entropy-free.
fn rule_d101(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if D101_EXEMPT_PREFIXES.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for i in 0..scan.tokens.len() {
        if scan.in_test[i] {
            continue;
        }
        let line = scan.tokens[i].line;
        if scan.path2(i, "SystemTime", "now") || scan.path2(i, "Instant", "now") {
            diag(
                out,
                D101,
                path,
                line,
                "wall-clock read in deterministic code (allowed only in \
                 crates/bench, crates/datagen and tests)"
                    .to_string(),
            );
        } else if scan.ident(i) == Some("thread_rng") {
            diag(
                out,
                D101,
                path,
                line,
                "OS-entropy RNG in deterministic code (use a seeded StdRng, \
                 or move the call to crates/bench / crates/datagen / tests)"
                    .to_string(),
            );
        }
    }
}

/// CIJ-D102: `HashMap` / `HashSet` are forbidden in the result-emitting
/// modules — anything iterated there must have a deterministic order
/// (`BTreeMap`, sorted `Vec`). Membership-only uses may be allowlisted
/// with a reason.
fn rule_d102(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    let emitting = EMISSION_MODULES.contains(&path) || path.starts_with("crates/voronoi/src/");
    if !emitting {
        return;
    }
    for i in 0..scan.tokens.len() {
        if scan.in_test[i] {
            continue;
        }
        if let Some(w @ ("HashMap" | "HashSet")) = scan.ident(i) {
            diag(
                out,
                D102,
                path,
                scan.tokens[i].line,
                format!(
                    "{w} in a result-emitting module: iteration order is \
                     nondeterministic — use BTreeMap/BTreeSet or a sorted Vec, \
                     or allowlist a membership-only use with a reason"
                ),
            );
        }
    }
}

/// CIJ-D103: `env::var`, `env::var_os`, `env::vars` and `env::vars_os` are
/// forbidden outside `crates/bench`, `crates/datagen` and test code — a
/// result or a counter must never depend on how the process was started, and
/// a configuration is set through `CijConfig`, by the caller. Other `env`
/// items (`env::temp_dir`, `env::args`) stay legal.
fn rule_d103(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if D101_EXEMPT_PREFIXES.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for i in 0..scan.tokens.len() {
        if scan.in_test[i] {
            continue;
        }
        if let Some(item) = ["var", "var_os", "vars", "vars_os"]
            .into_iter()
            .find(|item| scan.path2(i, "env", item))
        {
            diag(
                out,
                D103,
                path,
                scan.tokens[i].line,
                format!(
                    "env::{item} in product code: nothing may depend on the \
                     environment (set the value through CijConfig, or move the \
                     read to crates/bench / crates/datagen / tests)"
                ),
            );
        }
    }
}

/// CIJ-U201: every `unsafe` keyword (block, fn, impl, trait) must be
/// immediately preceded by a `// SAFETY:` comment stating the invariant
/// that makes it sound. Contiguous comment/attribute lines directly above
/// the `unsafe` line are searched, plus the line itself.
fn rule_u201(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for i in 0..scan.tokens.len() {
        if scan.ident(i) != Some("unsafe") {
            continue;
        }
        let line = scan.tokens[i].line;
        if !safety_comment_covers(scan, line) {
            diag(
                out,
                U201,
                path,
                line,
                "unsafe without an immediately preceding `// SAFETY:` comment \
                 stating the invariant that makes it sound"
                    .to_string(),
            );
        }
    }
}

/// True when the `unsafe` on `line` (1-based) is covered by a `SAFETY:`
/// comment: on the same line, or in the contiguous run of comment /
/// attribute lines directly above it.
fn safety_comment_covers(scan: &FileScan, line: usize) -> bool {
    let idx = line.saturating_sub(1); // 0-based index of the unsafe line
    if scan.lines.get(idx).is_some_and(|l| l.contains("SAFETY:")) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let trimmed = scan.lines[k].trim_start();
        if trimmed.starts_with("//") {
            if trimmed.contains("SAFETY:") {
                return true;
            }
        } else if trimmed.starts_with("#[") || trimmed.starts_with("#!") {
            // Attributes may sit between the SAFETY comment and the item.
        } else {
            return false;
        }
    }
    false
}

/// CIJ-U202: every `unsafe` keyword must be covered by the per-file budget
/// in `lint.toml` — one diagnostic per occurrence, suppressed only when the
/// allowlisted count matches exactly, so adding or removing unsafe anywhere
/// shows up as a `lint.toml` diff.
fn rule_u202(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for i in 0..scan.tokens.len() {
        if scan.ident(i) == Some("unsafe") {
            diag(
                out,
                U202,
                path,
                scan.tokens[i].line,
                "unsafe outside the per-file budget — update the CIJ-U202 \
                 entry for this file in lint.toml (with the count and a reason)"
                    .to_string(),
            );
        }
    }
}

/// CIJ-I301: `PageBackend::read` / `PageBackend::write` call sites (3
/// arguments) and `write_back` call sites (2 arguments) must pass a
/// *literal* `IoClass::Metered` / `IoClass::Unmetered` as the class
/// argument — no variable laundering between the decision and the
/// accounting.
fn rule_i301(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for i in 0..scan.tokens.len() {
        let Some(word @ ("read" | "write" | "write_back")) = scan.ident(i) else {
            continue;
        };
        if !scan.punct(i + 1, '(') {
            continue;
        }
        // Definitions (`fn read(...)`) are not call sites.
        if i > 0 && scan.ident(i - 1) == Some("fn") {
            continue;
        }
        let wanted_args = if word == "write_back" { 2 } else { 3 };
        let Some(args) = top_level_args(scan, i + 1) else {
            continue;
        };
        if args.len() != wanted_args {
            continue; // some other read/write (1-arg store reads, io::Read, …)
        }
        let (last_start, last_end) = args[wanted_args - 1];
        let literal = last_end - last_start == 4
            && (scan.path2(last_start, "IoClass", "Metered")
                || scan.path2(last_start, "IoClass", "Unmetered"));
        if !literal {
            diag(
                out,
                I301,
                path,
                scan.tokens[i].line,
                format!(
                    "`{word}` call site must pass a literal IoClass::Metered or \
                     IoClass::Unmetered as its class argument (no variable \
                     laundering)"
                ),
            );
        }
    }
}

/// For the `(` token at `open`, returns the half-open token ranges of each
/// top-level comma-separated argument, or `None` when the parens never
/// close.
fn top_level_args(scan: &FileScan, open: usize) -> Option<Vec<(usize, usize)>> {
    debug_assert!(scan.punct(open, '('));
    let mut depth = 0usize;
    let mut args = Vec::new();
    let mut arg_start = open + 1;
    for k in open..scan.tokens.len() {
        match &scan.tokens[k].kind {
            crate::lexer::TokKind::Punct(c @ ('(' | '[' | '{')) => {
                let _ = c;
                depth += 1;
            }
            crate::lexer::TokKind::Punct(c @ (')' | ']' | '}')) => {
                depth -= 1;
                if depth == 0 {
                    debug_assert_eq!(*c, ')');
                    if k > arg_start {
                        args.push((arg_start, k));
                    }
                    return Some(args);
                }
            }
            crate::lexer::TokKind::Punct(',') if depth == 1 => {
                args.push((arg_start, k));
                arg_start = k + 1;
            }
            _ => {}
        }
    }
    None
}

/// CIJ-I302: inside `PageStore::drop_buffer` (the measurement-reset path)
/// every transfer must stay `Unmetered` — a literal `Metered` in that
/// function would silently re-open the PR-3 "uncounted-but-real" hole in
/// reverse.
fn rule_i302(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if path != STORE_MODULE {
        return;
    }
    let mut i = 0;
    while i + 1 < scan.tokens.len() {
        if scan.ident(i) == Some("fn") && scan.ident(i + 1) == Some("drop_buffer") {
            break;
        }
        i += 1;
    }
    if i + 1 >= scan.tokens.len() {
        return;
    }
    // Find the body braces and scan them for a Metered literal.
    let mut k = i;
    while k < scan.tokens.len() && !scan.punct(k, '{') {
        k += 1;
    }
    let mut depth = 0usize;
    while k < scan.tokens.len() {
        if scan.punct(k, '{') {
            depth += 1;
        } else if scan.punct(k, '}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if scan.ident(k) == Some("Metered") {
            diag(
                out,
                I302,
                path,
                scan.tokens[k].line,
                "drop_buffer is the measurement-reset path: its write-backs \
                 are real but deliberately outside the experiment, so every \
                 transfer in it must be IoClass::Unmetered"
                    .to_string(),
            );
        }
        k += 1;
    }
}

/// CIJ-A401: a file using `Ordering::Relaxed` must declare the contract it
/// relies on — its `//!` module docs must contain the phrase
/// "relaxed-consistency contract". One diagnostic per file, at the first
/// offending site.
fn rule_a401(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    let first_relaxed = (0..scan.tokens.len())
        .find(|&i| scan.path2(i, "Ordering", "Relaxed"))
        .map(|i| scan.tokens[i].line);
    let Some(line) = first_relaxed else {
        return;
    };
    let declared = scan
        .comments
        .iter()
        .filter(|c| c.module_doc)
        .any(|c| c.text.to_lowercase().contains(RELAXED_CONTRACT_PHRASE));
    if !declared {
        diag(
            out,
            A401,
            path,
            line,
            format!(
                "Ordering::Relaxed used but the module docs declare no \
                 \"{RELAXED_CONTRACT_PHRASE}\" — document which counter \
                 semantics make relaxed ordering sound here"
            ),
        );
    }
}

/// CIJ-C501: `thread::spawn` is forbidden outside the scoped worker pool
/// (`run_ordered_scratch` in `core::chunk`) and the `service` worker pool —
/// free-floating threads bypass the determinism protocol and the panic
/// isolation both pools provide.
fn rule_c501(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if SPAWN_MODULES.contains(&path) {
        return;
    }
    for i in 0..scan.tokens.len() {
        if scan.in_test[i] {
            continue;
        }
        if scan.path2(i, "thread", "spawn") {
            diag(
                out,
                C501,
                path,
                scan.tokens[i].line,
                "thread::spawn outside the sanctioned pools — route work \
                 through run_ordered_scratch (core::chunk) or the service worker \
                 pool"
                    .to_string(),
            );
        }
    }
}

/// CIJ-C502: `unwrap()` / `expect()` are forbidden in non-test `service`
/// code — worker paths must stay `catch_unwind`-recoverable and must not
/// cascade poisoned locks into other workers (use the poison-recovering
/// lock helpers).
fn rule_c502(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if path != SERVICE_MODULE {
        return;
    }
    for i in 0..scan.tokens.len() {
        if scan.in_test[i] {
            continue;
        }
        if let Some(w @ ("unwrap" | "expect")) = scan.ident(i) {
            if scan.punct(i + 1, '(') {
                diag(
                    out,
                    C502,
                    path,
                    scan.tokens[i].line,
                    format!(
                        "{w}() in a service worker path — recover instead \
                         (poison-recovering lock helpers, unwrap_or defaults) \
                         so the pool stays catch_unwind-recoverable"
                    ),
                );
            }
        }
    }
}

/// CIJ-G601: a geometric decision takes its threshold from
/// `cij_geom::tolerance` and nowhere else, so non-test code outside that
/// module names no tolerance: no non-zero float literal of magnitude at most
/// [`TOLERANCE_LITERAL_LIMIT`] and no `f64::EPSILON` / `f32::EPSILON`.
fn rule_g601(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if path == TOLERANCE_MODULE {
        return;
    }
    for i in 0..scan.tokens.len() {
        if scan.in_test[i] {
            continue;
        }
        let epsilon = scan.path2(i, "f64", "EPSILON") || scan.path2(i, "f32", "EPSILON");
        let tiny = scan
            .number(i)
            .and_then(float_value)
            .is_some_and(|v| v != 0.0 && v.abs() <= TOLERANCE_LITERAL_LIMIT);
        if epsilon || tiny {
            diag(
                out,
                G601,
                path,
                scan.tokens[i].line,
                "tolerance literal outside cij_geom::tolerance — take the \
                 threshold from that module (one rule, scaled with the \
                 operands) instead of stating one here"
                    .to_string(),
            );
        }
    }
}

/// The value of a float literal (`1e-9`, `0.5_f64`, `2.0`), or `None` for
/// integer literals (`7`, `0x1e`, `3u8`).
fn float_value(text: &str) -> Option<f64> {
    let digits: String = text.chars().filter(|&c| c != '_').collect();
    if digits.starts_with("0x") || digits.starts_with("0o") || digits.starts_with("0b") {
        return None;
    }
    let body = digits
        .strip_suffix("f64")
        .or_else(|| digits.strip_suffix("f32"));
    let is_float = body.is_some() || digits.contains(['.', 'e', 'E']);
    if !is_float {
        return None;
    }
    body.unwrap_or(&digits).parse().ok()
}
