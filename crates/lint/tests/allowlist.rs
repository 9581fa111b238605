//! The exact-count allowlist semantics: suppression only on an exact match,
//! `CIJ-X901` for stale entries, out-of-date budgets and duplicates — and
//! `lint.toml` parse/validation errors.

use cij_lint::config::{self, AllowEntry};
use cij_lint::rules::Diagnostic;

fn entry(rule: &str, path: &str, count: usize) -> AllowEntry {
    AllowEntry {
        rule: rule.to_string(),
        path: path.to_string(),
        count,
        reason: "test".to_string(),
        line: 1,
    }
}

fn diag(rule: &'static str, path: &str, line: usize) -> Diagnostic {
    Diagnostic {
        rule,
        path: path.to_string(),
        line,
        message: String::new(),
    }
}

#[test]
fn exact_count_suppresses() {
    let diags = vec![
        diag("CIJ-D102", "crates/core/src/nm.rs", 10),
        diag("CIJ-D102", "crates/core/src/nm.rs", 20),
    ];
    let allow = [entry("CIJ-D102", "crates/core/src/nm.rs", 2)];
    let (out, suppressed) = cij_lint::apply_allowlist(diags, &allow);
    assert!(out.is_empty(), "{out:?}");
    assert_eq!(suppressed, 2);
}

#[test]
fn undercount_resurfaces_group_with_meta_diagnostic() {
    let diags = vec![
        diag("CIJ-D102", "crates/core/src/nm.rs", 10),
        diag("CIJ-D102", "crates/core/src/nm.rs", 20),
        diag("CIJ-D102", "crates/core/src/nm.rs", 30),
    ];
    let allow = [entry("CIJ-D102", "crates/core/src/nm.rs", 2)];
    let (out, suppressed) = cij_lint::apply_allowlist(diags, &allow);
    assert_eq!(suppressed, 0);
    // The meta diagnostic plus all three resurfaced violations.
    assert_eq!(out.len(), 4);
    assert!(out
        .iter()
        .any(|d| d.rule == "CIJ-X901" && d.path == "lint.toml"));
    assert_eq!(out.iter().filter(|d| d.rule == "CIJ-D102").count(), 3);
}

#[test]
fn stale_entry_is_an_error_not_a_noop() {
    let allow = [entry("CIJ-D101", "crates/core/src/pm.rs", 2)];
    let (out, suppressed) = cij_lint::apply_allowlist(Vec::new(), &allow);
    assert_eq!(suppressed, 0);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "CIJ-X901");
    assert!(out[0].message.contains("stale"), "{}", out[0].message);
}

#[test]
fn duplicate_entries_error() {
    let allow = [
        entry("CIJ-D102", "crates/core/src/nm.rs", 1),
        entry("CIJ-D102", "crates/core/src/nm.rs", 1),
    ];
    let diags = vec![diag("CIJ-D102", "crates/core/src/nm.rs", 10)];
    let (out, _) = cij_lint::apply_allowlist(diags, &allow);
    assert!(
        out.iter()
            .any(|d| d.rule == "CIJ-X901" && d.message.contains("duplicate")),
        "{out:?}"
    );
}

#[test]
fn unrelated_diagnostics_pass_through() {
    let diags = vec![diag("CIJ-C501", "crates/core/src/filter.rs", 5)];
    let allow = [entry("CIJ-D102", "crates/core/src/nm.rs", 1)];
    let (out, suppressed) = cij_lint::apply_allowlist(diags.clone(), &allow);
    assert_eq!(suppressed, 0);
    // The C501 passes through and the stale D102 entry errors.
    assert_eq!(out.len(), 2);
    assert!(out.iter().any(|d| d.rule == "CIJ-C501"));
}

#[test]
fn parse_accepts_the_shipped_format() {
    let entries = config::parse(
        r#"
# comment
[[allow]]
rule = "CIJ-U202"
path = "crates/bench/src/lib.rs"
count = 9
reason = "CountingAlloc's GlobalAlloc impl"
"#,
    )
    .expect("parses");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].rule, "CIJ-U202");
    assert_eq!(entries[0].count, 9);
}

#[test]
fn parse_rejects_incomplete_or_bogus_entries() {
    // Missing reason.
    assert!(config::parse("[[allow]]\nrule = \"CIJ-D101\"\npath = \"x.rs\"\ncount = 1\n").is_err());
    // Unknown rule ID.
    assert!(config::parse(
        "[[allow]]\nrule = \"CIJ-Z999\"\npath = \"x.rs\"\ncount = 1\nreason = \"r\"\n"
    )
    .is_err());
    // The meta rule itself is not allowlistable.
    assert!(config::parse(
        "[[allow]]\nrule = \"CIJ-X901\"\npath = \"lint.toml\"\ncount = 1\nreason = \"r\"\n"
    )
    .is_err());
    // Zero-count budgets are meaningless (delete the entry instead).
    assert!(config::parse(
        "[[allow]]\nrule = \"CIJ-D101\"\npath = \"x.rs\"\ncount = 0\nreason = \"r\"\n"
    )
    .is_err());
}
