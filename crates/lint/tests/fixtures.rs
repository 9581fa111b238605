//! Per-rule positive/negative fixtures.
//!
//! Each `.rs` file under `crates/lint/fixtures/` starts with a pretend
//! workspace path (`//@ path: <path>`) so path-scoped rules trigger, and
//! marks every line expected to fire with a trailing `//~ RULE-ID` comment
//! (several IDs per marker allowed, whitespace-separated). The harness runs
//! the real rule engine over each fixture and compares the exact
//! `(rule, line)` multiset against the markers — extra *and* missing
//! diagnostics both fail, so the fixtures pin down false positives as
//! tightly as false negatives.

use std::path::Path;

/// `(rule, line)` pairs a fixture's `//~` markers promise.
fn expected_findings(source: &str) -> Vec<(String, usize)> {
    let mut expected = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for word in line[pos + 3..].split_whitespace() {
                let id = word.trim_matches(',');
                if id.starts_with("CIJ-") {
                    expected.push((id.to_string(), idx + 1));
                }
            }
        }
    }
    expected
}

fn check_fixture(file: &Path) {
    let source = std::fs::read_to_string(file).unwrap();
    let pretend_path = source
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//@ path:"))
        .unwrap_or_else(|| {
            panic!(
                "{}: first line must be `//@ path: <pretend workspace path>`",
                file.display()
            )
        })
        .trim();
    let mut expected = expected_findings(&source);
    let scan = cij_lint::lexer::scan(&source);
    let mut actual: Vec<(String, usize)> = cij_lint::rules::scan_file(pretend_path, &scan)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect();
    expected.sort();
    actual.sort();
    assert_eq!(
        actual,
        expected,
        "fixture {} (pretend path {pretend_path}): engine findings (left) \
         disagree with //~ markers (right)",
        file.display()
    );
}

#[test]
fn every_fixture_matches_its_markers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 14,
        "expected a positive and a negative fixture per rule family, found {}",
        files.len()
    );
    for file in &files {
        check_fixture(file);
    }
}

/// The fixture set must contain at least one positive fixture for every
/// rule family with an allowlist or a source fix in this repo — a seeded
/// violation per rule, detected with the right ID.
#[test]
fn every_rule_family_has_a_seeded_violation() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut seeded: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        for (rule, _) in expected_findings(&source) {
            if !seeded.contains(&rule) {
                seeded.push(rule);
            }
        }
    }
    seeded.sort();
    let want = [
        "CIJ-A401", "CIJ-C501", "CIJ-C502", "CIJ-D101", "CIJ-D102", "CIJ-D103", "CIJ-G601",
        "CIJ-I301", "CIJ-I302", "CIJ-U201", "CIJ-U202",
    ];
    assert_eq!(seeded, want, "rule families missing a seeded violation");
}
