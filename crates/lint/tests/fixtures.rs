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
//!
//! A fixture with several `//@ path:` lines is a small workspace: each line
//! starts a file that runs to the next one. The per-file rules run on every
//! file, and the workspace rules (`CIJ-S601` / `CIJ-S602`) over all of them.
//! Every file keeps the fixture's line numbers (the other files' lines are
//! blank in it), so markers and diagnostics share one numbering.

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

/// The pretend files of a fixture: `(path, source)`, each source the whole
/// fixture with every line outside the file blanked.
fn pretend_files(file: &Path, source: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = source.lines().collect();
    let starts: Vec<(usize, &str)> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| Some((i, l.strip_prefix("//@ path:")?.trim())))
        .collect();
    assert!(
        starts.first().is_some_and(|&(i, _)| i == 0),
        "{}: first line must be `//@ path: <pretend workspace path>`",
        file.display()
    );
    starts
        .iter()
        .enumerate()
        .map(|(k, &(from, path))| {
            let to = starts.get(k + 1).map_or(lines.len(), |&(i, _)| i);
            let text: Vec<&str> = (0..lines.len())
                .map(|i| {
                    if (from..to).contains(&i) {
                        lines[i]
                    } else {
                        ""
                    }
                })
                .collect();
            (path.to_string(), text.join("\n"))
        })
        .collect()
}

fn check_fixture(file: &Path) {
    let source = std::fs::read_to_string(file).unwrap();
    let files: Vec<(String, cij_lint::lexer::FileScan)> = pretend_files(file, &source)
        .into_iter()
        .map(|(path, text)| (path, cij_lint::lexer::scan(&text)))
        .collect();
    let mut expected = expected_findings(&source);
    let mut actual: Vec<(String, usize)> = Vec::new();
    for (path, scan) in &files {
        actual.extend(
            cij_lint::rules::scan_file(path, scan)
                .into_iter()
                .map(|d| (d.rule.to_string(), d.line)),
        );
    }
    if files.len() > 1 {
        let (surface, _) = cij_lint::surface::scan_workspace(&files);
        actual.extend(surface.into_iter().map(|d| (d.rule.to_string(), d.line)));
    }
    expected.sort();
    actual.sort();
    assert_eq!(
        actual,
        expected,
        "fixture {}: engine findings (left) disagree with //~ markers (right)",
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
        "CIJ-I301", "CIJ-I302", "CIJ-S601", "CIJ-S602", "CIJ-U201", "CIJ-U202",
    ];
    assert_eq!(seeded, want, "rule families missing a seeded violation");
}
