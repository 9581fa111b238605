//! Tier-1 gate: the workspace must be lint-clean.
//!
//! Runs the `cij_lint` invariant checker (determinism, unsafe audit, I/O
//! classification, atomics, concurrency, public surface — see
//! `crates/lint/src/lib.rs` for the rule catalogue) over the whole workspace
//! in-process, applying the `lint.toml` allowlist. Any surviving diagnostic
//! fails plain `cargo test -q`, so the contracts hold on every change, not
//! just in CI.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = cij_lint::run(root).expect("lint engine runs");
    assert!(
        report.diagnostics.is_empty(),
        "cij_lint found contract violations:\n{report}"
    );
    // Guard against the scan silently going shallow (wrong root, skipped
    // tree): the workspace has far more production files than this.
    assert!(
        report.files_scanned > 50,
        "suspiciously small scan: {} files",
        report.files_scanned
    );
}
