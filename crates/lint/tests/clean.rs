//! The repository must satisfy its own analyzer.
//!
//! `cargo test` therefore enforces the same gate as the CI lint-check
//! step: the workspace scan finds nothing. A finding is fixed or justified
//! by an inline pragma; nothing is grandfathered.

#[test]
fn repo_scan_finds_nothing() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = wbft_lint::run_workspace(&root).expect("workspace scan succeeds");
    assert!(report.files_scanned > 50, "suspiciously small scan: {}", report.files_scanned);
    assert!(
        report.findings.is_empty(),
        "lint findings:\n{}",
        report.findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}
