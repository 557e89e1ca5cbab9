#![forbid(unsafe_code)]
//! `wbft-lint` — a workspace static analyzer for the invariants everything
//! else here rests on.
//!
//! Byte-identical parallel sweeps, replayable fuzz fixtures, and
//! deterministic crash/restart recovery are only as real as the code
//! properties they assume: no wall clocks or ambient randomness in the
//! deterministic crates, no unordered-map iteration reaching protocol
//! behavior, no panicking or silently-truncating paths in wire code. PRs
//! 4–8 each fixed latent violations of those rules by hand; this crate
//! machine-checks them.
//!
//! The analyzer is hand-rolled over a lossless Rust token lexer (the build
//! environment has no registry access, consistent with the hand-rolled JSON
//! codec in `wbft-report`): no type information, just careful token
//! patterns scoped by a file classifier. See [`rules::Rule::explain`] for
//! each rule's rationale and [`pragma`] for the justified-allow escape
//! hatch, the only way a finding is suppressed.
//!
//! Run it with `cargo run -p wbft-lint` (or `--example lint` from the
//! facade). Exit status 1 means the scan found something.

pub mod classify;
pub mod lexer;
pub mod passes;
pub mod pragma;
pub mod rules;

mod cli;
pub use cli::{cli_main, CliOptions};

use classify::FileInfo;
use rules::Finding;
use std::path::{Path, PathBuf};

/// Everything one workspace scan produced.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by path, then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files lexed and scanned.
    pub files_scanned: usize,
}

/// A scan-level failure (IO, not a finding).
#[derive(Debug)]
pub struct LintError(pub String);

impl core::fmt::Display for LintError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Directories scanned from the workspace root.
const SCAN_ROOTS: [&str; 5] = ["crates", "shims", "src", "tests", "examples"];

/// Walks the workspace and runs every pass. `root` is the workspace root
/// (the directory holding the root `Cargo.toml`).
pub fn run_workspace(root: &Path) -> Result<LintReport, LintError> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        collect_rs_files(&root.join(dir), root, &mut files)?;
    }
    files.sort();

    let mut report = LintReport::default();
    for rel in &files {
        let info = FileInfo::classify(rel);
        let is_crate_root = is_crate_root(rel);
        if !info.any_rule_applies() && !is_crate_root && !may_hold_pragmas(&info) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| LintError(format!("{rel}: {e}")))?;
        report.files_scanned += 1;
        report.findings.extend(passes::check_file(&info, &src));
        if is_crate_root {
            report.findings.extend(passes::check_crate_root(rel, &src));
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// Whether a file is a crate root the W0 pass must inspect.
fn is_crate_root(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    matches!(
        parts.as_slice(),
        ["crates", _, "src", "lib.rs" | "main.rs"]
            | ["shims", _, "src", "lib.rs"]
            | ["src", "lib.rs"]
    )
}

/// Files outside every rule scope still get pragma syntax checking (a
/// malformed pragma anywhere is a lie waiting to move into scope), but only
/// where pragmas are plausible — production and test trees, not shims.
fn may_hold_pragmas(info: &FileInfo) -> bool {
    use classify::Zone;
    matches!(info.zone, Zone::CrateSrc | Zone::Tests | Zone::Facade)
}

/// Recursively collects workspace-relative `.rs` paths under `dir`,
/// skipping `target/` build output and the lint fixture corpus (whose
/// files are deliberate rule violations).
fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), LintError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()), // absent scan root (e.g. no shims/) is fine
    };
    for entry in entries {
        let entry = entry.map_err(|e| LintError(format!("{}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || path.ends_with("tests/fixtures/lint") {
                continue;
            }
            collect_rs_files(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| LintError(format!("{} escapes root", path.display())))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_roots_recognized() {
        assert!(is_crate_root("crates/net/src/lib.rs"));
        assert!(is_crate_root("crates/lint/src/main.rs"));
        assert!(is_crate_root("shims/rand/src/lib.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(!is_crate_root("crates/net/src/wire.rs"));
        assert!(!is_crate_root("tests/agreement.rs"));
    }

    #[test]
    fn workspace_scan_runs_on_this_repo() {
        // CARGO_MANIFEST_DIR = crates/lint; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_workspace(&root).expect("scan succeeds");
        assert!(report.files_scanned > 50, "scanned {} files", report.files_scanned);
    }
}
