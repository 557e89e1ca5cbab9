//! The command-line runner behind `cargo run -p wbft-lint` and the facade
//! `examples/lint.rs`.

use crate::rules::{Finding, Rule};
use crate::{find_workspace_root, run_workspace, LintReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use wbft_report::json::{self, Json};

/// Parsed command-line options.
#[derive(Clone, Debug, Default)]
pub struct CliOptions {
    /// Workspace root (default: found by walking up from the cwd).
    pub root: Option<PathBuf>,
    /// Also write the full machine-readable report here.
    pub json_out: Option<PathBuf>,
    /// Print a rule's long-form rationale and exit.
    pub explain: Option<String>,
    /// List rules with one-line summaries and exit.
    pub list_rules: bool,
}

const USAGE: &str = "\
usage: wbft-lint [--root DIR] [--json FILE] [--explain RULE] [--list-rules]

Runs the workspace static analysis passes (determinism, ordered-state,
totality, wire-safety, unsafe-code). Every finding fails the check: fix it,
or justify it with an inline pragma.

exit status: 0 = clean, 1 = findings, 2 = usage/IO error.";

impl CliOptions {
    /// Parses CLI arguments (without the program name).
    pub fn parse(args: &[String]) -> Result<CliOptions, String> {
        let mut opts = CliOptions::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next().cloned().ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
            };
            match arg.as_str() {
                "--root" => opts.root = Some(PathBuf::from(value("--root")?)),
                "--json" => opts.json_out = Some(PathBuf::from(value("--json")?)),
                "--explain" => opts.explain = Some(value("--explain")?),
                "--list-rules" => opts.list_rules = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
            }
        }
        Ok(opts)
    }
}

/// Runs the CLI; returns the process exit code.
pub fn cli_main(args: &[String]) -> i32 {
    let opts = match CliOptions::parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };

    if opts.list_rules {
        for rule in Rule::ALL {
            println!("{:13} {}", rule.name(), rule.summary());
        }
        return 0;
    }
    if let Some(name) = &opts.explain {
        match Rule::from_name(name) {
            Some(rule) => {
                println!("{}", rule.explain());
                return 0;
            }
            None => {
                eprintln!(
                    "unknown rule `{name}`; known rules: {}",
                    Rule::ALL.map(Rule::name).join(", ")
                );
                return 2;
            }
        }
    }

    let root = match opts
        .root
        .clone()
        .or_else(|| std::env::current_dir().ok().and_then(|d| find_workspace_root(&d)))
    {
        Some(r) => r,
        None => {
            eprintln!("could not locate the workspace root; pass --root");
            return 2;
        }
    };

    let started = std::time::Instant::now();
    let report = match run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scan failed: {e}");
            return 2;
        }
    };
    let elapsed = started.elapsed();

    if let Some(json_path) = &opts.json_out {
        if let Err(e) = json::write_file(json_path, &report_json(&report)) {
            eprintln!("writing {}: {e}", json_path.display());
            return 2;
        }
    }

    print_summary(&report, elapsed);

    if report.findings.is_empty() {
        println!("\nlint-check: OK ({} files in {:.2?})", report.files_scanned, elapsed);
        0
    } else {
        println!("\nlint-check: {} finding(s):", report.findings.len());
        for f in &report.findings {
            println!("  {f}");
        }
        println!("\nfix the finding, or add a justified pragma:");
        println!("  // wbft-lint: allow(<rule>) — <why this site is safe>");
        println!("(see `wbft-lint --explain <rule>` for each rule's contract)");
        1
    }
}

/// Per-rule counts for the summary table.
fn rule_table(findings: &[Finding]) -> BTreeMap<Rule, u32> {
    let mut t = BTreeMap::new();
    for f in findings {
        *t.entry(f.rule).or_insert(0) += 1;
    }
    t
}

fn print_summary(report: &LintReport, elapsed: std::time::Duration) {
    let current = rule_table(&report.findings);
    println!(
        "wbft-lint: {} files scanned in {:.2?}; findings per rule:",
        report.files_scanned, elapsed
    );
    for rule in Rule::ALL {
        println!("  {:13} {:4}", rule.name(), current.get(&rule).copied().unwrap_or(0));
    }
}

/// The machine-readable report document (`--json`).
fn report_json(report: &LintReport) -> Json {
    let counts = rule_table(&report.findings);
    Json::obj([
        ("files_scanned", Json::u64(report.files_scanned as u64)),
        (
            "rule_counts",
            Json::Obj(
                Rule::ALL
                    .iter()
                    .map(|r| {
                        (r.name().to_string(), Json::u64(u64::from(counts.get(r).copied().unwrap_or(0))))
                    })
                    .collect(),
            ),
        ),
        (
            "findings",
            Json::Arr(
                report
                    .findings
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("rule", Json::str(f.rule.name())),
                            ("path", Json::str(f.path.clone())),
                            ("line", Json::u64(u64::from(f.line))),
                            ("what", Json::str(f.what.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse() {
        let o = parse(&["--root", "/x", "--json", "out.json", "--list-rules"]).unwrap();
        assert_eq!(o.root.as_deref(), Some(std::path::Path::new("/x")));
        assert!(o.list_rules);
        assert_eq!(o.json_out.as_deref(), Some(std::path::Path::new("out.json")));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--write-baseline"]).is_err(), "there is no baseline");
        assert!(parse(&["--root"]).is_err(), "missing value");
    }

    #[test]
    fn explain_is_wired() {
        for rule in Rule::ALL {
            assert!(!rule.explain().is_empty());
            assert!(Rule::from_name(rule.name()).is_some());
        }
    }
}
