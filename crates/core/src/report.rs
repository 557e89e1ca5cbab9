//! JSON serialization of testbed configs and run reports, and the
//! `target/reports/` file layout.
//!
//! Every sweep scenario serializes to one self-contained document —
//! `{"label", "config", "report"}` — so a figure script (or a later
//! session) can regenerate tables without re-running simulations, and the
//! determinism battery can compare serial and parallel executions
//! byte-for-byte. Each format below is one schema-table entry (see
//! `wbft_report::convert`): its members in the order they are written.
//! Encoding is deterministic and numbers are written exactly (see
//! `wbft_report::json`).

use crate::byzantine::ByzantineMode;
use crate::protocol::Protocol;
use crate::service::{ArrivalSpec, LatencySummary, ServiceConfig, ServiceReport};
use crate::sweep::SweepRun;
use crate::testbed::{ChurnPlan, CrashEvent, CrashPlan, RunReport, TestbedConfig};
use crate::workload::Workload;
use std::io;
use std::path::{Path, PathBuf};
use wbft_crypto::hash::Digest32;
use wbft_report::{json_name, json_record, json_tagged, FromJson, JsonError, ToJson};

/// The self-contained document of one scenario run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The scenario label (the report's file stem).
    pub label: String,
    /// What was run.
    pub config: TestbedConfig,
    /// What it measured.
    pub report: RunReport,
    /// Per-block content digests, carried by UDP node reports so a launcher
    /// can check that nodes agree on what they committed, not merely on
    /// how much. Absent from simulated runs.
    pub block_digests: Option<Vec<Digest32>>,
}

impl Scenario {
    /// The document of one run, without a digest chain.
    pub fn new(label: &str, config: &TestbedConfig, report: &RunReport) -> Self {
        Scenario {
            label: label.to_string(),
            config: config.clone(),
            report: report.clone(),
            block_digests: None,
        }
    }
}

json_name! {
    Protocol: Protocol::ALL => slug;
}

json_tagged! {
    ByzantineMode by "mode" {
        Silent = "silent" {},
        Crash = "crash" { after_epoch },
        FlipVotes = "flip-votes" {},
        CorruptProposals = "corrupt-proposals" {},
    }
}

// Trailing members written only when set (`= None`) or away from their
// default (`= 1`) keep the bytes of documents that predate each feature.
json_record! {
    Workload { batch_size, tx_bytes, seed }
    ArrivalSpec { per_node, interval_us, tx_bytes, seed }
    ServiceConfig { arrivals, mempool_capacity, max_epochs }
    LatencySummary { count, mean_us, p50_us, p90_us, p99_us, max_us }
    ServiceReport {
        submitted,
        admitted,
        rejected_dup,
        rejected_full,
        requeued,
        peak_occupancy,
        pending_at_stop,
        committed_client_txs,
        latency,
    }
    CrashEvent { node, at_us, restart_us }
    CrashPlan { crashes }
    ChurnPlan { from_epoch, ops }
    TestbedConfig {
        protocol,
        n,
        epochs,
        workload,
        suite,
        seed,
        loss,
        radio,
        csma,
        dma,
        adversary,
        byzantine,
        deadline as "deadline_us",
        clusters,
        service = None,
        sched = None,
        pipeline_depth = 1,
        crash = None,
        churn = None,
    }
    RunReport {
        completed,
        elapsed as "elapsed_us",
        epoch_latencies as "epoch_latencies_us",
        mean_latency_s,
        throughput_tpm,
        total_txs,
        channel_accesses_per_node,
        bytes_on_air,
        collisions,
        metrics,
        service = None,
    }
    Scenario { label, config, report, block_digests = None }
}

/// Canonical on-disk encoding of one scenario document (see
/// [`wbft_report::to_file_string`]). Byte-identity of two runs is defined
/// on this string.
pub fn scenario_string(label: &str, cfg: &TestbedConfig, report: &RunReport) -> String {
    wbft_report::to_file_string(&Scenario::new(label, cfg, report).to_json())
}

/// Inverse of [`scenario_string`].
pub fn decode_scenario(text: &str) -> Result<(String, TestbedConfig, RunReport), JsonError> {
    let doc = Scenario::from_json(&wbft_report::parse(text)?)?;
    Ok((doc.label, doc.config, doc.report))
}

/// The report root: `<target dir>/reports`.
///
/// `$CARGO_TARGET_DIR` wins when set; otherwise the workspace `target/` is
/// found by walking up from the current directory to the nearest
/// `Cargo.lock` (bench and test binaries run with the *package* directory
/// as cwd — which has no lock file of its own — so a plain relative
/// `target` would scatter reports per crate; the nearest lock file above
/// is the workspace root).
pub fn report_root() -> PathBuf {
    if let Some(target) = std::env::var_os("CARGO_TARGET_DIR") {
        return Path::new(&target).join("reports");
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let workspace = cwd
        .ancestors()
        .find(|dir| dir.join("Cargo.lock").is_file())
        .map(Path::to_path_buf)
        .unwrap_or(cwd);
    workspace.join("target").join("reports")
}

/// Writes one `<label>.json` per run under `dir`, creating it as needed.
/// Returns the written paths in run order.
pub fn write_reports(dir: &Path, runs: &[SweepRun]) -> io::Result<Vec<PathBuf>> {
    let mut paths = Vec::with_capacity(runs.len());
    for run in runs {
        let path = dir.join(format!("{}.json", run.scenario.label));
        let doc = Scenario::new(&run.scenario.label, &run.scenario.cfg, &run.report);
        wbft_report::write_file(&path, &doc.to_json())?;
        paths.push(path);
    }
    Ok(paths)
}

/// Reads and decodes one scenario report file.
pub fn read_report(path: &Path) -> io::Result<Scenario> {
    let j = wbft_report::read_file(path)?;
    Scenario::from_json(&j).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbft_membership::MembershipOp;
    use wbft_wireless::SimDuration;

    #[test]
    fn config_encoding_is_a_fixpoint() {
        let mut cfg = TestbedConfig::multi_hop(Protocol::DumboSc);
        cfg.byzantine = vec![(1, ByzantineMode::Crash { after_epoch: 2 })];
        cfg.loss = wbft_wireless::LossModel::Uniform { p: 0.05 };
        let once = cfg.to_json().pretty();
        let decoded = TestbedConfig::from_json(&wbft_report::parse(&once).unwrap()).unwrap();
        assert_eq!(decoded.to_json().pretty(), once);
    }

    #[test]
    fn report_with_nan_mean_survives() {
        let report = RunReport {
            completed: false,
            elapsed: SimDuration::from_secs(10),
            epoch_latencies: vec![],
            mean_latency_s: f64::NAN,
            throughput_tpm: 0.0,
            total_txs: 0,
            channel_accesses_per_node: 1.5,
            bytes_on_air: 7,
            collisions: 0,
            metrics: wbft_wireless::Metrics::new(4),
            service: None,
        };
        let text = report.to_json().pretty();
        let decoded = RunReport::from_json(&wbft_report::parse(&text).unwrap()).unwrap();
        assert!(decoded.mean_latency_s.is_nan());
        assert_eq!(decoded.to_json().pretty(), text);
    }

    #[test]
    fn service_members_are_optional_and_round_trip() {
        use crate::service::{ArrivalSpec, LatencySummary, ServiceConfig, ServiceReport};
        let mut cfg = TestbedConfig::single_hop(Protocol::HoneyBadgerSc);
        // Without a service member the encoding must not mention it at all
        // (fixed-epoch byte-identity).
        assert!(!cfg.to_json().pretty().contains("service"));
        cfg.service = Some(ServiceConfig {
            arrivals: ArrivalSpec { per_node: 5, interval_us: 750_000, tx_bytes: 48, seed: 3 },
            mempool_capacity: 64,
            max_epochs: 9,
        });
        let text = cfg.to_json().pretty();
        let decoded = TestbedConfig::from_json(&wbft_report::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.service, cfg.service);
        assert_eq!(decoded.to_json().pretty(), text);
        let report = RunReport {
            completed: true,
            elapsed: SimDuration::from_secs(90),
            epoch_latencies: vec![SimDuration::from_secs(30)],
            mean_latency_s: 30.0,
            throughput_tpm: 10.0,
            total_txs: 15,
            channel_accesses_per_node: 4.0,
            bytes_on_air: 900,
            collisions: 0,
            metrics: wbft_wireless::Metrics::new(4),
            service: Some(ServiceReport {
                submitted: 20,
                admitted: 18,
                rejected_dup: 1,
                rejected_full: 1,
                requeued: 2,
                peak_occupancy: 7,
                pending_at_stop: 0,
                committed_client_txs: 18,
                latency: LatencySummary {
                    count: 18,
                    mean_us: 31_000_000.0,
                    p50_us: 29_000_000,
                    p90_us: 44_000_000,
                    p99_us: 51_000_000,
                    max_us: 52_000_000,
                },
            }),
        };
        let text = report.to_json().pretty();
        assert!(text.contains("p50_us") && text.contains("rejected_full"));
        let decoded = RunReport::from_json(&wbft_report::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.service, report.service);
        assert_eq!(decoded.to_json().pretty(), text);
    }

    #[test]
    fn sched_member_is_optional_and_round_trips() {
        use wbft_wireless::{SchedConfig, SchedPolicy};
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        assert!(!cfg.to_json().pretty().contains("sched"), "absent when unset");
        cfg.sched = Some(SchedConfig {
            seed: 3,
            budget: SimDuration::from_secs(8),
            policy: SchedPolicy::CoinStarve { pass: 1 },
        });
        let text = cfg.to_json().pretty();
        let decoded = TestbedConfig::from_json(&wbft_report::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.sched, cfg.sched);
        assert_eq!(decoded.to_json().pretty(), text);
    }

    #[test]
    fn pipeline_depth_member_is_optional_and_round_trips() {
        let mut cfg = TestbedConfig::single_hop(Protocol::HoneyBadgerSc);
        assert_eq!(cfg.pipeline_depth, 1);
        assert!(
            !cfg.to_json().pretty().contains("pipeline_depth"),
            "absent at the sequential default so pre-pipelining configs keep their bytes"
        );
        cfg.pipeline_depth = 4;
        let text = cfg.to_json().pretty();
        assert!(text.contains("pipeline_depth"));
        let decoded = TestbedConfig::from_json(&wbft_report::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.pipeline_depth, 4);
        assert_eq!(decoded.to_json().pretty(), text);
    }

    #[test]
    fn crash_member_is_optional_and_round_trips() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        assert!(
            !cfg.to_json().pretty().contains("crash"),
            "absent when unset so pre-churn configs keep their bytes"
        );
        cfg.crash = Some(CrashPlan {
            crashes: vec![CrashEvent { node: 2, at_us: 5_000_000, restart_us: 30_000_000 }],
        });
        let text = cfg.to_json().pretty();
        assert!(text.contains("restart_us"));
        let decoded = TestbedConfig::from_json(&wbft_report::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.crash, cfg.crash);
        assert_eq!(decoded.to_json().pretty(), text);
    }

    #[test]
    fn churn_member_is_optional_and_round_trips() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        assert!(
            !cfg.to_json().pretty().contains("churn"),
            "absent when unset so pre-membership configs keep their bytes"
        );
        cfg.churn = Some(ChurnPlan {
            from_epoch: 1,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        });
        let text = cfg.to_json().pretty();
        assert!(text.contains("from_epoch"));
        let decoded = TestbedConfig::from_json(&wbft_report::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded.churn, cfg.churn);
        assert_eq!(decoded.to_json().pretty(), text);
    }

    #[test]
    fn scenario_document_round_trips() {
        let cfg = TestbedConfig::single_hop(Protocol::Beat);
        let report = RunReport {
            completed: true,
            elapsed: SimDuration::from_secs(60),
            epoch_latencies: vec![SimDuration::from_secs(30)],
            mean_latency_s: 30.0,
            throughput_tpm: 32.0,
            total_txs: 32,
            channel_accesses_per_node: 10.0,
            bytes_on_air: 4_096,
            collisions: 2,
            metrics: wbft_wireless::Metrics::new(4),
            service: None,
        };
        let text = scenario_string("beat.sh.seed7", &cfg, &report);
        let (label, cfg2, report2) = decode_scenario(&text).unwrap();
        assert_eq!(label, "beat.sh.seed7");
        assert_eq!(scenario_string(&label, &cfg2, &report2), text);
    }
}
