//! Dynamic-membership integration battery: the churn-sweep byte-identity
//! fixture and cross-protocol committee changes on the simulator.
//!
//! The fixture half pins the *exact report bytes* of the canonical churn
//! sweep point (`--churn join4+leave0@1`), the same way the pre-redesign
//! fixtures pin the churn-free grid: dynamic membership must never perturb
//! what a given seed produces. The live half runs committee growth and a
//! swap under every deployment — membership lives in the shared epoch
//! engine, so HoneyBadger, BEAT and Dumbo lanes all reconfigure.

use std::path::{Path, PathBuf};
use wbft_consensus::fuzz::{
    fixture_string, membership_churn_case, FuzzVerdict, DEFAULT_EVENT_BUDGET,
};
use wbft_consensus::report::scenario_string;
use wbft_consensus::sweep::SweepSpec;
use wbft_consensus::testbed::{run, ChurnPlan, TestbedConfig};
use wbft_consensus::Protocol;
use wbft_membership::MembershipOp;

fn fuzz_fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fuzz")
}

/// The churn sweep point `examples/sweep.rs --epochs 5 --churn
/// join4+leave0@1` produced when the feature landed; the fixture holds the
/// full report it printed. Reruns must reproduce it byte for byte.
#[test]
fn churn_sweep_report_matches_pinned_fixture() {
    let mut spec = SweepSpec::new("regress-churn");
    spec.epochs = 5;
    spec.churns = vec![Some(ChurnPlan {
        from_epoch: 1,
        ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
    })];
    let scenarios = spec.expand();
    assert_eq!(scenarios.len(), 1);
    let golden = include_str!("fixtures/membership_beat_churn_seed7.json");
    let report = run(&scenarios[0].cfg);
    let text = scenario_string(&scenarios[0].label, &scenarios[0].cfg, &report);
    assert_eq!(
        text, golden,
        "{}: churn report diverged from the pinned fixture",
        scenarios[0].label
    );
}

fn churn_run(protocol: Protocol, depth: u64, plan: ChurnPlan) {
    let mut cfg = TestbedConfig::single_hop(protocol);
    cfg.epochs = 5;
    cfg.pipeline_depth = depth;
    cfg.workload.batch_size = 8;
    // The sweep's budget: the unbatched baselines need over an hour of
    // simulated LoRa time for five epochs.
    cfg.deadline = wbft_wireless::SimDuration::from_secs(14_400);
    cfg.churn = Some(plan);
    let report = run(&cfg);
    assert!(report.completed, "{protocol:?} W={depth} churn run must converge");
    assert_eq!(report.epoch_latencies.len(), 5);
    assert!(report.total_txs > 0);
}

/// Committee growth 4 → 7: three joiners, nobody leaves, quorum math
/// moves from f = 1 to f = 2 at activation.
#[test]
fn lc_engines_grow_the_committee() {
    for protocol in [Protocol::HoneyBadgerLc, Protocol::DumboLc] {
        churn_run(
            protocol,
            1,
            ChurnPlan {
                from_epoch: 1,
                ops: vec![
                    MembershipOp::Join(4),
                    MembershipOp::Join(5),
                    MembershipOp::Join(6),
                ],
            },
        );
    }
}

fn swap() -> ChurnPlan {
    ChurnPlan { from_epoch: 1, ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)] }
}

/// The headline swap (join 4, leave 0) under all eight deployments; `run`
/// asserts level, agreeing chains with both ops committed.
#[test]
fn every_deployment_swaps_a_member() {
    for protocol in Protocol::ALL {
        churn_run(protocol, 1, swap());
    }
}

/// The swap under a pipelined window. At `W = 4` the window is deeper
/// than `ACTIVATION_DELAY`: the engine must hold epochs whose committee
/// the committed prefix does not determine yet, or the run stalls on
/// epochs opened under the superseded view.
#[test]
fn pipelined_engines_swap_a_member() {
    for protocol in [Protocol::HoneyBadgerSc, Protocol::DumboSc] {
        for depth in [2, 4] {
            churn_run(protocol, depth, swap());
        }
    }
}

/// Drift guard for the seeded membership fuzz fixtures (replayed by
/// `fuzz_regressions.rs`): the committed files are exactly what
/// `fixture_string` produces for the canonical membership-swap cases, and
/// the churn plan is present in the encoding.
#[test]
fn membership_fixtures_match_the_canonical_encoding() {
    for p in [Protocol::Beat, Protocol::HoneyBadgerSc, Protocol::DumboSc] {
        let case = membership_churn_case(p, DEFAULT_EVENT_BUDGET);
        let disk = std::fs::read_to_string(fuzz_fixture_dir().join(format!("{}.json", case.label)))
            .unwrap();
        assert_eq!(fixture_string(&case, FuzzVerdict::Ok), disk, "{} drifted", case.label);
        assert!(disk.contains("\"churn\""), "{}: plan must be encoded", case.label);
    }
}

/// Regenerates the pinned membership fixtures. Run explicitly after an
/// intentional encoding change:
/// `cargo test --test membership regen_membership_fixtures -- --ignored`
#[test]
#[ignore]
fn regen_membership_fixtures() {
    for p in [Protocol::Beat, Protocol::HoneyBadgerSc, Protocol::DumboSc] {
        let case = membership_churn_case(p, DEFAULT_EVENT_BUDGET);
        let path = fuzz_fixture_dir().join(format!("{}.json", case.label));
        std::fs::write(&path, fixture_string(&case, FuzzVerdict::Ok)).unwrap();
        println!("wrote {}", path.display());
    }
}
