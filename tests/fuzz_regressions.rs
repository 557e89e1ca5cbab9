//! Replays every fuzz fixture under `tests/fixtures/fuzz/`.
//!
//! Each fixture is a minimized scenario the fuzzer (`wbft_consensus::fuzz`)
//! once flagged — or a canonical adversarial schedule worth pinning — plus
//! the verdict the current code must produce. `replay_fixture` runs each
//! case twice and checks both determinism (byte-identical outcome
//! encodings) and the expected verdict, so a regression of any fixed
//! liveness bug (or a new nondeterminism) fails here with the offending
//! file named.
//!
//! The seeded fixtures:
//! * `coin-quorum-starvation.{beat,hb-sc}` — the protocol-aware CoinStarve
//!   schedule holds back every common-coin share after the first, per
//!   receiver and round, for the full 20 s budget; shared-coin protocols
//!   must still terminate (liveness under bounded delays).
//! * `dumbo-sc-corrupt-proposer-deadlock` — a corrupt proposer once drove
//!   every honest node to elect a candidate whose CBC_value is permanently
//!   unrecoverable (the commit CBC, a plain bitmap, survives corruption
//!   while the value CBC does not); fixed by requiring the candidate's
//!   CBC_value locally before voting 1 in the election ABA (dumbo.rs).
//! * `hb-lc-flip-votes-unjustified-phase2` — a vote-flipping node once
//!   broke local-coin ABA agreement by injecting a phase-2 vote with no
//!   phase-1 justification, denying both values the strict majority and
//!   coin-flipping honest nodes away from a decided value; fixed by
//!   Bracha message validation in aba_lc.rs.
//! * `pipelined-w{2,4}.*` — the base scenario at pipeline depths 2 and 4
//!   (dissemination of future epochs in flight while earlier epochs finish
//!   agreement); pins determinism and liveness of the decided-block
//!   buffering, in-order finalization, and early-decryption paths. The
//!   fuzzer also mutates `pipeline_depth` ∈ {1, 2, 4}, so new pipelined
//!   failures land here as minimized fixtures.
//! * `crash-restart.{beat,hb-sc}` — one node dies five seconds in and
//!   restarts after a 25 s outage, replaying its durable journal and
//!   catching up over the anti-entropy sync channel; pins determinism and
//!   convergence of the whole crash/recovery path (see
//!   `crash_recovery.rs` for the drift guard and the testbed-level
//!   battery). The fuzzer also mutates crash plans, so new churn failures
//!   land here as minimized fixtures.
//! * `membership-swap.{beat,hb-sc,dumbo-sc}` — node 4 joins and node 0 leaves via
//!   consensus-ordered membership ops; the committee swaps mid-run after a
//!   dealerless resharing ceremony, and the final epoch commits under the
//!   new quorum math (see `membership.rs` for the drift guard and the
//!   byte-identity fixture). The fuzzer also mutates membership plans, so
//!   new dynamic-membership failures land here as minimized fixtures.
//! * `lossy-livelock.{dumbo-sc-baseline,hb-sc-baseline}` — two livelocks
//!   the unbatched deployments once had under uniform loss (n = 4, one
//!   epoch, batch 8), now expected to finish. `dumbo-sc-baseline` at
//!   p = 0.1, seed 3 committed no transaction in 36 000 simulated seconds
//!   (46 476 channel accesses per node), `hb-sc-baseline` at p = 0.28,
//!   seed 1 was likewise incomplete (71 794). Both came from the
//!   baseline's own retransmission rule: a delivered CBC instance was never
//!   re-sent, so a peer holding its certificate but not its value never got
//!   the INITIAL, and no per-instance frame carried a NACK to ask for it.
//!   The baselines now share the batched components and their NACK-steered
//!   rule, one instance per frame; `lossy_baselines_stay_live` below runs
//!   the whole grid the two were found on (seeds 1–12 × p ∈ {0.1, 0.2,
//!   0.28}, where the old rule stalled Dumbo's baseline on 2 / 2 / 7 seeds
//!   and each HoneyBadger baseline on one).

use std::path::{Path, PathBuf};
use wbft_consensus::fuzz::{
    base_case, coin_starvation_case, fixture_string, pipelined_case, replay_fixture, run_case,
    FuzzVerdict, DEFAULT_EVENT_BUDGET,
};
use wbft_consensus::Protocol;
use wbft_wireless::LossModel;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fuzz")
}

#[test]
fn every_fixture_replays_deterministically_with_its_expected_verdict() {
    let mut replayed = 0;
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            replay_fixture(&path).unwrap_or_else(|e| panic!("{e}"));
            replayed += 1;
        }
    }
    assert!(replayed >= 14, "expected the seeded fixture set, found {replayed}");
}

#[test]
fn pipelined_fixtures_match_the_canonical_encoding() {
    // Same drift guard as the coin-starvation pair, for the pipelined
    // cases — and it pins that `pipeline_depth` is *present* in the config
    // encoding whenever it is not the default 1.
    for (p, depth) in
        [(Protocol::Beat, 2u64), (Protocol::HoneyBadgerSc, 4), (Protocol::DumboSc, 2)]
    {
        let case = pipelined_case(p, depth, DEFAULT_EVENT_BUDGET);
        let disk =
            std::fs::read_to_string(fixture_dir().join(format!("{}.json", case.label))).unwrap();
        assert_eq!(fixture_string(&case, FuzzVerdict::Ok), disk, "{} drifted", case.label);
        assert!(
            disk.contains("\"pipeline_depth\""),
            "{}: depth must be encoded when non-default",
            case.label
        );
    }
}

#[test]
fn coin_starvation_fixtures_match_the_canonical_encoding() {
    // The committed files are exactly what `fixture_string` produces for
    // the canonical coin-quorum-starvation cases, so encoder drift (which
    // would silently decouple the fixtures from the fuzzer) fails loudly.
    for p in [Protocol::Beat, Protocol::HoneyBadgerSc] {
        let case = coin_starvation_case(p, DEFAULT_EVENT_BUDGET);
        let disk =
            std::fs::read_to_string(fixture_dir().join(format!("{}.json", case.label))).unwrap();
        assert_eq!(fixture_string(&case, FuzzVerdict::Ok), disk, "{} drifted", case.label);
    }
}

#[test]
fn livelock_fixtures_match_the_canonical_encoding() {
    for (p, loss, seed) in
        [(Protocol::DumboScBaseline, 0.1, 3), (Protocol::HoneyBadgerScBaseline, 0.28, 1)]
    {
        let mut case = base_case(p, DEFAULT_EVENT_BUDGET);
        case.cfg.loss = LossModel::Uniform { p: loss };
        case.cfg.seed = seed;
        case.label = format!("lossy-livelock.{}", p.slug());
        let disk =
            std::fs::read_to_string(fixture_dir().join(format!("{}.json", case.label))).unwrap();
        assert_eq!(fixture_string(&case, FuzzVerdict::Ok), disk, "{} drifted", case.label);
    }
}

/// The livelock gate: the unbatched deployments under uniform loss, on the
/// grid that measured the pinned livelocks (n = 4, one epoch, batch 8,
/// p ∈ {0.1, 0.2, 0.28}, seeds 1–12). No run may diverge; Dumbo's baseline
/// must complete all 36, and each HoneyBadger baseline may stall on at most
/// one, the count the grid measured before the baselines shared the
/// batched components' NACK-steered retransmission.
#[test]
fn lossy_baselines_stay_live() {
    for (p, allowed_stalls) in [
        (Protocol::DumboScBaseline, 0),
        (Protocol::HoneyBadgerScBaseline, 1),
        (Protocol::BeatBaseline, 1),
    ] {
        let mut stalls = Vec::new();
        for loss in [0.1, 0.2, 0.28] {
            for seed in 1..=12 {
                let mut case = base_case(p, DEFAULT_EVENT_BUDGET);
                case.cfg.loss = LossModel::Uniform { p: loss };
                case.cfg.seed = seed;
                match run_case(&case).verdict {
                    FuzzVerdict::Ok => {}
                    FuzzVerdict::Stall => stalls.push((loss, seed)),
                    FuzzVerdict::Divergence => panic!("{p} diverged at p = {loss}, seed {seed}"),
                }
            }
        }
        assert!(stalls.len() <= allowed_stalls, "{p} stalled at (p, seed) {stalls:?}");
    }
}
