#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! The eight consensus deployments of the paper's evaluation (Fig. 13) and
//! a factory that builds engines for them.

use crate::driver::Engine;
use crate::dumbo::DumboLane;
use crate::engine::{EpochEngine, Lane};
use crate::honeybadger;
use crate::membership::MembershipCtl;
use crate::service::{ConsensusHandle, StopCondition};
use crate::workload::{BatchSource, Workload};
use wbft_components::NodeCrypto;

/// A consensus protocol deployment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// ConsensusBatcher HoneyBadgerBFT, local-coin (Bracha) ABA.
    HoneyBadgerLc,
    /// ConsensusBatcher HoneyBadgerBFT, shared-coin ABA.
    HoneyBadgerSc,
    /// ConsensusBatcher BEAT (BEAT0, threshold coin flipping).
    Beat,
    /// ConsensusBatcher Dumbo (Dumbo2), local-coin serial ABA.
    DumboLc,
    /// ConsensusBatcher Dumbo (Dumbo2), shared-coin serial ABA.
    DumboSc,
    /// Unbatched HoneyBadgerBFT-SC baseline.
    HoneyBadgerScBaseline,
    /// Unbatched BEAT baseline.
    BeatBaseline,
    /// Unbatched Dumbo-SC baseline.
    DumboScBaseline,
}

impl Protocol {
    /// All eight deployments in the order of Fig. 13's legend.
    pub const ALL: [Protocol; 8] = [
        Protocol::HoneyBadgerScBaseline,
        Protocol::DumboScBaseline,
        Protocol::BeatBaseline,
        Protocol::HoneyBadgerSc,
        Protocol::DumboSc,
        Protocol::Beat,
        Protocol::HoneyBadgerLc,
        Protocol::DumboLc,
    ];

    /// The five ConsensusBatcher deployments.
    pub const BATCHED: [Protocol; 5] = [
        Protocol::HoneyBadgerLc,
        Protocol::HoneyBadgerSc,
        Protocol::Beat,
        Protocol::DumboLc,
        Protocol::DumboSc,
    ];

    /// The three baselines.
    pub const BASELINES: [Protocol; 3] = [
        Protocol::HoneyBadgerScBaseline,
        Protocol::BeatBaseline,
        Protocol::DumboScBaseline,
    ];

    /// Name as printed in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::HoneyBadgerLc => "HoneyBadgerBFT-LC",
            Protocol::HoneyBadgerSc => "HoneyBadgerBFT-SC",
            Protocol::Beat => "BEAT",
            Protocol::DumboLc => "Dumbo-LC",
            Protocol::DumboSc => "Dumbo-SC",
            Protocol::HoneyBadgerScBaseline => "HoneyBadgerBFT-SC-baseline",
            Protocol::BeatBaseline => "BEAT-baseline",
            Protocol::DumboScBaseline => "Dumbo-SC-baseline",
        }
    }

    /// Short filesystem- and CLI-safe identifier (used in report file
    /// names, sweep labels and the command-line front-ends).
    pub fn slug(&self) -> &'static str {
        match self {
            Protocol::HoneyBadgerLc => "hb-lc",
            Protocol::HoneyBadgerSc => "hb-sc",
            Protocol::Beat => "beat",
            Protocol::DumboLc => "dumbo-lc",
            Protocol::DumboSc => "dumbo-sc",
            Protocol::HoneyBadgerScBaseline => "hb-sc-baseline",
            Protocol::BeatBaseline => "beat-baseline",
            Protocol::DumboScBaseline => "dumbo-sc-baseline",
        }
    }

    /// Inverse of [`Protocol::slug`].
    pub fn from_slug(slug: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.slug() == slug)
    }

    /// Whether this deployment uses ConsensusBatcher.
    pub fn is_batched(&self) -> bool {
        !matches!(
            self,
            Protocol::HoneyBadgerScBaseline
                | Protocol::BeatBaseline
                | Protocol::DumboScBaseline
        )
    }

    /// Bytes of the proposal a node broadcasts for one of `workload`'s
    /// batches: the encoded batch, threshold-encrypted by the HoneyBadger
    /// family and sent in the clear by Dumbo.
    pub fn proposal_bytes(&self, workload: &Workload) -> usize {
        let encrypted = !matches!(
            self,
            Protocol::DumboLc | Protocol::DumboSc | Protocol::DumboScBaseline
        );
        workload.encoded_len() + if encrypted { honeybadger::CIPHERTEXT_OVERHEAD } else { 0 }
    }

    /// Fixed-epoch engine for one node with a pipeline depth: up to `depth`
    /// epochs keep their dissemination in flight while earlier ones finish
    /// agreement (`depth = 1` is strictly sequential).
    pub fn engine_at_depth(
        &self,
        crypto: NodeCrypto,
        workload: Workload,
        epochs: u64,
        depth: u64,
    ) -> Box<dyn Engine> {
        self.build(crypto, workload.into(), StopCondition::Epochs(epochs), depth, None)
    }

    /// Live-service engine: proposals pull FIFO from the handle's mempool
    /// (at most `max_batch` per epoch) and the engine runs until the handle
    /// requests a stop, bounded by `max_epochs`.
    pub fn service_engine_at_depth(
        &self,
        crypto: NodeCrypto,
        handle: ConsensusHandle,
        max_batch: usize,
        max_epochs: u64,
        depth: u64,
    ) -> Box<dyn Engine> {
        self.build(
            crypto,
            BatchSource::Service { handle: handle.clone(), max_batch },
            StopCondition::Service { handle, max_epochs },
            depth,
            None,
        )
    }

    /// The general form: any proposal source and stop condition, a pipeline
    /// depth `W ≥ 1`, and optionally dynamic membership — quorum math,
    /// committee slots and threshold keys then follow the chain-derived
    /// committee view in `membership` instead of the fixed genesis deal.
    pub fn build(
        &self,
        crypto: NodeCrypto,
        source: BatchSource,
        stop: StopCondition,
        depth: u64,
        membership: Option<MembershipCtl>,
    ) -> Box<dyn Engine> {
        fn boxed<L: Lane + 'static>(
            engine: EpochEngine<L>,
            depth: u64,
            membership: Option<MembershipCtl>,
        ) -> Box<dyn Engine> {
            let engine = engine.with_depth(depth);
            Box::new(match membership {
                Some(ctl) => engine.with_membership(ctl),
                None => engine,
            })
        }
        match self {
            Protocol::HoneyBadgerLc => {
                boxed(honeybadger::hb_lc(crypto, source, stop), depth, membership)
            }
            Protocol::HoneyBadgerSc => {
                boxed(honeybadger::hb_sc(crypto, source, stop), depth, membership)
            }
            Protocol::Beat => boxed(honeybadger::beat(crypto, source, stop), depth, membership),
            Protocol::HoneyBadgerScBaseline => {
                boxed(honeybadger::hb_sc_baseline(crypto, source, stop), depth, membership)
            }
            Protocol::BeatBaseline => {
                boxed(honeybadger::beat_baseline(crypto, source, stop), depth, membership)
            }
            Protocol::DumboLc => {
                boxed(EpochEngine::new(crypto, DumboLane::Lc, source, stop), depth, membership)
            }
            Protocol::DumboSc => {
                boxed(EpochEngine::new(crypto, DumboLane::Sc, source, stop), depth, membership)
            }
            Protocol::DumboScBaseline => boxed(
                EpochEngine::new(crypto, DumboLane::ScBaseline, source, stop),
                depth,
                membership,
            ),
        }
    }
}

impl core::fmt::Display for Protocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_partitions() {
        assert_eq!(Protocol::ALL.len(), 8);
        assert_eq!(Protocol::BATCHED.len(), 5);
        assert_eq!(Protocol::BASELINES.len(), 3);
        for p in Protocol::BATCHED {
            assert!(p.is_batched(), "{p}");
        }
        for p in Protocol::BASELINES {
            assert!(!p.is_batched(), "{p}");
            assert!(p.name().ends_with("baseline"));
        }
    }

    #[test]
    fn slugs_are_unique_and_invertible() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_slug(p.slug()), Some(p));
            assert!(p.slug().chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
        }
        assert_eq!(Protocol::from_slug("pbft"), None);
    }
}
