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
use crate::honeybadger::{HbLane, CIPHERTEXT_OVERHEAD};
use crate::membership::MembershipCtl;
use crate::service::{ConsensusHandle, StopCondition};
use crate::workload::{BatchSource, Workload};
use wbft_components::{Agreement, NodeCrypto, Packing};
use wbft_net::CoinFlavor;

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

/// The epoch skeleton a deployment runs its agreement in.
#[derive(Clone, Copy)]
enum Skeleton {
    /// RBC → parallel ABA → threshold decryption ([`HbLane`]).
    HoneyBadger,
    /// PRBC → CBCs → π → serial ABA ([`DumboLane`]).
    Dumbo,
}

impl Protocol {
    /// What this deployment is: its skeleton, its binary agreement and its
    /// packing. Everything else about it follows from this row.
    fn row(&self) -> (Skeleton, Agreement, Packing) {
        use Skeleton::{Dumbo, HoneyBadger};
        let (sig, flip) = (CoinFlavor::ThreshSig, CoinFlavor::CoinFlip);
        let shared = |flavor, serial| Agreement::SharedCoin { flavor, serial };
        let (batched, baseline) = (Packing::Combined, Packing::PerInstance);
        match self {
            Protocol::HoneyBadgerLc => (HoneyBadger, Agreement::LocalCoin, batched),
            Protocol::HoneyBadgerSc => (HoneyBadger, shared(sig, false), batched),
            Protocol::Beat => (HoneyBadger, shared(flip, false), batched),
            Protocol::DumboLc => (Dumbo, Agreement::LocalCoin, batched),
            Protocol::DumboSc => (Dumbo, shared(sig, true), batched),
            Protocol::HoneyBadgerScBaseline => (HoneyBadger, shared(sig, true), baseline),
            Protocol::BeatBaseline => (HoneyBadger, shared(flip, true), baseline),
            Protocol::DumboScBaseline => (Dumbo, shared(sig, true), baseline),
        }
    }

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
        self.row().2 == Packing::Combined
    }

    /// Bytes of the proposal a node broadcasts for one of `workload`'s
    /// batches: the encoded batch, threshold-encrypted by the HoneyBadger
    /// family and sent in the clear by Dumbo.
    pub fn proposal_bytes(&self, workload: &Workload) -> usize {
        let encrypted = matches!(self.row().0, Skeleton::HoneyBadger);
        workload.encoded_len() + if encrypted { CIPHERTEXT_OVERHEAD } else { 0 }
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
        let (skeleton, agreement, packing) = self.row();
        match skeleton {
            Skeleton::HoneyBadger => {
                let lane = HbLane { agreement, packing };
                boxed(EpochEngine::new(crypto, lane, source, stop), depth, membership)
            }
            Skeleton::Dumbo => {
                let lane = DumboLane { agreement, packing };
                boxed(EpochEngine::new(crypto, lane, source, stop), depth, membership)
            }
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
        // The five HoneyBadger-lane deployments encrypt their proposals
        // (`u` and the tag, 64 B); the three Dumbo ones send them in the
        // clear.
        let clear = [Protocol::DumboLc, Protocol::DumboSc, Protocol::DumboScBaseline];
        let w = Workload::small();
        for p in Protocol::ALL {
            let overhead = if clear.contains(&p) { 0 } else { 64 };
            assert_eq!(p.proposal_bytes(&w) - w.encoded_len(), overhead, "{p}");
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
