//! The baseline packaging: a combined body split into one frame per
//! (instance, phase) entry, and a frame joined back into the combined body
//! its components read.
//!
//! ConsensusBatcher and the unbatched baseline run the same components;
//! only how their state reaches the air differs. A component always builds
//! its combined body — `RbcEchoReady`, `CbcEchoFinish`, `PrbcDone`,
//! `AbaSc`, `DecShareBatch`. Under the baseline packaging the sender's
//! batcher [`split`]s it into `Base*` frames, each carrying one instance's
//! entry and that instance's NACK bits, and the receiver [`join`]s every
//! frame back into a combined body holding that one entry, so components
//! match only their combined variants. INITIAL fragments are per instance
//! already and pass through, as does every other body.
//!
//! An RBC or CBC entry whose only content is NACK bits becomes a NACK frame
//! ([`Body::is_request`]): a request, not news. An RBC or CBC frame with its
//! INITIAL bit set carries its instance's fragment request ([`FrameNack`]),
//! which the join puts back into the combined body's [`InitNack`]. What a
//! split drops: the NACK bits of a PRBC or decryption entry with no share or
//! proof (the sender has not delivered the instance, which the RBC's own
//! NACKs recover), and `AbaSc`'s `Share_nack` when the body has no coin
//! share.

use crate::bitmap::Bitmap;
use crate::init_nack::{FrameNack, InitNack};
use crate::packets::{AbaScInst, Body};
use crate::vote::Vote;
use std::borrow::Cow;
use wbft_crypto::hash::Digest32;

/// Bit `j` of `b`, `false` beyond its length.
fn bit(b: &Bitmap, j: usize) -> bool {
    j < b.len() && b.get(j)
}

/// Packs an RBC or CBC instance's NACK bits, the first in bit 0, the
/// INITIAL one last, with its fragment request.
fn pack(bits: [bool; 2], init_nack: &InitNack, j: usize) -> FrameNack {
    let bits = bits.iter().enumerate().fold(0, |acc, (i, &b)| acc | u8::from(b) << i);
    match init_nack.request(j) {
        Some(request) => FrameNack::new(bits | FrameNack::INIT, *request),
        None => FrameNack::from(bits),
    }
}

/// A bitmap of `n` bits holding only bit `j`, set to `value`.
fn one(n: usize, j: usize, value: bool) -> Bitmap {
    let mut b = Bitmap::new(n);
    if value {
        b.set(j, true);
    }
    b
}

/// Splits a combined body into its per-instance frames; any other body is
/// its own one frame.
pub fn split(body: Body) -> Vec<Body> {
    let mut out = Vec::new();
    match body {
        Body::RbcEchoReady { roots, echo, ready, echo_nack, ready_nack, init_nack } => {
            for (instance, root) in (0..=u8::MAX).zip(roots) {
                let j = usize::from(instance);
                let nack = pack([bit(&echo_nack, j), bit(&ready_nack, j)], &init_nack, j);
                let (voted_echo, voted_ready) = (bit(&echo, j), bit(&ready, j));
                if voted_echo {
                    out.push(Body::BaseRbcEcho { instance, root, nack });
                }
                if voted_ready {
                    out.push(Body::BaseRbcReady { instance, root, nack });
                }
                if !voted_echo && !voted_ready && nack.bits() != 0 {
                    out.push(Body::BaseRbcNack { instance, root, nack });
                }
            }
        }
        Body::CbcEchoFinish { echo_shares, finish_sigs, echo_nack, finish_nack, init_nack } => {
            let n = echo_nack.len().max(finish_nack.len()).max(init_nack.len());
            for (instance, j) in (0..=u8::MAX).zip(0..n) {
                let nack = pack([bit(&echo_nack, j), bit(&finish_nack, j)], &init_nack, j);
                let share = echo_shares.iter().find(|(i, _)| *i == instance);
                let sig = finish_sigs.iter().find(|(i, ..)| *i == instance);
                if let Some(&(_, share)) = share {
                    out.push(Body::BaseCbcEcho { instance, share, nack });
                }
                if let Some(&(_, root, sig)) = sig {
                    out.push(Body::BaseCbcFinish { instance, root, sig, nack });
                }
                if share.is_none() && sig.is_none() && nack.bits() != 0 {
                    out.push(Body::BaseCbcNack { instance, nack });
                }
            }
        }
        Body::PrbcDone { shares, proofs, sig_nack } => {
            let nack = |j: u8| u8::from(bit(&sig_nack, usize::from(j)));
            for (instance, share) in shares {
                out.push(Body::BasePrbcDone { instance, share, nack: nack(instance) });
            }
            for (instance, proof) in proofs {
                out.push(Body::BasePrbcProof { instance, proof, nack: nack(instance) });
            }
        }
        Body::AbaSc { flavor, insts, coin_shares, share_nack } => {
            out.extend(insts.into_iter().map(|inst| Body::BaseAbaVote { flavor, inst }));
            let last = coin_shares.len().saturating_sub(1);
            for (i, (coin, share)) in coin_shares.into_iter().enumerate() {
                let share_nack = if i == last { share_nack } else { Bitmap::new(share_nack.len()) };
                out.push(Body::BaseAbaCoin { flavor, coin, share, share_nack });
            }
        }
        Body::DecShareBatch { shares, dec_nack } => {
            for (proposer, share) in shares {
                let nack = u8::from(bit(&dec_nack, usize::from(proposer)));
                out.push(Body::BaseDecShare { proposer, share, nack });
            }
        }
        other => out.push(other),
    }
    out
}

/// The combined body holding the one entry of a per-instance frame, for a
/// committee of `n`; any other body — and a frame naming an instance
/// outside the committee, which no component reads — is returned as it is.
pub fn join(body: &Body, n: usize) -> Cow<'_, Body> {
    let Some(j) = body.place().map(|(instance, _)| usize::from(instance)).filter(|&j| j < n)
    else {
        return Cow::Borrowed(body);
    };
    let roots_of = |root: Digest32| {
        let mut roots = vec![Digest32::zero(); n];
        if let Some(r) = roots.get_mut(j) {
            *r = root;
        }
        roots
    };
    let nack_bit = |nack: u8, i: u32| one(n, j, nack >> i & 1 == 1);
    let init_nack = |nack: &FrameNack| {
        let mut init_nack = InitNack::new(n);
        if let Some(request) = nack.request() {
            init_nack.ask(j, *request);
        }
        init_nack
    };
    Cow::Owned(match body {
        Body::BaseRbcEcho { root, nack, .. }
        | Body::BaseRbcReady { root, nack, .. }
        | Body::BaseRbcNack { root, nack, .. } => Body::RbcEchoReady {
            roots: roots_of(*root),
            echo: one(n, j, matches!(body, Body::BaseRbcEcho { .. })),
            ready: one(n, j, matches!(body, Body::BaseRbcReady { .. })),
            echo_nack: nack_bit(nack.bits(), 0),
            ready_nack: nack_bit(nack.bits(), 1),
            init_nack: init_nack(nack),
        },
        Body::BaseCbcEcho { nack, .. }
        | Body::BaseCbcFinish { nack, .. }
        | Body::BaseCbcNack { nack, .. } => Body::CbcEchoFinish {
            echo_shares: match body {
                Body::BaseCbcEcho { instance, share, .. } => vec![(*instance, *share)],
                _ => Vec::new(),
            },
            finish_sigs: match body {
                Body::BaseCbcFinish { instance, root, sig, .. } => vec![(*instance, *root, *sig)],
                _ => Vec::new(),
            },
            echo_nack: nack_bit(nack.bits(), 0),
            finish_nack: nack_bit(nack.bits(), 1),
            init_nack: init_nack(nack),
        },
        Body::BasePrbcDone { nack, .. } | Body::BasePrbcProof { nack, .. } => {
            Body::PrbcDone {
                shares: match body {
                    Body::BasePrbcDone { instance, share, .. } => vec![(*instance, *share)],
                    _ => Vec::new(),
                },
                proofs: match body {
                    Body::BasePrbcProof { instance, proof, .. } => vec![(*instance, *proof)],
                    _ => Vec::new(),
                },
                sig_nack: nack_bit(*nack, 0),
            }
        }
        Body::BaseAbaVote { flavor, inst } => Body::AbaSc {
            flavor: *flavor,
            insts: vec![inst.clone()],
            coin_shares: Vec::new(),
            share_nack: Bitmap::new(n),
        },
        Body::BaseAbaCoin { flavor, coin, share, share_nack } => Body::AbaSc {
            flavor: *flavor,
            insts: Vec::new(),
            coin_shares: vec![(*coin, *share)],
            share_nack: *share_nack,
        },
        Body::BaseDecShare { proposer, share, nack } => Body::DecShareBatch {
            shares: vec![(*proposer, *share)],
            dec_nack: nack_bit(*nack, 0),
        },
        other => return Cow::Borrowed(other),
    })
}

impl Body {
    /// A per-instance frame's instance, round and asks; `None` for any
    /// other body.
    fn frame(&self) -> Option<(u8, u16, u64)> {
        if let Some((instance, nack)) = self.broadcast_frame() {
            return Some((instance, 0, u64::from(nack.bits())));
        }
        match self {
            Body::BasePrbcDone { instance, nack, .. }
            | Body::BasePrbcProof { instance, nack, .. }
            | Body::BaseDecShare { proposer: instance, nack, .. } => {
                Some((*instance, 0, u64::from(*nack)))
            }
            Body::BaseAbaVote { inst, .. } => {
                Some((inst.instance, inst.round, u64::from(inst.decided == Vote::Unknown)))
            }
            Body::BaseAbaCoin { coin, share_nack, .. } => {
                let [domain, round] = coin.to_be_bytes();
                Some((domain, u16::from(round), share_nack.to_raw()))
            }
            _ => None,
        }
    }

    /// An RBC or CBC per-instance frame's instance and NACK; `None` for any
    /// other body.
    fn broadcast_frame(&self) -> Option<(u8, &FrameNack)> {
        match self {
            Body::BaseRbcEcho { instance, nack, .. }
            | Body::BaseRbcReady { instance, nack, .. }
            | Body::BaseRbcNack { instance, nack, .. }
            | Body::BaseCbcEcho { instance, nack, .. }
            | Body::BaseCbcFinish { instance, nack, .. }
            | Body::BaseCbcNack { instance, nack, .. } => Some((*instance, nack)),
            _ => None,
        }
    }

    /// The `(instance, round)` a per-instance frame speaks for — a coin
    /// share's instance is its coin domain; `None` for any other body.
    pub fn place(&self) -> Option<(u8, u16)> {
        self.frame().map(|(instance, round, _)| (instance, round))
    }

    /// What a per-instance frame asks its receivers for, one bit per NACK:
    /// its NACK bits, an undecided ABA entry, a coin frame's `Share_nack`.
    /// Zero for any other body.
    pub fn asks(&self) -> u64 {
        self.frame().map_or(0, |(_, _, asks)| asks)
    }

    /// `true` for a frame that only asks: an RBC or CBC entry's NACK bits
    /// with nothing of the sender's to carry them.
    pub fn is_request(&self) -> bool {
        matches!(self, Body::BaseRbcNack { .. } | Body::BaseCbcNack { .. })
    }

    /// `true` when this frame says something `older`, the last frame sent
    /// in its slot, did not: anything but asks it no longer makes — a
    /// cleared NACK, a decision, a fragment received — differs, or it asks
    /// for more: a NACK bit or a fragment.
    pub fn is_news_over(&self, older: &Body) -> bool {
        let asks_beyond = match (self.broadcast_frame(), older.broadcast_frame()) {
            (Some((_, new)), Some((_, old))) => new.asks_beyond(old),
            _ => self.asks() & !older.asks() != 0,
        };
        asks_beyond || self.without_asks() != older.without_asks()
    }

    fn without_asks(&self) -> Cow<'_, Body> {
        if self.place().is_none() {
            return Cow::Borrowed(self);
        }
        let mut quiet = self.clone();
        match &mut quiet {
            Body::BaseRbcEcho { nack, .. }
            | Body::BaseRbcReady { nack, .. }
            | Body::BaseRbcNack { nack, .. }
            | Body::BaseCbcEcho { nack, .. }
            | Body::BaseCbcFinish { nack, .. }
            | Body::BaseCbcNack { nack, .. } => *nack = FrameNack::default(),
            Body::BasePrbcDone { nack, .. }
            | Body::BasePrbcProof { nack, .. }
            | Body::BaseDecShare { nack, .. } => *nack = 0,
            Body::BaseAbaVote { inst: AbaScInst { decided, .. }, .. } => *decided = Vote::Unknown,
            Body::BaseAbaCoin { share_nack, .. } => *share_nack = Bitmap::new(share_nack.len()),
            _ => {}
        }
        Cow::Owned(quiet)
    }
}
