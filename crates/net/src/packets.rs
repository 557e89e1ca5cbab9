//! ConsensusBatcher packet structures (paper Figs. 4, 5, 6) and the
//! per-instance frames of the baseline packaging.
//!
//! Every packet payload follows the paper's four-part split — header, NACK,
//! value, signature (§IV-B1). An INITIAL NACK names, per instance, the
//! fragments of the proposal its sender lacks ([`crate::init_nack`]), so a
//! holder re-airs only those; without one set, a packet encodes as if the
//! field were the plain bitmap (or NACK byte) it extends. *Combined* packets carry the state of all `N`
//! parallel instances of a component and are the unit of one channel access.
//! The `Base*` frames carry one (instance, phase) entry of a combined packet
//! each, with that instance's NACK bits, reproducing the unbatched
//! deployment the paper compares against; [`crate::split()`] converts between
//! the two, so both deployments share one NACK-steered retransmission rule.
//!
//! A body encodes through the dual-mode [`Sink`]; see
//! [`crate::wire`] for how nominal (paper-sized) lengths are derived. Each
//! variant's layout is one entry of the wire table below — its kind byte
//! and the order its fields travel in — from which the kind, the encoder
//! and the decoder are generated, every field a [`Wire`] type; only the two
//! coin-carrying variants are written out by hand.

use crate::bitmap::Bitmap;
use crate::init_nack::{FrameNack, InitNack};
use crate::vote::{BinValues, Vote};
use crate::wire::{ByteSink, CoinFlavor, CountSink, Sink, Sizing, Wire, WireError, WireReader};
use bytes::{BufMut, Bytes, BytesMut};
use wbft_crypto::hash::Digest32;
use wbft_crypto::schnorr::{KeyPair, PublicKey, Signature};
use wbft_crypto::thresh_enc::DecShare;
use wbft_crypto::thresh_sig::{SigShare, ThresholdSignature};
use wbft_crypto::{GroupElem, Scalar};

/// Per-instance entry of a batched Bracha-ABA packet (Fig. 6a): the node's
/// current reports for all three phase-RBCs of its active round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbaLcInst {
    /// Which ABA instance.
    pub instance: u8,
    /// The node's active round.
    pub round: u16,
    /// `reports[phase][voter]` — the vote this node relays for `voter` in
    /// `phase` (Bracha-RBC echo semantics; `Unknown` = nothing seen).
    pub reports: [Vec<Vote>; 3],
    /// Decided output, if any (`Unknown` = undecided).
    pub decided: Vote,
}

/// Per-instance entry of a batched shared-coin-ABA packet (Fig. 6b).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbaScInst {
    /// Which ABA instance.
    pub instance: u8,
    /// The node's active round.
    pub round: u16,
    /// BVAL values this node has broadcast this round.
    pub bval: BinValues,
    /// AUX vote this round (`Unknown` = not yet sent).
    pub aux: Vote,
    /// Decided output, if any.
    pub decided: Vote,
}

/// All protocol packet bodies.
#[derive(Clone, Debug, PartialEq)]
pub enum Body {
    // ------------------------------------------------------ batched RBC
    /// INITIAL phase of batched RBC (Fig. 4a, `RBC_INIT`): one fragment of
    /// the sender's proposal plus the batched `Initial_nack`.
    RbcInit {
        /// Instance (= proposer) id.
        instance: u8,
        /// Fragment index within the proposal.
        frag: u8,
        /// Total fragments of the proposal.
        frag_total: u8,
        /// Digest of the whole proposal, `Digest32::of(value)`: no
        /// component uses Merkle proofs.
        root: Digest32,
        /// Fragment payload.
        data: Bytes,
        /// Bit `j` set = "I am still missing instance `j`'s proposal", with
        /// the fragments of it I lack.
        init_nack: InitNack,
    },
    /// Batched ECHO+READY phases of N RBC instances (Fig. 4a, `RBC_ER`).
    RbcEchoReady {
        /// `roots[j]` = proposal root of instance `j` as this node knows it
        /// (zero digest = unknown) — the `Hash` part of the packet.
        roots: Vec<Digest32>,
        /// Bit `j` = this node echoes instance `j`.
        echo: Bitmap,
        /// Bit `j` = this node is ready on instance `j`.
        ready: Bitmap,
        /// Compressed O(N) NACK: bit `j` = instance `j` lacks 2f+1 echoes.
        echo_nack: Bitmap,
        /// Compressed O(N) NACK for readies.
        ready_nack: Bitmap,
        /// Bit `j` = still missing instance `j`'s proposal, with the
        /// fragments of it still missing.
        init_nack: InitNack,
    },
    // ------------------------------------------------------ batched CBC
    /// INITIAL phase of batched CBC (Fig. 4b, `CBC_INIT`).
    CbcInit {
        /// Instance (= proposer) id.
        instance: u8,
        /// Fragment index.
        frag: u8,
        /// Total fragments.
        frag_total: u8,
        /// Digest of the whole value, `Digest32::of(value)`.
        root: Digest32,
        /// Fragment payload.
        data: Bytes,
        /// Missing-proposal NACK, with the fragments missing.
        init_nack: InitNack,
    },
    /// Batched ECHO+FINISH of N CBC instances (Fig. 4b, `CBC_EF`): echo
    /// signature shares (logically N-to-1 to each leader) and combined
    /// FINISH signatures, in one frame. A root travels only beside the
    /// certificate it verifies under: an echo share is checked by its
    /// instance's leader, who holds the value and so its root. Shares and
    /// certificates ride only while some peer can use them.
    CbcEchoFinish {
        /// This node's echo shares, one per instance it has received and
        /// holds no FINISH signature of.
        echo_shares: Vec<(u8, SigShare)>,
        /// Combined FINISH signatures this node holds (as leader or relay)
        /// and some peer's latest `finish_nack` has not shown it holds,
        /// each with the value root it signs.
        finish_sigs: Vec<(u8, Digest32, ThresholdSignature)>,
        /// Bit `j` = instance `j` lacks an echo quorum at its leader.
        echo_nack: Bitmap,
        /// Bit `j` = this node lacks instance `j`'s FINISH signature.
        finish_nack: Bitmap,
        /// Missing-proposal NACK, with the fragments missing.
        init_nack: InitNack,
    },
    // ------------------------------------------------------ batched PRBC
    /// Batched DONE phase of N PRBC instances (Fig. 4c): threshold
    /// signature shares attesting delivery, and combined proofs. No root
    /// travels: a receiver checks both against the root it delivered
    /// itself, and takes neither before it has. Shares and proofs ride only
    /// while some peer can use them.
    PrbcDone {
        /// This node's DONE shares for instances it delivered and holds no
        /// proof of.
        shares: Vec<(u8, SigShare)>,
        /// Combined delivery proofs this node holds and some peer's latest
        /// `sig_nack` has not shown it holds.
        proofs: Vec<(u8, ThresholdSignature)>,
        /// Bit `j` = this node lacks instance `j`'s combined proof.
        sig_nack: Bitmap,
    },
    // ------------------------------------------------------ small variants
    /// N parallel RBC instances with 2-bit proposals, INITIAL folded into
    /// the vote phases (Fig. 5a, `RBC-small`).
    RbcSmall {
        /// `values[j]` = instance `j`'s proposal as known (the `Initial`
        /// field: 2 bits each).
        values: Vec<Vote>,
        /// Bit `j` = this node echoes instance `j`'s value.
        echo: Bitmap,
        /// Bit `j` = this node is ready on instance `j`.
        ready: Bitmap,
        /// Missing-initial NACK.
        init_nack: Bitmap,
        /// Compressed echo NACK.
        echo_nack: Bitmap,
        /// Compressed ready NACK.
        ready_nack: Bitmap,
    },
    /// N parallel CBC instances with node-id-list proposals (Fig. 5b,
    /// `CBC-small`), INITIAL folded in: the value is an N-bit set.
    CbcSmall {
        /// `values[j]` = instance `j`'s id-list (empty bitmap = unknown).
        values: Vec<Bitmap>,
        /// Echo signature shares of instances without a FINISH signature
        /// here.
        echo_shares: Vec<(u8, SigShare)>,
        /// Combined FINISH signatures some peer's latest `finish_nack` has
        /// not shown it holds.
        finish_sigs: Vec<(u8, ThresholdSignature)>,
        /// Missing-initial NACK.
        init_nack: Bitmap,
        /// Echo-quorum NACK.
        echo_nack: Bitmap,
        /// Missing-finish NACK.
        finish_nack: Bitmap,
    },
    // ------------------------------------------------------ batched ABA
    /// k parallel Bracha-ABA instances (Fig. 6a): three phase-RBC report
    /// lattices per instance, plus `Round_nack`/`Round_nack_ext` folded into
    /// the per-instance round numbers.
    AbaLc {
        /// Per-instance state.
        insts: Vec<AbaLcInst>,
    },
    /// k parallel shared-coin-ABA instances (Fig. 6b): BVAL/AUX votes per
    /// instance and *one* coin share per round shared by all instances
    /// (Technical Challenge III).
    AbaSc {
        /// Which coin deployment the shares belong to.
        flavor: CoinFlavor,
        /// Per-instance state.
        insts: Vec<AbaScInst>,
        /// Coin shares by round.
        coin_shares: Vec<(u16, SigShare)>,
        /// Bit per node = "I lack a coin share from them" (Share_nack).
        share_nack: Bitmap,
    },
    // ------------------------------------------------------ per-instance
    // One instance's entry of a combined body, one frame each: the
    // baseline packaging (`wbft_net::split`). Every frame carries its own
    // instance's NACK bits, in the order of the combined body's bitmaps.
    /// One instance's RBC ECHO (of `RbcEchoReady`).
    BaseRbcEcho {
        /// Instance id.
        instance: u8,
        /// Echoed proposal root.
        root: Digest32,
        /// Bits 0–2: the instance's echo, ready and INITIAL NACK, with the
        /// fragments the INITIAL NACK asks for.
        nack: FrameNack,
    },
    /// One instance's RBC READY.
    BaseRbcReady {
        /// Instance id.
        instance: u8,
        /// Ready proposal root.
        root: Digest32,
        /// As [`Body::BaseRbcEcho`].
        nack: FrameNack,
    },
    /// One RBC instance's NACK bits with no vote of the sender's to carry
    /// them: it lacks the instance's proposal, or knows nothing of it yet.
    BaseRbcNack {
        /// Instance id.
        instance: u8,
        /// The root the sender knows (zero = none).
        root: Digest32,
        /// As [`Body::BaseRbcEcho`].
        nack: FrameNack,
    },
    /// One instance's CBC ECHO share (of `CbcEchoFinish`).
    BaseCbcEcho {
        /// Instance id.
        instance: u8,
        /// The sender's echo share.
        share: SigShare,
        /// Bits 0–2: the instance's echo, FINISH and INITIAL NACK, with the
        /// fragments the INITIAL NACK asks for.
        nack: FrameNack,
    },
    /// One instance's CBC FINISH certificate.
    BaseCbcFinish {
        /// Instance id.
        instance: u8,
        /// Finished value root.
        root: Digest32,
        /// The combined signature.
        sig: ThresholdSignature,
        /// As [`Body::BaseCbcEcho`].
        nack: FrameNack,
    },
    /// One CBC instance's NACK bits with no share or certificate to carry
    /// them.
    BaseCbcNack {
        /// Instance id.
        instance: u8,
        /// As [`Body::BaseCbcEcho`].
        nack: FrameNack,
    },
    /// One instance's PRBC DONE share (of `PrbcDone`).
    BasePrbcDone {
        /// Instance id.
        instance: u8,
        /// The sender's DONE share.
        share: SigShare,
        /// Bit 0: the sender lacks the instance's proof.
        nack: u8,
    },
    /// One instance's PRBC delivery proof.
    BasePrbcProof {
        /// Instance id.
        instance: u8,
        /// The combined proof.
        proof: ThresholdSignature,
        /// As [`Body::BasePrbcDone`].
        nack: u8,
    },
    /// One (instance, round) entry of `AbaSc`; its round is its NACK.
    BaseAbaVote {
        /// Which coin deployment the instance runs.
        flavor: CoinFlavor,
        /// The entry.
        inst: AbaScInst,
    },
    /// One coin share of `AbaSc`.
    BaseAbaCoin {
        /// Coin deployment.
        flavor: CoinFlavor,
        /// `(domain << 8) | round`, as in `AbaSc`'s coin shares.
        coin: u16,
        /// The share.
        share: SigShare,
        /// `AbaSc`'s `Share_nack`; carried by the last coin frame of a
        /// split body, empty on the others.
        share_nack: Bitmap,
    },
    // ------------------------------------------------------ consensus layer
    /// Batched threshold-decryption shares for an epoch's accepted
    /// ciphertexts (HoneyBadger/BEAT decryption round).
    DecShareBatch {
        /// `(proposer, share)` pairs for each accepted ciphertext.
        shares: Vec<(u8, DecShare)>,
        /// Bit `j` = this node still lacks a decryption quorum for
        /// proposer `j`'s ciphertext.
        dec_nack: Bitmap,
    },
    /// One proposer's decryption share (of `DecShareBatch`).
    BaseDecShare {
        /// Whose ciphertext.
        proposer: u8,
        /// The share.
        share: DecShare,
        /// Bit 0: the sender lacks a decryption quorum for it.
        nack: u8,
    },
    /// Multi-hop: the cluster leader's announcement of the global consensus
    /// outcome for an epoch, broadcast once on the cluster channel.
    GlobalDecision {
        /// Epoch the decision belongs to.
        epoch: u64,
        /// Digest of the global block.
        digest: Digest32,
        /// Transactions ordered globally in this epoch (for reporting).
        tx_count: u32,
    },
    /// Membership: one canonical dealer's resharing of all threshold key
    /// sets toward a new committee configuration. The deal set itself is
    /// opaque bytes (`wbft_membership::DealSet` codec) so the wire layer
    /// stays independent of membership types; dealers are identified by
    /// *global* node id.
    Reshare {
        /// Key epoch the ceremony produces (the new configuration's).
        key_epoch: u64,
        /// Dealer's global node id.
        dealer: u16,
        /// Encoded `DealSet`.
        deal: Bytes,
    },
}

impl Body {
    /// Stable transmit-queue slot for this body: two bodies with the same
    /// slot carry *versions of the same logical packet* (a combined
    /// ConsensusBatcher packet, a specific INITIAL fragment, a specific
    /// per-instance baseline vote), so a newer one may replace an older one
    /// still waiting in the radio queue. Bodies that must never replace
    /// each other (different fragments, different vote values, different
    /// rounds) get distinct slots.
    pub fn slot_key(&self) -> u64 {
        let kind = self.kind() as u64;
        // Per-instance frames: distinct per (instance, round); the phase is
        // the kind.
        if let Some((instance, round)) = self.place() {
            return kind << 48 | (instance as u64) << 16 | round as u64;
        }
        let sub = match self {
            // Fragments: distinct per (instance, fragment).
            Body::RbcInit { instance, frag, .. } | Body::CbcInit { instance, frag, .. } => {
                (*instance as u64) << 8 | *frag as u64
            }
            Body::GlobalDecision { epoch, .. } => *epoch,
            // One live deal per (dealer, key epoch): a retransmission may
            // supersede its own queued copy, never another dealer's.
            Body::Reshare { key_epoch, dealer, .. } => *key_epoch << 16 | *dealer as u64,
            // Combined packets: one live version per component session.
            _ => 0,
        };
        kind << 48 | sub
    }
}

/// Generates `Body::kind`, [`Body::encode_into`] and [`Body::decode`] from
/// the wire table below: per variant, its kind byte and the order its
/// fields travel in, every field a [`Wire`] type. An entry ending in
/// `via put, get` names a hand-written codec instead.
macro_rules! body_codec {
    ($($kind:literal => $variant:ident { $($field:ident),* } $(via $put:ident, $get:ident)?;)*) => {
        impl Body {
            /// Discriminant byte for encoding.
            fn kind(&self) -> u8 {
                match self {
                    $(Body::$variant { .. } => $kind,)*
                }
            }

            /// Encodes the body (without header or signature) into a sink.
            ///
            /// # Errors
            ///
            /// [`WireError::Oversize`] when a variable-length field
            /// (fragment data, bitmap, list count) does not fit its
            /// wire-format length prefix — the caller drops the message
            /// instead of aborting the node.
            pub fn encode_into(&self, s: &mut impl Sink) -> Result<(), WireError> {
                s.u8(self.kind());
                match self {
                    $(Body::$variant { $($field),* } => {
                        body_codec!(@put s $(via $put)?; $($field),*)
                    })*
                }
            }

            /// Decodes a body.
            ///
            /// # Errors
            ///
            /// Any [`WireError`] on truncation, bad group elements, or
            /// unknown discriminants.
            pub fn decode(r: &mut WireReader<'_>) -> Result<Body, WireError> {
                match r.u8()? {
                    $($kind => body_codec!(@get r $(via $get)?; $variant { $($field),* }),)*
                    other => Err(WireError::UnknownKind(other)),
                }
            }
        }
    };
    (@put $s:ident; $($field:ident),*) => {{
        $($field.put($s)?;)*
        Ok(())
    }};
    (@put $s:ident via $put:ident; $($field:ident),*) => { $put($s, $($field),*) };
    (@get $r:ident; $variant:ident { $($field:ident),* }) => {
        Ok(Body::$variant { $($field: Wire::get($r)?),* })
    };
    (@get $r:ident via $get:ident; $variant:ident { $($field:ident),* }) => { $get($r) };
}

// The wire table. Kinds 9–19, 21 and 22 stay reserved (retired per-instance
// layouts without NACK bits, a retired baseline ABA-LC report and a retired
// multi-hop leader complaint), so an old frame cannot decode as something
// else. The coin-carrying variants are written out because a coin share's
// nominal size depends on the sibling `flavor`.
body_codec! {
    0 => RbcInit { instance, frag, frag_total, root, data, init_nack };
    1 => RbcEchoReady { roots, echo, ready, echo_nack, ready_nack, init_nack };
    2 => CbcInit { instance, frag, frag_total, root, data, init_nack };
    3 => CbcEchoFinish { echo_shares, finish_sigs, echo_nack, finish_nack, init_nack };
    4 => PrbcDone { shares, proofs, sig_nack };
    5 => RbcSmall { values, echo, ready, init_nack, echo_nack, ready_nack };
    6 => CbcSmall { values, echo_shares, finish_sigs, init_nack, echo_nack, finish_nack };
    7 => AbaLc { insts };
    8 => AbaSc { flavor, insts, coin_shares, share_nack } via put_aba_sc, get_aba_sc;
    20 => DecShareBatch { shares, dec_nack };
    23 => GlobalDecision { epoch, digest, tx_count };
    24 => Reshare { key_epoch, dealer, deal };
    25 => BaseRbcEcho { instance, root, nack };
    26 => BaseRbcReady { instance, root, nack };
    27 => BaseRbcNack { instance, root, nack };
    28 => BaseCbcEcho { instance, share, nack };
    29 => BaseCbcFinish { instance, root, sig, nack };
    30 => BaseCbcNack { instance, nack };
    31 => BasePrbcDone { instance, share, nack };
    32 => BasePrbcProof { instance, proof, nack };
    33 => BaseAbaVote { flavor, inst };
    34 => BaseAbaCoin { flavor, coin, share, share_nack } via put_base_coin, get_base_coin;
    35 => BaseDecShare { proposer, share, nack };
}

fn put_aba_sc(
    s: &mut impl Sink,
    flavor: &CoinFlavor,
    insts: &[AbaScInst],
    coin_shares: &[(u16, SigShare)],
    share_nack: &Bitmap,
) -> Result<(), WireError> {
    flavor.put(s)?;
    s.count8(insts.len())?;
    insts.iter().try_for_each(|inst| inst.put(s))?;
    s.count8(coin_shares.len())?;
    for (round, share) in coin_shares {
        s.u16(*round);
        s.coin_share(share, *flavor);
    }
    share_nack.put(s)
}

fn get_aba_sc(r: &mut WireReader<'_>) -> Result<Body, WireError> {
    let flavor = CoinFlavor::get(r)?;
    let insts = Vec::get(r)?;
    let count = usize::from(r.u8()?);
    let coin_shares = r.list(count, count, |r| Ok((r.u16()?, r.sig_share()?)))?;
    Ok(Body::AbaSc { flavor, insts, coin_shares, share_nack: r.bitmap()? })
}

fn put_base_coin(
    s: &mut impl Sink,
    flavor: &CoinFlavor,
    coin: &u16,
    share: &SigShare,
    share_nack: &Bitmap,
) -> Result<(), WireError> {
    flavor.put(s)?;
    s.u16(*coin);
    s.coin_share(share, *flavor);
    share_nack.put(s)
}

fn get_base_coin(r: &mut WireReader<'_>) -> Result<Body, WireError> {
    Ok(Body::BaseAbaCoin {
        flavor: CoinFlavor::get(r)?,
        coin: r.u16()?,
        share: r.sig_share()?,
        share_nack: r.bitmap()?,
    })
}

/// One byte: 0 for threshold signatures, anything else coin flipping.
impl Wire for CoinFlavor {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.u8(match self {
            CoinFlavor::ThreshSig => 0,
            CoinFlavor::CoinFlip => 1,
        });
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(if r.u8()? == 0 { CoinFlavor::ThreshSig } else { CoinFlavor::CoinFlip })
    }
}

/// Votes pack four to a byte (2 bits each) behind a u8 count, matching the
/// paper's "2N bits" accounting.
impl Wire for Vec<Vote> {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.count8(self.len())?;
        for chunk in self.chunks(4) {
            s.u8(chunk.iter().enumerate().fold(0, |b, (i, v)| b | v.code() << (i * 2)));
        }
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let count = usize::from(r.u8()?);
        let packed = r.take(count.div_ceil(4))?;
        let votes = packed.iter().flat_map(|b| (0..4).map(move |i| Vote::from_code(b >> (i * 2))));
        Ok(votes.take(count).collect())
    }
}

/// Instance, round, decided vote, then the three phase report lists.
impl Wire for AbaLcInst {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.u8(self.instance);
        s.u16(self.round);
        s.u8(self.decided.code());
        self.reports.iter().try_for_each(|phase| phase.put(s))
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (instance, round, decided) = (r.u8()?, r.u16()?, Vote::from_code(r.u8()?));
        let reports = [Vec::get(r)?, Vec::get(r)?, Vec::get(r)?];
        Ok(AbaLcInst { instance, round, reports, decided })
    }
}

/// Instance, round, then BVAL / AUX / decided packed into one byte.
impl Wire for AbaScInst {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.u8(self.instance);
        s.u16(self.round);
        s.u8(self.bval.code() | self.aux.code() << 2 | self.decided.code() << 4);
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (instance, round, packed) = (r.u8()?, r.u16()?, r.u8()?);
        Ok(AbaScInst {
            instance,
            round,
            bval: BinValues::from_code(packed & 0b11),
            aux: Vote::from_code(packed >> 2),
            decided: Vote::from_code(packed >> 4),
        })
    }
}

/// A full packet: header + body + packet signature (the paper's four-part
/// payload).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Sending node.
    pub src: u16,
    /// Protocol session the packet belongs to (epoch / component binding).
    pub session: u64,
    /// The payload.
    pub body: Body,
}

/// Nominal bytes charged for the paper's packet header (node identity,
/// packet type, routing information).
const HEADER_NOMINAL: usize = 8;

/// Real bytes of the trailing packet signature: `R` and `z`, 32 each.
const SIGNATURE_LEN: usize = 64;

impl Envelope {
    /// Encodes and signs: returns `(bytes, nominal_len)`.
    ///
    /// The signature is a real Schnorr signature over the encoded header and
    /// body; the nominal length charges the micro-ecc curve's signature
    /// size from the sizing profile.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] when the body does not fit the wire format's
    /// length prefixes; callers drop the send instead of aborting.
    pub fn seal(&self, keypair: &KeyPair, sizing: &Sizing) -> Result<(Bytes, usize), WireError> {
        self.seal_tagged(keypair, sizing, 0)
    }

    /// [`Envelope::seal`] with a key-epoch tag binding share-carrying
    /// traffic to a threshold-key generation. The tag is *trailing-
    /// optional*: a zero tag (every pre-membership deployment) encodes to
    /// nothing, so churn-free byte streams are identical to the untagged
    /// format; a nonzero tag is appended after the body, inside the signed
    /// region.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] under the same conditions as
    /// [`Envelope::seal`].
    pub fn seal_tagged(
        &self,
        keypair: &KeyPair,
        sizing: &Sizing,
        key_epoch: u64,
    ) -> Result<(Bytes, usize), WireError> {
        let (signed, nominal) = self.encode_signed_region(sizing, key_epoch)?;
        Ok((append_signature(keypair, signed), nominal))
    }

    /// The one packet encoder: everything the signature covers (header,
    /// body, key-epoch tag) and the nominal length of the whole packet,
    /// signature included. Sealing is this plus [`append_signature`], now
    /// ([`Envelope::seal_tagged`]) or when the frame is transmitted
    /// ([`crate::send::broadcast_signed`]). The buffer is allocated once, at
    /// the packet's final length: the counting pass that prices the body
    /// also measures it.
    pub(crate) fn encode_signed_region(
        &self,
        sizing: &Sizing,
        key_epoch: u64,
    ) -> Result<(BytesMut, usize), WireError> {
        let (body_len, mut nominal) = self.lengths(sizing)?;
        let tag_len = if key_epoch != 0 { 8 } else { 0 };
        let signed_len = 2 + 8 + body_len + tag_len;
        let mut sink = ByteSink::with_capacity(signed_len + SIGNATURE_LEN);
        sink.u16(self.src);
        sink.u64(self.session);
        self.body.encode_into(&mut sink)?;
        if key_epoch != 0 {
            sink.u64(key_epoch);
            nominal += 8;
        }
        debug_assert_eq!(sink.as_slice().len(), signed_len, "the counting pass measured otherwise");
        Ok((sink.into_mut(), nominal))
    }

    /// Nominal wire length under the paper's packet layout.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] under the same conditions as [`Envelope::seal`].
    pub fn nominal_len(&self, sizing: &Sizing) -> Result<usize, WireError> {
        Ok(self.lengths(sizing)?.1)
    }

    /// The body's real encoded length, and the nominal length of the
    /// packet: the paper's header charge, the body's nominal bytes and the
    /// packet signature.
    fn lengths(&self, sizing: &Sizing) -> Result<(usize, usize), WireError> {
        let mut count = CountSink::new(*sizing);
        self.body.encode_into(&mut count)?;
        let nominal =
            HEADER_NOMINAL + count.total() + sizing.suite.ecdsa.profile().signature_bytes;
        Ok((count.real(), nominal))
    }

    /// Decodes and verifies a sealed packet.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed bytes; `Ok((env, false))` when the bytes
    /// parse but the signature does not verify against `pk_of(src)` (the
    /// caller decides whether to drop — and charges verification cost
    /// either way, as the paper's nodes do).
    pub fn open(
        bytes: &[u8],
        pk_of: impl Fn(u16) -> Option<PublicKey>,
    ) -> Result<(Envelope, bool), WireError> {
        let (env, _, sig_ok) = Self::open_tagged(bytes, pk_of)?;
        Ok((env, sig_ok))
    }

    /// [`Envelope::open`], also recovering the key-epoch tag: `0` when the
    /// packet carries none (the pre-membership format), the signed trailing
    /// value otherwise. Callers drop packets whose tag does not match the
    /// key epoch they expect for the session — a stale-epoch share is
    /// rejected at the door, never handed to a combiner.
    ///
    /// # Errors
    ///
    /// [`WireError`] under the same conditions as [`Envelope::open`].
    pub fn open_tagged(
        bytes: &[u8],
        pk_of: impl Fn(u16) -> Option<PublicKey>,
    ) -> Result<(Envelope, u64, bool), WireError> {
        if bytes.len() < SIGNATURE_LEN {
            return Err(WireError::Truncated);
        }
        let (signed, sig_bytes) = bytes.split_at(bytes.len() - SIGNATURE_LEN);
        let mut r = WireReader::new(signed);
        let src = r.u16()?;
        let session = r.u64()?;
        let body = Body::decode(&mut r)?;
        let key_epoch = match r.remaining() {
            0 => 0,
            8 => r.u64()?,
            _ => return Err(WireError::Malformed("trailing bytes")),
        };
        let mut sig = WireReader::new(sig_bytes);
        let (r_bytes, z_bytes): ([u8; 32], [u8; 32]) = (sig.array()?, sig.array()?);
        let sig_ok = match GroupElem::from_bytes(&r_bytes) {
            Ok(r_elem) => {
                let sig = Signature { r: r_elem, z: Scalar::from_bytes_reduced(&z_bytes) };
                pk_of(src).map(|pk| pk.verify(signed, &sig).is_ok()).unwrap_or(false)
            }
            Err(_) => false,
        };
        Ok((Envelope { src, session, body }, key_epoch, sig_ok))
    }
}

/// The one packet signer: appends the Schnorr signature over `signed` (the
/// output of [`Envelope::encode_signed_region`]). Infallible.
pub(crate) fn append_signature(keypair: &KeyPair, mut signed: BytesMut) -> Bytes {
    let sig = keypair.sign(&signed);
    signed.put_slice(&sig.r.to_bytes());
    signed.put_slice(&sig.z.to_bytes());
    signed.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wbft_crypto::{thresh_sig, EcdsaCurve, ThresholdCurve};

    fn keypair() -> KeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng)
    }

    fn sample_bodies() -> Vec<Body> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (pks, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let share = sks[0].sign_share(b"m");
        let sig = pks.combine(&[share, sks[1].sign_share(b"m")]).unwrap();
        let (_, coin_secrets) =
            wbft_crypto::thresh_coin::deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
        let coin = coin_secrets[0]
            .coin_share(wbft_crypto::thresh_coin::CoinName { session: 1, round: 0, domain: 0 });
        let (enc, enc_secrets) =
            wbft_crypto::thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
        let ct = enc.encrypt(b"l", b"pt", &mut rng);
        let dec = enc_secrets[0].dec_share(&ct);
        let d = Digest32::of(b"proposal");
        vec![
            Body::RbcInit {
                instance: 2,
                frag: 0,
                frag_total: 3,
                root: d,
                data: Bytes::from_static(b"fragment-data"),
                init_nack: {
                    let mut nack = InitNack::new(4);
                    nack.ask(0, Bitmap::from_raw(0b010, 3));
                    nack.ask(2, Bitmap::new(0));
                    nack
                },
            },
            Body::RbcEchoReady {
                roots: vec![d, Digest32::zero(), d, d],
                echo: Bitmap::from_raw(0b1101, 4),
                ready: Bitmap::from_raw(0b0001, 4),
                echo_nack: Bitmap::from_raw(0b0010, 4),
                ready_nack: Bitmap::from_raw(0b1110, 4),
                init_nack: InitNack::new(4),
            },
            Body::CbcEchoFinish {
                echo_shares: vec![(0, share), (3, share)],
                finish_sigs: vec![(1, d, sig)],
                echo_nack: Bitmap::new(4),
                finish_nack: Bitmap::full(4),
                init_nack: InitNack::new(4),
            },
            Body::PrbcDone {
                shares: vec![(2, share)],
                proofs: vec![(0, sig), (1, sig)],
                sig_nack: Bitmap::from_raw(0b1000, 4),
            },
            Body::RbcSmall {
                values: vec![Vote::One, Vote::Zero, Vote::Bot, Vote::Unknown],
                echo: Bitmap::from_raw(0b0111, 4),
                ready: Bitmap::new(4),
                init_nack: Bitmap::new(4),
                echo_nack: Bitmap::new(4),
                ready_nack: Bitmap::new(4),
            },
            Body::CbcSmall {
                values: vec![Bitmap::from_raw(0b0111, 4), Bitmap::new(4)],
                echo_shares: vec![(1, share)],
                finish_sigs: vec![],
                init_nack: Bitmap::new(4),
                echo_nack: Bitmap::new(4),
                finish_nack: Bitmap::new(4),
            },
            Body::AbaLc {
                insts: vec![AbaLcInst {
                    instance: 1,
                    round: 3,
                    reports: [
                        vec![Vote::One; 4],
                        vec![Vote::Unknown, Vote::Zero, Vote::Bot, Vote::One],
                        vec![Vote::Unknown; 4],
                    ],
                    decided: Vote::Unknown,
                }],
            },
            Body::AbaSc {
                flavor: CoinFlavor::ThreshSig,
                insts: vec![AbaScInst {
                    instance: 0,
                    round: 1,
                    bval: BinValues { zero: true, one: true },
                    aux: Vote::One,
                    decided: Vote::Unknown,
                }],
                coin_shares: vec![(1, coin)],
                share_nack: Bitmap::from_raw(0b0011, 4),
            },
            Body::BaseRbcEcho { instance: 3, root: d, nack: 0b011.into() },
            Body::BaseRbcReady { instance: 3, root: d, nack: 0.into() },
            Body::BaseRbcNack { instance: 1, root: d, nack: FrameNack::new(0b111, Bitmap::from_raw(0b1001, 4)) },
            Body::BaseCbcEcho { instance: 1, share, nack: 0b010.into() },
            Body::BaseCbcFinish { instance: 1, root: d, sig, nack: 0b100.into() },
            Body::BaseCbcNack { instance: 0, nack: 0b110.into() },
            Body::BasePrbcDone { instance: 2, share, nack: 1 },
            Body::BasePrbcProof { instance: 2, proof: sig, nack: 0 },
            Body::BaseAbaVote {
                flavor: CoinFlavor::CoinFlip,
                inst: AbaScInst {
                    instance: 0,
                    round: 2,
                    bval: BinValues { zero: false, one: true },
                    aux: Vote::Zero,
                    decided: Vote::Unknown,
                },
            },
            Body::BaseAbaCoin {
                flavor: CoinFlavor::CoinFlip,
                coin: 2,
                share: coin,
                share_nack: Bitmap::from_raw(0b0100, 4),
            },
            Body::DecShareBatch { shares: vec![(0, dec), (2, dec)], dec_nack: Bitmap::new(4) },
            Body::BaseDecShare { proposer: 1, share: dec, nack: 1 },
            Body::GlobalDecision { epoch: 9, digest: d, tx_count: 120 },
            Body::Reshare {
                key_epoch: 3,
                dealer: 2,
                deal: Bytes::from_static(b"opaque-deal-set"),
            },
        ]
    }

    #[test]
    fn all_bodies_roundtrip() {
        for body in sample_bodies() {
            let mut sink = ByteSink::new();
            body.encode_into(&mut sink).unwrap();
            let bytes = sink.into_bytes();
            let mut r = WireReader::new(&bytes);
            let decoded = Body::decode(&mut r).unwrap_or_else(|e| panic!("{body:?}: {e}"));
            assert_eq!(decoded, body);
            assert_eq!(r.remaining(), 0, "{body:?} left bytes");
        }
    }

    #[test]
    fn retired_kinds_are_unknown() {
        // 9–18 and 21 carried per-instance frames without NACK bits, 19 a
        // baseline ABA-LC report no deployment produced, 22 a multi-hop
        // leader complaint nothing ever sent or read. The numbers stay
        // reserved so an old frame cannot decode as something else.
        for kind in (9u8..=19).chain([21, 22]) {
            let mut bytes = vec![kind];
            bytes.extend_from_slice(&[0; 8 + 2 + 32 + 64]);
            let mut r = WireReader::new(&bytes);
            assert_eq!(Body::decode(&mut r), Err(WireError::UnknownKind(kind)));
            assert!(sample_bodies().iter().all(|b| b.kind() != kind));
        }
    }

    #[test]
    fn envelope_seal_open_roundtrip() {
        let kp = keypair();
        let pk = kp.public();
        for body in sample_bodies() {
            let env = Envelope { src: 3, session: 42, body };
            let (bytes, nominal) = env.seal(&kp, &Sizing::light(4)).unwrap();
            assert!(nominal > 0);
            let (opened, sig_ok) = Envelope::open(&bytes, |_| Some(pk)).unwrap();
            assert_eq!(opened, env);
            assert!(sig_ok, "{:?}", env.body);
        }
    }

    #[test]
    fn tampered_envelope_fails_signature() {
        let kp = keypair();
        let env = Envelope {
            src: 0,
            session: 1,
            body: Body::BaseRbcReady { instance: 0, root: Digest32::zero(), nack: 1.into() },
        };
        let (bytes, _) = env.seal(&kp, &Sizing::light(4)).unwrap();
        let mut tampered = bytes.to_vec();
        // Flip the NACK bits inside the body.
        let idx = tampered.len() - 65;
        tampered[idx] ^= 1;
        let (opened, sig_ok) = Envelope::open(&tampered, |_| Some(kp.public())).unwrap();
        assert!(!sig_ok);
        let _ = opened;
    }

    #[test]
    fn wrong_key_fails_signature() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let kp = keypair();
        let other = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
        let env = Envelope {
            src: 0,
            session: 1,
            body: Body::BaseRbcReady { instance: 0, root: Digest32::zero(), nack: 0.into() },
        };
        let (bytes, _) = env.seal(&kp, &Sizing::light(4)).unwrap();
        let (_, sig_ok) = Envelope::open(&bytes, |_| Some(other.public())).unwrap();
        assert!(!sig_ok);
    }

    #[test]
    fn nominal_length_uses_paper_sizes() {
        // A batched ER packet for N=4: header 8 + roots (1 + 4×32) + five
        // 4-bit bitmaps (1 + 1 each) + kind byte + secp160r1 signature 40.
        let env = Envelope {
            src: 0,
            session: 0,
            body: Body::RbcEchoReady {
                roots: vec![Digest32::zero(); 4],
                echo: Bitmap::new(4),
                ready: Bitmap::new(4),
                echo_nack: Bitmap::new(4),
                ready_nack: Bitmap::new(4),
                init_nack: InitNack::new(4),
            },
        };
        let nominal = env.nominal_len(&Sizing::light(4)).unwrap();
        assert_eq!(nominal, 8 + 1 + (1 + 128) + 5 * 2 + 40);
    }

    #[test]
    fn batched_er_packet_fits_a_lora_frame() {
        // The design requires one batched vote packet per channel access to
        // fit the 255-byte LoRa frame at N=4.
        let env = Envelope {
            src: 0,
            session: 0,
            body: Body::RbcEchoReady {
                roots: vec![Digest32::of(b"p"); 4],
                echo: Bitmap::full(4),
                ready: Bitmap::full(4),
                echo_nack: Bitmap::full(4),
                ready_nack: Bitmap::full(4),
                init_nack: {
                    let mut nack = InitNack::new(4);
                    (0..4).for_each(|j| nack.ask(j, Bitmap::new(0)));
                    nack
                },
            },
        };
        assert!(env.nominal_len(&Sizing::light(4)).unwrap() <= 255);
    }

    #[test]
    fn truncated_envelope_errors() {
        assert_eq!(Envelope::open(&[0u8; 10], |_| None), Err(WireError::Truncated));
    }

    #[test]
    fn zero_key_epoch_tag_is_byte_identical_to_the_untagged_format() {
        let kp = keypair();
        for body in sample_bodies() {
            let env = Envelope { src: 1, session: 77, body };
            let (plain, nom_plain) = env.seal(&kp, &Sizing::light(4)).unwrap();
            let (tagged, nom_tagged) = env.seal_tagged(&kp, &Sizing::light(4), 0).unwrap();
            assert_eq!(plain, tagged);
            assert_eq!(nom_plain, nom_tagged);
        }
    }

    #[test]
    fn key_epoch_tag_roundtrips_and_is_signed() {
        let kp = keypair();
        for body in sample_bodies() {
            let env = Envelope { src: 2, session: 99, body };
            let (bytes, nominal) = env.seal_tagged(&kp, &Sizing::light(4), 5).unwrap();
            assert_eq!(nominal, env.nominal_len(&Sizing::light(4)).unwrap() + 8);
            let (opened, key_epoch, sig_ok) =
                Envelope::open_tagged(&bytes, |_| Some(kp.public())).unwrap();
            assert_eq!(opened, env);
            assert_eq!(key_epoch, 5);
            assert!(sig_ok, "{:?}", env.body);
            // The legacy entry point still parses tagged frames.
            let (opened, sig_ok) = Envelope::open(&bytes, |_| Some(kp.public())).unwrap();
            assert_eq!(opened, env);
            assert!(sig_ok);
            // Stripping or altering the tag breaks the signature.
            let mut stripped = bytes.to_vec();
            stripped.drain(bytes.len() - 72..bytes.len() - 64);
            if let Ok((_, tag, sig_ok)) = Envelope::open_tagged(&stripped, |_| Some(kp.public())) {
                assert!(!sig_ok || tag != 5);
            }
            let mut flipped = bytes.to_vec();
            let tag_at = bytes.len() - 65;
            flipped[tag_at] ^= 1;
            let (_, _, sig_ok) = Envelope::open_tagged(&flipped, |_| Some(kp.public())).unwrap();
            assert!(!sig_ok);
        }
    }

    #[test]
    fn untagged_frames_open_with_tag_zero() {
        let kp = keypair();
        let env = Envelope {
            src: 0,
            session: 3,
            body: Body::BaseRbcReady { instance: 1, root: Digest32::zero(), nack: 0.into() },
        };
        let (bytes, _) = env.seal(&kp, &Sizing::light(4)).unwrap();
        let (opened, key_epoch, sig_ok) =
            Envelope::open_tagged(&bytes, |_| Some(kp.public())).unwrap();
        assert_eq!(opened, env);
        assert_eq!(key_epoch, 0);
        assert!(sig_ok);
    }

    #[test]
    fn oversized_fragment_data_errors_instead_of_panicking() {
        // 65535 bytes of fragment data seals; 65536 is an Oversize error.
        let kp = keypair();
        let at_limit = Envelope {
            src: 0,
            session: 0,
            body: Body::RbcInit {
                instance: 0,
                frag: 0,
                frag_total: 1,
                root: Digest32::of(b"big"),
                data: Bytes::from(vec![7u8; u16::MAX as usize]),
                init_nack: InitNack::new(4),
            },
        };
        assert!(at_limit.seal(&kp, &Sizing::light(4)).is_ok());
        let over = Envelope {
            src: 0,
            session: 0,
            body: Body::RbcInit {
                instance: 0,
                frag: 0,
                frag_total: 1,
                root: Digest32::of(b"big"),
                data: Bytes::from(vec![7u8; u16::MAX as usize + 1]),
                init_nack: InitNack::new(4),
            },
        };
        assert_eq!(
            over.seal(&kp, &Sizing::light(4)),
            Err(WireError::Oversize("byte string"))
        );
        assert_eq!(
            over.nominal_len(&Sizing::light(4)),
            Err(WireError::Oversize("byte string"))
        );
    }

    #[test]
    fn oversized_list_count_errors_instead_of_truncating() {
        // 256 echo shares would truncate to a 0 count prefix under the old
        // `len() as u8` encoding; now it is a hard error on both sinks.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (_, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let share = sks[0].sign_share(b"m");
        let body = Body::CbcEchoFinish {
            echo_shares: vec![(0, share); 256],
            finish_sigs: Vec::new(),
            echo_nack: Bitmap::new(4),
            finish_nack: Bitmap::new(4),
            init_nack: InitNack::new(4),
        };
        let mut sink = ByteSink::new();
        assert_eq!(
            body.encode_into(&mut sink),
            Err(WireError::Oversize("list count"))
        );
        let mut count = CountSink::new(Sizing::light(4));
        assert_eq!(
            body.encode_into(&mut count),
            Err(WireError::Oversize("list count"))
        );
    }
}
