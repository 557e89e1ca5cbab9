//! Batched provable reliable broadcast (PRBC) — RBC plus a DONE phase that
//! produces a threshold-signature *delivery proof* per instance (paper
//! Fig. 4a blue phase / Fig. 4c packet).
//!
//! After delivering instance `j`, a node signs a `(f, n)`-threshold share
//! over `(session, j, root)`; any `f+1` shares combine into a proof that at
//! least one honest node delivered `j` — the precondition Dumbo needs
//! before an instance's value may be referenced by the agreement phase.
//! DONE shares are batched into their own packet type because threshold
//! material dominates packet space (§IV-C1).

use crate::context::{Actions, Broadcaster, Params, ProvableBroadcaster, RetxState};
use crate::rbc::RbcBatch;
use crate::share_buf::SigShareBuf;
use bytes::Bytes;
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, SigShare, ThresholdSignature};
use wbft_net::{Bitmap, Body, RetransmitPolicy};

/// Timer ids: 0 is used by the inner RBC; the DONE stage uses 1.
const TIMER_DONE_RETX: u32 = 1;

/// The message a DONE share signs.
fn done_msg(session: u64, instance: usize, root: &Digest32) -> Vec<u8> {
    let mut m = Vec::with_capacity(64);
    m.extend_from_slice(b"wbft/prbc/done");
    m.extend_from_slice(&session.to_le_bytes());
    m.extend_from_slice(&(instance as u64).to_le_bytes());
    m.extend_from_slice(root.as_bytes());
    m
}

#[derive(Debug, Default)]
struct DoneInst {
    /// This node's DONE share over the delivered root, signed once.
    my_share: Option<SigShare>,
    /// Buffered DONE shares, batch-verified at quorum (see `share_buf`).
    shares: SigShareBuf,
    proof: Option<ThresholdSignature>,
}

/// N parallel PRBC instances under ConsensusBatcher.
#[derive(Debug)]
pub struct PrbcBatch {
    rbc: RbcBatch,
    keys: PublicKeySet,
    secret: SecretKeyShare,
    done: Vec<DoneInst>,
    dirty: bool,
    timer_armed: bool,
    retx: RetxState,
}

impl PrbcBatch {
    /// Creates the batch over the `(f, n)` PRBC proof key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        // Window tables are shared by every clone of the dealt key set, so
        // this builds them once per deployment, not once per node.
        keys.precompute();
        PrbcBatch {
            rbc: RbcBatch::new(p),
            done: (0..p.n).map(|_| DoneInst::default()).collect(),
            dirty: false,
            timer_armed: false,
            retx: RetxState::new(RetransmitPolicy::lora_class(), &p),
            keys,
            secret,
        }
    }

    fn p(&self) -> &Params {
        self.rbc.params()
    }

    /// The delivery proof of an instance, once `f+1` DONE shares combined.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.done.get(instance).and_then(|d| d.proof.as_ref())
    }

    /// Instances with a completed proof.
    pub fn proven_count(&self) -> usize {
        self.done.iter().filter(|d| d.proof.is_some()).count()
    }

    /// Verifies a proof produced elsewhere (Dumbo's CBC values carry them).
    pub fn verify_proof(
        session: u64,
        keys: &PublicKeySet,
        instance: usize,
        root: &Digest32,
        proof: &ThresholdSignature,
    ) -> bool {
        keys.verify(&done_msg(session, instance, root), proof).is_ok()
    }

    /// Signs DONE shares for instances the inner RBC has newly delivered.
    fn sign_new_done(&mut self, acts: &mut Actions) {
        for j in 0..self.p().n {
            if self.done[j].my_share.is_some() || self.rbc.delivered(j).is_none() {
                continue;
            }
            let Some(root) = self.rbc.delivered_root(j) else { continue };
            acts.charge(self.keys.profile().sign_share_us);
            let share = self.secret.sign_share(&done_msg(self.p().session, j, &root));
            self.done[j].my_share = Some(share);
            self.record_share(j, share, acts, true);
            self.dirty = true;
        }
    }

    fn record_share(&mut self, instance: usize, share: SigShare, acts: &mut Actions, own: bool) {
        if instance >= self.p().n || self.done[instance].proof.is_some() {
            return;
        }
        let Some(root) = self.rbc.delivered_root(instance) else {
            // Can't validate a share against an unknown root yet; our RBC
            // NACK machinery will fetch the value first.
            return;
        };
        // Buffer now, batch-verify at quorum; the virtual verify cost is
        // still charged per accepted share, as before.
        let n = self.p().n;
        if !self.done[instance].shares.insert(share, n) {
            return;
        }
        if !own {
            acts.charge(self.keys.profile().verify_share_us);
        }
        let need = self.p().f + 1;
        let combine_cost = self.keys.profile().combine_us;
        let msg = done_msg(self.p().session, instance, &root);
        if self.done[instance].shares.settle(&self.keys, &msg, need) {
            acts.charge(combine_cost);
            if let Ok(sig) = self.keys.combine(self.done[instance].shares.shares()) {
                self.done[instance].proof = Some(sig);
                self.dirty = true;
            }
        }
    }

    fn record_proof(&mut self, instance: usize, sig: ThresholdSignature, acts: &mut Actions) {
        if instance >= self.p().n || self.done[instance].proof.is_some() {
            return;
        }
        let Some(root) = self.rbc.delivered_root(instance) else { return };
        acts.charge(self.keys.profile().verify_signature_us);
        if self.keys.verify(&done_msg(self.p().session, instance, &root), &sig).is_ok() {
            self.done[instance].proof = Some(sig);
            self.dirty = true;
        }
    }

    fn build_done(&self) -> Body {
        let n = self.p().n;
        let mut roots = vec![Digest32::zero(); n];
        let mut shares = Vec::new();
        let mut proofs = Vec::new();
        let mut sig_nack = Bitmap::new(n);
        for (j, root_slot) in roots.iter_mut().enumerate() {
            if let Some(root) = self.rbc.delivered_root(j) {
                *root_slot = root;
                if let Some(share) = self.done[j].my_share {
                    shares.push((j as u8, share));
                }
            }
            match &self.done[j].proof {
                Some(p) => proofs.push((j as u8, *p)),
                None => sig_nack.set(j, true),
            }
        }
        Body::PrbcDone { roots, shares, proofs, sig_nack }
    }

    fn flush(&mut self, acts: &mut Actions) {
        self.sign_new_done(acts);
        if self.dirty {
            acts.send(self.build_done());
            self.dirty = false;
            self.retx.reset();
        }
        if !self.timer_armed {
            self.timer_armed = true;
            let d = self.retx.next_delay();
            acts.timer(d, TIMER_DONE_RETX);
        }
    }

    fn is_complete(&self) -> bool {
        self.done.iter().all(|d| d.proof.is_some())
    }
}

impl ProvableBroadcaster for PrbcBatch {
    fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        PrbcBatch::proof(self, instance)
    }

    fn proven_count(&self) -> usize {
        PrbcBatch::proven_count(self)
    }
}

impl Broadcaster for PrbcBatch {
    fn start(&mut self, my_value: Bytes, acts: &mut Actions) {
        self.rbc.start(my_value, acts);
        self.flush(acts);
    }

    fn handle(&mut self, from: usize, body: &Body, acts: &mut Actions) {
        match body {
            Body::PrbcDone { shares, proofs, sig_nack, .. } => {
                for (j, share) in shares {
                    self.record_share(*j as usize, *share, acts, false);
                }
                for (j, sig) in proofs {
                    self.record_proof(*j as usize, *sig, acts);
                }
                if sig_nack.len() == self.p().n
                    && sig_nack.iter_set().any(|j| self.done[j].proof.is_some())
                {
                    self.retx.peer_behind = true;
                }
            }
            _ => self.rbc.handle(from, body, acts),
        }
        self.flush(acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if local_id == TIMER_DONE_RETX {
            if self.retx.should_send(self.is_complete()) {
                acts.send(self.build_done());
                self.retx.peer_behind = false;
            }
            let d = self.retx.next_delay();
            acts.timer(d, TIMER_DONE_RETX);
        } else {
            self.rbc.on_timer(local_id, acts);
            self.flush(acts);
        }
    }

    fn delivered(&self, instance: usize) -> Option<&Bytes> {
        self.rbc.delivered(instance)
    }

    fn delivered_count(&self) -> usize {
        self.rbc.delivered_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::deal_node_crypto;
    use crate::rbc::tests::run_mesh;
    use rand::SeedableRng;
    use wbft_crypto::CryptoSuite;

    fn make() -> Vec<PrbcBatch> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        deal_node_crypto(4, CryptoSuite::light(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, c)| PrbcBatch::new(Params::new(4, i, 8), c.prbc_pub, c.prbc_sec))
            .collect()
    }

    #[test]
    fn delivers_and_proves_all_instances() {
        let mut nodes = make();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("prbc-{i}"))).collect();
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| n.handle(from, body, acts),
            |n| n.delivered_count() == 4 && n.proven_count() == 4,
        );
        for node in &nodes {
            for (j, val) in vals.iter().enumerate() {
                assert_eq!(node.delivered(j), Some(val));
                let proof = node.proof(j).unwrap();
                let root = Digest32::of(val);
                assert!(PrbcBatch::verify_proof(8, &node.keys, j, &root, proof));
                assert!(!PrbcBatch::verify_proof(8, &node.keys, (j + 1) % 4, &root, proof));
            }
        }
    }

    #[test]
    fn proof_requires_f_plus_1_shares() {
        // A single node's own share must not produce a proof (f=1 → 2).
        let mut nodes = make();
        let mut acts = Actions::new();
        nodes[0].start(Bytes::from_static(b"solo"), &mut acts);
        assert_eq!(nodes[0].proven_count(), 0);
        assert!(nodes[0].proof(0).is_none());
    }

    #[test]
    fn proofs_spread_via_gossip() {
        // Once one node holds a proof, a node that only exchanges DONE
        // packets with it obtains the proof too.
        let mut nodes = make();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("g-{i}"))).collect();
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| n.handle(from, body, acts),
            |n| n.proven_count() == 4,
        );
        // Build a fresh node that only saw RBC traffic (simulate by making a
        // new node, replaying INITs + ERs from node 0's perspective is
        // overkill — instead check the gossip packet carries proofs).
        let pkt = nodes[0].build_done();
        match pkt {
            Body::PrbcDone { proofs, .. } => assert_eq!(proofs.len(), 4),
            _ => unreachable!(),
        }
    }
}
