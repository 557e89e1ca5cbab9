//! Batched provable reliable broadcast (PRBC) — RBC plus a DONE phase that
//! produces a threshold-signature *delivery proof* per instance (paper
//! Fig. 4a blue phase / Fig. 4c packet).
//!
//! After delivering instance `j`, a node signs a `(f, n)`-threshold share
//! over `(session, j, root)`; any `f+1` shares combine into a proof that at
//! least one honest node delivered `j` — the precondition Dumbo needs
//! before an instance's value may be referenced by the agreement phase.
//! A proof is held only beside its delivered value, so Dumbo's `W` names
//! proven instances by id alone: DONE packets bring every node the proofs.
//! DONE shares are batched into their own packet type because threshold
//! material dominates packet space (§IV-C1). Signing, collecting and
//! combining them is `instance::Certificates`, the certificate phase CBC
//! runs too; shares and proofs are checked against the root this node
//! delivered, so neither is taken before it has — which is why a DONE
//! packet carries no roots.

use crate::context::{Actions, Batcher, Broadcaster, Params};
use crate::instance::{stated, Certificates};
use crate::rbc::RbcBatch;
use bytes::Bytes;
use wbft_crypto::thresh_sig::{PublicKeySet, SecretKeyShare, ThresholdSignature};
use wbft_net::Body;

/// Timer ids: 0 is used by the inner RBC; the DONE stage uses 1.
const TIMER_DONE_RETX: u32 = 1;

/// N parallel PRBC instances under ConsensusBatcher.
#[derive(Debug)]
pub struct PrbcBatch {
    rbc: RbcBatch,
    certs: Certificates,
    out: Batcher,
}

impl PrbcBatch {
    /// Creates the batch over the `(f, n)` PRBC proof key set.
    pub fn new(p: Params, keys: PublicKeySet, secret: SecretKeyShare) -> Self {
        PrbcBatch {
            rbc: RbcBatch::new(p),
            certs: Certificates::prbc_done(p, keys, secret),
            out: Batcher::new(&p, TIMER_DONE_RETX),
        }
    }

    fn p(&self) -> &Params {
        self.rbc.params()
    }

    /// The delivery proof of an instance, once `f+1` DONE shares combined.
    pub fn proof(&self, instance: usize) -> Option<&ThresholdSignature> {
        self.certs.cert(instance)
    }

    /// Instances with a completed proof.
    pub fn proven_count(&self) -> usize {
        self.certs.count()
    }

    fn build_done(&self) -> Body {
        Body::PrbcDone {
            shares: self.certs.shares(),
            proofs: self.certs.certificates(),
            sig_nack: self.certs.finish_nack(),
        }
    }

    fn flush(&mut self, acts: &mut Actions) {
        // DONE shares for instances the inner RBC has newly delivered.
        for j in 0..self.p().n {
            if let Some(root) = self.rbc.delivered_root(j) {
                self.out.changed_if(self.certs.sign(j, &root, acts));
            }
        }
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
            Body::PrbcDone { shares, proofs, sig_nack } => {
                // Shares and proofs for an instance not delivered here yet
                // are dropped: the RBC NACK machinery fetches the value
                // first.
                for (j, share) in shares {
                    let j = *j as usize;
                    if let Some(root) = self.rbc.delivered_root(j) {
                        self.out.changed_if(self.certs.record(j, &root, *share, acts));
                    }
                }
                for (j, sig) in proofs {
                    let j = *j as usize;
                    if let Some(root) = self.rbc.delivered_root(j) {
                        self.out.changed_if(self.certs.adopt(j, &root, sig, acts));
                    }
                }
                let named = shares.iter().map(|e| e.0).chain(proofs.iter().map(|e| e.0));
                let named = named.map(usize::from).chain(sig_nack.iter_set());
                self.certs.heard(from, sig_nack, &stated(self.p(), named));
                if sig_nack.len() == self.p().n {
                    for j in sig_nack.iter_set().filter(|&j| self.certs.cert(j).is_some()) {
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
    use crate::instance::done_msg;
    use crate::rbc::tests::{run_mesh, Packing, PACKINGS};
    use rand::SeedableRng;
    use wbft_crypto::hash::Digest32;
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
                assert!(node.certs.keys.verify(&done_msg(8, j, &root), proof).is_ok());
                assert!(node.certs.keys.verify(&done_msg(8, (j + 1) % 4, &root), proof).is_err());
            }
        }
    }

    #[test]
    fn a_done_packet_without_roots_combines_shares_and_adopts_proofs() {
        // Every node delivers every instance over RBC alone. Node 0's DONE
        // shares then combine at node 2 with its own (f + 1 = 2), against
        // the roots node 2 delivered; node 3 adopts node 2's proofs.
        let mut nodes = make();
        let vals: Vec<Bytes> = (0..4).map(|i| Bytes::from(format!("d-{i}"))).collect();
        let mut i = 0;
        run_mesh(
            &mut nodes,
            |n, acts| {
                n.rbc.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| n.rbc.handle(from, body, acts),
            |n| n.delivered_count() == 4,
        );
        let mut acts = Actions::new();
        nodes[0].flush(&mut acts);
        let from_0 = nodes[0].build_done();
        let Body::PrbcDone { shares, proofs, .. } = &from_0 else { unreachable!() };
        assert_eq!((shares.len(), proofs.len()), (4, 0), "a share per delivered instance");
        nodes[2].handle(0, &from_0, &mut acts);
        assert_eq!(nodes[2].proven_count(), 4);
        let Body::PrbcDone { proofs, sig_nack, .. } = nodes[2].build_done() else { unreachable!() };
        let proofs_only = Body::PrbcDone { shares: Vec::new(), proofs, sig_nack };
        nodes[3].handle(2, &proofs_only, &mut acts);
        assert_eq!(nodes[3].proven_count(), 4);
        for (j, val) in vals.iter().enumerate() {
            let proof = nodes[3].proof(j).unwrap();
            assert!(nodes[3].certs.keys.verify(&done_msg(8, j, &Digest32::of(val)), proof).is_ok());
        }
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
        // A restarted node 3 that delivered every value over RBC alone and
        // holds no proof; its DONE packet NACKs every one.
        let mut fresh = make();
        let mut i = 0;
        run_mesh(
            &mut fresh,
            |n, acts| {
                n.rbc.start(vals[i].clone(), acts);
                i += 1;
            },
            |n, from, body, acts| n.rbc.handle(from, body, acts),
            |n| n.delivered_count() == 4,
        );
        let mut lagging = fresh.remove(3);
        let mut acts = Actions::new();
        lagging.flush(&mut acts);
        assert_eq!(lagging.proven_count(), 0);
        nodes[0].handle(3, &lagging.build_done(), &mut acts);
        let pkt = nodes[0].build_done();
        match &pkt {
            Body::PrbcDone { proofs, .. } => assert_eq!(proofs.len(), 4),
            _ => unreachable!(),
        }
        lagging.handle(0, &pkt, &mut acts);
        assert_eq!(lagging.proven_count(), 4);
    }
}
