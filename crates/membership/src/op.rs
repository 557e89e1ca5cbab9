//! Membership operations as a reserved transaction class.
//!
//! Join/leave requests travel the ordinary mempool → batch → consensus
//! path, so the chain itself is the single ordered record of membership
//! changes: whatever epoch a [`MembershipOp`] commits in, every honest
//! node sees it at the same chain position and derives the same committee
//! schedule. The ops are distinguished from client payloads by a magic
//! prefix no sane client payload starts with; [`decode_op`] is total over
//! arbitrary bytes and simply returns `None` for client transactions.

use bytes::Bytes;
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::WireError;

/// Magic prefix reserving the membership transaction class.
pub const MEMBERSHIP_TX_MAGIC: &[u8; 8] = b"WBFT/MEM";

/// A membership change request, identified by the node's *global* id (its
/// simulator/transport identity, stable across committee reconfigurations
/// — committee slots are derived, never carried on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MembershipOp {
    /// Admit `0` as a validator.
    Join(u16),
    /// Retire `0` from the validator set.
    Leave(u16),
}

impl MembershipOp {
    /// The global node id the op concerns.
    pub fn node(&self) -> u16 {
        match self {
            MembershipOp::Join(n) | MembershipOp::Leave(n) => *n,
        }
    }
}

// A churn plan's op in reports and fixtures: `{"op": "join", "node": 4}`.
wbft_report::json_tagged! {
    MembershipOp by "op" {
        Join = "join" (node),
        Leave = "leave" (node),
    }
}

impl core::fmt::Display for MembershipOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MembershipOp::Join(n) => write!(f, "join({n})"),
            MembershipOp::Leave(n) => write!(f, "leave({n})"),
        }
    }
}

/// Encodes an op as a reserved-class transaction: magic, kind byte, node id.
pub fn encode_op(op: MembershipOp) -> Bytes {
    let (kind, node) = match op {
        MembershipOp::Join(n) => (0, n),
        MembershipOp::Leave(n) => (1, n),
    };
    let mut s = ByteSink::new();
    s.raw(MEMBERSHIP_TX_MAGIC);
    s.u8(kind);
    s.u16(node);
    s.into_bytes()
}

/// Decodes a reserved-class transaction back into an op. Returns `None`
/// for anything that is not an exactly well-formed membership tx — client
/// payloads, truncated bytes, unknown kinds, trailing garbage.
pub fn decode_op(tx: &[u8]) -> Option<MembershipOp> {
    WireReader::exact(tx, |r| {
        if r.array()? != *MEMBERSHIP_TX_MAGIC {
            return Err(WireError::Malformed("membership magic"));
        }
        let (kind, node) = (r.u8()?, r.u16()?);
        match kind {
            0 => Ok(MembershipOp::Join(node)),
            1 => Ok(MembershipOp::Leave(node)),
            _ => Err(WireError::Malformed("membership op kind")),
        }
    })
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_roundtrip() {
        for op in [MembershipOp::Join(0), MembershipOp::Leave(4), MembershipOp::Join(u16::MAX)] {
            assert_eq!(decode_op(&encode_op(op)), Some(op));
        }
    }

    #[test]
    fn client_payloads_and_malformed_bytes_decode_to_none() {
        assert_eq!(decode_op(b"tx-0001"), None);
        assert_eq!(decode_op(b""), None);
        assert_eq!(decode_op(MEMBERSHIP_TX_MAGIC), None); // truncated
        let mut long = encode_op(MembershipOp::Join(1)).to_vec();
        long.push(0);
        assert_eq!(decode_op(&long), None); // trailing garbage
        let mut bad_kind = encode_op(MembershipOp::Join(1)).to_vec();
        bad_kind[8] = 7;
        assert_eq!(decode_op(&bad_kind), None);
    }
}
