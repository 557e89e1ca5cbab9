//! Binary Merkle trees over SHA-256.
//!
//! Available to the broadcast layer for committing to multi-fragment
//! proposals (per-fragment inclusion proofs against an agreed root). The
//! current RBC/CBC components commit with a whole-value digest instead —
//! fragments are verified after reassembly — so this module is the
//! upgrade path for very large proposals where per-fragment verification
//! pays off.

use crate::hash::Digest32;

/// A Merkle commitment over a sequence of leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, levels.last() = [root]
    levels: Vec<Vec<Digest32>>,
}

/// An inclusion proof for one leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Zero-based index of the proven leaf.
    pub index: usize,
    /// Sibling hashes from leaf level to just below the root.
    pub path: Vec<Digest32>,
}

fn hash_leaf(data: &[u8]) -> Digest32 {
    Digest32::of_parts("wbft/merkle/leaf", &[data])
}

fn hash_node(left: &Digest32, right: &Digest32) -> Digest32 {
    Digest32::of_parts("wbft/merkle/node", &[left.as_bytes(), right.as_bytes()])
}

impl MerkleTree {
    /// Builds a tree over the given leaves. Odd levels duplicate the last
    /// node (Bitcoin-style).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty — an empty commitment is meaningless; the
    /// broadcast layer never produces one.
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        assert!(!leaves.is_empty(), "cannot build a Merkle tree over zero leaves");
        let mut levels = vec![leaves.iter().map(|l| hash_leaf(l.as_ref())).collect::<Vec<_>>()];
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let right = pair.get(1).unwrap_or(&pair[0]);
                next.push(hash_node(&pair[0], right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root commitment.
    pub fn root(&self) -> Digest32 {
        *self.levels.last().unwrap().first().unwrap()
    }

    /// Number of leaves committed.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Produces the inclusion proof for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn proof(&self, index: usize) -> MerkleProof {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut path = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if i.is_multiple_of(2) {
                *level.get(i + 1).unwrap_or(&level[i])
            } else {
                level[i - 1]
            };
            path.push(sibling);
            i /= 2;
        }
        MerkleProof { index, path }
    }
}

impl MerkleProof {
    /// Verifies that `leaf_data` is committed at `self.index` under `root`.
    pub fn verify(&self, root: &Digest32, leaf_data: &[u8]) -> bool {
        let mut acc = hash_leaf(leaf_data);
        let mut i = self.index;
        for sibling in &self.path {
            acc = if i.is_multiple_of(2) { hash_node(&acc, sibling) } else { hash_node(sibling, &acc) };
            i /= 2;
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("fragment-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::build(&leaves(1));
        assert_eq!(tree.leaf_count(), 1);
        let p = tree.proof(0);
        assert!(p.verify(&tree.root(), b"fragment-0"));
        assert!(p.path.is_empty());
    }

    #[test]
    fn proofs_verify_for_all_leaf_counts() {
        for n in 1..=9 {
            let data = leaves(n);
            let tree = MerkleTree::build(&data);
            for (i, leaf) in data.iter().enumerate() {
                let p = tree.proof(i);
                assert!(p.verify(&tree.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let data = leaves(4);
        let tree = MerkleTree::build(&data);
        let p = tree.proof(2);
        assert!(!p.verify(&tree.root(), b"fragment-3"));
        assert!(!p.verify(&tree.root(), b"garbage"));
    }

    #[test]
    fn wrong_index_fails() {
        let data = leaves(4);
        let tree = MerkleTree::build(&data);
        let mut p = tree.proof(2);
        p.index = 1;
        assert!(!p.verify(&tree.root(), b"fragment-2"));
    }

    #[test]
    fn different_leaf_sets_have_different_roots() {
        let a = MerkleTree::build(&leaves(4));
        let b = MerkleTree::build(&leaves(5));
        assert_ne!(a.root(), b.root());
        let mut mutated = leaves(4);
        mutated[3][0] ^= 1;
        let c = MerkleTree::build(&mutated);
        assert_ne!(a.root(), c.root());
    }

    #[test]
    fn leaf_node_domains_differ() {
        // A leaf equal to the concatenation of two hashes must not collide
        // with an internal node (second-preimage resistance of the encoding).
        let d1 = hash_leaf(b"x");
        let d2 = hash_leaf(b"y");
        let mut concat = Vec::new();
        concat.extend_from_slice(d1.as_bytes());
        concat.extend_from_slice(d2.as_bytes());
        assert_ne!(hash_leaf(&concat), hash_node(&d1, &d2));
    }
}
