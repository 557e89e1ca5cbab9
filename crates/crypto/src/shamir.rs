//! Shamir secret sharing over the exponent field `GF(q)`.
//!
//! Every threshold scheme in this crate (signatures, coins, encryption)
//! deals its secret with a degree-`t` polynomial here, so a coalition of
//! `t` shares learns nothing and any `t+1` shares reconstruct.

use crate::field::Scalar;
use rand::RngCore;

/// One-based index of a share (node `i` holds the evaluation at `x = i+1`;
/// zero is reserved for the secret itself).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ShareIndex(u16);

impl ShareIndex {
    /// Creates a share index. `x` must be non-zero (zero is the secret's
    /// evaluation point).
    ///
    /// # Errors
    ///
    /// Returns [`ShamirError::ZeroIndex`] for `x == 0`.
    pub fn new(x: u16) -> Result<Self, ShamirError> {
        if x == 0 {
            Err(ShamirError::ZeroIndex)
        } else {
            Ok(ShareIndex(x))
        }
    }

    /// The index for the node with zero-based id `node`.
    pub fn for_node(node: usize) -> Self {
        ShareIndex(node as u16 + 1)
    }

    /// The raw one-based value.
    pub fn value(&self) -> u16 {
        self.0
    }

    /// The index as a field element.
    pub fn to_scalar(&self) -> Scalar {
        Scalar::from_u64(self.0 as u64)
    }
}

/// Errors from dealing or reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShamirError {
    /// A share index of zero was supplied.
    ZeroIndex,
    /// The same index appeared twice in a reconstruction set.
    DuplicateIndex(u16),
    /// Fewer than `threshold + 1` shares were supplied.
    NotEnoughShares { got: usize, need: usize },
}

impl core::fmt::Display for ShamirError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShamirError::ZeroIndex => write!(f, "share index zero is reserved for the secret"),
            ShamirError::DuplicateIndex(i) => write!(f, "duplicate share index {i}"),
            ShamirError::NotEnoughShares { got, need } => {
                write!(f, "not enough shares: got {got}, need {need}")
            }
        }
    }
}

impl std::error::Error for ShamirError {}

/// A secret-sharing polynomial `a_0 + a_1 x + … + a_t x^t` with `a_0` the
/// secret.
#[derive(Clone, Debug)]
pub struct Polynomial {
    coeffs: Vec<Scalar>,
}

impl Polynomial {
    /// Samples a random polynomial of the given degree with the given
    /// constant term.
    pub fn random(secret: Scalar, degree: usize, rng: &mut impl RngCore) -> Self {
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(secret);
        for _ in 0..degree {
            coeffs.push(Scalar::random(rng));
        }
        Polynomial { coeffs }
    }

    /// The polynomial degree (= reconstruction threshold − 1 shares needed
    /// beyond one: `degree + 1` shares reconstruct).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// The secret (constant term).
    pub fn secret(&self) -> Scalar {
        self.coeffs[0]
    }

    /// All coefficients, low degree first (`coeffs[0]` is the secret).
    /// Resharing publishes Feldman commitments `g^{coeffs[k]}` to these.
    pub fn coefficients(&self) -> &[Scalar] {
        &self.coeffs
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn eval(&self, x: &Scalar) -> Scalar {
        let mut acc = Scalar::ZERO;
        for c in self.coeffs.iter().rev() {
            acc = acc.mul(x).add(c);
        }
        acc
    }

    /// The share for a given index.
    pub fn share(&self, index: ShareIndex) -> Scalar {
        self.eval(&index.to_scalar())
    }
}

/// Inverts every element of a slice of non-zero scalars with a single field
/// inversion (Montgomery's batch-inversion trick): one 254-bit pow plus
/// `3(k−1)` multiplies instead of `k` pows.
fn batch_invert(vals: &[Scalar]) -> Vec<Scalar> {
    let mut prefix = Vec::with_capacity(vals.len());
    let mut acc = Scalar::ONE;
    for v in vals {
        prefix.push(acc);
        acc = acc.mul(v);
    }
    let mut inv = acc.invert().expect("batch_invert inputs are nonzero");
    let mut out = vec![Scalar::ZERO; vals.len()];
    for i in (0..vals.len()).rev() {
        out[i] = inv.mul(&prefix[i]);
        inv = inv.mul(&vals[i]);
    }
    out
}

thread_local! {
    /// Bounded memo for Lagrange coefficient vectors, keyed by the exact
    /// index sequence. Quorums repeat heavily inside a run (the same
    /// `f+1`/`2f+1` index sets combine over and over), and the coefficients
    /// are a pure function of the indices, so per-thread maps stay mutually
    /// consistent; thread-local storage keeps parallel sweep workers off a
    /// shared lock. Cleared wholesale when full.
    static LAGRANGE_MEMO: std::cell::RefCell<std::collections::BTreeMap<Vec<u16>, Vec<Scalar>>> =
        const { std::cell::RefCell::new(std::collections::BTreeMap::new()) };
}

/// Max index sets held by the Lagrange memo before it is cleared.
const LAGRANGE_MEMO_CAP: usize = 1024;

/// All Lagrange coefficients `λ_i(0)` for the given index set at once, in
/// index order: `coeffs[k]` belongs to `indices[k]`.
///
/// The shared denominators are inverted with one batched inversion, and the
/// whole vector is memoized per index sequence — repeated combinations over
/// the same quorum (the common case in every component) are a map lookup.
///
/// # Errors
///
/// Returns [`ShamirError::DuplicateIndex`] on repeated indices.
pub fn lagrange_coeffs_at_zero(indices: &[ShareIndex]) -> Result<Vec<Scalar>, ShamirError> {
    check_distinct(indices)?;
    let key: Vec<u16> = indices.iter().map(|i| i.value()).collect();
    if let Some(hit) = LAGRANGE_MEMO.with(|m| m.borrow().get(&key).cloned()) {
        return Ok(hit);
    }
    // num_i = Π_{j≠i} (0 − x_j),  den_i = Π_{j≠i} (x_i − x_j).
    let xs: Vec<Scalar> = indices.iter().map(|i| i.to_scalar()).collect();
    let mut nums = Vec::with_capacity(xs.len());
    let mut dens = Vec::with_capacity(xs.len());
    for (k, xi) in xs.iter().enumerate() {
        let mut num = Scalar::ONE;
        let mut den = Scalar::ONE;
        for (j, xj) in xs.iter().enumerate() {
            if j == k {
                continue;
            }
            num = num.mul(&xj.neg());
            den = den.mul(&xi.sub(xj));
        }
        nums.push(num);
        dens.push(den);
    }
    let inv_dens = batch_invert(&dens);
    let coeffs: Vec<Scalar> =
        nums.iter().zip(&inv_dens).map(|(n, d)| n.mul(d)).collect();
    LAGRANGE_MEMO.with(|m| {
        let mut memo = m.borrow_mut();
        if memo.len() >= LAGRANGE_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, coeffs.clone());
    });
    Ok(coeffs)
}

/// Lagrange coefficient `λ_i(0)` for interpolating at zero from the given
/// index set. `indices` must be distinct and contain `at`.
///
/// # Errors
///
/// Returns [`ShamirError::DuplicateIndex`] on repeated indices.
pub fn lagrange_at_zero(at: ShareIndex, indices: &[ShareIndex]) -> Result<Scalar, ShamirError> {
    check_distinct(indices)?;
    let xi = at.to_scalar();
    let mut num = Scalar::ONE;
    let mut den = Scalar::ONE;
    for &j in indices {
        if j == at {
            continue;
        }
        let xj = j.to_scalar();
        num = num.mul(&xj.neg()); // (0 - x_j)
        den = den.mul(&xi.sub(&xj)); // (x_i - x_j)
    }
    // `den` is a product of non-zero differences in a prime field.
    Ok(num.mul(&den.invert().expect("distinct indices give nonzero denominator")))
}

/// Reconstructs the secret from `threshold + 1` (or more) shares.
///
/// # Errors
///
/// Returns an error if shares are insufficient or indices repeat.
pub fn reconstruct_secret(
    shares: &[(ShareIndex, Scalar)],
    threshold: usize,
) -> Result<Scalar, ShamirError> {
    if shares.len() < threshold + 1 {
        return Err(ShamirError::NotEnoughShares { got: shares.len(), need: threshold + 1 });
    }
    let subset = &shares[..threshold + 1];
    let indices: Vec<ShareIndex> = subset.iter().map(|(i, _)| *i).collect();
    check_distinct(&indices)?;
    let mut secret = Scalar::ZERO;
    for (idx, value) in subset {
        let lambda = lagrange_at_zero(*idx, &indices)?;
        secret = secret.add(&lambda.mul(value));
    }
    Ok(secret)
}

fn check_distinct(indices: &[ShareIndex]) -> Result<(), ShamirError> {
    for (k, i) in indices.iter().enumerate() {
        if indices[..k].contains(i) {
            return Err(ShamirError::DuplicateIndex(i.value()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> impl RngCore {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn share_index_rejects_zero() {
        assert_eq!(ShareIndex::new(0), Err(ShamirError::ZeroIndex));
        assert!(ShareIndex::new(1).is_ok());
        assert_eq!(ShareIndex::for_node(0).value(), 1);
    }

    #[test]
    fn eval_constant_polynomial() {
        let p = Polynomial { coeffs: vec![Scalar::from_u64(7)] };
        assert_eq!(p.eval(&Scalar::from_u64(100)), Scalar::from_u64(7));
        assert_eq!(p.degree(), 0);
    }

    #[test]
    fn eval_matches_naive() {
        // p(x) = 3 + 2x + x²  at x=5 → 3 + 10 + 25 = 38
        let p = Polynomial {
            coeffs: vec![Scalar::from_u64(3), Scalar::from_u64(2), Scalar::from_u64(1)],
        };
        assert_eq!(p.eval(&Scalar::from_u64(5)), Scalar::from_u64(38));
    }

    #[test]
    fn reconstruct_from_exactly_threshold_plus_one() {
        let mut rng = rng();
        let secret = Scalar::from_u64(123_456_789);
        let t = 2; // degree-2 → 3 shares reconstruct (N=7, f=2 setting)
        let poly = Polynomial::random(secret, t, &mut rng);
        let shares: Vec<_> = (0..7)
            .map(|i| {
                let idx = ShareIndex::for_node(i);
                (idx, poly.share(idx))
            })
            .collect();
        // Any 3 shares reconstruct.
        let got = reconstruct_secret(&shares[2..5], t).unwrap();
        assert_eq!(got, secret);
        let got = reconstruct_secret(&[shares[0], shares[3], shares[6]], t).unwrap();
        assert_eq!(got, secret);
    }

    #[test]
    fn too_few_shares_fail() {
        let mut rng = rng();
        let poly = Polynomial::random(Scalar::from_u64(5), 2, &mut rng);
        let shares: Vec<_> = (0..2)
            .map(|i| {
                let idx = ShareIndex::for_node(i);
                (idx, poly.share(idx))
            })
            .collect();
        assert_eq!(
            reconstruct_secret(&shares, 2),
            Err(ShamirError::NotEnoughShares { got: 2, need: 3 })
        );
    }

    #[test]
    fn duplicate_indices_rejected() {
        let mut rng = rng();
        let poly = Polynomial::random(Scalar::from_u64(5), 1, &mut rng);
        let idx = ShareIndex::for_node(0);
        let s = poly.share(idx);
        assert_eq!(
            reconstruct_secret(&[(idx, s), (idx, s)], 1),
            Err(ShamirError::DuplicateIndex(1))
        );
    }

    #[test]
    fn wrong_share_changes_secret() {
        let mut rng = rng();
        let secret = Scalar::from_u64(777);
        let poly = Polynomial::random(secret, 1, &mut rng);
        let a = ShareIndex::for_node(0);
        let b = ShareIndex::for_node(1);
        let good = reconstruct_secret(&[(a, poly.share(a)), (b, poly.share(b))], 1).unwrap();
        assert_eq!(good, secret);
        let bad = reconstruct_secret(
            &[(a, poly.share(a).add(&Scalar::ONE)), (b, poly.share(b))],
            1,
        )
        .unwrap();
        assert_ne!(bad, secret);
    }

    #[test]
    fn coeff_vector_matches_per_index_lagrange() {
        let indices =
            [ShareIndex::for_node(0), ShareIndex::for_node(3), ShareIndex::for_node(5)];
        let coeffs = lagrange_coeffs_at_zero(&indices).unwrap();
        for (k, &i) in indices.iter().enumerate() {
            assert_eq!(coeffs[k], lagrange_at_zero(i, &indices).unwrap());
        }
        // Memoized second call returns the identical vector.
        assert_eq!(lagrange_coeffs_at_zero(&indices).unwrap(), coeffs);
        // Duplicates still rejected through the batched path.
        assert_eq!(
            lagrange_coeffs_at_zero(&[indices[0], indices[0]]),
            Err(ShamirError::DuplicateIndex(1))
        );
    }

    #[test]
    fn lagrange_coefficients_sum_to_one_on_constant() {
        // For a constant polynomial every share equals the secret, so the
        // lagrange weights must sum to 1.
        let indices = [ShareIndex::for_node(0), ShareIndex::for_node(2), ShareIndex::for_node(4)];
        let total: Scalar = indices
            .iter()
            .map(|&i| lagrange_at_zero(i, &indices).unwrap())
            .fold(Scalar::ZERO, |a, b| a.add(&b));
        assert_eq!(total, Scalar::ONE);
    }
}
