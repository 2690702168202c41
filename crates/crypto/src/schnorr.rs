//! Schnorr signatures over secp256k1.
//!
//! The scheme follows the BIP340 construction (deterministic nonce, tagged challenge
//! hash) but keeps the full compressed nonce point `R` in the signature instead of an
//! x-only encoding, which keeps verification simple: accept iff `s·G == R + e·P` with
//! `e = H_tag(R || P || m)`.
//!
//! Microblock headers in Bitcoin-NG are signed with the key announced in the latest key
//! block (§4.2); the ledger substrate also uses these signatures to authorise spending
//! transaction outputs.

use crate::keys::{nonce_scalar, PublicKey, SecretKey};
use crate::point::Point;
use crate::scalar::Scalar;
use crate::sha256::{tagged_hash, Hash256};
use crate::u256::U256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Domain-separation tag for signature challenges.
const CHALLENGE_TAG: &str = "BitcoinNG/challenge";

/// A Schnorr signature: the nonce commitment `R` (compressed) and the response scalar `s`.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Compressed encoding of the nonce point `R = k·G`.
    #[serde(with = "crate::serde_arrays")]
    pub r: [u8; 33],
    /// Response scalar `s = k + e·x (mod n)`, big-endian.
    pub s: [u8; 32],
}

/// Errors returned by signature verification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchnorrError {
    /// The nonce point `R` does not decode to a valid curve point.
    InvalidNoncePoint,
    /// The response scalar is zero (degenerate signature).
    DegenerateScalar,
    /// The public key's bytes are not a point on the curve (it came off the wire
    /// unchecked; see [`PublicKey`]).
    InvalidPublicKey,
    /// The verification equation `s·G = R + e·P` does not hold.
    EquationFailed,
}

impl fmt::Display for SchnorrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchnorrError::InvalidNoncePoint => write!(f, "invalid nonce point in signature"),
            SchnorrError::DegenerateScalar => write!(f, "degenerate signature scalar"),
            SchnorrError::InvalidPublicKey => write!(f, "public key is not on the curve"),
            SchnorrError::EquationFailed => write!(f, "signature equation failed"),
        }
    }
}

impl std::error::Error for SchnorrError {}

impl Signature {
    /// Serialises the signature to 65 bytes (`R || s`).
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..33].copy_from_slice(&self.r);
        out[33..].copy_from_slice(&self.s);
        out
    }

    /// Parses a 65-byte signature. Performs no curve validation (done at verify time).
    pub fn from_bytes(bytes: &[u8; 65]) -> Self {
        let mut r = [0u8; 33];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..33]);
        s.copy_from_slice(&bytes[33..]);
        Signature { r, s }
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({}…)", &crate::hex::encode(&self.r)[..16])
    }
}

/// Computes the challenge scalar `e = H_tag(R || P || m) mod n`.
fn challenge(r: &[u8; 33], public: &PublicKey, msg: &Hash256) -> Scalar {
    let mut data = Vec::with_capacity(33 + 33 + 32);
    data.extend_from_slice(r);
    data.extend_from_slice(&public.to_compressed());
    data.extend_from_slice(&msg.0);
    let h = tagged_hash(CHALLENGE_TAG, &data);
    Scalar::from_u256(U256::from_be_bytes(&h.0))
}

/// Signs a 32-byte message digest with a deterministic nonce.
pub fn sign(secret: &SecretKey, msg: &Hash256) -> Signature {
    let public = secret.public_key();
    // Deterministic nonce; retry (by varying aux) in the negligible case R cannot encode
    // or the response is zero.
    let mut aux = 0u64;
    loop {
        let k = nonce_scalar(secret, msg, &aux.to_le_bytes());
        let r_point = Point::mul_generator(&k);
        if let Some(r) = r_point.to_compressed() {
            let e = challenge(&r, &public, msg);
            let s = k.add(&e.mul(&secret.scalar()));
            if !s.is_zero() {
                return Signature {
                    r,
                    s: s.to_be_bytes(),
                };
            }
        }
        aux += 1;
    }
}

/// Verifies a signature over a 32-byte message digest.
///
/// The check `s·G == R + e·P` is evaluated as the double-scalar product
/// `s·G + (−e)·P` via [`Point::mul_double_generator`] (Strauss–Shamir): both scalar
/// multiplications share one doubling pass, roughly halving verification cost
/// compared to two independent multiplications.
pub fn verify(public: &PublicKey, msg: &Hash256, sig: &Signature) -> Result<(), SchnorrError> {
    let r_point = Point::from_compressed(&sig.r).ok_or(SchnorrError::InvalidNoncePoint)?;
    let s = Scalar::from_be_bytes(&sig.s);
    if s.is_zero() {
        return Err(SchnorrError::DegenerateScalar);
    }
    let p = public.point().ok_or(SchnorrError::InvalidPublicKey)?;
    let e = challenge(&sig.r, public, msg);
    // s·G − e·P == R
    let lhs = Point::mul_double_generator(&s, &e.neg(), &p);
    if lhs == r_point {
        Ok(())
    } else {
        Err(SchnorrError::EquationFailed)
    }
}

/// One entry of a verification batch: public key, message digest, signature.
pub type BatchEntry = (PublicKey, Hash256, Signature);

/// Derives the random linear-combination coefficients for a batch.
///
/// Soundness needs coefficients the signer could not predict when crafting the
/// signatures. They are derived by hashing the **entire batch** (every key, message
/// and signature byte) and expanding per index — "synthetic" Fiat–Shamir randomness:
/// deterministic (so verification is reproducible across nodes, which the
/// deterministic SimNet requires), yet fixed only after every signature in the batch
/// is fixed. Coefficients are 128 bits, which keeps the forgery-slip probability at
/// ≤ 2⁻¹²⁸ while halving the multi-scalar work of full-width coefficients.
fn batch_coefficients(batch: &[BatchEntry]) -> Vec<Scalar> {
    let mut transcript = Vec::with_capacity(batch.len() * (33 + 32 + 65));
    for (pk, msg, sig) in batch {
        transcript.extend_from_slice(&pk.to_compressed());
        transcript.extend_from_slice(&msg.0);
        transcript.extend_from_slice(&sig.to_bytes());
    }
    let seed = tagged_hash("BitcoinNG/batch-seed", &transcript);
    (0..batch.len())
        .map(|i| {
            if i == 0 {
                // The first coefficient may be fixed to 1 without loss of soundness.
                return Scalar::one();
            }
            let mut data = Vec::with_capacity(32 + 8);
            data.extend_from_slice(&seed.0);
            data.extend_from_slice(&(i as u64).to_le_bytes());
            let h = tagged_hash("BitcoinNG/batch-coeff", &data);
            let mut limb_bytes = [0u8; 16];
            limb_bytes.copy_from_slice(&h.0[..16]);
            let v = u128::from_le_bytes(limb_bytes);
            // Zero (probability 2⁻¹²⁸) would erase the entry from the batch check.
            Scalar::from_u128(if v == 0 { 1 } else { v })
        })
        .collect()
}

/// Verifies a batch of signatures as one random linear combination:
///
/// `(Σ aᵢ·sᵢ)·G  ==  Σ aᵢ·Rᵢ + Σ (aᵢ·eᵢ)·Pᵢ`
///
/// with random coefficients `aᵢ` (see [`batch_coefficients`]). The right-hand side
/// is a single Pippenger multi-scalar multiplication over `2n` points, so verifying
/// an `n`-signature batch costs far less than `n` independent verifications.
///
/// On failure nothing is learned about *which* entry is bad — callers that need the
/// culprit (e.g. to ban a peer) use [`find_invalid`]. The empty batch verifies.
pub fn verify_batch(batch: &[BatchEntry]) -> Result<(), SchnorrError> {
    if batch.is_empty() {
        return Ok(());
    }
    if batch.len() == 1 {
        let (pk, msg, sig) = &batch[0];
        return verify(pk, msg, sig);
    }
    let coefficients = batch_coefficients(batch);
    let mut s_combined = Scalar::zero();
    let mut pairs: Vec<(Scalar, Point)> = Vec::with_capacity(batch.len() * 2);
    for ((pk, msg, sig), a) in batch.iter().zip(coefficients.iter()) {
        let r_point = Point::from_compressed(&sig.r).ok_or(SchnorrError::InvalidNoncePoint)?;
        let s = Scalar::from_be_bytes(&sig.s);
        if s.is_zero() {
            return Err(SchnorrError::DegenerateScalar);
        }
        let p = pk.point().ok_or(SchnorrError::InvalidPublicKey)?;
        let e = challenge(&sig.r, pk, msg);
        s_combined = s_combined.add(&a.mul(&s));
        pairs.push((*a, r_point));
        pairs.push((a.mul(&e), p));
    }
    let lhs = Point::mul_generator(&s_combined);
    let rhs = Point::multi_mul(&pairs);
    if lhs == rhs {
        Ok(())
    } else {
        Err(SchnorrError::EquationFailed)
    }
}

/// Identifies every invalid entry of a batch by recursive bisection: a failing range
/// is split in half and each half re-verified as its own (re-randomized) batch, so
/// `k` bad signatures among `n` cost `O(k · log n)` batch verifications instead of
/// `n` individual ones. Returns the indices of all invalid entries, in order; an
/// empty result means the whole batch verifies.
pub fn find_invalid(batch: &[BatchEntry]) -> Vec<usize> {
    fn recurse(batch: &[BatchEntry], offset: usize, out: &mut Vec<usize>) {
        if batch.is_empty() || verify_batch(batch).is_ok() {
            return;
        }
        if batch.len() == 1 {
            out.push(offset);
            return;
        }
        let mid = batch.len() / 2;
        recurse(&batch[..mid], offset, out);
        recurse(&batch[mid..], offset + mid, out);
    }
    let mut out = Vec::new();
    recurse(batch, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use crate::sha256::sha256;

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_id(1);
        let msg = sha256(b"a microblock header");
        let sig = sign(&kp.secret, &msg);
        assert!(verify(&kp.public, &msg, &sig).is_ok());
    }

    #[test]
    fn deterministic_signatures() {
        let kp = KeyPair::from_id(2);
        let msg = sha256(b"same message");
        assert_eq!(sign(&kp.secret, &msg), sign(&kp.secret, &msg));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp = KeyPair::from_id(3);
        let other = KeyPair::from_id(4);
        let msg = sha256(b"message");
        let sig = sign(&kp.secret, &msg);
        assert_eq!(
            verify(&other.public, &msg, &sig),
            Err(SchnorrError::EquationFailed)
        );
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = KeyPair::from_id(5);
        let sig = sign(&kp.secret, &sha256(b"message A"));
        assert_eq!(
            verify(&kp.public, &sha256(b"message B"), &sig),
            Err(SchnorrError::EquationFailed)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = KeyPair::from_id(6);
        let msg = sha256(b"message");
        let mut sig = sign(&kp.secret, &msg);
        sig.s[31] ^= 1;
        assert!(verify(&kp.public, &msg, &sig).is_err());
    }

    #[test]
    fn corrupt_nonce_point_rejected() {
        let kp = KeyPair::from_id(7);
        let msg = sha256(b"message");
        let mut sig = sign(&kp.secret, &msg);
        sig.r[0] = 0x07; // invalid prefix
        assert_eq!(
            verify(&kp.public, &msg, &sig),
            Err(SchnorrError::InvalidNoncePoint)
        );
    }

    #[test]
    fn signature_bytes_round_trip() {
        let kp = KeyPair::from_id(8);
        let msg = sha256(b"serialize me");
        let sig = sign(&kp.secret, &msg);
        let restored = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(restored, sig);
        assert!(verify(&kp.public, &msg, &restored).is_ok());
    }

    #[test]
    fn different_messages_produce_different_signatures() {
        let kp = KeyPair::from_id(9);
        let s1 = sign(&kp.secret, &sha256(b"m1"));
        let s2 = sign(&kp.secret, &sha256(b"m2"));
        assert_ne!(s1, s2);
    }

    fn sample_batch(n: u64) -> Vec<BatchEntry> {
        (0..n)
            .map(|i| {
                let kp = KeyPair::from_id(100 + i);
                let msg = sha256(&i.to_le_bytes());
                (kp.public, msg, sign(&kp.secret, &msg))
            })
            .collect()
    }

    #[test]
    fn batch_of_valid_signatures_verifies() {
        for n in [0u64, 1, 2, 3, 7, 16] {
            assert_eq!(verify_batch(&sample_batch(n)), Ok(()), "n={n}");
        }
    }

    #[test]
    fn batch_with_forged_signature_fails_and_bisects() {
        let mut batch = sample_batch(9);
        batch[4].1 = sha256(b"swapped message"); // signature no longer matches
        assert!(verify_batch(&batch).is_err());
        assert_eq!(find_invalid(&batch), vec![4]);
        // Multiple bad entries are all identified.
        batch[7].2.s[31] ^= 1;
        assert_eq!(find_invalid(&batch), vec![4, 7]);
        // The all-good batch reports nothing.
        assert!(find_invalid(&sample_batch(6)).is_empty());
    }

    #[test]
    fn batch_rejects_structural_garbage() {
        let mut batch = sample_batch(3);
        batch[1].2.r[0] = 0x07;
        assert_eq!(verify_batch(&batch), Err(SchnorrError::InvalidNoncePoint));
        assert_eq!(find_invalid(&batch), vec![1]);
        let mut batch = sample_batch(3);
        batch[2].2.s = [0u8; 32];
        assert_eq!(verify_batch(&batch), Err(SchnorrError::DegenerateScalar));
        assert_eq!(find_invalid(&batch), vec![2]);
    }

    #[test]
    fn batch_is_not_fooled_by_cross_cancellation() {
        // Two tampered signatures whose *individual* offsets would cancel in a
        // naive (coefficient-free) sum: s0' = s0 + 1, s1' = s1 - 1. Random
        // coefficients must catch this.
        let mut batch = sample_batch(2);
        let one = Scalar::one();
        let s0 = Scalar::from_be_bytes(&batch[0].2.s);
        let s1 = Scalar::from_be_bytes(&batch[1].2.s);
        batch[0].2.s = s0.add(&one).to_be_bytes();
        batch[1].2.s = s1.sub(&one).to_be_bytes();
        assert!(verify_batch(&batch).is_err());
        assert_eq!(find_invalid(&batch), vec![0, 1]);
    }
}
