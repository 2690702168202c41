//! Key pairs and addresses.
//!
//! In Bitcoin-NG a key block "contains a public key that will be used in the subsequent
//! microblocks" (§4.1); the leader signs each microblock header with the matching
//! secret key. Addresses (hash of a public key) are used as transaction outputs in the
//! ledger substrate.

use crate::point::Point;
use crate::rng::SimRng;
use crate::scalar::Scalar;
use crate::sha256::{sha256, tagged_hash, Hash256};
use crate::u256::U256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A secret key: a non-zero scalar modulo the group order.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(pub(crate) Scalar);

/// A public key: a non-infinity curve point, stored in compressed form.
///
/// A key built here ([`SecretKey::public_key`], [`Self::from_compressed`]) is on
/// the curve. One that arrived through `Deserialize` (a wire frame) is 33
/// unchecked bytes until [`Self::point`] decodes it — decoding costs a field
/// square root, which the verifier pays anyway and the frame decoder should
/// not — so verification under it fails closed
/// ([`crate::schnorr::SchnorrError::InvalidPublicKey`]) rather than trusting it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey {
    #[serde(with = "crate::serde_arrays")]
    compressed: [u8; 33],
}

/// A secret/public key pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct KeyPair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

/// A 20-byte-equivalent address. We keep the full 32-byte hash of the compressed public
/// key for simplicity (Bitcoin truncates to 160 bits via RIPEMD-160, which changes
/// nothing about protocol behaviour).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Address(pub Hash256);

impl SecretKey {
    /// Creates a secret key from a scalar; returns `None` for the zero scalar.
    pub fn from_scalar(s: Scalar) -> Option<Self> {
        if s.is_zero() {
            None
        } else {
            Some(SecretKey(s))
        }
    }

    /// Derives a secret key deterministically from a byte seed (domain separated hash,
    /// retried on the negligible chance of producing zero).
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut counter = 0u64;
        loop {
            let mut data = Vec::with_capacity(seed.len() + 8);
            data.extend_from_slice(seed);
            data.extend_from_slice(&counter.to_le_bytes());
            let h = tagged_hash("BitcoinNG/keygen", &data);
            let s = Scalar::from_be_bytes(&h.0);
            if !s.is_zero() {
                return SecretKey(s);
            }
            counter += 1;
        }
    }

    /// Samples a secret key from the provided deterministic RNG.
    pub fn random(rng: &mut SimRng) -> Self {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let s = Scalar::from_be_bytes(&bytes);
            if !s.is_zero() {
                return SecretKey(s);
            }
        }
    }

    /// The scalar value of this key.
    pub fn scalar(&self) -> Scalar {
        self.0
    }

    /// Big-endian byte encoding.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Computes the matching public key.
    pub fn public_key(&self) -> PublicKey {
        let point = Point::mul_generator(&self.0);
        PublicKey {
            compressed: point
                .to_compressed()
                .expect("non-zero secret key yields non-infinity point"),
        }
    }
}

impl PublicKey {
    /// Constructs a public key from its compressed SEC1 encoding, validating the point.
    pub fn from_compressed(bytes: [u8; 33]) -> Option<Self> {
        Point::from_compressed(&bytes)?;
        Some(PublicKey { compressed: bytes })
    }

    /// The compressed SEC1 encoding.
    pub fn to_compressed(&self) -> [u8; 33] {
        self.compressed
    }

    /// Decodes the underlying curve point; `None` for deserialized bytes that
    /// are not a point on the curve.
    pub fn point(&self) -> Option<Point> {
        Point::from_compressed(&self.compressed)
    }

    /// The address (hash) of this public key.
    pub fn address(&self) -> Address {
        Address(sha256(&self.compressed))
    }
}

impl KeyPair {
    /// Generates a key pair from a deterministic RNG.
    pub fn random(rng: &mut SimRng) -> Self {
        let secret = SecretKey::random(rng);
        KeyPair {
            public: secret.public_key(),
            secret,
        }
    }

    /// Derives a key pair deterministically from a byte seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        let secret = SecretKey::from_seed(seed);
        KeyPair {
            public: secret.public_key(),
            secret,
        }
    }

    /// Derives a key pair from an integer identity (convenient for simulations where
    /// node `i` owns key pair `i`).
    pub fn from_id(id: u64) -> Self {
        Self::from_seed(&id.to_le_bytes())
    }

    /// The address of the public half.
    pub fn address(&self) -> Address {
        self.public.address()
    }
}

impl Address {
    /// An address that nobody controls (all zero), used for burn outputs in tests.
    pub const BURN: Address = Address(Hash256::ZERO);

    /// Derives an address directly from arbitrary bytes — used by simulations that do
    /// not need real key material.
    pub fn from_label(label: &str) -> Self {
        Address(sha256(label.as_bytes()))
    }

    /// Underlying hash bytes.
    pub fn as_hash(&self) -> &Hash256 {
        &self.0
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(…)")
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({}…)", &crate::hex::encode(&self.compressed)[..16])
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({}…)", &self.0.to_hex()[..12])
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.to_hex())
    }
}

/// Convenience: derives the secret scalar used for deterministic nonces.
pub(crate) fn nonce_scalar(secret: &SecretKey, msg: &Hash256, aux: &[u8]) -> Scalar {
    let mut data = Vec::with_capacity(32 + 32 + aux.len());
    data.extend_from_slice(&secret.to_be_bytes());
    data.extend_from_slice(&msg.0);
    data.extend_from_slice(aux);
    let mut counter = 0u64;
    loop {
        let mut attempt = data.clone();
        attempt.extend_from_slice(&counter.to_le_bytes());
        let h = tagged_hash("BitcoinNG/nonce", &attempt);
        let k = Scalar::from_u256(U256::from_be_bytes(&h.0));
        if !k.is_zero() {
            return k;
        }
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        let a = KeyPair::from_seed(b"node-1");
        let b = KeyPair::from_seed(b"node-1");
        let c = KeyPair::from_seed(b"node-2");
        assert_eq!(a, b);
        assert_ne!(a.public, c.public);
    }

    #[test]
    fn public_key_round_trip() {
        let kp = KeyPair::from_id(42);
        let encoded = kp.public.to_compressed();
        let decoded = PublicKey::from_compressed(encoded).unwrap();
        assert_eq!(decoded, kp.public);
    }

    #[test]
    fn invalid_public_key_rejected() {
        let mut bytes = [0u8; 33];
        bytes[0] = 0x09;
        assert!(PublicKey::from_compressed(bytes).is_none());
    }

    #[test]
    fn verification_under_a_deserialized_off_curve_key_fails_closed() {
        use crate::schnorr::{self, SchnorrError};
        // What `Deserialize` yields for 33 bytes off the wire: no curve check.
        // x = 5: 5³ + 7 = 132 has no square root mod p.
        let mut compressed = [0u8; 33];
        (compressed[0], compressed[32]) = (2, 5);
        assert!(PublicKey::from_compressed(compressed).is_none());
        let forged = PublicKey { compressed };
        assert!(forged.point().is_none());
        let honest = KeyPair::from_id(1);
        let msg = sha256(b"anything");
        let sig = schnorr::sign(&honest.secret, &msg);
        assert_eq!(schnorr::verify(&forged, &msg, &sig), Err(SchnorrError::InvalidPublicKey));
        let batch = [(honest.public, msg, sig), (forged, msg, sig)];
        assert_eq!(schnorr::verify_batch(&batch), Err(SchnorrError::InvalidPublicKey));
        assert_eq!(schnorr::find_invalid(&batch), vec![1]);
    }

    #[test]
    fn random_keys_differ() {
        let mut rng = SimRng::seed_from_u64(7);
        let a = KeyPair::random(&mut rng);
        let b = KeyPair::random(&mut rng);
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn address_is_stable_hash_of_pubkey() {
        let kp = KeyPair::from_id(1);
        assert_eq!(kp.address(), kp.public.address());
        assert_ne!(kp.address(), KeyPair::from_id(2).address());
    }

    #[test]
    fn zero_scalar_is_not_a_secret_key() {
        assert!(SecretKey::from_scalar(Scalar::zero()).is_none());
        assert!(SecretKey::from_scalar(Scalar::from_u64(5)).is_some());
    }

    #[test]
    fn nonce_depends_on_message() {
        let kp = KeyPair::from_id(3);
        let m1 = sha256(b"msg1");
        let m2 = sha256(b"msg2");
        assert_ne!(
            nonce_scalar(&kp.secret, &m1, b""),
            nonce_scalar(&kp.secret, &m2, b"")
        );
    }
}
