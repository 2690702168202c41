//! # ng-crypto
//!
//! Cryptographic substrate for the Bitcoin-NG reproduction.
//!
//! Everything in this crate is implemented from scratch so the repository has no
//! external cryptographic dependencies:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 and Bitcoin's double-SHA-256.
//! * [`u256`] — 256-bit unsigned integers used for hashes, proof-of-work targets and
//!   elliptic-curve arithmetic.
//! * [`field`] / [`scalar`] / [`point`] — secp256k1 field, scalar and group arithmetic.
//! * [`schnorr`] — Schnorr signatures (BIP340-flavoured) over secp256k1, used to sign
//!   Bitcoin-NG microblocks.
//! * [`keys`] — key pairs and address derivation.
//! * [`merkle`] — Merkle trees for transaction commitments.
//! * [`pow`] — proof-of-work targets, compact encoding and chain work accounting.
//! * [`rng`] — a deterministic, seedable PRNG (SplitMix64 / xoshiro256**) used by the
//!   simulator and by the mining scheduler; the paper replaces real proof-of-work with
//!   an exponentially distributed scheduler, which requires reproducible randomness.
//! * [`signer`] — the serialised signature every consensus object carries, the key
//!   pair that produces it and the function that checks it: Schnorr, and nothing else.

// `deny` rather than `forbid`: everything in this crate is safe Rust except the
// one runtime-dispatched SHA-NI compression module in `sha256`, which opts back
// in locally with the safety argument documented at the site.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod hex;
pub mod keys;
pub mod merkle;
pub mod point;
pub mod pow;
pub mod rng;
pub mod scalar;
pub mod schnorr;
pub mod serde_arrays;
pub mod sha256;
pub mod signer;
pub mod u256;

pub use keys::{KeyPair, PublicKey, SecretKey};
pub use merkle::{merkle_root, MerkleProof, MerkleTree};
pub use pow::{CompactTarget, Target, Work};
pub use rng::SimRng;
pub use schnorr::{BatchEntry, SchnorrError, Signature};
pub use sha256::{double_sha256, sha256, tagged_hash, Hash256, Sha256};
pub use signer::SchnorrSigner;
pub use u256::U256;
