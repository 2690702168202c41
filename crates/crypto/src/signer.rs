//! The one signature scheme of the protocol: Schnorr over secp256k1.
//!
//! Transaction inputs, the leader signature on a microblock (§4.2) and both halves
//! of a poison transaction's evidence (§4.5) all carry a [`SignatureBytes`], and
//! the type can hold nothing but a 65-byte Schnorr signature — what a signature is
//! worth is never the choice of whoever built the object. The paper's testbed
//! skipped the microblock signature check because it cost milliseconds (§7); a
//! node that wants the same shortcut skips *its own* check
//! (`NgParams::verify_microblock_signatures`), the leader signs regardless.

use crate::keys::{KeyPair, PublicKey};
use crate::schnorr::{self, SchnorrError, Signature};
use crate::sha256::Hash256;
use serde::{Deserialize, Serialize};

/// A serialised 65-byte Schnorr signature. The single variant keeps the serde
/// shape (`{"Schnorr": …}`) every stored and relayed object already has.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SignatureBytes {
    /// Schnorr signature.
    Schnorr(#[serde(with = "crate::serde_arrays")] [u8; 65]),
}

/// A key pair that signs 32-byte digests.
#[derive(Clone, Copy, Debug)]
pub struct SchnorrSigner {
    keys: KeyPair,
}

impl SchnorrSigner {
    /// Wraps a key pair.
    pub fn new(keys: KeyPair) -> Self {
        SchnorrSigner { keys }
    }

    /// The wrapped key pair.
    pub fn keys(&self) -> &KeyPair {
        &self.keys
    }

    /// Signs a message digest.
    pub fn sign(&self, msg: &Hash256) -> SignatureBytes {
        SignatureBytes::Schnorr(schnorr::sign(&self.keys.secret, msg).to_bytes())
    }

    /// The public key signatures verify under.
    pub fn public_key(&self) -> PublicKey {
        self.keys.public
    }
}

/// Verifies `sig` over `msg` under `public`.
pub fn verify_signature(
    public: &PublicKey,
    msg: &Hash256,
    sig: &SignatureBytes,
) -> Result<(), SchnorrError> {
    let SignatureBytes::Schnorr(bytes) = sig;
    schnorr::verify(public, msg, &Signature::from_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    #[test]
    fn schnorr_signer_round_trip() {
        let signer = SchnorrSigner::new(KeyPair::from_id(1));
        let msg = sha256(b"header");
        let sig = signer.sign(&msg);
        assert!(verify_signature(&signer.public_key(), &msg, &sig).is_ok());
    }

    #[test]
    fn schnorr_signature_rejected_under_wrong_key() {
        let signer = SchnorrSigner::new(KeyPair::from_id(5));
        let other = KeyPair::from_id(6);
        let msg = sha256(b"header");
        let sig = signer.sign(&msg);
        assert!(verify_signature(&other.public, &msg, &sig).is_err());
    }
}
