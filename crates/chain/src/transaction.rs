//! UTXO transactions.
//!
//! The replicated state machine "maintains the balance of the different users, and its
//! transitions are transactions that move funds among them" (§3). A transaction spends
//! previously unspent outputs and creates new outputs; only the holder of the secret
//! key matching an output's address may spend it.

use crate::amount::Amount;
use ng_crypto::keys::{Address, PublicKey};
use ng_crypto::sha256::{double_sha256, Hash256, Sha256};
use ng_crypto::signer::{verify_signature, SchnorrSigner, SignatureBytes};
use serde::{Deserialize, Serialize};

/// Reference to a transaction output: the creating transaction's id and the output index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OutPoint {
    /// Id of the transaction that created the output.
    pub txid: Hash256,
    /// Index of the output within that transaction.
    pub vout: u32,
}

impl OutPoint {
    /// Convenience constructor.
    pub fn new(txid: Hash256, vout: u32) -> Self {
        OutPoint { txid, vout }
    }
}

/// A transaction input: the outpoint being spent plus the authorisation to spend it.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TxInput {
    /// The output being consumed.
    pub outpoint: OutPoint,
    /// Public key whose address matches the spent output.
    pub pubkey: Option<PublicKey>,
    /// Signature over the transaction's signing hash.
    pub signature: Option<SignatureBytes>,
}

/// A transaction output: an amount locked to an address.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TxOutput {
    /// Value of the output.
    pub amount: Amount,
    /// Receiving address (hash of the owning public key).
    pub address: Address,
}

impl TxOutput {
    /// Convenience constructor.
    pub fn new(amount: Amount, address: Address) -> Self {
        TxOutput { amount, address }
    }
}

/// A transaction: a set of inputs consumed and outputs created.
///
/// A *coinbase* transaction has no inputs; it mints the block reward (and, in
/// Bitcoin-NG, pays the 40%/60% fee split to the current and previous leaders, §4.4).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Transaction {
    /// Inputs (empty for coinbase transactions).
    pub inputs: Vec<TxInput>,
    /// Outputs.
    pub outputs: Vec<TxOutput>,
    /// Arbitrary payload bytes. Used for coinbase uniqueness tags and for Bitcoin-NG
    /// poison-transaction fraud proofs (§4.5).
    pub payload: Vec<u8>,
}

impl Transaction {
    /// Creates a coinbase transaction minting `outputs`, tagged with `tag` so that two
    /// coinbases with identical outputs still have distinct ids.
    pub fn coinbase(outputs: Vec<TxOutput>, tag: &[u8]) -> Self {
        Transaction {
            inputs: Vec::new(),
            outputs,
            payload: tag.to_vec(),
        }
    }

    /// Returns true if this is a coinbase (input-less) transaction.
    pub fn is_coinbase(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Canonical serialisation used for hashing and size accounting: the
    /// [`crate::codec`] layout without the signature scheme tag.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        crate::codec::put_transaction_as(&mut out, self, false);
        out
    }

    /// Serialised size in bytes (drives block-size accounting in the experiments).
    pub fn serialized_size(&self) -> usize {
        let mut size = 4 + 4 + 4 + self.payload.len();
        for input in &self.inputs {
            size += 32 + 4 + 1 + 1;
            if input.pubkey.is_some() {
                size += 33;
            }
            if input.signature.is_some() {
                size += 65;
            }
        }
        size += self.outputs.len() * (8 + 32);
        size
    }

    /// The transaction id: double SHA-256 of the canonical serialisation.
    pub fn txid(&self) -> Hash256 {
        double_sha256(&self.serialize())
    }

    /// The hash that inputs sign: the transaction with all signatures and public keys
    /// blanked out, so the signature does not cover itself.
    pub fn sighash(&self) -> Hash256 {
        let mut stripped = self.clone();
        for input in &mut stripped.inputs {
            input.pubkey = None;
            input.signature = None;
        }
        let bytes = stripped.serialize();
        let mut h = Sha256::new();
        h.update(b"BitcoinNG/sighash");
        h.update(&bytes);
        h.finalize()
    }

    /// Signs every input with the provided signer (all inputs must be owned by it).
    pub fn sign_all_inputs(&mut self, signer: &SchnorrSigner) {
        let sighash = self.sighash();
        let pk = signer.public_key();
        let sig = signer.sign(&sighash);
        for input in &mut self.inputs {
            input.pubkey = Some(pk);
            input.signature = Some(sig.clone());
        }
    }

    /// Verifies the signature on input `index` against the address of the output it
    /// spends. Returns false on missing key/signature, address mismatch or bad signature.
    pub fn verify_input(&self, index: usize, spent_output: &TxOutput) -> bool {
        let Some(input) = self.inputs.get(index) else {
            return false;
        };
        let (Some(pubkey), Some(signature)) = (&input.pubkey, &input.signature) else {
            return false;
        };
        if pubkey.address() != spent_output.address {
            return false;
        }
        verify_signature(pubkey, &self.sighash(), signature).is_ok()
    }

    /// Total value of the outputs.
    pub fn total_output(&self) -> Amount {
        self.outputs.iter().map(|o| o.amount).sum()
    }
}

/// Builder for ordinary (non-coinbase) transactions, used by the examples and tests.
#[derive(Default)]
pub struct TransactionBuilder {
    inputs: Vec<TxInput>,
    outputs: Vec<TxOutput>,
    payload: Vec<u8>,
}

impl TransactionBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an input spending `outpoint` (unsigned; call [`Transaction::sign_all_inputs`]).
    pub fn input(mut self, outpoint: OutPoint) -> Self {
        self.inputs.push(TxInput {
            outpoint,
            pubkey: None,
            signature: None,
        });
        self
    }

    /// Adds an output of `amount` to `address`.
    pub fn output(mut self, amount: Amount, address: Address) -> Self {
        self.outputs.push(TxOutput { amount, address });
        self
    }

    /// Attaches an arbitrary payload.
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Finishes building.
    pub fn build(self) -> Transaction {
        Transaction {
            inputs: self.inputs,
            outputs: self.outputs,
            payload: self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::signer::SchnorrSigner;

    fn keypair(id: u64) -> KeyPair {
        KeyPair::from_id(id)
    }

    #[test]
    fn coinbase_has_no_inputs_and_unique_id_per_tag() {
        let out = TxOutput::new(Amount::from_coins(50), keypair(1).address());
        let a = Transaction::coinbase(vec![out], b"height-1");
        let b = Transaction::coinbase(vec![out], b"height-2");
        assert!(a.is_coinbase());
        assert_ne!(a.txid(), b.txid());
    }

    #[test]
    fn txid_changes_with_content() {
        let kp = keypair(1);
        let base = TransactionBuilder::new()
            .input(OutPoint::new(Hash256::ZERO, 0))
            .output(Amount::from_coins(1), kp.address())
            .build();
        let modified = TransactionBuilder::new()
            .input(OutPoint::new(Hash256::ZERO, 0))
            .output(Amount::from_coins(2), kp.address())
            .build();
        assert_ne!(base.txid(), modified.txid());
    }

    #[test]
    fn sign_and_verify_input() {
        let owner = keypair(10);
        let spent = TxOutput::new(Amount::from_coins(5), owner.address());
        let mut tx = TransactionBuilder::new()
            .input(OutPoint::new(Hash256::ZERO, 0))
            .output(Amount::from_coins(4), keypair(11).address())
            .build();
        tx.sign_all_inputs(&SchnorrSigner::new(owner));
        assert!(tx.verify_input(0, &spent));
    }

    #[test]
    fn verify_fails_for_wrong_owner() {
        let owner = keypair(12);
        let thief = keypair(13);
        let spent = TxOutput::new(Amount::from_coins(5), owner.address());
        let mut tx = TransactionBuilder::new()
            .input(OutPoint::new(Hash256::ZERO, 0))
            .output(Amount::from_coins(4), thief.address())
            .build();
        tx.sign_all_inputs(&SchnorrSigner::new(thief));
        assert!(!tx.verify_input(0, &spent));
    }

    #[test]
    fn verify_fails_when_outputs_tampered_after_signing() {
        let owner = keypair(14);
        let spent = TxOutput::new(Amount::from_coins(5), owner.address());
        let mut tx = TransactionBuilder::new()
            .input(OutPoint::new(Hash256::ZERO, 0))
            .output(Amount::from_coins(4), keypair(15).address())
            .build();
        tx.sign_all_inputs(&SchnorrSigner::new(owner));
        tx.outputs[0].amount = Amount::from_coins(5);
        assert!(!tx.verify_input(0, &spent));
    }

    #[test]
    fn verify_fails_without_signature() {
        let owner = keypair(16);
        let spent = TxOutput::new(Amount::from_coins(5), owner.address());
        let tx = TransactionBuilder::new()
            .input(OutPoint::new(Hash256::ZERO, 0))
            .output(Amount::from_coins(4), owner.address())
            .build();
        assert!(!tx.verify_input(0, &spent));
        assert!(!tx.verify_input(5, &spent));
    }

    #[test]
    fn serialized_size_matches_serialize_len() {
        let owner = keypair(17);
        let mut tx = TransactionBuilder::new()
            .input(OutPoint::new(Hash256::ZERO, 0))
            .input(OutPoint::new(Hash256::ZERO, 1))
            .output(Amount::from_coins(1), owner.address())
            .payload(vec![1, 2, 3])
            .build();
        assert_eq!(tx.serialized_size(), tx.serialize().len());
        tx.sign_all_inputs(&SchnorrSigner::new(owner));
        assert_eq!(tx.serialized_size(), tx.serialize().len());
    }

    #[test]
    fn total_output_sums() {
        let kp = keypair(18);
        let tx = TransactionBuilder::new()
            .output(Amount::from_sats(10), kp.address())
            .output(Amount::from_sats(32), kp.address())
            .build();
        assert_eq!(tx.total_output(), Amount::from_sats(42));
    }
}
