//! Bitcoin-NG block types: key blocks and microblocks.
//!
//! "The protocol introduces two types of blocks: key blocks for leader election and
//! microblocks that contain the ledger entries" (§4). Key blocks carry proof of work
//! and a public key for the new leader; microblocks carry ledger entries and are signed
//! with the matching secret key. Microblocks contribute no chain weight (§4.2).

use ng_chain::amount::Amount;
use ng_chain::chainstore::BlockLike;
use ng_chain::payload::Payload;
use ng_chain::transaction::TxOutput;
use ng_crypto::pow::{Target, Work};
use ng_crypto::sha256::{double_sha256, Hash256};
use ng_crypto::signer::SignatureBytes;
use ng_crypto::PublicKey;
use serde::{Deserialize, Serialize};

/// A key block: elects its miner as the new leader.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyBlock {
    /// Reference to the previous block (key block *or* microblock).
    pub prev: Hash256,
    /// Block timestamp in milliseconds.
    pub time_ms: u64,
    /// Proof-of-work target.
    pub target: Target,
    /// Mining nonce.
    pub nonce: u64,
    /// Identity of the miner (simulation/metrics attribution).
    pub miner: u64,
    /// Public key that will sign the leader's microblocks (§4.1).
    pub leader_pubkey: PublicKey,
    /// Coinbase outputs: the key-block reward plus the 40%/60% split of the previous
    /// epoch's fees (§4.4).
    pub coinbase: Vec<TxOutput>,
}

impl KeyBlock {
    /// Canonical serialisation of the key-block header (the proof-of-work preimage):
    /// a tag, the [`crate::codec`] fields, then the coinbase outputs uncounted.
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(b"NG/key");
        crate::codec::put_key_fields(&mut out, self);
        for output in &self.coinbase {
            ng_chain::codec::put_output(&mut out, output);
        }
        out
    }

    /// The key block id (double SHA-256 of the header).
    pub fn id(&self) -> Hash256 {
        double_sha256(&self.header_bytes())
    }

    /// True if the block's hash satisfies its proof-of-work target.
    pub fn meets_target(&self) -> bool {
        self.target.is_met_by(&self.id())
    }

    /// Serialized size in bytes. Key blocks are small — the paper relies on their
    /// "low frequency and quick propagation" (§5.2, Forks).
    pub fn size_bytes(&self) -> u64 {
        self.header_bytes().len() as u64
    }

    /// Total value minted/paid by the coinbase.
    pub fn coinbase_value(&self) -> Amount {
        self.coinbase.iter().map(|o| o.amount).sum()
    }
}

/// A microblock header (the part the leader signs).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroHeader {
    /// Reference to the previous block.
    pub prev: Hash256,
    /// Timestamp in milliseconds.
    pub time_ms: u64,
    /// Hash of the ledger entries (§4.2).
    pub payload_digest: Hash256,
    /// Identity of the producing leader (metrics attribution).
    pub leader: u64,
}

impl MicroHeader {
    /// Canonical serialisation of the unsigned header: a tag, then the
    /// [`crate::codec`] layout.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(88);
        out.extend_from_slice(b"NG/micro");
        crate::codec::put_micro_header(&mut out, self);
        out
    }

    /// The digest the leader signs.
    pub fn signing_hash(&self) -> Hash256 {
        ng_crypto::sha256::tagged_hash("BitcoinNG/microheader", &self.bytes())
    }

    /// The microblock id.
    pub fn id(&self) -> Hash256 {
        double_sha256(&self.bytes())
    }
}

/// A microblock: ledger entries signed by the current leader.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroBlock {
    /// The signed header.
    pub header: MicroHeader,
    /// The ledger entries.
    pub payload: Payload,
    /// Leader signature over the header (§4.2).
    pub signature: SignatureBytes,
}

impl MicroBlock {
    /// The microblock id (the header id; the payload is bound through its digest).
    pub fn id(&self) -> Hash256 {
        self.header.id()
    }

    /// Serialized size in bytes: header, signature and entries.
    pub fn size_bytes(&self) -> u64 {
        self.header.bytes().len() as u64 + 65 + self.payload.size_bytes()
    }

    /// True if the payload digest in the header matches the payload.
    pub fn payload_digest_matches(&self) -> bool {
        self.header.payload_digest == self.payload.digest()
    }
}

/// Either kind of Bitcoin-NG block, as stored in the chain.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NgBlock {
    /// A key block.
    Key(KeyBlock),
    /// A microblock.
    Micro(MicroBlock),
}

impl NgBlock {
    /// The block id.
    pub fn id(&self) -> Hash256 {
        match self {
            NgBlock::Key(k) => k.id(),
            NgBlock::Micro(m) => m.id(),
        }
    }

    /// The parent block id.
    pub fn prev(&self) -> Hash256 {
        match self {
            NgBlock::Key(k) => k.prev,
            NgBlock::Micro(m) => m.header.prev,
        }
    }

    /// Timestamp in milliseconds.
    pub fn time_ms(&self) -> u64 {
        match self {
            NgBlock::Key(k) => k.time_ms,
            NgBlock::Micro(m) => m.header.time_ms,
        }
    }

    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            NgBlock::Key(k) => k.size_bytes(),
            NgBlock::Micro(m) => m.size_bytes(),
        }
    }

    /// True for key blocks.
    pub fn is_key(&self) -> bool {
        matches!(self, NgBlock::Key(_))
    }

    /// True for microblocks.
    pub fn is_micro(&self) -> bool {
        matches!(self, NgBlock::Micro(_))
    }

    /// The key block, if this is one.
    pub fn as_key(&self) -> Option<&KeyBlock> {
        match self {
            NgBlock::Key(k) => Some(k),
            NgBlock::Micro(_) => None,
        }
    }

    /// The microblock, if this is one.
    pub fn as_micro(&self) -> Option<&MicroBlock> {
        match self {
            NgBlock::Micro(m) => Some(m),
            NgBlock::Key(_) => None,
        }
    }

    /// Number of transactions carried (0 for key blocks).
    pub fn tx_count(&self) -> u64 {
        match self {
            NgBlock::Key(_) => 0,
            NgBlock::Micro(m) => m.payload.tx_count(),
        }
    }
}

impl BlockLike for NgBlock {
    fn id(&self) -> Hash256 {
        NgBlock::id(self)
    }

    fn parent(&self) -> Hash256 {
        self.prev()
    }

    fn work(&self) -> Work {
        match self {
            // "In case of a fork, the chain is defined to be the one which represents
            // the most work done, aggregated over all key blocks" (§4.1).
            NgBlock::Key(k) => k.target.work(),
            // "microblocks do not affect the weight of the chain" (§4.2).
            NgBlock::Micro(_) => Work::ZERO,
        }
    }

    fn timestamp(&self) -> u64 {
        self.time_ms()
    }

    fn miner(&self) -> u64 {
        match self {
            NgBlock::Key(k) => k.miner,
            NgBlock::Micro(m) => m.header.leader,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::signer::SchnorrSigner;

    fn sample_key_block(miner: u64, prev: Hash256) -> KeyBlock {
        let kp = KeyPair::from_id(miner);
        KeyBlock {
            prev,
            time_ms: 1000 * miner,
            target: Target::regtest(),
            nonce: 0,
            miner,
            leader_pubkey: kp.public,
            coinbase: vec![TxOutput::new(Amount::from_coins(25), kp.address())],
        }
    }

    fn sample_microblock(leader: u64, prev: Hash256, time_ms: u64) -> MicroBlock {
        let kp = KeyPair::from_id(leader);
        let payload = Payload::Synthetic {
            bytes: 5000,
            tx_count: 20,
            total_fees: Amount::from_sats(2000),
            tag: time_ms,
        };
        let header = MicroHeader {
            prev,
            time_ms,
            payload_digest: payload.digest(),
            leader,
        };
        let signature = SchnorrSigner::new(kp).sign(&header.signing_hash());
        MicroBlock {
            header,
            payload,
            signature,
        }
    }

    #[test]
    fn key_block_id_depends_on_contents() {
        let a = sample_key_block(1, Hash256::ZERO);
        let mut b = a.clone();
        b.nonce = 99;
        assert_ne!(a.id(), b.id());
        assert!(a.size_bytes() > 100);
        assert_eq!(a.coinbase_value(), Amount::from_coins(25));
    }

    #[test]
    fn microblock_digest_binding() {
        let mb = sample_microblock(1, Hash256::ZERO, 100);
        assert!(mb.payload_digest_matches());
        let mut tampered = mb.clone();
        tampered.payload = Payload::Synthetic {
            bytes: 1,
            tx_count: 1,
            total_fees: Amount::ZERO,
            tag: 0,
        };
        assert!(!tampered.payload_digest_matches());
    }

    #[test]
    fn ngblock_work_rules() {
        let key = NgBlock::Key(sample_key_block(1, Hash256::ZERO));
        let micro = NgBlock::Micro(sample_microblock(1, key.id(), 50));
        assert!(key.is_key() && !key.is_micro());
        assert!(micro.is_micro());
        assert_eq!(BlockLike::work(&micro), Work::ZERO);
        assert!(BlockLike::work(&key) > Work::ZERO);
        assert_eq!(micro.parent(), key.id());
    }

    #[test]
    fn ngblock_accessors() {
        let key = sample_key_block(2, Hash256::ZERO);
        let block = NgBlock::Key(key.clone());
        assert_eq!(block.as_key(), Some(&key));
        assert!(block.as_micro().is_none());
        assert_eq!(block.tx_count(), 0);
        assert_eq!(BlockLike::miner(&block), 2);

        let micro = sample_microblock(3, key.id(), 77);
        let mblock = NgBlock::Micro(micro.clone());
        assert_eq!(mblock.tx_count(), 20);
        assert_eq!(BlockLike::miner(&mblock), 3);
        assert_eq!(mblock.time_ms(), 77);
    }

    #[test]
    fn microblock_size_includes_payload_and_signature() {
        let mb = sample_microblock(1, Hash256::ZERO, 10);
        assert!(mb.size_bytes() >= 5000 + 65);
        let key = sample_key_block(1, Hash256::ZERO);
        assert!(key.size_bytes() < 1000, "key blocks are small");
    }
}
