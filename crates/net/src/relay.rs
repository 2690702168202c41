//! Compact microblock relay (BIP152-style).
//!
//! Flooding full microblocks costs O(peers × block size) per hop; almost all of that
//! is transactions the receiver already holds in its mempool. A [`CompactMicroBlock`]
//! carries only the signed header plus a salted 6-byte *short id* per transaction.
//! The receiver matches the short ids against its mempool, requests only the missing
//! slots via `getblocktxn`/`blocktxn`, and falls back to a full `getdata` fetch when
//! reconstruction fails (short-id collision, synthetic payload, evicted stash entry).
//!
//! The salt is chosen per announcement, so a collision between two transactions is a
//! one-off event on one link rather than a persistent network-wide blind spot. The
//! reconstructed payload is verified against the header's `payload_digest` before the
//! block is surfaced, so a wrong guess can never produce a bogus block — only a
//! fallback.

use crate::message::Message;
use ng_chain::mempool::Mempool;
use ng_chain::payload::Payload;
use ng_chain::transaction::Transaction;
use ng_core::block::{MicroBlock, MicroHeader};
use ng_crypto::sha256::{sha256, Hash256};
use ng_crypto::signer::SignatureBytes;
use serde::Serialize;
use ng_chain::fifo::BoundedFifoMap;
use std::collections::HashMap;

/// Bytes of a short transaction id on the wire.
pub const SHORT_ID_BYTES: u64 = 6;

/// Most reconstructions waiting for `blocktxn` replies kept at once; beyond this the
/// oldest is evicted (its block can still arrive via full fetch or another peer).
pub const MAX_PENDING_RECONSTRUCTIONS: usize = 256;

/// The salted short id of a transaction: the low 48 bits of
/// `sha256(salt_le ‖ txid)`. 48 bits keep the per-tx wire cost at 6 bytes while
/// making a mempool collision (~2^24 txs for a 50% birthday bound) an oddity the
/// digest check below turns into a plain full-block fallback.
pub fn short_tx_id(salt: u64, txid: &Hash256) -> u64 {
    let mut buf = [0u8; 40];
    buf[..8].copy_from_slice(&salt.to_le_bytes());
    buf[8..].copy_from_slice(&txid.0);
    let h = sha256(&buf);
    u64::from_le_bytes([h.0[0], h.0[1], h.0[2], h.0[3], h.0[4], h.0[5], 0, 0])
}

/// A microblock compressed for relay: the signed header plus one salted short id per
/// payload transaction. Only `Payload::Transactions` microblocks can be compacted;
/// synthetic payloads have no transactions to reconstruct and are relayed in full.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct CompactMicroBlock {
    /// The microblock header (carries the payload digest the reconstruction must hit).
    pub header: MicroHeader,
    /// Leader signature over the header.
    pub signature: SignatureBytes,
    /// Per-announcement salt for the short ids.
    pub salt: u64,
    /// Short id of every payload transaction, in payload order.
    // ng-lint: bound(DEFAULT_MAX_BODY)
    pub short_ids: Vec<u64>,
}

impl CompactMicroBlock {
    /// Compacts a microblock under the given salt; `None` for synthetic payloads.
    pub fn from_micro(micro: &MicroBlock, salt: u64) -> Option<Self> {
        let txs = micro.payload.transactions()?;
        Some(CompactMicroBlock {
            header: micro.header.clone(),
            signature: micro.signature.clone(),
            salt,
            short_ids: txs
                .iter()
                .map(|tx| short_tx_id(salt, &tx.txid()))
                .collect(),
        })
    }

    /// The microblock id (the header id — identical to the full block's).
    pub fn id(&self) -> Hash256 {
        self.header.id()
    }

    /// Wire-size cost model: header, signature, salt, short ids.
    pub fn size_bytes(&self) -> u64 {
        self.header.bytes().len() as u64 + 65 + 8 + SHORT_ID_BYTES * self.short_ids.len() as u64
    }
}

/// The transactions of `micro` at the given payload indexes, for serving
/// `getblocktxn`. `None` if any index is out of range or the payload is synthetic.
pub fn transactions_at(micro: &MicroBlock, indexes: &[u32]) -> Option<Vec<Transaction>> {
    let txs = micro.payload.transactions()?;
    indexes
        .iter()
        .map(|&i| txs.get(i as usize).cloned())
        .collect()
}

/// Outcome of feeding a compact block (or its `blocktxn` completion) to the relay.
#[derive(Clone, Debug, PartialEq)]
pub enum ReconstructOutcome {
    /// Reconstruction complete and digest-verified: this *is* the announced block.
    Complete(Box<MicroBlock>),
    /// Some payload slots had no mempool match; request these indexes via
    /// `getblocktxn` (the partial reconstruction is stashed until `blocktxn`).
    MissingTxs(Vec<u32>),
    /// Reconstruction failed (digest mismatch, short-id collision, bad reply): fetch
    /// the full block instead.
    Failed,
}

/// One stashed partial reconstruction awaiting its `blocktxn` reply.
#[derive(Clone, Debug)]
struct PendingReconstruction {
    compact: CompactMicroBlock,
    /// Payload slots; `None` marks the ones requested from the announcer.
    // ng-lint: bound(DEFAULT_MAX_BODY)
    slots: Vec<Option<Transaction>>,
    /// Indexes of the `None` slots, ascending (the `getblocktxn` request body).
    // ng-lint: bound(DEFAULT_MAX_BODY)
    missing: Vec<u32>,
    /// The peer the missing transactions were requested from.
    from_peer: u64,
}

/// Per-node compact-relay state: partial reconstructions keyed by block id, bounded
/// oldest-first so a spammer announcing unreconstructable blocks cannot grow memory.
#[derive(Debug)]
pub struct CompactRelay {
    pending: BoundedFifoMap<Hash256, PendingReconstruction>,
}

impl Default for CompactRelay {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactRelay {
    /// Creates an empty relay.
    pub fn new() -> Self {
        CompactRelay {
            pending: BoundedFifoMap::new(MAX_PENDING_RECONSTRUCTIONS),
        }
    }

    /// Number of stashed partial reconstructions.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True if a reconstruction of `id` is waiting for its `blocktxn`.
    pub fn is_pending(&self, id: &Hash256) -> bool {
        self.pending.contains_key(id)
    }

    /// Connection `peer` closed: every reconstruction still waiting for its
    /// `blocktxn` is dropped, so the next announcement or advert of those blocks —
    /// from any other peer — starts over instead of being ignored as a duplicate
    /// of a reply that can no longer arrive.
    pub fn peer_gone(&mut self, peer: u64) {
        let orphaned: Vec<Hash256> = self
            .pending
            .iter()
            .filter(|(_, pending)| pending.from_peer == peer)
            .map(|(id, _)| *id)
            .collect();
        for id in orphaned {
            self.pending.remove(&id);
        }
    }

    /// Drops a pending reconstruction (e.g. the block arrived in full elsewhere).
    pub fn abandon(&mut self, id: &Hash256) {
        self.pending.remove(id);
    }

    /// Feeds a freshly received compact block: fills every slot it can from the
    /// mempool and either completes, or stashes the partial state and reports the
    /// missing indexes to request from `from_peer`.
    pub fn begin(
        &mut self,
        compact: CompactMicroBlock,
        pool: &Mempool,
        from_peer: u64,
    ) -> ReconstructOutcome {
        // Index the mempool by short id under this announcement's salt. On a
        // collision the first match wins; the digest check catches a wrong pick and
        // demotes it to a full-block fallback.
        let mut index: HashMap<u64, Hash256> = HashMap::with_capacity(pool.len());
        for txid in pool.txids() {
            index.entry(short_tx_id(compact.salt, txid)).or_insert(*txid);
        }
        let mut slots = Vec::with_capacity(compact.short_ids.len());
        let mut missing = Vec::new();
        for (i, sid) in compact.short_ids.iter().enumerate() {
            match index.get(sid).and_then(|txid| pool.get(txid)) {
                Some(entry) => slots.push(Some(entry.tx.clone())),
                None => {
                    missing.push(i as u32);
                    slots.push(None);
                }
            }
        }
        if missing.is_empty() {
            return assemble(compact, slots);
        }
        let id = compact.id();
        if self.pending.contains_key(&id) {
            // Already reconstructing this block from another announcement.
            return ReconstructOutcome::MissingTxs(missing);
        }
        self.pending.insert(
            id,
            PendingReconstruction {
                compact,
                slots,
                missing: missing.clone(),
                from_peer,
            },
        );
        ReconstructOutcome::MissingTxs(missing)
    }

    /// Feeds a `blocktxn` reply for block `id`. `None` when no reconstruction of that
    /// block is pending (unsolicited or already-evicted reply — ignore it).
    pub fn resolve(&mut self, id: &Hash256, txs: Vec<Transaction>) -> Option<ReconstructOutcome> {
        let mut pending = self.pending.remove(id)?;
        if txs.len() != pending.missing.len() {
            return Some(ReconstructOutcome::Failed);
        }
        for (slot_index, tx) in pending.missing.iter().zip(txs) {
            let expected = pending.compact.short_ids[*slot_index as usize];
            if short_tx_id(pending.compact.salt, &tx.txid()) != expected {
                return Some(ReconstructOutcome::Failed);
            }
            pending.slots[*slot_index as usize] = Some(tx);
        }
        Some(assemble(pending.compact, pending.slots))
    }
}

/// Assembles fully filled slots into a microblock and verifies the payload digest.
fn assemble(compact: CompactMicroBlock, slots: Vec<Option<Transaction>>) -> ReconstructOutcome {
    let txs: Option<Vec<Transaction>> = slots.into_iter().collect();
    let Some(txs) = txs else {
        return ReconstructOutcome::Failed;
    };
    let payload = Payload::Transactions(txs);
    if payload.digest() != compact.header.payload_digest {
        return ReconstructOutcome::Failed;
    }
    ReconstructOutcome::Complete(Box::new(MicroBlock {
        header: compact.header,
        payload,
        signature: compact.signature,
    }))
}

/// Derives the deterministic per-announcement salt a node uses for a block: sender
/// identity folded into the block id, so different relayers use different salts (a
/// collision on one link does not blind the whole network) while a given engine
/// stays replay-deterministic.
pub fn announcement_salt(node_id: u64, block_id: &Hash256) -> u64 {
    u64::from_le_bytes(block_id.0[..8].try_into().expect("8 bytes")) ^ node_id.rotate_left(17)
}

/// Converts a message into its compact announcement if possible: microblocks with
/// transaction payloads become [`Message::CmpctBlock`], everything else is returned
/// unchanged (key blocks are small, synthetic payloads cannot be reconstructed).
pub fn compact_announcement(node_id: u64, carrier: &Message) -> Message {
    if let Message::MicroBlock(micro) = carrier {
        let salt = announcement_salt(node_id, &micro.id());
        if let Some(compact) = CompactMicroBlock::from_micro(micro, salt) {
            return Message::CmpctBlock(Box::new(compact));
        }
    }
    carrier.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::amount::Amount;
    use ng_chain::transaction::{OutPoint, TransactionBuilder};
    use ng_crypto::keys::KeyPair;
    use ng_crypto::signer::SchnorrSigner;

    fn test_tx(seq: u64) -> Transaction {
        TransactionBuilder::new()
            .input(OutPoint::new(sha256(&seq.to_le_bytes()), 0))
            .output(Amount::from_sats(1 + seq), KeyPair::from_id(seq + 1).address())
            .payload(seq.to_le_bytes().to_vec())
            .build()
    }

    fn micro_with(txs: Vec<Transaction>) -> MicroBlock {
        let payload = Payload::Transactions(txs);
        let header = MicroHeader {
            prev: sha256(b"prev"),
            time_ms: 1_000,
            payload_digest: payload.digest(),
            leader: 7,
        };
        MicroBlock {
            signature: SchnorrSigner::new(KeyPair::from_id(7)).sign(&header.signing_hash()),
            header,
            payload,
        }
    }

    fn pool_with(txs: &[Transaction]) -> Mempool {
        let mut pool = Mempool::new();
        for tx in txs {
            assert!(pool.insert_with_fee(tx.clone(), Amount::from_sats(1)));
        }
        pool
    }

    #[test]
    fn full_mempool_reconstructs_without_a_round_trip() {
        let txs: Vec<Transaction> = (0..8).map(test_tx).collect();
        let micro = micro_with(txs.clone());
        let pool = pool_with(&txs);
        let compact = CompactMicroBlock::from_micro(&micro, 42).unwrap();
        assert_eq!(compact.short_ids.len(), 8);

        let mut relay = CompactRelay::new();
        match relay.begin(compact, &pool, 1) {
            ReconstructOutcome::Complete(got) => assert_eq!(*got, micro),
            other => panic!("expected Complete, got {other:?}"),
        }
        assert_eq!(relay.pending_len(), 0);
    }

    #[test]
    fn missing_txs_are_requested_then_resolved() {
        let txs: Vec<Transaction> = (0..6).map(test_tx).collect();
        let micro = micro_with(txs.clone());
        // The receiver's mempool is missing txs 1 and 4.
        let pool = pool_with(&[txs[0].clone(), txs[2].clone(), txs[3].clone(), txs[5].clone()]);
        let compact = CompactMicroBlock::from_micro(&micro, 9).unwrap();
        let id = compact.id();

        let mut relay = CompactRelay::new();
        let missing = match relay.begin(compact, &pool, 3) {
            ReconstructOutcome::MissingTxs(m) => m,
            other => panic!("expected MissingTxs, got {other:?}"),
        };
        assert_eq!(missing, vec![1, 4]);
        assert!(relay.is_pending(&id));

        // Serve the request from the full block, then resolve.
        let served = transactions_at(&micro, &missing).unwrap();
        match relay.resolve(&id, served) {
            Some(ReconstructOutcome::Complete(got)) => assert_eq!(*got, micro),
            other => panic!("expected Complete, got {other:?}"),
        }
        assert!(!relay.is_pending(&id));
    }

    #[test]
    fn a_closed_connection_takes_only_its_own_reconstructions_with_it() {
        let pool = Mempool::new();
        let mut relay = CompactRelay::new();
        let mut begin = |seq: u64, from_peer: u64| {
            let compact = CompactMicroBlock::from_micro(&micro_with(vec![test_tx(seq)]), seq).unwrap();
            let id = compact.id();
            assert!(matches!(
                relay.begin(compact, &pool, from_peer),
                ReconstructOutcome::MissingTxs(_)
            ));
            id
        };
        let (from_3, also_from_3, from_5) = (begin(1, 3), begin(2, 3), begin(3, 5));
        relay.peer_gone(3);
        assert!(!relay.is_pending(&from_3) && !relay.is_pending(&also_from_3));
        assert!(relay.is_pending(&from_5));
        // A late reply for a dropped reconstruction is unsolicited.
        assert_eq!(relay.resolve(&from_3, vec![test_tx(1)]), None);
    }

    #[test]
    fn wrong_blocktxn_reply_fails_to_full_fallback() {
        let txs: Vec<Transaction> = (0..3).map(test_tx).collect();
        let micro = micro_with(txs.clone());
        let pool = pool_with(&txs[..2]);
        let compact = CompactMicroBlock::from_micro(&micro, 5).unwrap();
        let id = compact.id();
        let mut relay = CompactRelay::new();
        assert!(matches!(
            relay.begin(compact, &pool, 1),
            ReconstructOutcome::MissingTxs(_)
        ));
        // A reply carrying the wrong transaction must fail, not fabricate a block.
        assert_eq!(
            relay.resolve(&id, vec![test_tx(99)]),
            Some(ReconstructOutcome::Failed)
        );
        // Unsolicited replies are ignored outright.
        assert_eq!(relay.resolve(&id, vec![]), None);
    }

    #[test]
    fn digest_mismatch_is_a_fallback_not_a_bogus_block() {
        // Two payloads colliding on short ids is near-impossible to construct; instead
        // force the digest check by lying in the header.
        let txs: Vec<Transaction> = (0..4).map(test_tx).collect();
        let mut micro = micro_with(txs.clone());
        micro.header.payload_digest = sha256(b"not the payload");
        let pool = pool_with(&txs);
        let compact = CompactMicroBlock::from_micro(&micro, 1).unwrap();
        let mut relay = CompactRelay::new();
        assert_eq!(relay.begin(compact, &pool, 1), ReconstructOutcome::Failed);
    }

    #[test]
    fn synthetic_payloads_cannot_be_compacted() {
        let payload = Payload::Synthetic {
            bytes: 1_000,
            tx_count: 4,
            total_fees: Amount::from_sats(5),
            tag: 1,
        };
        let header = MicroHeader {
            prev: sha256(b"p"),
            time_ms: 1,
            payload_digest: payload.digest(),
            leader: 1,
        };
        let micro = MicroBlock {
            signature: SchnorrSigner::new(KeyPair::from_id(1)).sign(&header.signing_hash()),
            header,
            payload,
        };
        assert!(CompactMicroBlock::from_micro(&micro, 3).is_none());
        let carrier = Message::MicroBlock(Box::new(micro));
        // The announcement helper falls back to the full carrier.
        assert_eq!(compact_announcement(1, &carrier), carrier);
    }

    #[test]
    fn pending_stash_is_bounded_oldest_first() {
        let mut relay = CompactRelay::new();
        let pool = Mempool::new();
        let mut first_id = None;
        for i in 0..(MAX_PENDING_RECONSTRUCTIONS as u64 + 10) {
            let micro = micro_with(vec![test_tx(i)]);
            let compact = CompactMicroBlock::from_micro(&micro, i).unwrap();
            let id = compact.id();
            first_id.get_or_insert(id);
            assert!(matches!(
                relay.begin(compact, &pool, 1),
                ReconstructOutcome::MissingTxs(_)
            ));
            assert!(relay.pending_len() <= MAX_PENDING_RECONSTRUCTIONS);
        }
        assert_eq!(relay.pending_len(), MAX_PENDING_RECONSTRUCTIONS);
        // The very first entry was evicted to make room.
        assert!(!relay.is_pending(&first_id.unwrap()));
    }

    #[test]
    fn salts_differ_per_relayer_and_per_block() {
        let a = sha256(b"block-a");
        let b = sha256(b"block-b");
        assert_ne!(announcement_salt(1, &a), announcement_salt(2, &a));
        assert_ne!(announcement_salt(1, &a), announcement_salt(1, &b));
        // Deterministic for replay.
        assert_eq!(announcement_salt(3, &a), announcement_salt(3, &a));
    }
}
