//! Wire messages of the overlay protocol.
//!
//! The vocabulary mirrors the Bitcoin peer-to-peer protocol the paper's testbed runs
//! (version handshake, `inv` announcements, `getdata` requests, block and transaction
//! carriers) extended with Bitcoin-NG's two block types. On the wire each message is
//! one command byte plus a binary body in the object codec the datadir shares;
//! framing, checksums, size limits and the encoders live in [`crate::codec`].

use crate::relay::CompactMicroBlock;
use crate::sync::HeaderRecord;
use ng_chain::transaction::{OutPoint, Transaction};
use ng_chain::utxo::UtxoEntry;
use ng_core::block::{KeyBlock, MicroBlock};
use ng_core::poison::{poison_size_bytes, PoisonTransaction};
use ng_crypto::pow::Work;
use ng_crypto::sha256::Hash256;
use serde::Serialize;

/// Which chain flavour a peer speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ProtocolKind {
    /// The Bitcoin baseline.
    Bitcoin,
    /// Bitcoin-NG (key blocks + microblocks).
    BitcoinNg,
}

/// What kind of object an inventory entry announces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum InvKind {
    /// A Bitcoin-NG key block.
    KeyBlock,
    /// A Bitcoin-NG microblock.
    MicroBlock,
    /// A transaction.
    Transaction,
}

/// One entry of an `inv` or `getdata` message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct InvItem {
    /// Object kind.
    pub kind: InvKind,
    /// Object id (block id or txid).
    pub id: Hash256,
}

impl InvItem {
    /// Convenience constructor.
    pub fn new(kind: InvKind, id: Hash256) -> Self {
        InvItem { kind, id }
    }
}

/// A full UTXO checkpoint snapshot on the wire — the unit of assumeutxo-style
/// bootstrap. Mirrors `ng_storage::Snapshot` (the two crates do not depend on each
/// other; the engine converts). The receiver trusts **nothing** in it beyond what
/// its pinned checkpoint commits to: it recomputes both UTXO commitments from
/// `entries` and verifies them (and the root block id) against the pin before
/// rooting a chain here.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct WireSnapshot {
    /// The key block the snapshot is anchored at.
    pub root: KeyBlock,
    /// The anchor's height on the server's main chain.
    pub height: u64,
    /// Total chain work from genesis to the anchor inclusive.
    pub total_work: Work,
    /// Every live UTXO entry at the anchor.
    pub entries: Vec<(OutPoint, UtxoEntry)>,
    /// Confirmed-transaction refcounts at the anchor.
    pub confirmed: Vec<(Hash256, u32)>,
}

/// A message exchanged between two peers.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum Message {
    /// Handshake: introduces the sender.
    Version {
        /// The sender's stable node id.
        node_id: u64,
        /// Which protocol flavour the sender runs.
        protocol: ProtocolKind,
        /// Height of the sender's best chain.
        best_height: u64,
        /// Sender's clock in milliseconds (lets peers estimate offset).
        time_ms: u64,
    },
    /// Handshake acknowledgement.
    Verack,
    /// Announcement of objects the sender has.
    Inv(Vec<InvItem>),
    /// Request for announced objects the receiver does not have.
    GetData(Vec<InvItem>),
    /// A Bitcoin-NG key block.
    KeyBlock(Box<KeyBlock>),
    /// A Bitcoin-NG microblock.
    MicroBlock(Box<MicroBlock>),
    /// A transaction.
    Tx(Box<Transaction>),
    /// Header-sync request: a block locator (main-chain hashes, newest first) plus the
    /// maximum number of header records the sender is willing to receive.
    GetHeaders {
        /// Exponentially spaced main-chain hashes, newest first.
        locator: Vec<Hash256>,
        /// Maximum number of records in the reply.
        limit: u32,
    },
    /// Header-sync response: main-chain blocks after the locator's fork point, oldest
    /// first. A batch shorter than the requested limit means the tip was reached.
    Headers(Vec<HeaderRecord>),
    /// Bootstrap request: serve the checkpoint snapshot anchored at exactly this
    /// height (the requester's pinned checkpoint).
    GetSnapshot {
        /// Anchor height of the wanted snapshot.
        height: u64,
    },
    /// Bootstrap response: the requested snapshot, or `None` if the server holds no
    /// snapshot at that height.
    Snapshot(Option<Box<WireSnapshot>>),
    /// Compact microblock push: signed header plus salted short tx ids; the receiver
    /// reconstructs the payload from its mempool (BIP152-style).
    CmpctBlock(Box<CompactMicroBlock>),
    /// Request for the payload transactions a compact-block receiver could not match
    /// in its mempool (ascending payload indexes).
    GetBlockTxn {
        /// Id of the compact block being reconstructed.
        block: Hash256,
        /// Payload indexes of the missing transactions, ascending.
        indexes: Vec<u32>,
    },
    /// Response to `getblocktxn`: the requested transactions, in request order.
    BlockTxn {
        /// Id of the compact block being reconstructed.
        block: Hash256,
        /// The transactions at the requested indexes.
        txs: Vec<Transaction>,
    },
    /// Lazy overlay advertisement: ids the sender holds and would serve on `graft`
    /// (episub-style; never triggers an immediate fetch).
    IHave(Vec<InvItem>),
    /// Overlay move: promote this link to eager and send the named block in full.
    Graft(InvItem),
    /// Overlay move: demote this link to lazy (stop eager pushes to the sender).
    Prune,
    /// Fraud proof against an equivocating leader (§4.5): two conflicting signed
    /// microblock headers under one parent — self-contained evidence any node can
    /// verify without chain context. Floods like `tx` — never routed through the
    /// overlay — so every honest node learns of the fraud even when its eager
    /// links are degraded.
    Poison(Box<PoisonTransaction>),
    /// Keepalive probe.
    Ping(u64),
    /// Keepalive response (echoes the probe nonce).
    Pong(u64),
}

impl Message {
    /// Short command name (diagnostics and per-command accounting).
    pub fn command(&self) -> &'static str {
        match self {
            Message::Version { .. } => "version",
            Message::Verack => "verack",
            Message::Inv(_) => "inv",
            Message::GetData(_) => "getdata",
            Message::KeyBlock(_) => "keyblock",
            Message::MicroBlock(_) => "microblock",
            Message::Tx(_) => "tx",
            Message::GetHeaders { .. } => "getheaders",
            Message::Headers(_) => "headers",
            Message::GetSnapshot { .. } => "getsnapshot",
            Message::Snapshot(_) => "snapshot",
            Message::CmpctBlock(_) => "cmpct",
            Message::GetBlockTxn { .. } => "getblocktxn",
            Message::BlockTxn { .. } => "blocktxn",
            Message::IHave(_) => "ihave",
            Message::Graft(_) => "graft",
            Message::Prune => "prune",
            Message::Poison(_) => "poison",
            Message::Ping(_) => "ping",
            Message::Pong(_) => "pong",
        }
    }

    /// Wire-size cost model in bytes (32-byte hashes, 6-byte short ids, 8-byte
    /// integers, a fixed 16-byte frame header). The simulator charges bandwidth with
    /// this, so it never has to encode a frame; it tracks the real frame length of
    /// [`crate::codec::FrameCodec`] within 28 bytes, except for a
    /// synthetic microblock, which is charged the byte count it declares.
    pub fn wire_size(&self) -> u64 {
        const FRAME: u64 = 16; // magic + length + checksum + command tag
        const INV: u64 = 33; // kind byte + 32-byte id
        let body = match self {
            Message::Version { .. } => 25,
            Message::Verack | Message::Prune => 1,
            Message::Inv(items) | Message::GetData(items) | Message::IHave(items) => {
                1 + INV * items.len() as u64
            }
            Message::KeyBlock(k) => k.size_bytes(),
            Message::MicroBlock(m) => m.size_bytes(),
            Message::Tx(t) => t.serialized_size() as u64,
            Message::GetHeaders { locator, .. } => 4 + 32 * locator.len() as u64,
            Message::Headers(records) => 1 + 73 * records.len() as u64,
            Message::GetSnapshot { .. } => 8,
            Message::Snapshot(None) => 1,
            Message::Snapshot(Some(s)) => {
                s.root.size_bytes()
                    + 16
                    + 85 * s.entries.len() as u64
                    + 36 * s.confirmed.len() as u64
            }
            Message::CmpctBlock(c) => c.size_bytes(),
            Message::GetBlockTxn { indexes, .. } => 32 + 4 * indexes.len() as u64,
            Message::BlockTxn { txs, .. } => {
                32 + txs.iter().map(|t| t.serialized_size() as u64).sum::<u64>()
            }
            Message::Graft(_) => INV,
            Message::Poison(p) => poison_size_bytes(p),
            Message::Ping(_) | Message::Pong(_) => 8,
        };
        FRAME + body
    }

    /// The inventory item describing the object this message carries, if any.
    pub fn carried_inventory(&self) -> Option<InvItem> {
        match self {
            Message::KeyBlock(k) => Some(InvItem::new(InvKind::KeyBlock, k.id())),
            Message::MicroBlock(m) => Some(InvItem::new(InvKind::MicroBlock, m.id())),
            Message::Tx(t) => Some(InvItem::new(InvKind::Transaction, t.txid())),
            _ => None,
        }
    }

    /// True for the two handshake messages.
    pub fn is_handshake(&self) -> bool {
        matches!(self, Message::Version { .. } | Message::Verack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::payload::Payload;
    use ng_core::params::NgParams;
    use ng_core::NgNode;
    use ng_crypto::sha256::sha256;

    fn wire_round_trip(msg: &Message) -> Message {
        let codec = crate::codec::FrameCodec::default();
        let frame = codec.encode(msg).unwrap();
        codec.decode(&mut bytes::BytesMut::from(&frame[..])).unwrap().unwrap()
    }

    #[test]
    fn commands_are_stable() {
        assert_eq!(Message::Verack.command(), "verack");
        assert_eq!(Message::Ping(1).command(), "ping");
        assert_eq!(Message::Inv(vec![]).command(), "inv");
        assert_eq!(
            Message::GetHeaders {
                locator: vec![],
                limit: 16
            }
            .command(),
            "getheaders"
        );
        assert_eq!(Message::Headers(vec![]).command(), "headers");
    }

    #[test]
    fn carried_inventory_matches_object_ids() {
        let mut node = NgNode::new(1, NgParams::default(), 1);
        let kb = node.mine_and_adopt_key_block(1_000);
        let msg = Message::KeyBlock(Box::new(kb.clone()));
        let inv = msg.carried_inventory().unwrap();
        assert_eq!(inv.kind, InvKind::KeyBlock);
        assert_eq!(inv.id, kb.id());

        let micro = node
            .produce_microblock(20_000, Payload::empty())
            .expect("leader");
        let msg = Message::MicroBlock(Box::new(micro.clone()));
        assert_eq!(msg.carried_inventory().unwrap().id, micro.id());

        assert_eq!(Message::Verack.carried_inventory(), None);
    }

    #[test]
    fn wire_round_trip_preserves_messages() {
        let messages = vec![
            Message::Version {
                node_id: 7,
                protocol: ProtocolKind::BitcoinNg,
                best_height: 42,
                time_ms: 123_456,
            },
            Message::Verack,
            Message::Inv(vec![InvItem::new(InvKind::KeyBlock, sha256(b"a"))]),
            Message::GetData(vec![InvItem::new(InvKind::MicroBlock, sha256(b"b"))]),
            Message::GetHeaders {
                locator: vec![sha256(b"tip"), sha256(b"older")],
                limit: 64,
            },
            Message::Headers(vec![crate::sync::HeaderRecord {
                id: sha256(b"kb"),
                prev: sha256(b"parent"),
                kind: InvKind::KeyBlock,
                height: 7,
            }]),
            Message::GetSnapshot { height: 256 },
            Message::Snapshot(None),
            {
                let mut node = NgNode::new(3, NgParams::default(), 3);
                let root = node.mine_and_adopt_key_block(500);
                Message::Snapshot(Some(Box::new(WireSnapshot {
                    root,
                    height: 256,
                    total_work: ng_crypto::pow::Work::ZERO,
                    entries: vec![],
                    confirmed: vec![(sha256(b"tx"), 1)],
                })))
            },
            Message::Ping(99),
            Message::Pong(99),
        ];
        for msg in messages {
            assert_eq!(wire_round_trip(&msg), msg);
        }
    }

    fn signed_micro(payload: Payload) -> ng_core::block::MicroBlock {
        use ng_crypto::signer::SchnorrSigner;
        let header = ng_core::block::MicroHeader {
            prev: sha256(b"prev"),
            time_ms: 2_000,
            payload_digest: payload.digest(),
            leader: 1,
        };
        ng_core::block::MicroBlock {
            signature: SchnorrSigner::new(ng_crypto::keys::KeyPair::from_id(1))
                .sign(&header.signing_hash()),
            header,
            payload,
        }
    }

    #[test]
    fn gossip_commands_are_stable_and_round_trip() {
        let micro = signed_micro(Payload::empty());
        let compact = crate::relay::CompactMicroBlock::from_micro(&micro, 7).unwrap();
        let item = InvItem::new(InvKind::MicroBlock, micro.id());
        let messages = vec![
            Message::CmpctBlock(Box::new(compact)),
            Message::GetBlockTxn {
                block: micro.id(),
                indexes: vec![0, 3, 7],
            },
            Message::BlockTxn {
                block: micro.id(),
                txs: vec![],
            },
            Message::IHave(vec![item]),
            Message::Graft(item),
            Message::Prune,
        ];
        let commands: Vec<&str> = messages.iter().map(|m| m.command()).collect();
        assert_eq!(
            commands,
            vec!["cmpct", "getblocktxn", "blocktxn", "ihave", "graft", "prune"]
        );
        for msg in messages {
            assert_eq!(wire_round_trip(&msg), msg);
            assert!(msg.wire_size() > 16, "cost model covers {}", msg.command());
        }
    }

    #[test]
    fn poison_command_round_trips_and_is_costed() {
        let micro = signed_micro(Payload::empty());
        let sibling = signed_micro(Payload::Synthetic {
            bytes: 64,
            tx_count: 1,
            total_fees: ng_chain::amount::Amount::from_sats(5),
            tag: 7,
        });
        let poison = ng_core::poison::PoisonTransaction::from_conflict(&micro, &sibling, 9)
            .expect("same parent and leader, different payloads: a genuine conflict");
        let msg = Message::Poison(Box::new(poison.clone()));
        assert_eq!(msg.command(), "poison");
        assert_eq!(msg.wire_size(), 16 + poison_size_bytes(&poison));
        assert_eq!(msg.carried_inventory(), None, "poisons flood unconditionally");
        assert_eq!(wire_round_trip(&msg), msg);
    }

    #[test]
    fn compact_block_is_smaller_than_full_on_the_wire() {
        let txs: Vec<_> = (0..32u64)
            .map(|i| {
                ng_chain::transaction::TransactionBuilder::new()
                    .input(ng_chain::transaction::OutPoint::new(
                        sha256(&i.to_le_bytes()),
                        0,
                    ))
                    .output(
                        ng_chain::amount::Amount::from_sats(1 + i),
                        ng_crypto::keys::KeyPair::from_id(i + 1).address(),
                    )
                    .build()
            })
            .collect();
        let micro = signed_micro(Payload::Transactions(txs));
        let full = Message::MicroBlock(Box::new(micro.clone()));
        let compact = Message::CmpctBlock(Box::new(
            crate::relay::CompactMicroBlock::from_micro(&micro, 1).unwrap(),
        ));
        assert!(
            compact.wire_size() * 5 < full.wire_size(),
            "compact {} vs full {}",
            compact.wire_size(),
            full.wire_size()
        );
    }

    #[test]
    fn handshake_classification() {
        assert!(Message::Verack.is_handshake());
        assert!(Message::Version {
            node_id: 1,
            protocol: ProtocolKind::Bitcoin,
            best_height: 0,
            time_ms: 0
        }
        .is_handshake());
        assert!(!Message::Ping(0).is_handshake());
    }
}
