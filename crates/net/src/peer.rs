//! The per-connection protocol state machine.
//!
//! A [`Peer`] tracks one remote connection: the version handshake, what inventory the
//! remote is known to have (so we never announce or send the same object twice), and
//! which objects we have requested from it — both bounded, oldest forgotten first. The
//! state machine is I/O free — it consumes incoming [`Message`]s and returns
//! [`PeerAction`]s for the caller (the engine) to execute — which keeps it directly
//! unit-testable.

use crate::message::{InvItem, InvKind, Message, ProtocolKind};
use ng_chain::fifo::BoundedFifoMap;
use ng_crypto::sha256::Hash256;
use std::fmt;

/// Most object ids remembered as known to one remote. Forgetting the oldest only
/// risks re-announcing an object the remote has long had (it ignores the `inv`);
/// 2¹⁶ covers hours of blocks and several minutes of transactions at the rates the
/// benchmarks drive.
pub const MAX_KNOWN_IDS: usize = 1 << 16;

/// Most outstanding `getdata` ids remembered per remote. Entries leave when the
/// object arrives; a remote that never answers would otherwise grow the set for
/// the life of the connection. The bound exceeds the largest single request (a
/// 4096-header backfill batch).
pub const MAX_IN_FLIGHT_IDS: usize = 1 << 13;

/// Connection lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerState {
    /// We initiated the connection and sent our version; waiting for theirs.
    AwaitingVersion,
    /// Version received; waiting for the final acknowledgement.
    AwaitingVerack,
    /// Handshake complete; full message exchange allowed.
    Ready,
    /// The peer misbehaved and the connection should be dropped.
    Disconnected,
}

/// What the caller should do after feeding a message to the peer.
#[derive(Clone, Debug, PartialEq)]
pub enum PeerAction {
    /// Send this message to the remote.
    Send(Message),
    /// The remote announced this object in an `inv`; the caller requests it if it
    /// does not hold it yet.
    Announced(InvItem),
    /// The remote asked for this object in a `getdata`; the caller owns the stores
    /// and serves it if it can.
    Requested(InvItem),
    /// The remote delivered an object we requested (or pushed unsolicited); the caller
    /// should validate and possibly relay it.
    Deliver(Message),
    /// The remote completed the handshake.
    HandshakeComplete {
        /// Remote's node id.
        node_id: u64,
        /// Remote's protocol flavour.
        protocol: ProtocolKind,
        /// Remote's best height at handshake time.
        best_height: u64,
    },
    /// Drop the connection.
    Disconnect(PeerError),
}

/// Protocol violations that terminate a connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PeerError {
    /// A non-handshake message arrived before the handshake finished.
    MessageBeforeHandshake(&'static str),
    /// A second `version` arrived after the handshake.
    DuplicateVersion,
    /// The peer runs an incompatible protocol flavour.
    ProtocolMismatch {
        /// What we run.
        ours: ProtocolKind,
        /// What the peer announced.
        theirs: ProtocolKind,
    },
}

impl fmt::Display for PeerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerError::MessageBeforeHandshake(cmd) => {
                write!(f, "received '{cmd}' before the handshake completed")
            }
            PeerError::DuplicateVersion => write!(f, "duplicate version message"),
            PeerError::ProtocolMismatch { ours, theirs } => {
                write!(f, "protocol mismatch: we run {ours:?}, peer runs {theirs:?}")
            }
        }
    }
}

impl std::error::Error for PeerError {}

/// One remote connection.
#[derive(Clone, Debug)]
pub struct Peer {
    /// Our own node id (sent in our version message).
    pub local_id: u64,
    /// The protocol flavour we run.
    pub protocol: ProtocolKind,
    /// Remote node id, known after the handshake.
    pub remote_id: Option<u64>,
    state: PeerState,
    /// Whether we have already sent our own `version` (true for outbound connections,
    /// set for inbound ones once we respond).
    version_sent: bool,
    /// Objects the remote holds or is about to: it announced or delivered them, or
    /// we put the body (a first-hop `tx` push, a served `getdata`) or an `inv` of
    /// them on this FIFO link. After a push no `inv`/`getdata` follows, so this
    /// entry is the only record that the body went out.
    known: BoundedFifoMap<Hash256, ()>,
    /// Objects we have asked the remote for and not yet received. A transaction
    /// leaves when its body arrives; a block when the caller takes its request
    /// ([`Self::forget_request`]), which is how it tells a reply from a push.
    in_flight: BoundedFifoMap<Hash256, ()>,
}

impl Peer {
    /// Creates the state machine for an *outbound* connection and returns the version
    /// message to send first.
    pub fn outbound(local_id: u64, protocol: ProtocolKind, best_height: u64, now_ms: u64) -> (Self, Message) {
        let peer = Peer {
            local_id,
            protocol,
            remote_id: None,
            state: PeerState::AwaitingVersion,
            version_sent: true,
            known: BoundedFifoMap::new(MAX_KNOWN_IDS),
            in_flight: BoundedFifoMap::new(MAX_IN_FLIGHT_IDS),
        };
        let hello = Message::Version {
            node_id: local_id,
            protocol,
            best_height,
            time_ms: now_ms,
        };
        (peer, hello)
    }

    /// Creates the state machine for an *inbound* connection (we wait for their version
    /// before sending ours).
    pub fn inbound(local_id: u64, protocol: ProtocolKind) -> Self {
        Peer {
            local_id,
            protocol,
            remote_id: None,
            state: PeerState::AwaitingVersion,
            version_sent: false,
            known: BoundedFifoMap::new(MAX_KNOWN_IDS),
            in_flight: BoundedFifoMap::new(MAX_IN_FLIGHT_IDS),
        }
    }

    /// The current connection state.
    pub fn state(&self) -> PeerState {
        self.state
    }

    /// True once the handshake has completed.
    pub fn is_ready(&self) -> bool {
        self.state == PeerState::Ready
    }

    /// True if the remote is known to already have the object.
    pub fn knows(&self, id: &Hash256) -> bool {
        self.known.contains_key(id)
    }

    /// Records that the remote has (or will imminently have) the object, e.g. because
    /// we are about to send it.
    pub fn mark_known(&mut self, id: Hash256) {
        self.known.insert(id, ());
    }

    /// Decides whether to hand the remote an object (its body or its announcement):
    /// true if the handshake completed and the remote is not known to have it — in
    /// which case it is recorded as having it from now on, so neither form is
    /// offered over this connection again.
    pub fn offer(&mut self, id: Hash256) -> bool {
        let fresh = self.is_ready() && !self.knows(&id);
        if fresh {
            self.mark_known(id);
        }
        fresh
    }

    /// Number of objects currently requested from this peer and not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Builds a `getdata` for the subset of `items` not already requested, marking them
    /// in flight.
    pub fn request(&mut self, items: &[InvItem]) -> Option<Message> {
        let fresh: Vec<InvItem> =
            items.iter().copied().filter(|item| self.note_request(item.id)).collect();
        (!fresh.is_empty()).then_some(Message::GetData(fresh))
    }

    /// Marks `id` as asked of the remote — by a `getdata`, or by a `graft`, which
    /// the remote answers with the block itself — unless it already is; true if it
    /// was not.
    pub fn note_request(&mut self, id: Hash256) -> bool {
        let fresh = !self.in_flight.contains_key(&id);
        self.in_flight.insert(id, ());
        fresh
    }

    /// Drops an outstanding request; true if `id` was in flight. The download
    /// scheduler calls this to re-issue a request past its deadline: the original
    /// `getdata` (or its reply) may have been lost on the wire, and without clearing
    /// the in-flight entry the dedup in [`Self::request`] would suppress every retry
    /// forever. The caller also calls it when a block arrives: a block that answers
    /// a request is a reply, never a duplicate push.
    pub fn forget_request(&mut self, id: &Hash256) -> bool {
        self.in_flight.remove(id).is_some()
    }

    /// Feeds one incoming message to the state machine.
    pub fn on_message(&mut self, message: Message, best_height: u64, now_ms: u64) -> Vec<PeerAction> {
        match self.state {
            PeerState::Disconnected => Vec::new(),
            PeerState::AwaitingVersion | PeerState::AwaitingVerack => {
                self.on_handshake_message(message, best_height, now_ms)
            }
            PeerState::Ready => self.on_ready_message(message),
        }
    }

    fn disconnect(&mut self, error: PeerError) -> Vec<PeerAction> {
        self.state = PeerState::Disconnected;
        vec![PeerAction::Disconnect(error)]
    }

    fn on_handshake_message(
        &mut self,
        message: Message,
        best_height: u64,
        now_ms: u64,
    ) -> Vec<PeerAction> {
        match (self.state, message) {
            (
                PeerState::AwaitingVersion,
                Message::Version {
                    node_id,
                    protocol,
                    best_height: remote_height,
                    ..
                },
            ) => {
                if protocol != self.protocol {
                    return self.disconnect(PeerError::ProtocolMismatch {
                        ours: self.protocol,
                        theirs: protocol,
                    });
                }
                self.remote_id = Some(node_id);
                self.state = PeerState::AwaitingVerack;
                // The inbound side still owes the remote its own version; the outbound
                // side already sent it when the connection was opened.
                let mut actions = Vec::new();
                if !self.version_sent {
                    self.version_sent = true;
                    actions.push(PeerAction::Send(Message::Version {
                        node_id: self.local_id,
                        protocol: self.protocol,
                        best_height,
                        time_ms: now_ms,
                    }));
                }
                actions.push(PeerAction::Send(Message::Verack));
                actions.push(PeerAction::HandshakeComplete {
                    node_id,
                    protocol,
                    best_height: remote_height,
                });
                actions
            }
            (PeerState::AwaitingVerack, Message::Verack) => {
                self.state = PeerState::Ready;
                Vec::new()
            }
            (PeerState::AwaitingVerack, Message::Version { .. }) => {
                self.disconnect(PeerError::DuplicateVersion)
            }
            (_, other) => {
                let cmd = other.command();
                self.disconnect(PeerError::MessageBeforeHandshake(cmd))
            }
        }
    }

    fn on_ready_message(&mut self, message: Message) -> Vec<PeerAction> {
        match message {
            Message::Version { .. } => self.disconnect(PeerError::DuplicateVersion),
            Message::Verack => Vec::new(),
            Message::Ping(nonce) => vec![PeerAction::Send(Message::Pong(nonce))],
            Message::Pong(_) => Vec::new(),
            Message::Inv(items) => {
                let mut actions = Vec::new();
                for item in items {
                    self.known.insert(item.id, ());
                    actions.push(PeerAction::Announced(item));
                }
                actions
            }
            Message::GetData(items) => items.into_iter().map(PeerAction::Requested).collect(),
            sync @ (Message::GetHeaders { .. } | Message::GetSnapshot { .. } | Message::Snapshot(_)) => {
                // The caller owns the chain and the snapshot store; surface the
                // request (or the served snapshot) for it to handle.
                vec![PeerAction::Deliver(sync)]
            }
            Message::Headers(records) => {
                // The serving peer has every block it describes; remember that so the
                // fetched blocks are not announced straight back to it.
                for record in &records {
                    self.known.insert(record.id, ());
                }
                vec![PeerAction::Deliver(Message::Headers(records))]
            }
            carried @ (Message::KeyBlock(_)
            | Message::MicroBlock(_)
            | Message::Tx(_)) => {
                if let Some(inv) = carried.carried_inventory() {
                    self.known.insert(inv.id, ());
                    // A block's request stays until the caller takes it.
                    if inv.kind == InvKind::Transaction {
                        self.in_flight.remove(&inv.id);
                    }
                }
                vec![PeerAction::Deliver(carried)]
            }
            Message::CmpctBlock(compact) => {
                // A compact push proves the sender holds the block; remember that so
                // a successful reconstruction is never announced straight back.
                let id = compact.id();
                self.known.insert(id, ());
                self.in_flight.remove(&id);
                vec![PeerAction::Deliver(Message::CmpctBlock(compact))]
            }
            Message::IHave(items) => {
                // Lazy advertisements: the sender holds these. Unlike `inv`, the
                // relay must NOT fetch immediately — the overlay decides; surface
                // the whole message instead of per-item announcements.
                for item in &items {
                    self.known.insert(item.id, ());
                }
                vec![PeerAction::Deliver(Message::IHave(items))]
            }
            overlay @ (Message::GetBlockTxn { .. }
            | Message::BlockTxn { .. }
            | Message::Graft(_)
            | Message::Prune) => {
                // The caller owns the block tree and the overlay state machine.
                vec![PeerAction::Deliver(overlay)]
            }
            poison @ Message::Poison(_) => {
                // Fraud proofs are validated and deduplicated by the engine, which
                // owns the chain state the evidence is checked against.
                vec![PeerAction::Deliver(poison)]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_crypto::sha256::sha256;

    fn handshake_pair() -> (Peer, Peer) {
        let (mut alice, hello) = Peer::outbound(1, ProtocolKind::BitcoinNg, 5, 100);
        let mut bob = Peer::inbound(2, ProtocolKind::BitcoinNg);
        // Bob receives Alice's version.
        let bob_actions = bob.on_message(hello, 9, 101);
        // Bob replies with his version + verack; Alice processes them.
        let mut bob_outgoing: Vec<Message> = bob_actions
            .iter()
            .filter_map(|a| match a {
                PeerAction::Send(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(bob_outgoing.len(), 2);
        for msg in bob_outgoing.drain(..) {
            let alice_actions = alice.on_message(msg, 5, 102);
            for action in alice_actions {
                if let PeerAction::Send(m) = action {
                    bob.on_message(m, 9, 103);
                }
            }
        }
        (alice, bob)
    }

    #[test]
    fn handshake_completes_on_both_sides() {
        let (alice, bob) = handshake_pair();
        assert!(alice.is_ready());
        assert!(bob.is_ready());
        assert_eq!(alice.remote_id, Some(2));
        assert_eq!(bob.remote_id, Some(1));
    }

    #[test]
    fn protocol_mismatch_disconnects() {
        let (_, hello) = Peer::outbound(1, ProtocolKind::Bitcoin, 0, 0);
        let mut bob = Peer::inbound(2, ProtocolKind::BitcoinNg);
        let actions = bob.on_message(hello, 0, 0);
        assert!(matches!(
            actions.last(),
            Some(PeerAction::Disconnect(PeerError::ProtocolMismatch { .. }))
        ));
        assert_eq!(bob.state(), PeerState::Disconnected);
        // A disconnected peer ignores further input.
        assert!(bob.on_message(Message::Ping(1), 0, 0).is_empty());
    }

    #[test]
    fn messages_before_handshake_disconnect() {
        let mut bob = Peer::inbound(2, ProtocolKind::BitcoinNg);
        let actions = bob.on_message(Message::Ping(9), 0, 0);
        assert!(matches!(
            actions.last(),
            Some(PeerAction::Disconnect(PeerError::MessageBeforeHandshake("ping")))
        ));
    }

    #[test]
    fn inventory_announcements_are_surfaced_and_remembered() {
        let (mut alice, _) = handshake_pair();
        let item = InvItem::new(InvKind::KeyBlock, sha256(b"kb"));
        let actions = alice.on_message(Message::Inv(vec![item]), 5, 200);
        assert_eq!(actions, vec![PeerAction::Announced(item)]);
        assert!(alice.knows(&item.id));
        // A `getdata` is a request, not an announcement: it says nothing about
        // what the remote holds beyond what it already told us.
        let wanted = InvItem::new(InvKind::Transaction, sha256(b"tx"));
        let actions = alice.on_message(Message::GetData(vec![wanted]), 5, 201);
        assert_eq!(actions, vec![PeerAction::Requested(wanted)]);
        assert!(!alice.knows(&wanted.id));
    }

    #[test]
    fn requests_deduplicate_in_flight_objects() {
        let (mut alice, _) = handshake_pair();
        let item = InvItem::new(InvKind::MicroBlock, sha256(b"m"));
        let first = alice.request(&[item]);
        assert_eq!(first, Some(Message::GetData(vec![item])));
        assert_eq!(alice.in_flight(), 1);
        // Requesting again while in flight is a no-op.
        assert_eq!(alice.request(&[item]), None);
    }

    #[test]
    fn a_block_request_outlives_the_block_until_the_caller_takes_it() {
        let (mut alice, _) = handshake_pair();
        let tx = Message::Tx(Box::new(ng_chain::transaction::TransactionBuilder::new().build()));
        let genesis = ng_core::chain::genesis_key_block(&Default::default());
        let block = Message::KeyBlock(Box::new(genesis));
        let [tx_id, block_id] = [&tx, &block].map(|m| m.carried_inventory().expect("carries").id);
        assert!(alice.note_request(tx_id) && alice.note_request(block_id));
        assert!(!alice.note_request(block_id), "already in flight");
        alice.on_message(tx, 5, 700);
        alice.on_message(block, 5, 701);
        assert_eq!(alice.in_flight(), 1, "a transaction's request ends with its body");
        assert!(alice.forget_request(&block_id), "the block answered a request");
        assert!(!alice.forget_request(&block_id), "a second copy would be a push");
    }

    #[test]
    fn inventory_bookkeeping_is_bounded_oldest_first() {
        let (mut alice, _) = handshake_pair();
        let id = |n: usize| sha256(&n.to_le_bytes());
        for n in 0..MAX_KNOWN_IDS + 8 {
            alice.mark_known(id(n));
        }
        assert!(!alice.knows(&id(7)), "oldest known ids were forgotten");
        assert!(alice.knows(&id(8)) && alice.knows(&id(MAX_KNOWN_IDS + 7)));
        // A remote that never answers cannot grow the request set either.
        for n in 0..MAX_IN_FLIGHT_IDS + 8 {
            alice.request(&[InvItem::new(InvKind::Transaction, id(n))]);
        }
        assert_eq!(alice.in_flight(), MAX_IN_FLIGHT_IDS);
    }

    #[test]
    fn ping_answered_with_matching_pong() {
        let (mut alice, _) = handshake_pair();
        let actions = alice.on_message(Message::Ping(77), 5, 300);
        assert_eq!(actions, vec![PeerAction::Send(Message::Pong(77))]);
    }

    #[test]
    fn sync_messages_are_delivered_and_remembered() {
        let (mut alice, _) = handshake_pair();
        let request = Message::GetHeaders {
            locator: vec![sha256(b"tip")],
            limit: 32,
        };
        assert_eq!(
            alice.on_message(request.clone(), 5, 500),
            vec![PeerAction::Deliver(request)]
        );
        let record = crate::sync::HeaderRecord {
            id: sha256(b"kb1"),
            prev: sha256(b"kb0"),
            kind: InvKind::KeyBlock,
            height: 3,
        };
        let actions = alice.on_message(Message::Headers(vec![record]), 5, 501);
        assert_eq!(actions, vec![PeerAction::Deliver(Message::Headers(vec![record]))]);
        // The serving peer is now known to have the described block.
        assert!(alice.knows(&record.id));

        // Sync messages before the handshake are protocol violations.
        let mut fresh = Peer::inbound(9, ProtocolKind::BitcoinNg);
        let actions = fresh.on_message(Message::Headers(vec![]), 0, 0);
        assert!(matches!(
            actions.last(),
            Some(PeerAction::Disconnect(PeerError::MessageBeforeHandshake("headers")))
        ));
    }

    #[test]
    fn overlay_messages_deliver_and_mark_known() {
        let (mut alice, _) = handshake_pair();
        let id = sha256(b"mb");
        let item = InvItem::new(InvKind::MicroBlock, id);

        // ihave marks the advertised ids known but surfaces the whole message
        // (no immediate per-item fetch like `inv`).
        let actions = alice.on_message(Message::IHave(vec![item]), 5, 600);
        assert_eq!(actions, vec![PeerAction::Deliver(Message::IHave(vec![item]))]);
        assert!(alice.knows(&id));

        // Control messages are plain deliveries.
        for msg in [
            Message::GetBlockTxn {
                block: id,
                indexes: vec![1],
            },
            Message::BlockTxn {
                block: id,
                txs: vec![],
            },
            Message::Graft(item),
            Message::Prune,
        ] {
            assert_eq!(
                alice.on_message(msg.clone(), 5, 601),
                vec![PeerAction::Deliver(msg)]
            );
        }

        // Before the handshake they are protocol violations like everything else.
        let mut fresh = Peer::inbound(9, ProtocolKind::BitcoinNg);
        let actions = fresh.on_message(Message::Prune, 0, 0);
        assert!(matches!(
            actions.last(),
            Some(PeerAction::Disconnect(PeerError::MessageBeforeHandshake("prune")))
        ));
    }

    #[test]
    fn duplicate_version_after_handshake_disconnects() {
        let (mut alice, _) = handshake_pair();
        let actions = alice.on_message(
            Message::Version {
                node_id: 9,
                protocol: ProtocolKind::BitcoinNg,
                best_height: 0,
                time_ms: 0,
            },
            5,
            400,
        );
        assert!(matches!(
            actions.last(),
            Some(PeerAction::Disconnect(PeerError::DuplicateVersion))
        ));
    }
}
