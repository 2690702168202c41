//! The relay component: the peer table and everything that decides what goes to
//! which connection — `inv`/`getdata`, compact blocks, the eager/lazy overlay.
//!
//! A transaction's first hop is its body, every later hop an `inv` the receiver
//! answers with `getdata` only if the body has not reached it yet
//! ([`Relay::relay_tx`]). Links are FIFO, so a leader's own transactions reach
//! each peer ahead of the compact block that names them.
//!
//! It owns the connections, the overlay's eager/lazy split, the half-done compact
//! reconstructions, the ids of blocks held back from relay and the memory of
//! recently announced transactions. It stores no block and no pending
//! transaction: the wire is served from the [`Chain`]'s block tree and mempool
//! (plus the below-root history the [`Onboarding`] component backfilled), and a
//! block is served exactly when it may be announced ([`Chain::announceable`]).

use super::chain::Chain;
use super::onboarding::Onboarding;
use super::{inv_kind, report, send, Effect, EngineConfig, GossipConfig, ReportEvent};
use ng_chain::fifo::BoundedFifoMap;
use ng_chain::transaction::Transaction;
use ng_core::block::NgBlock;
use ng_crypto::sha256::Hash256;
use ng_net::message::{InvItem, InvKind, Message, ProtocolKind};
use ng_net::overlay::Overlay;
use ng_net::peer::{Peer, PeerAction};
use ng_net::relay::{
    announcement_salt, transactions_at, CompactMicroBlock, CompactRelay, ReconstructOutcome,
};
use std::collections::BTreeMap;

/// Cap on remembered held-back block ids (a misbehaving peer could otherwise grow
/// the set without bound by sending parentless blocks).
const MAX_ORPHAN_CARRIERS: usize = 1024;

/// Cap on the relay memory of recently relayed transactions (the role Bitcoin's
/// `mapRelay` played): a `getdata` that arrives after the leader serialized the
/// transaction out of the mempool is still answered, so the requester's compact
/// reconstruction hits instead of paying a `getblocktxn` round trip. Sized from
/// rate × round trip: the densest workload relays 20 tx/ms over links of at most
/// 20 ms each way, so ≈ 800 transactions are younger than one `inv` → `getdata`
/// round trip. Only second-hop announcements are ever requested (the first hop
/// is the body), under a tenth of them in a mesh; 8192 leaves a 10× margin even
/// if every one were.
const MAX_RELAY_TXS: usize = 8192;

/// The connections and what has been said over them.
#[derive(Debug)]
pub(super) struct Relay {
    /// This node's id ([`EngineConfig::id`]): what it says in a handshake and
    /// salts its compact announcements with.
    id: u64,
    /// How blocks are relayed ([`EngineConfig::gossip`]).
    gossip: GossipConfig,
    /// Every registered connection (ready or not) by driver key: handshake state,
    /// what the remote is known to hold, what was requested from it.
    // ng-lint: allow(bounded-collections): one entry per live driver connection;
    // the driver's accept/connect limit is the cap and Closed removes entries.
    peers: BTreeMap<u64, Peer>,
    /// Eager/lazy broadcast overlay (only driven when `gossip.overlay`).
    overlay: Overlay,
    /// Partial compact-block reconstructions awaiting `blocktxn` replies.
    compact: CompactRelay,
    /// Ids of tree blocks held back from relay: chain-level orphans (announced once
    /// the parent arrives and they are adopted) and, under full validation,
    /// side-branch microblocks (announced if their branch wins and validates). The
    /// block itself is read from the tree when its turn comes. Oldest-first
    /// eviction at [`MAX_ORPHAN_CARRIERS`] — losing-branch ids must not accumulate
    /// for the node's lifetime.
    held_back: BoundedFifoMap<Hash256, ()>,
    /// Recently announced transactions, so a `getdata` outlives the transaction's
    /// stay in the mempool (see [`MAX_RELAY_TXS`]).
    relay_memory: BoundedFifoMap<Hash256, Transaction>,
}

impl Relay {
    /// No connections, nothing said.
    pub(super) fn new(cfg: &EngineConfig) -> Self {
        Relay {
            id: cfg.id,
            gossip: cfg.gossip,
            peers: BTreeMap::new(),
            overlay: Overlay::new(),
            compact: CompactRelay::new(),
            held_back: BoundedFifoMap::new(MAX_ORPHAN_CARRIERS),
            relay_memory: BoundedFifoMap::new(MAX_RELAY_TXS),
        }
    }

    // ---- the peer table -------------------------------------------------------

    /// Connections whose handshake completed, ascending. BTreeMap iteration is
    /// key order, so `Broadcast` expansion and every fan-out stay deterministic
    /// without a collect-and-sort pass.
    pub(super) fn ready(&self) -> impl Iterator<Item = u64> + '_ {
        self.peers
            .iter()
            .filter(|(_, state)| state.is_ready())
            .map(|(peer, _)| *peer)
    }

    /// [`Self::ready`], collected.
    pub(super) fn ready_peers(&self) -> Vec<u64> {
        self.ready().collect()
    }

    /// Every registered connection key, ascending.
    pub(super) fn connected_peers(&self) -> Vec<u64> {
        self.peers.keys().copied().collect()
    }

    /// The broadcast overlay: its eager and lazy sets, its next pull deadline.
    pub(super) fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Registers a new connection. The outbound side speaks first: it sends its
    /// `version`; an inbound connection waits for the remote's.
    pub(super) fn connect(
        &mut self,
        peer: u64,
        inbound: bool,
        height: u64,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        if self.peers.contains_key(&peer) {
            return; // already registered (e.g. the driver echoes its own dial)
        }
        let state = if inbound {
            Peer::inbound(self.id, ProtocolKind::BitcoinNg)
        } else {
            let (state, hello) = Peer::outbound(self.id, ProtocolKind::BitcoinNg, height, now_ms);
            send(effects, peer, hello);
            state
        };
        self.peers.insert(peer, state);
    }

    /// Runs a message through its connection's handshake and dedup state. `None`
    /// for an unknown or already-forgotten connection.
    pub(super) fn receive(
        &mut self,
        peer: u64,
        message: Message,
        height: u64,
        now_ms: u64,
    ) -> Option<Vec<PeerAction>> {
        Some(self.peers.get_mut(&peer)?.on_message(message, height, now_ms))
    }

    /// `peer` completed its handshake and joins the broadcast overlay.
    pub(super) fn peer_ready(&mut self, peer: u64) {
        if self.gossip.overlay {
            self.overlay.peer_ready(peer);
        }
    }

    /// Connection `peer` is gone: forget what was said over it, drop the
    /// reconstructions waiting on it, and tell the onboarding component, whose
    /// downloads, bootstrap or backfill may have been waiting on it too.
    pub(super) fn forget(&mut self, peer: u64, onboarding: &mut Onboarding) {
        self.peers.remove(&peer);
        self.overlay.peer_gone(peer);
        self.compact.peer_gone(peer);
        onboarding.peer_gone(peer);
    }

    /// `peer` violated the protocol: report it, close the connection, forget it.
    pub(super) fn punish(
        &mut self,
        peer: u64,
        reason: String,
        onboarding: &mut Onboarding,
        effects: &mut Vec<Effect>,
    ) {
        report(effects, ReportEvent::PeerMisbehaved { peer, reason });
        effects.push(Effect::Disconnect { peer });
        self.forget(peer, onboarding);
    }

    // ---- serving: the wire is answered from the tree and the mempool ------------

    /// An `inv`: fetch the object unless it is already here — a pending, recently
    /// relayed or already confirmed transaction, or a held block.
    pub(super) fn on_inv(
        &mut self,
        peer: u64,
        item: InvItem,
        chain: &Chain,
        onboarding: &Onboarding,
        effects: &mut Vec<Effect>,
    ) {
        let known = match item.kind {
            InvKind::Transaction => {
                chain.mempool().contains(&item.id)
                    || self.relay_memory.contains_key(&item.id)
                    || chain.view().is_confirmed(&item.id)
            }
            InvKind::KeyBlock | InvKind::MicroBlock => holds_block(&item.id, chain, onboarding),
        };
        if known {
            return;
        }
        let request = self.peers.get_mut(&peer).and_then(|state| state.request(&[item]));
        if let Some(message) = request {
            send(effects, peer, message);
        }
    }

    /// A `getdata`: answer it if the object can be served — a transaction from
    /// the mempool, else from the relay memory; a block by [`served_block`]. An
    /// unservable request is simply dropped.
    pub(super) fn on_getdata(
        &mut self,
        peer: u64,
        item: InvItem,
        chain: &Chain,
        onboarding: &Onboarding,
        effects: &mut Vec<Effect>,
    ) {
        let message = match item.kind {
            InvKind::Transaction => chain
                .mempool()
                .get(&item.id)
                .map(|entry| &entry.tx)
                .or_else(|| self.relay_memory.get(&item.id))
                .map(|tx| Message::Tx(Box::new(tx.clone()))),
            InvKind::KeyBlock | InvKind::MicroBlock => {
                served_block(&item.id, chain, onboarding).map(block_message)
            }
        };
        if let Some(message) = message {
            self.send_object(peer, item.id, message, effects);
        }
    }

    /// A `graft`: the link is eager again, and the graft *is* the pull request —
    /// serve the grafted block in full.
    pub(super) fn on_graft(
        &mut self,
        from: u64,
        item: InvItem,
        chain: &Chain,
        onboarding: &Onboarding,
        effects: &mut Vec<Effect>,
    ) {
        self.overlay.on_graft(from);
        if let Some(message) = served_block(&item.id, chain, onboarding).map(block_message) {
            self.send_object(from, item.id, message, effects);
        }
    }

    /// A `prune`: the remote asked not to be pushed to; the link turns lazy.
    pub(super) fn on_prune(&mut self, from: u64) {
        self.overlay.on_prune(from);
    }

    /// Serves a `getblocktxn` request from the block tree.
    pub(super) fn serve_block_txn(
        &self,
        from: u64,
        block: Hash256,
        indexes: &[u32],
        chain: &Chain,
        onboarding: &Onboarding,
        effects: &mut Vec<Effect>,
    ) {
        let Some(NgBlock::Micro(micro)) = served_block(&block, chain, onboarding) else {
            return; // never held or not servable: the requester's fallback covers it
        };
        if let Some(txs) = transactions_at(micro, indexes) {
            send(effects, from, Message::BlockTxn { block, txs });
        }
    }

    /// Sends `peer` the body of object `id` and notes that the remote now has it.
    fn send_object(&mut self, peer: u64, id: Hash256, message: Message, effects: &mut Vec<Effect>) {
        if let Some(state) = self.peers.get_mut(&peer) {
            state.mark_known(id);
        }
        send(effects, peer, message);
    }

    /// Sends `peer` a `getdata` for `items`. Any earlier request for the same ids
    /// on this connection is forgotten first: callers re-issue after a timeout (the
    /// original `getdata` or its reply may have been lost), and the connection's
    /// in-flight dedup would otherwise suppress the retry forever.
    pub(super) fn request_from(&mut self, peer: u64, items: &[InvItem], effects: &mut Vec<Effect>) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        for item in items {
            state.forget_request(&item.id);
        }
        if let Some(message) = state.request(items) {
            send(effects, peer, message);
        }
    }

    // ---- compact relay + broadcast overlay -------------------------------------

    /// A compact microblock announcement arrived: reconstruct it from the mempool
    /// (returning the block for the chain to judge), request the missing slots,
    /// or fall back to a full fetch.
    pub(super) fn on_compact(
        &mut self,
        from: u64,
        compact: CompactMicroBlock,
        chain: &Chain,
        effects: &mut Vec<Effect>,
    ) -> Option<NgBlock> {
        let id = compact.id();
        let held = chain.holds(&id);
        if held {
            report(effects, ReportEvent::BlockDuplicate { id });
        }
        if held || self.compact.is_pending(&id) {
            // A second eager path delivered this block, or announced it while the
            // first announcement is still being reconstructed: classic Plumtree
            // prune.
            self.prune_duplicate_link(from, effects);
            return None;
        }
        match self.compact.begin(compact, chain.mempool(), from) {
            ReconstructOutcome::Complete(micro) => {
                report(effects, ReportEvent::CompactReconstructed { id, fetched: 0 });
                return Some(NgBlock::Micro(*micro));
            }
            ReconstructOutcome::MissingTxs(indexes) => {
                send(effects, from, Message::GetBlockTxn { block: id, indexes });
            }
            ReconstructOutcome::Failed => self.fetch_full(from, id, effects),
        }
        None
    }

    /// A `blocktxn` reply arrived: complete the stashed reconstruction (returning
    /// the block for the chain to judge) or fall back to a full fetch.
    pub(super) fn on_block_txn(
        &mut self,
        from: u64,
        block: Hash256,
        txs: Vec<Transaction>,
        effects: &mut Vec<Effect>,
    ) -> Option<NgBlock> {
        let fetched = txs.len();
        match self.compact.resolve(&block, txs)? {
            ReconstructOutcome::Complete(micro) => {
                report(effects, ReportEvent::CompactReconstructed { id: block, fetched });
                Some(NgBlock::Micro(*micro))
            }
            _ => {
                self.fetch_full(from, block, effects);
                None
            }
        }
    }

    /// Lazy `ihave` advertisements: remember unseen blocks as pull candidates (the
    /// timer pass grafts the advertiser if no eager copy lands in time).
    pub(super) fn on_ihave(
        &mut self,
        from: u64,
        items: Vec<InvItem>,
        now_ms: u64,
        chain: &Chain,
        onboarding: &Onboarding,
    ) {
        if !self.gossip.overlay {
            return;
        }
        for item in items {
            if !matches!(item.kind, InvKind::KeyBlock | InvKind::MicroBlock) {
                continue;
            }
            if holds_block(&item.id, chain, onboarding) || self.compact.is_pending(&item.id) {
                continue;
            }
            // The timer is re-armed at the end of this `handle` pass, which picks
            // up the new deadline.
            self.overlay.on_ihave(from, item, now_ms);
        }
    }

    /// Compact reconstruction failed: fetch the announced block in full.
    fn fetch_full(&mut self, from: u64, id: Hash256, effects: &mut Vec<Effect>) {
        report(effects, ReportEvent::CompactFallback { id });
        self.request_from(from, &[InvItem::new(InvKind::MicroBlock, id)], effects);
    }

    /// A duplicate eager push arrived over `from`: demote the link to lazy and tell
    /// the other end to stop pushing to us (Plumtree's tree-repair move).
    pub(super) fn prune_duplicate_link(&mut self, from: u64, effects: &mut Vec<Effect>) {
        if self.gossip.overlay && self.overlay.on_duplicate(from) {
            report(effects, ReportEvent::OverlayPrune { peer: from });
            send(effects, from, Message::Prune);
        }
    }

    /// Fires overdue lazy pulls: each grafts its next advertiser back to eager and
    /// pulls the missed block over that link (the overlay's self-healing path).
    pub(super) fn drive(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        if self.overlay.pending_pulls() == 0 {
            return;
        }
        for (item, peer) in self.overlay.expire(now_ms) {
            report(effects, ReportEvent::OverlayGraft { peer });
            send(effects, peer, Message::Graft(item));
        }
    }

    /// A full copy of block `id` is here, whichever path delivered it: the
    /// overlay's pending lazy pull and any half-done compact reconstruction of it
    /// are moot.
    pub(super) fn block_arrived(&mut self, id: &Hash256) {
        self.overlay.block_arrived(id);
        self.compact.abandon(id);
    }

    // ---- announcing -----------------------------------------------------------

    /// Remembers an admitted transaction ([`MAX_RELAY_TXS`]) and relays it. One
    /// submitted here (`from` is `None`) is held by no peer, so an `inv` could
    /// never save its body and would only put the `getdata` round trip in front
    /// of it: its first hop is the `tx` itself. One a peer delivered may already
    /// have reached the others, so every later hop is announced and fetched.
    pub(super) fn relay_tx(
        &mut self,
        txid: Hash256,
        tx: Transaction,
        from: Option<u64>,
        effects: &mut Vec<Effect>,
    ) {
        let message = match from {
            None => Message::Tx(Box::new(tx.clone())),
            Some(_) => Message::Inv(vec![InvItem::new(InvKind::Transaction, txid)]),
        };
        self.relay_memory.insert(txid, tx);
        self.announce(txid, message, from, effects);
    }

    /// Hands `message` — the `inv` of a newly stored object `id`, or its body — to
    /// every ready peer that does not know the object yet, the source link
    /// excluded, and notes that they know it now: a single [`Effect::Broadcast`]
    /// when every ready peer needs it (a freshly produced local object), per-peer
    /// [`Effect::Send`]s otherwise. Transactions always take this path, even with
    /// the broadcast overlay on: mempool convergence is what makes compact
    /// reconstruction work.
    fn announce(
        &mut self,
        id: Hash256,
        message: Message,
        from: Option<u64>,
        effects: &mut Vec<Effect>,
    ) {
        // The peer that delivered the object obviously has it already.
        if let Some(source) = from.and_then(|source| self.peers.get_mut(&source)) {
            source.mark_known(id);
        }
        let targets: Vec<u64> = self
            .peers
            .iter_mut()
            .filter_map(|(peer, state)| state.offer(id).then_some(*peer))
            .collect();
        if from.is_none() && !targets.is_empty() && targets.len() == self.ready().count() {
            effects.push(Effect::Broadcast { message });
        } else {
            for peer in targets {
                send(effects, peer, message.clone());
            }
        }
    }

    /// Block `id` joined the tree: announce it if this node may vouch for it, hold
    /// it back otherwise — then announce whatever its arrival made relayable.
    ///
    /// Under full validation a microblock is relayed only once this node's own
    /// ledger validated it (it connected to the main chain) — relaying a
    /// never-validated side-branch block would hand peers a block this node cannot
    /// vouch for, and an honest relay must never take the punishment for a
    /// Byzantine block it merely forwarded. Side-branch blocks are held back and
    /// announced if their branch later wins.
    pub(super) fn block_accepted(
        &mut self,
        id: Hash256,
        from: Option<u64>,
        chain: &Chain,
        effects: &mut Vec<Effect>,
    ) {
        if chain.announceable(&id) {
            self.announce_block(id, from, chain, effects);
        } else {
            self.hold_back(id);
        }
        self.flush_held_back(chain, effects);
    }

    /// Remembers the id of a block that cannot be announced yet — an orphan the
    /// chain layer will adopt without telling us, or an unvalidated side branch.
    pub(super) fn hold_back(&mut self, id: Hash256) {
        self.held_back.insert(id, ());
    }

    /// Block `id` left the tree (invalidated): it will never be announced.
    pub(super) fn release(&mut self, id: &Hash256) {
        self.held_back.remove(id);
    }

    /// The chain was re-rooted: nothing held back against the old root can ever
    /// be announced.
    pub(super) fn clear_held_back(&mut self) {
        self.held_back.clear();
    }

    /// Announces a tree block: over the eager/lazy overlay when it is on, with a
    /// plain `inv` otherwise.
    pub(super) fn announce_block(
        &mut self,
        id: Hash256,
        from: Option<u64>,
        chain: &Chain,
        effects: &mut Vec<Effect>,
    ) {
        let Some(block) = chain.node().chain().get(&id) else {
            return;
        };
        let item = InvItem::new(inv_kind(block), id);
        if self.gossip.overlay {
            self.overlay_announce(item, block, from, effects);
        } else {
            self.announce(id, Message::Inv(vec![item]), from, effects);
        }
    }

    /// Announces a block over the structured overlay: the block itself (compacted
    /// for microblocks when `gossip.compact`) is pushed to the eager set, a
    /// one-item `ihave` to the lazy set, the source link excluded from both.
    fn overlay_announce(
        &mut self,
        item: InvItem,
        block: &NgBlock,
        from: Option<u64>,
        effects: &mut Vec<Effect>,
    ) {
        let id = item.id;
        if let Some(source) = from.and_then(|source| self.peers.get_mut(&source)) {
            source.mark_known(id);
        }
        // Only links that actually receive the body are marked as knowing it.
        let mut eager = self.overlay.push_targets(from);
        eager.retain(|peer| self.peers.get_mut(peer).is_some_and(|state| state.offer(id)));
        if !eager.is_empty() {
            let compact = match block {
                NgBlock::Micro(micro) if self.gossip.compact => {
                    CompactMicroBlock::from_micro(micro, announcement_salt(self.id, &id))
                }
                _ => None,
            };
            let push = match compact {
                Some(compact) => Message::CmpctBlock(Box::new(compact)),
                None => block_message(block),
            };
            for peer in eager {
                send(effects, peer, push.clone());
            }
        }
        for peer in self.overlay.lazy_targets(from) {
            // An `ihave` does not transfer the block, so the peer is *not* marked
            // as knowing it — a later graft must still be served.
            if self.peers.get(&peer).is_some_and(|state| state.is_ready() && !state.knows(&id)) {
                send(effects, peer, Message::IHave(vec![item]));
            }
        }
    }

    /// Announces held-back blocks that became relayable — adopted orphans, and
    /// (under full validation) side-branch microblocks whose branch has since won
    /// and been validated.
    fn flush_held_back(&mut self, chain: &Chain, effects: &mut Vec<Effect>) {
        let mut adopted: Vec<Hash256> = self
            .held_back
            .keys()
            .filter(|id| chain.announceable(id))
            .copied()
            .collect();
        // Sorted so the announcement order does not depend on arrival order.
        adopted.sort_unstable();
        for id in adopted {
            self.held_back.remove(&id);
            self.announce_block(id, None, chain, effects);
        }
    }
}

/// The block to answer a `getdata`, `graft` or `getblocktxn` with. The serving
/// rule is the announcing rule: a tree block this node may vouch for *now* —
/// never an unvalidated side-branch microblock, never an invalidated block (it
/// left the tree) — plus the below-root history the backfill fetched.
fn served_block<'a>(
    id: &Hash256,
    chain: &'a Chain,
    onboarding: &'a Onboarding,
) -> Option<&'a NgBlock> {
    if chain.announceable(id) {
        chain.node().chain().get(id)
    } else {
        onboarding.backfilled_block(id)
    }
}

/// True if the block is held, in the tree or below its root.
fn holds_block(id: &Hash256, chain: &Chain, onboarding: &Onboarding) -> bool {
    chain.holds(id) || onboarding.backfilled_block(id).is_some()
}

/// The wire message that carries a block, built from the tree's copy at the moment
/// it is sent.
fn block_message(block: &NgBlock) -> Message {
    match block {
        NgBlock::Key(key) => Message::KeyBlock(Box::new(key.clone())),
        NgBlock::Micro(micro) => Message::MicroBlock(Box::new(micro.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{Engine, Input};
    use super::*;
    use crate::testnet::test_tx;
    use ng_chain::amount::Amount;
    use ng_chain::payload::Payload;
    use ng_chain::transaction::{OutPoint, TransactionBuilder};
    use ng_core::block::{MicroBlock, MicroHeader};
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::SchnorrSigner;

    /// A microblock on `prev`, signed for `leader` with `keys`, whose one
    /// transaction spends an output that does not exist.
    fn phantom_spend(prev: Hash256, time_ms: u64, leader: u64, keys: KeyPair) -> MicroBlock {
        let payload = Payload::Transactions(vec![TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"phantom"), 0))
            .output(Amount::from_sats(1), KeyPair::from_id(9).address())
            .build()]);
        let header = MicroHeader { prev, time_ms, payload_digest: payload.digest(), leader };
        MicroBlock { signature: SchnorrSigner::new(keys).sign(&header.signing_hash()), header, payload }
    }

    #[test]
    fn reconstruction_restarts_after_the_awaited_peer_disconnects() {
        // The leader's chain: a key block, then a microblock of two transactions.
        let mut leader = ng_core::node::NgNode::new(9, params(), 0);
        let kb = leader.mine_and_adopt_key_block(1_000);
        let txs = vec![test_tx(1), test_tx(2)];
        let micro = leader
            .produce_microblock(1_100, Payload::Transactions(txs.clone()))
            .expect("leader is due");
        let id = micro.id();
        let announcement = |salt| {
            let compact = CompactMicroBlock::from_micro(&micro, salt).expect("has transactions");
            Message::CmpctBlock(Box::new(compact))
        };

        // b holds the key block and one of the two transactions.
        let mut b = gossip_engine(2, GossipConfig::scalable());
        register_peer(&mut b, 1);
        register_peer(&mut b, 2);
        b.handle(1_050, Input::Message { peer: 1, message: Message::KeyBlock(Box::new(kb)) });
        b.handle(1_060, Input::SubmitTx(Box::new(txs[0].clone())));
        let getblocktxn = |effects: &[Effect]| sends(effects).contains(&(1, "getblocktxn"));
        let asked = b.handle(1_200, Input::Message { peer: 1, message: announcement(7) });
        assert!(getblocktxn(&asked), "the missing slot is requested from the announcer");

        // The announcer leaves before answering; the next announcement of the same
        // block must start a fresh reconstruction, not be dropped as a duplicate.
        b.handle(1_210, Input::PeerDisconnected { peer: 1 });
        let asked = b.handle(1_220, Input::Message { peer: 2, message: announcement(8) });
        assert_eq!(sends(&asked), vec![(2, "getblocktxn")]);
        let reply = Message::BlockTxn { block: id, txs: vec![txs[1].clone()] };
        b.handle(1_230, Input::Message { peer: 2, message: reply });
        assert_eq!(b.tip(), id, "reconstructed from the second announcer");
    }

    #[test]
    fn an_ihave_schedules_no_pull_while_the_overlay_is_off() {
        let advert = Message::IHave(vec![InvItem::new(InvKind::KeyBlock, sha256(b"unseen"))]);
        let pulled = |gossip: GossipConfig| {
            let mut b = gossip_engine(2, gossip);
            register_peer(&mut b, 4);
            b.handle(1_000, Input::Message { peer: 4, message: advert.clone() });
            let expired = b.handle(1_000 + ng_net::overlay::PULL_TIMEOUT_MS, Input::Tick);
            sends(&expired).contains(&(4, "graft"))
        };
        assert!(pulled(GossipConfig::scalable()), "with the overlay on the advert is pulled");
        assert!(!pulled(GossipConfig::default()), "the flood has no use for adverts");
    }

    #[test]
    fn misbehaving_peer_is_disconnected_and_forgotten() {
        let mut a = engine(1);
        a.handle(
            1_000,
            Input::PeerConnected {
                peer: 9,
                inbound: true,
            },
        );
        // A ping before the handshake is a protocol violation.
        let effects = deliver(&mut a, 1_001, 9, Message::Ping(1));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::PeerMisbehaved { .. }))));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Disconnect { peer: 9 })));
        assert!(a.connected_peers().is_empty());
        // Later input on the dead connection is ignored.
        assert!(deliver(&mut a, 1_002, 9, Message::Ping(2))
            .is_empty());
    }

    #[test]
    fn a_submitted_transaction_is_pushed_to_every_ready_peer_once() {
        // Ready peers 0, 1, 2; connection 3 is still in its handshake.
        let mut a = engine(1);
        (0..3).for_each(|peer| register_peer(&mut a, peer));
        a.handle(0, Input::PeerConnected { peer: 3, inbound: true });
        let tx = test_tx(1);
        let body = Message::Tx(Box::new(tx.clone()));
        let effects = a.handle(1_000, Input::SubmitTx(Box::new(tx.clone())));
        // Every ready peer needs it: one broadcast of the body (drivers expand it
        // over the ready peers only), no `inv` for anybody to answer.
        assert!(effects.contains(&Effect::Broadcast { message: body }));
        assert_eq!(sends(&effects), vec![]);
        let knows = |a: &Engine, peer: u64| a.relay.peers[&peer].knows(&tx.txid());
        assert!((0..3).all(|peer| knows(&a, peer)), "every ready peer holds it now");
        assert!(!knows(&a, 3), "nothing went to the handshake");
        // So the id is never offered to them again, in either form.
        let mut again = Vec::new();
        a.relay.relay_tx(tx.txid(), tx.clone(), None, &mut again);
        a.relay.relay_tx(tx.txid(), tx.clone(), Some(2), &mut again);
        assert_eq!(again, vec![]);

        // A peer that announced the id first holds it: the others get one body each.
        let tx = test_tx(2);
        let item = InvItem::new(InvKind::Transaction, tx.txid());
        deliver(&mut a, 1_001, 1, Message::Inv(vec![item]));
        let effects = a.handle(1_002, Input::SubmitTx(Box::new(tx)));
        assert_eq!(sends(&effects), vec![(0, "tx"), (2, "tx")]);
    }

    #[test]
    fn a_forwarded_transaction_is_announced_to_everyone_but_its_source() {
        let mut a = engine(1);
        (0..3).for_each(|peer| register_peer(&mut a, peer));
        let effects = deliver(&mut a, 1_000, 1, Message::Tx(Box::new(test_tx(1))));
        assert_eq!(sends(&effects), vec![(0, "inv"), (2, "inv")], "no body anywhere");
    }

    #[test]
    fn inv_for_a_held_object_sends_nothing_and_getdata_serves_it() {
        let mut a = engine(1);
        register_peer(&mut a, 4);
        a.handle(1_000, Input::MineKeyBlock);
        let tx = test_tx(5);
        a.handle(1_100, Input::SubmitTx(Box::new(tx.clone())));
        let held = [
            InvItem::new(InvKind::KeyBlock, a.tip()),
            InvItem::new(InvKind::Transaction, tx.txid()),
        ];
        // An `inv` for something already here is not a request: nothing goes out.
        let effects = deliver(&mut a, 1_200, 4, Message::Inv(held.to_vec()));
        assert_eq!(sends(&effects), vec![]);
        // A `getdata` for the same objects is answered from the tree and the pool.
        let effects = deliver(&mut a, 1_201, 4, Message::GetData(held.to_vec()));
        assert_eq!(sends(&effects), vec![(4, "keyblock"), (4, "tx")]);
    }

    #[test]
    fn getdata_for_an_unknown_id_is_dropped_and_an_unknown_inv_is_requested_once() {
        let mut a = engine(1);
        register_peer(&mut a, 4);
        let unknown = InvItem::new(InvKind::MicroBlock, sha256(b"nobody has this"));
        // An unservable `getdata` must not bounce a `getdata` back.
        let effects = deliver(&mut a, 1_000, 4, Message::GetData(vec![unknown]));
        assert_eq!(sends(&effects), vec![]);
        // An `inv` for it is what triggers the fetch — once per connection.
        let inv = Input::Message {
            peer: 4,
            message: Message::Inv(vec![unknown]),
        };
        let effects = a.handle(1_001, inv.clone());
        assert!(effects.contains(&Effect::Send {
            peer: 4,
            message: Message::GetData(vec![unknown]),
        }));
        assert_eq!(sends(&a.handle(1_002, inv)), vec![], "already in flight");
    }

    #[test]
    fn relayed_block_is_announced_once_per_peer_and_never_to_its_source() {
        let mut a = engine(1);
        for peer in 0..4 {
            register_peer(&mut a, peer);
        }
        let mut miner = ng_core::node::NgNode::new(2, params(), 0);
        let kb = miner.mine_and_adopt_key_block(1_000);
        let delivery = Input::Message {
            peer: 2,
            message: Message::KeyBlock(Box::new(kb)),
        };
        let effects = a.handle(1_100, delivery.clone());
        assert_eq!(sends(&effects), vec![(0, "inv"), (1, "inv"), (3, "inv")]);
        // A second copy is a duplicate: every peer already knows the block.
        assert_eq!(sends(&a.handle(1_101, delivery)), vec![]);
    }

    #[test]
    fn unvalidated_and_invalidated_blocks_are_not_served() {
        // `a` validates and sits on its own three-epoch chain.
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        a.handle(1_000, Input::MineKeyBlock);
        let kb1 = a.node().chain().get(&a.tip()).expect("key block").clone();
        a.handle(1_100, Input::MineKeyBlock);
        a.handle(1_200, Input::MineKeyBlock);
        let own_tip = a.tip();

        // A Byzantine rival forks off the first epoch: key block, a microblock
        // spending a nonexistent output, and two more key blocks on top of it.
        let mut rival = ng_core::node::NgNode::new(2, validated_params(), 0);
        rival.on_block(kb1, 1_001).unwrap();
        let rival_kb1 = rival.mine_and_adopt_key_block(2_000);
        let bad = phantom_spend(rival_kb1.id(), 2_010, 2, *rival.keys());
        let bad_id = bad.id();
        rival.on_block(NgBlock::Micro(bad.clone()), 2_011).unwrap();
        let rival_kb2 = rival.mine_and_adopt_key_block(2_100);
        let rival_kb3 = rival.mine_and_adopt_key_block(2_200);

        register_peer(&mut a, 7);
        let deliver = |a: &mut Engine, now: u64, message: Message| {
            a.handle(now, Input::Message { peer: 7, message })
        };
        deliver(&mut a, 3_000, Message::KeyBlock(Box::new(rival_kb1)));
        deliver(&mut a, 3_001, Message::MicroBlock(Box::new(bad)));
        deliver(&mut a, 3_002, Message::KeyBlock(Box::new(rival_kb2.clone())));
        assert_eq!(a.tip(), own_tip, "the rival branch is not heavier yet");

        let ask = |a: &mut Engine, kind: InvKind, id: Hash256| {
            let effects = deliver(a, 3_100, Message::GetData(vec![InvItem::new(kind, id)]));
            sends(&effects)
        };
        // A side-branch key block carries its own proof of work and is served; the
        // microblock under it was never validated by this node and is not.
        assert_eq!(ask(&mut a, InvKind::KeyBlock, rival_kb2.id()), vec![(7, "keyblock")]);
        assert_eq!(ask(&mut a, InvKind::MicroBlock, bad_id), vec![]);

        // The third rival key block tips the balance; connecting the branch fails
        // on the Byzantine microblock and everything above it leaves the tree.
        deliver(&mut a, 3_200, Message::KeyBlock(Box::new(rival_kb3)));
        assert!(a.node().chain().is_invalid(&bad_id));
        assert!(a.node().chain().is_invalid(&rival_kb2.id()));
        assert_eq!(ask(&mut a, InvKind::KeyBlock, rival_kb2.id()), vec![]);
    }

    #[test]
    fn honest_relay_is_not_punished_for_a_byzantine_descendant() {
        // Engine `a` is leader with one valid tx-bearing microblock on its branch.
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        a.handle(1_000, Input::MineKeyBlock);
        let kb1_id = a.tip();
        let signer_a = SchnorrSigner::new(*a.node().keys());
        let mut spend = TransactionBuilder::new()
            .input(OutPoint::new(kb1_id, 0))
            .output(Amount::from_coins(24), KeyPair::from_id(5).address())
            .build();
        spend.sign_all_inputs(&signer_a);
        a.handle(1_100, Input::SubmitTx(Box::new(spend.clone())));
        produce(&mut a, 1_200);
        assert!(a.chainstate().is_confirmed(&spend.txid()));

        // A rival miner on the same epoch mines a heavier key block, and — being
        // Byzantine — signs a microblock on it spending a nonexistent output.
        let kb1 = a.node().chain().get(&kb1_id).expect("key block").clone();
        let mut rival = ng_core::node::NgNode::new(2, validated_params(), 0);
        rival.on_block(kb1, 1_001).unwrap();
        let rival_kb = rival.mine_and_adopt_key_block(2_000);
        let bad = phantom_spend(rival_kb.id(), 2_010, 2, *rival.keys());
        let bad_id = bad.id();

        // An honest peer relays the Byzantine microblock FIRST (it becomes a
        // pending child), then the valid rival key block. Adopting the key block
        // drags the pending child in: the reorg disconnects a's microblock,
        // connects the rival key block, and fails on the Byzantine child.
        register_peer(&mut a, 7);
        deliver(&mut a, 3_000, 7, Message::MicroBlock(Box::new(bad)));
        let effects = deliver(&mut a, 3_001, 7, Message::KeyBlock(Box::new(rival_kb.clone())));

        assert_eq!(a.tip(), rival_kb.id(), "heavier valid branch adopted");
        assert!(a.node().chain().is_invalid(&bad_id));
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, Effect::Report(ReportEvent::BlockRejected { id }) if *id == bad_id)),
            "Byzantine child rejected"
        );
        // The peer delivered a *valid* carrier (the key block); it must not be
        // disconnected for the Byzantine child that rode behind it.
        assert!(
            !effects.iter().any(|e| matches!(e, Effect::Disconnect { .. })),
            "honest relay must not be punished"
        );
        assert!(a.connected_peers().contains(&7));
        // The transaction disconnected before the failed connect was not lost: the
        // accumulated delta re-admitted it to the mempool.
        assert!(
            a.mempool_contains(&spend.txid()),
            "disconnected tx re-admitted despite the mid-roll rejection"
        );
        assert!(!a.chainstate().is_confirmed(&spend.txid()));
    }

    #[test]
    fn direct_sender_of_invalid_microblock_is_disconnected() {
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        register_peer(&mut a, 3);
        a.handle(1_000, Input::MineKeyBlock);
        let tip = a.tip();
        // The Byzantine leader (this engine's own id/keys, so the signature is
        // valid) sends a phantom-spend microblock directly.
        let bad = phantom_spend(tip, 1_500, 1, KeyPair::from_id(1));
        let bad_id = bad.id();
        let effects = deliver(&mut a, 2_000, 3, Message::MicroBlock(Box::new(bad)));
        assert_eq!(a.tip(), tip, "ledger unchanged");
        assert!(a.node().chain().is_invalid(&bad_id));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::PeerMisbehaved { peer: 3, .. }))));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Disconnect { peer: 3 })));
        assert!(!a.connected_peers().contains(&3));
    }
    #[test]
    fn an_off_curve_public_key_from_the_wire_is_refused_and_the_engine_carries_on() {
        // 33 bytes that are no curve point, as a frame delivers them: the decoder
        // takes no square root, so they arrive as a `PublicKey`.
        // x = 5: 5³ + 7 = 132 has no square root mod p.
        let mut bytes = [0u8; 33];
        (bytes[0], bytes[32]) = (2, 5);
        assert!(ng_crypto::keys::PublicKey::from_compressed(bytes).is_none());
        let forged: ng_crypto::keys::PublicKey =
            serde_json::from_str(&format!("{{\"compressed\":{bytes:?}}}")).expect("decodes");

        // `a` confirms an output paid to the hash of those bytes. A spend naming
        // them passes the address check and reaches the signature check.
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        register_peer(&mut a, 7);
        a.handle(1_000, Input::MineKeyBlock);
        let signer = SchnorrSigner::new(*a.node().keys());
        let spend_to = |from: Hash256, coins: u64, to| {
            let mut tx = TransactionBuilder::new()
                .input(OutPoint::new(from, 0))
                .output(Amount::from_coins(coins), to)
                .build();
            tx.sign_all_inputs(&signer);
            tx
        };
        let bait = spend_to(a.tip(), 25, forged.address());
        a.handle(1_100, Input::SubmitTx(Box::new(bait.clone())));
        produce(&mut a, 1_200);
        let mut spend = spend_to(bait.txid(), 24, KeyPair::from_id(9).address());
        spend.inputs[0].pubkey = Some(forged);
        let effects = deliver(&mut a, 1_300, 7, Message::Tx(Box::new(spend)));
        assert!(!reports(&effects).any(|e| matches!(e, ReportEvent::TxAccepted { .. })));
        assert_eq!(a.mempool_len(), 0);

        // A key block may name them as its leader key — proof of work is all it
        // needs — but no microblock verifies under it.
        let mut key_block = a.node().clone().mine_key_block(2_000);
        (key_block.miner, key_block.leader_pubkey, key_block.nonce) = (2, forged, 0);
        while !key_block.meets_target() {
            key_block.nonce += 1;
        }
        let micro = phantom_spend(key_block.id(), 2_100, 2, *a.node().keys());
        deliver(&mut a, 2_001, 7, Message::KeyBlock(Box::new(key_block.clone())));
        assert_eq!(a.tip(), key_block.id());
        let effects = deliver(&mut a, 2_101, 7, Message::MicroBlock(Box::new(micro.clone())));
        let rejected = ReportEvent::BlockRejected { id: micro.id() };
        assert!(reports(&effects).any(|event| *event == rejected));
        a.handle(3_000, Input::MineKeyBlock);
        assert_eq!(a.height(), 4, "still handling inputs");
    }
}
