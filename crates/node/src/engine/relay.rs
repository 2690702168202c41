//! The relay component: the peer table and everything that decides what goes to
//! which connection — `inv`/`getdata`, compact blocks, the eager/lazy overlay.

use super::onboarding::Onboarding;
use super::{Effect, ReportEvent};
use ng_chain::fifo::BoundedFifoMap;
use ng_chain::transaction::Transaction;
use ng_crypto::sha256::Hash256;
use ng_net::message::InvItem;
use ng_net::overlay::Overlay;
use ng_net::peer::Peer;
use ng_net::relay::CompactRelay;
use std::collections::BTreeMap;

/// Cap on remembered held-back block ids (a misbehaving peer could otherwise grow
/// the set without bound by sending parentless blocks).
pub(super) const MAX_ORPHAN_CARRIERS: usize = 1024;

/// Cap on the relay memory of recently announced transactions (the role Bitcoin's
/// `mapRelay` played): a `getdata` that arrives after the leader serialized the
/// transaction out of the mempool is still answered, so the requester's compact
/// reconstruction hits instead of paying a `getblocktxn` round trip. Sized from
/// rate × round trip: the densest workload announces 20 tx/ms over links of at
/// most 20 ms each way, so ≈ 800 transactions are between `inv` and `getdata` at
/// any moment; 8192 leaves a 10× margin.
pub(super) const MAX_RELAY_TXS: usize = 8192;

/// The connections and what has been said over them.
#[derive(Debug)]
pub(super) struct Relay {
    /// Every registered connection (ready or not) by driver key: handshake state,
    /// what the remote is known to hold, what was requested from it.
    // ng-lint: allow(bounded-collections): one entry per live driver connection;
    // the driver's accept/connect limit is the cap and Closed removes entries.
    pub(super) peers: BTreeMap<u64, Peer>,
    /// Eager/lazy broadcast overlay (only driven when `config.gossip.overlay`).
    pub(super) overlay: Overlay,
    /// Partial compact-block reconstructions awaiting `blocktxn` replies.
    pub(super) compact: CompactRelay,
    /// Ids of tree blocks held back from relay: chain-level orphans (announced once
    /// the parent arrives and they are adopted) and, under full validation,
    /// side-branch microblocks (announced if their branch wins and validates). The
    /// block itself is read from the tree when its turn comes. Oldest-first
    /// eviction at [`MAX_ORPHAN_CARRIERS`] — losing-branch ids must not accumulate
    /// for the node's lifetime.
    pub(super) held_back: BoundedFifoMap<Hash256, ()>,
    /// Recently announced transactions, so a `getdata` outlives the transaction's
    /// stay in the mempool (see [`MAX_RELAY_TXS`]).
    pub(super) relay_memory: BoundedFifoMap<Hash256, Transaction>,
}

impl Relay {
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
        effects.push(Effect::Report(ReportEvent::PeerMisbehaved { peer, reason }));
        effects.push(Effect::Disconnect { peer });
        self.forget(peer, onboarding);
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
            effects.push(Effect::Send { peer, message });
        }
    }

    /// The chain was re-rooted: nothing held back against the old root can ever
    /// be announced.
    pub(super) fn clear_held_back(&mut self) {
        self.held_back.clear();
    }
}
