//! The onboarding component: how a node that is behind catches up — headers-first
//! download, snapshot bootstrap against a pin, backfill of the history below it.
//!
//! It owns the download scheduler, the bootstrap and backfill progress, the
//! below-root blocks the backfill fetched, and the height of the chain root. It
//! reads the block tree (locators, "do I hold this header's block") and re-roots
//! it at a verified snapshot through the [`Chain`] it is handed, and sends its
//! requests through the [`Relay`], which owns the connections.

use super::chain::Chain;
use super::relay::Relay;
use super::{inv_kind, report, send, Effect, EngineConfig, ReportEvent, SnapshotPin};
use ng_chain::utxo::UtxoSet;
use ng_core::block::NgBlock;
use ng_crypto::sha256::Hash256;
use ng_net::message::{InvItem, InvKind, Message, WireSnapshot};
use ng_net::sync::{
    build_locator, ids_after_locator, HeaderRecord, SyncCommand, SyncScheduler,
    DEFAULT_HEADER_BATCH,
};
use std::collections::{BTreeSet, HashMap};

/// Catch-up state: the download scheduler, the bootstrap and the backfill.
#[derive(Debug)]
pub(super) struct Onboarding {
    /// Multi-peer sync: concurrent header walks plus the windowed parallel block
    /// download scheduler (request deadlines, retry-on-another-peer, eviction).
    sync: SyncScheduler,
    /// In-progress snapshot bootstrap; `None` once decided (applied, or fallen
    /// back to a full block download).
    bootstrap: Option<BootstrapState>,
    /// In-progress background backfill of the history below a snapshot root.
    backfill: Option<BackfillState>,
    /// Blocks fetched by the snapshot backfill. They sit below the tree's root, so
    /// this is the one block store outside the tree; it exists to serve full syncs.
    /// Capped by the root height: [`Onboarding::claim_backfill_headers`] stops requesting
    /// once one block per height below the root is held or expected.
    // ng-lint: bound(root_height)
    backfilled: HashMap<Hash256, NgBlock>,
    /// Height of the chain root: 0 on a genesis-rooted chain, the pin height after
    /// a snapshot bootstrap. Forward sync ignores header records at or below it —
    /// they can never connect; the backfill owns that range.
    root_height: u64,
    /// Deadline of a bootstrap or backfill request, in milliseconds (the download
    /// scheduler's own `request_timeout_ms`).
    request_timeout_ms: u64,
}

/// Progress of a snapshot bootstrap: ask one ready peer at a time for the pinned
/// snapshot; fall back to a full block download once every ready peer was tried.
#[derive(Debug)]
struct BootstrapState {
    /// The trusted checkpoint the served snapshot must match.
    pin: SnapshotPin,
    /// Peers already asked (whether they answered or not).
    // ng-lint: allow(bounded-collections): subset of the connected peers, which
    // the driver's connection limit caps; dropped whole when bootstrap decides.
    tried: BTreeSet<u64>,
    /// Outstanding request: `(peer, deadline_ms)`.
    waiting: Option<(u64, u64)>,
}

/// Progress of the background history backfill below a snapshot root: a
/// sequential header walk from genesis toward the root against one peer at a
/// time, bodies fetched batch by batch. Fetched blocks are stored and made
/// servable, never connected — they sit below the root.
#[derive(Debug, Default)]
struct BackfillState {
    /// The peer currently serving the walk.
    peer: u64,
    /// Deadline of the outstanding request (headers or bodies); expiry rotates
    /// the walk to the next ready peer.
    deadline: u64,
    /// A `getheaders` is out and its reply pending.
    awaiting_headers: bool,
    /// Requested bodies not yet delivered: id → (height, kind).
    // ng-lint: bound(DEFAULT_HEADER_BATCH)
    expected: HashMap<Hash256, (u64, InvKind)>,
    /// Id of the last header record fetched (leads the next locator).
    cursor: Option<Hash256>,
    /// The header walk reached the root; finish once `expected` drains.
    exhausted: bool,
    /// Blocks fetched so far.
    fetched: u64,
}

impl Onboarding {
    /// Catch-up state for a chain rooted at `root_height`. With a `pin`, the engine
    /// first tries to fetch the pinned snapshot.
    pub(super) fn new(cfg: &EngineConfig, root_height: u64, pin: Option<SnapshotPin>) -> Self {
        Onboarding {
            sync: SyncScheduler::new(cfg.sync),
            bootstrap: pin.map(|pin| BootstrapState {
                pin,
                tried: BTreeSet::new(),
                waiting: None,
            }),
            backfill: None,
            backfilled: HashMap::new(),
            root_height,
            request_timeout_ms: cfg.sync.request_timeout_ms,
        }
    }

    /// The download scheduler, for the driver-facing sync queries.
    pub(super) fn sync(&self) -> &SyncScheduler {
        &self.sync
    }

    /// True while a snapshot bootstrap is undecided.
    pub(super) fn bootstrapping(&self) -> bool {
        self.bootstrap.is_some()
    }

    /// True while the background history backfill still runs.
    pub(super) fn backfilling(&self) -> bool {
        self.backfill.is_some()
    }

    /// Height of the chain root.
    pub(super) fn root_height(&self) -> u64 {
        self.root_height
    }

    /// A below-root block the backfill fetched.
    pub(super) fn backfilled_block(&self, id: &Hash256) -> Option<&NgBlock> {
        self.backfilled.get(id)
    }

    /// A handshake completed. The sync is unconditional: after a partition heals,
    /// both sides can sit at the same *height* on different chains (microblocks
    /// add height without work), so heights cannot tell who needs blocks. A peer
    /// that is already in sync just answers with an empty headers batch. While a
    /// snapshot bootstrap is undecided the walk stays parked — a successful
    /// bootstrap would re-root the chain and discard anything fetched against
    /// genesis.
    pub(super) fn peer_ready(&mut self, peer: u64, best_height: u64) {
        self.sync.peer_ready(peer, best_height);
        if self.bootstrap.is_none() {
            self.sync.request_sync(peer);
        }
    }

    /// A connection went away: its downloads are re-assigned, and a bootstrap or
    /// backfill request it owed an answer to moves on at the next drive.
    pub(super) fn peer_gone(&mut self, peer: u64) {
        self.sync.peer_gone(peer);
        if let Some(boot) = self.bootstrap.as_mut() {
            if boot.waiting.is_some_and(|(waiting_on, _)| waiting_on == peer) {
                boot.waiting = None; // ask the next candidate on the next drive
            }
        }
        if let Some(backfill) = self.backfill.as_mut() {
            if backfill.peer == peer {
                backfill.deadline = 0; // rotate to another peer on the next drive
            }
        }
    }

    /// Clears any scheduled download of block `id`, no matter which path delivered
    /// it — the assigned peer's reply, a gossip push from a third peer, a
    /// producer's broadcast. True if the scheduler expected the block.
    pub(super) fn note_delivery(&mut self, id: &Hash256) -> bool {
        self.sync.note_delivery(id)
    }

    /// Starts (or joins) a header walk against `peer`.
    pub(super) fn request_sync(&mut self, peer: u64) {
        self.sync.request_sync(peer);
    }

    /// The earliest deadline the scheduler, the bootstrap or the backfill waits on.
    pub(super) fn next_deadline(&self, relay: &Relay) -> Option<u64> {
        let bootstrap = self.bootstrap.as_ref().and_then(|boot| boot.waiting);
        // Without a ready peer the backfill deadline cannot be acted on; the next
        // handshake re-drives the backfill anyway (don't spin the timer).
        let backfill = self.backfill.as_ref().filter(|bf| {
            (bf.awaiting_headers || !bf.expected.is_empty()) && relay.ready().next().is_some()
        });
        [
            self.sync.next_deadline(),
            bootstrap.map(|(_, deadline)| deadline),
            backfill.map(|bf| bf.deadline),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// One scheduler pass, run after every input: drive the snapshot bootstrap
    /// while it is undecided (header walks stay parked — a successful bootstrap
    /// re-roots the chain and would discard anything fetched against genesis),
    /// then execute the download scheduler's commands, then advance the
    /// background backfill.
    pub(super) fn drive(
        &mut self,
        now_ms: u64,
        chain: &Chain,
        relay: &mut Relay,
        effects: &mut Vec<Effect>,
    ) {
        self.drive_bootstrap(now_ms, relay, effects);
        if self.bootstrap.is_some() {
            return;
        }
        // The connect frontier caps how far ahead assignments may run: arrivals
        // beyond it sit in the bounded orphan buffer until the gap closes.
        let store = chain.node().chain().store();
        let frontier = store.tip_height();
        for command in self.sync.plan(now_ms, frontier) {
            match command {
                SyncCommand::RequestHeaders { peer, lead } => {
                    let mut locator = build_locator(&store.main_chain());
                    if let Some(lead) = lead {
                        locator.insert(0, lead);
                    }
                    let limit = DEFAULT_HEADER_BATCH;
                    send(effects, peer, Message::GetHeaders { locator, limit });
                }
                SyncCommand::RequestBlocks { peer, items } => {
                    // A timed-out request can be re-assigned to the same peer
                    // (single-peer networks, post-unjam retries).
                    relay.request_from(peer, &items, effects);
                }
                SyncCommand::Evicted { peer } => {
                    report(effects, ReportEvent::SyncPeerEvicted { peer });
                }
            }
        }
        self.drive_backfill(now_ms, relay, effects);
    }

    /// Advances the snapshot bootstrap: ask one ready peer at a time for the
    /// pinned snapshot, rotate on timeout or an honest miss, and fall back to a
    /// full parallel block download once every connected peer has been tried.
    fn drive_bootstrap(&mut self, now_ms: u64, relay: &Relay, effects: &mut Vec<Effect>) {
        let Some(boot) = self.bootstrap.as_mut() else {
            return;
        };
        if let Some((_, deadline)) = boot.waiting {
            if now_ms < deadline {
                return;
            }
            boot.waiting = None; // expired: the candidate never answered
        }
        let ready = relay.ready_peers();
        if let Some(candidate) = ready.iter().copied().find(|p| !boot.tried.contains(p)) {
            boot.tried.insert(candidate);
            boot.waiting = Some((candidate, now_ms + self.request_timeout_ms));
            let height = boot.pin.height;
            send(effects, candidate, Message::GetSnapshot { height });
            return;
        }
        if ready.is_empty() {
            return; // nobody to ask yet; retried when a handshake completes
        }
        // Every connected peer was tried and none served the pin: give up on the
        // shortcut and sync the whole chain the normal way.
        self.bootstrap = None;
        for peer in ready {
            self.sync.request_sync(peer);
        }
    }

    /// Handles a `snapshot` reply while bootstrapping. Only the candidate the
    /// bootstrap is currently waiting on is listened to — stray or late replies
    /// are dropped. A verified snapshot re-roots the chain; a tampered one costs
    /// the server its connection.
    pub(super) fn handle_snapshot(
        &mut self,
        cfg: &EngineConfig,
        from: u64,
        snapshot: Option<WireSnapshot>,
        chain: &mut Chain,
        relay: &mut Relay,
        effects: &mut Vec<Effect>,
    ) {
        let Some(boot) = self.bootstrap.as_mut() else {
            return;
        };
        if boot.waiting.is_none_or(|(peer, _)| peer != from) {
            return;
        }
        boot.waiting = None;
        let pin = boot.pin;
        let Some(snapshot) = snapshot else {
            return; // honest miss; `drive_sync` asks the next candidate
        };
        match verify_pinned_snapshot(cfg, pin, snapshot) {
            Ok((snapshot, utxo)) => {
                // Re-root at the verified snapshot: the chain restarts from the
                // pinned key block as if it were genesis, the ledger view adopts
                // the served UTXO set, and the download scheduler starts fresh
                // against the new root.
                let height = snapshot.height;
                chain.reroot(cfg, pin, snapshot, utxo, effects);
                relay.clear_held_back();
                self.root_height = height;
                self.bootstrap = None;
                report(effects, ReportEvent::SnapshotApplied { height });
                // Everything scheduled so far targeted the genesis root and can
                // never connect; start clean walks from the snapshot root instead.
                self.sync.reset_downloads();
                let ready = relay.ready_peers();
                for peer in &ready {
                    self.sync.request_sync(*peer);
                }
                // Background backfill of pre-root history, so this node can serve
                // full syncs too. Nothing is outstanding yet, so the next drive
                // (the end of this `handle` pass) issues the first request.
                self.backfill = ready.first().map(|first| BackfillState {
                    peer: *first,
                    ..BackfillState::default()
                });
            }
            Err(reason) => {
                // Served bytes that fail the pinned commitment are not a cache
                // miss but an attempted feed of a forged ledger: cut the cord.
                report(effects, ReportEvent::SnapshotRejected { peer: from });
                relay.punish(from, reason, self, effects);
            }
        }
    }

    /// Advances the background backfill of pre-root history. The backfill is a
    /// plain sequential walk — one `getheaders` below the root, then the bodies —
    /// because it is off the critical path: the node is already at the tip.
    fn drive_backfill(&mut self, now_ms: u64, relay: &mut Relay, effects: &mut Vec<Effect>) {
        let Some(bf) = self.backfill.as_mut() else {
            return;
        };
        if bf.exhausted && bf.expected.is_empty() && !bf.awaiting_headers {
            let blocks = bf.fetched;
            self.backfill = None;
            report(effects, ReportEvent::BackfillCompleted { blocks });
            return;
        }
        let outstanding = bf.awaiting_headers || !bf.expected.is_empty();
        if outstanding && now_ms < bf.deadline {
            return;
        }
        let ready = relay.ready_peers();
        let Some(first) = ready.first().copied() else {
            return;
        };
        if outstanding {
            // The current peer missed its deadline: rotate to the next one and
            // re-issue (the sequential walk tolerates duplicate replies).
            bf.awaiting_headers = false;
            bf.peer = ready.iter().copied().find(|p| *p > bf.peer).unwrap_or(first);
        } else if !ready.contains(&bf.peer) {
            bf.peer = first;
        }
        bf.deadline = now_ms + self.request_timeout_ms;
        let peer = bf.peer;
        if bf.expected.is_empty() {
            bf.awaiting_headers = true;
            let locator = bf.cursor.map(|id| vec![id]).unwrap_or_default();
            let limit = DEFAULT_HEADER_BATCH;
            send(effects, peer, Message::GetHeaders { locator, limit });
        } else {
            let pending = bf
                .expected
                .iter()
                .map(|(id, (height, kind))| (*height, InvItem::new(*kind, *id)))
                .collect();
            request_bodies(relay, peer, pending, effects);
        }
    }

    /// Intercepts a `headers` reply that belongs to the backfill walk rather than
    /// the forward sync. Attribution: a backfill reply starts at or below the
    /// root height, while forward-sync replies always start above it (honest
    /// servers fork forward from our rooted locator). Returns true if claimed.
    fn claim_backfill_headers(
        &mut self,
        peer: u64,
        records: &[HeaderRecord],
        now_ms: u64,
        relay: &mut Relay,
        effects: &mut Vec<Effect>,
    ) -> bool {
        let Some(bf) = self.backfill.as_mut() else {
            return false;
        };
        if bf.peer != peer || !bf.awaiting_headers {
            return false;
        }
        let root_height = self.root_height;
        if records.first().is_some_and(|first| first.height > root_height) {
            return false; // starts above the root: that is the forward sync's reply
        }
        bf.awaiting_headers = false;
        let wanted: Vec<&HeaderRecord> =
            records.iter().filter(|r| r.height < root_height).collect();
        if let Some(last) = wanted.last() {
            bf.cursor = Some(last.id);
        }
        // The walk ends when the batch reaches the root (records at or above the
        // root were filtered out), runs dry, or hits the server's tip early.
        bf.exhausted |= records.is_empty()
            || wanted.len() < records.len()
            || (records.len() as u32) < DEFAULT_HEADER_BATCH;
        let mut fresh: Vec<(u64, InvItem)> = Vec::new();
        for record in wanted {
            if self.backfilled.contains_key(&record.id) || bf.expected.contains_key(&record.id) {
                continue;
            }
            // One block per height below the root is all of history; a server
            // describing more is lying, and `backfilled` must stay bounded.
            if (self.backfilled.len() + bf.expected.len()) as u64 >= root_height {
                bf.exhausted = true;
                break;
            }
            bf.expected.insert(record.id, (record.height, record.kind));
            fresh.push((record.height, InvItem::new(record.kind, record.id)));
        }
        if fresh.is_empty() {
            // Everything in this batch is already held: step again immediately
            // (the next drive sends the next getheaders, or finishes).
            bf.deadline = now_ms;
            return true;
        }
        bf.deadline = now_ms + self.request_timeout_ms;
        request_bodies(relay, peer, fresh, effects);
        true
    }

    /// A `headers` batch arrived: the backfill claims the reply to its own walk,
    /// anything else feeds the forward sync.
    pub(super) fn handle_headers(
        &mut self,
        peer: u64,
        records: Vec<HeaderRecord>,
        now_ms: u64,
        chain: &Chain,
        relay: &mut Relay,
        effects: &mut Vec<Effect>,
    ) {
        let count = records.len();
        report(effects, ReportEvent::SyncBatchReceived { peer, count });
        if self.claim_backfill_headers(peer, &records, now_ms, relay, effects) {
            return;
        }
        // Records at or below the chain root can never connect (a snapshot-rooted
        // store holds no history there); they are the backfill's business, not the
        // forward sync's. Feeding the remainder with a correspondingly reduced
        // limit preserves the "partial batch means tip reached" signal.
        let root_height = self.root_height;
        let forward: Vec<HeaderRecord> = records
            .iter()
            .filter(|r| r.height > root_height)
            .copied()
            .collect();
        let dropped = (records.len() - forward.len()) as u32;
        let limit = if forward.is_empty() && !records.is_empty() {
            // Every record fell at or below the root: this peer has nothing for
            // the forward sync (it may be stuck on a pre-root branch). An
            // unreachable limit makes the batch read as partial, ending the walk
            // instead of re-requesting the same useless range forever.
            u32::MAX
        } else {
            DEFAULT_HEADER_BATCH.saturating_sub(dropped)
        };
        let store = chain.node().chain().store();
        self.sync.on_headers(peer, &forward, limit, |id| store.contains(id));
    }

    /// Takes a block body the backfill asked for. Such a block lives below the
    /// chain root: it goes to durable storage and `backfilled` (servable to
    /// syncing peers) but never to the chain, which could only orphan it. Any
    /// other block is handed back — unless it is a re-delivered copy of an
    /// already-backfilled one, which is dropped.
    pub(super) fn claim_block(
        &mut self,
        block: NgBlock,
        chain: &mut Chain,
        effects: &mut Vec<Effect>,
    ) -> Option<NgBlock> {
        let id = block.id();
        let claimed = self.backfill.as_mut().and_then(|bf| {
            let (height, _) = bf.expected.remove(&id)?;
            bf.fetched += 1;
            Some(height)
        });
        match claimed {
            Some(height) => {
                chain.store_below_root(&block, height, effects);
                self.backfilled.insert(id, block);
                None
            }
            None => (!self.backfilled.contains_key(&id)).then_some(block),
        }
    }
}

/// Requests block bodies from `peer`, lowest height first (ids break ties, so the
/// order never depends on map iteration).
fn request_bodies(
    relay: &mut Relay,
    peer: u64,
    mut bodies: Vec<(u64, InvItem)>,
    effects: &mut Vec<Effect>,
) {
    bodies.sort_unstable_by_key(|(height, item)| (*height, item.id));
    let items: Vec<InvItem> = bodies.into_iter().map(|(_, item)| item).collect();
    relay.request_from(peer, &items, effects);
}

/// Answers a `getheaders` from the main chain.
pub(super) fn serve_headers(
    chain: &Chain,
    peer: u64,
    locator: &[Hash256],
    limit: u32,
    effects: &mut Vec<Effect>,
) {
    report(effects, ReportEvent::SyncRequestServed { peer });
    let store = chain.node().chain().store();
    let main_chain = store.main_chain();
    let limit = (limit as usize).clamp(1, 4096);
    let records: Vec<HeaderRecord> = ids_after_locator(&main_chain, locator, limit)
        .iter()
        .filter_map(|id| {
            let stored = store.get(id)?;
            Some(HeaderRecord {
                id: *id,
                prev: stored.block.prev(),
                kind: inv_kind(&stored.block),
                height: stored.height,
            })
        })
        .collect();
    send(effects, peer, Message::Headers(records));
}

/// Checks a served snapshot against the configured pin. The commitment is
/// recomputed locally from the served entries — nothing the server claims
/// about its own UTXO set is trusted, only bytes that hash to the pin.
fn verify_pinned_snapshot(
    cfg: &EngineConfig,
    pin: SnapshotPin,
    snapshot: WireSnapshot,
) -> Result<(WireSnapshot, UtxoSet), String> {
    if snapshot.height != pin.height {
        return Err(format!(
            "snapshot height {} does not match pinned height {}",
            snapshot.height, pin.height
        ));
    }
    if snapshot.root.id() != pin.root {
        return Err("snapshot root does not match pinned key block".into());
    }
    let mut utxo = UtxoSet::with_maturity(cfg.params.coinbase_maturity);
    for (outpoint, entry) in &snapshot.entries {
        if utxo.insert_unchecked(*outpoint, *entry).is_some() {
            return Err("snapshot lists a UTXO twice".into());
        }
    }
    if utxo.commitment() != pin.sorted {
        return Err("snapshot UTXO set does not hash to the pinned commitment".into());
    }
    Ok((snapshot, utxo))
}

/// Answers a `getsnapshot` with the checkpoint at `height`, if this node holds
/// it; a miss is an honest `Snapshot(None)` so the requester moves to its next
/// candidate without waiting out a timeout.
pub(super) fn serve_snapshot(chain: &mut Chain, peer: u64, height: u64, effects: &mut Vec<Effect>) {
    let reply = chain.snapshot_at(height).map(|snap| {
        Box::new(WireSnapshot {
            root: snap.root,
            height: snap.height,
            total_work: snap.total_work,
            entries: snap.entries,
            confirmed: snap.confirmed,
        })
    });
    if reply.is_some() {
        report(effects, ReportEvent::SnapshotServed { peer });
    }
    send(effects, peer, Message::Snapshot(reply));
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{Engine, Input};
    use super::*;
    use ng_core::node::NgNode;
    use ng_crypto::sha256::sha256;
    use ng_net::message::ProtocolKind;

    /// A relay whose connections `peers` completed their handshake.
    fn ready_relay(cfg: &EngineConfig, peers: &[u64]) -> Relay {
        let mut relay = Relay::new(cfg);
        for &peer in peers {
            relay.connect(peer, true, 0, 0, &mut Vec::new());
            let version = Message::Version {
                node_id: 10_000 + peer,
                protocol: ProtocolKind::BitcoinNg,
                best_height: 0,
                time_ms: 0,
            };
            relay.receive(peer, version, 0, 0);
            relay.receive(peer, Message::Verack, 0, 0);
        }
        assert_eq!(relay.ready_peers(), peers);
        relay
    }

    /// A chain of `n` key blocks mined by somebody else, as header records that
    /// all claim to sit below a root at `claimed_below`.
    fn history(n: u64, claimed_below: u64) -> (Vec<NgBlock>, Vec<HeaderRecord>) {
        let mut miner = NgNode::new(7, params(), 0);
        let blocks: Vec<NgBlock> = (0..n)
            .map(|i| NgBlock::Key(miner.mine_and_adopt_key_block(1_000 + i)))
            .collect();
        let records = blocks
            .iter()
            .zip(0..)
            .map(|(block, i)| HeaderRecord {
                id: block.id(),
                prev: block.prev(),
                kind: InvKind::KeyBlock,
                height: 1 + i % (claimed_below - 1),
            })
            .collect();
        (blocks, records)
    }

    #[test]
    fn backfill_never_holds_more_blocks_than_there_are_heights_below_the_root() {
        let cfg = EngineConfig::new(1, params());
        let root_height = 5;
        let mut onboarding = Onboarding::new(&cfg, root_height, None);
        let mut chain = Chain::new(&cfg);
        let mut relay = ready_relay(&cfg, &[3]);
        let walk = || BackfillState {
            peer: 3,
            awaiting_headers: true,
            ..BackfillState::default()
        };
        let held = |onboarding: &Onboarding| {
            let expected = onboarding.backfill.as_ref().map_or(0, |bf| bf.expected.len());
            (onboarding.backfilled.len() + expected) as u64
        };

        // The server describes twelve blocks "below" a root at height five.
        let (blocks, records) = history(12, root_height);
        onboarding.backfill = Some(walk());
        let mut effects = Vec::new();
        onboarding.handle_headers(3, records[..8].to_vec(), 100, &chain, &mut relay, &mut effects);
        assert_eq!(sends(&effects), vec![(3, "getdata")]);
        assert_eq!(held(&onboarding), root_height, "requests stop at one block per height");

        // Every requested body arrives; the rest of the lie is offered again.
        for block in blocks {
            onboarding.claim_block(block, &mut chain, &mut effects);
        }
        assert_eq!(onboarding.backfilled.len() as u64, root_height);
        let state = onboarding.backfill.as_mut().expect("walk still open");
        state.awaiting_headers = true;
        let mut effects = Vec::new();
        onboarding.handle_headers(3, records[8..].to_vec(), 200, &chain, &mut relay, &mut effects);
        assert_eq!(sends(&effects), vec![], "nothing further is requested");
        assert_eq!(held(&onboarding), root_height);
        assert!(onboarding.backfill.as_ref().is_some_and(|bf| bf.exhausted));
    }

    #[test]
    fn a_headers_reply_that_starts_above_the_root_is_the_forward_syncs() {
        let cfg = EngineConfig::new(1, params());
        let mut onboarding = Onboarding::new(&cfg, 5, None);
        let chain = Chain::new(&cfg);
        let mut relay = ready_relay(&cfg, &[3]);
        onboarding.backfill = Some(BackfillState {
            peer: 3,
            awaiting_headers: true,
            ..BackfillState::default()
        });
        let (_, mut records) = history(3, 5);
        for (record, height) in records.iter_mut().zip(6..) {
            record.height = height;
        }
        onboarding.handle_headers(3, records, 100, &chain, &mut relay, &mut Vec::new());
        let backfill = onboarding.backfill.as_ref().expect("still walking");
        assert!(backfill.awaiting_headers && backfill.expected.is_empty(), "reply not claimed");
    }

    #[test]
    fn a_backfill_deadline_is_armed_only_while_somebody_can_be_asked() {
        let cfg = EngineConfig::new(1, params());
        let mut onboarding = Onboarding::new(&cfg, 5, None);
        assert_eq!(onboarding.next_deadline(&ready_relay(&cfg, &[3])), None, "nothing pending");
        onboarding.backfill = Some(BackfillState {
            peer: 3,
            deadline: 700,
            awaiting_headers: true,
            ..BackfillState::default()
        });
        assert_eq!(onboarding.next_deadline(&ready_relay(&cfg, &[])), None);
        assert_eq!(onboarding.next_deadline(&ready_relay(&cfg, &[3])), Some(700));
    }

    fn pinned_engine() -> Engine {
        let mut config = EngineConfig::new(1, params());
        config.snapshot_pin = Some(SnapshotPin {
            height: 256,
            root: sha256(b"a checkpoint nobody here serves"),
            sorted: sha256(b"its ledger"),
        });
        Engine::new(config)
    }

    fn snapshot_miss(engine: &mut Engine, peer: u64) -> Vec<Effect> {
        let message = Message::Snapshot(None);
        engine.handle(10, Input::Message { peer, message })
    }

    #[test]
    fn bootstrap_asks_one_peer_at_a_time_and_falls_back_to_a_full_sync() {
        let mut engine = pinned_engine();
        register_peer(&mut engine, 1);
        register_peer(&mut engine, 2);
        assert!(engine.bootstrapping(), "peer 1 was asked and has not answered");
        // Peer 1 does not hold the pinned snapshot: peer 2 is asked next.
        assert_eq!(sends(&snapshot_miss(&mut engine, 1)), vec![(2, "getsnapshot")]);
        // A reply from a peer that is not being waited on changes nothing.
        assert_eq!(sends(&snapshot_miss(&mut engine, 1)), vec![]);
        // Nobody serves the pin: the whole chain is synced the normal way.
        let fallback = snapshot_miss(&mut engine, 2);
        assert!(!engine.bootstrapping());
        assert_eq!(sends(&fallback), vec![(1, "getheaders"), (2, "getheaders")]);
    }

    #[test]
    fn a_bootstrap_candidate_that_disconnects_is_replaced_at_once() {
        let mut engine = pinned_engine();
        register_peer(&mut engine, 1);
        register_peer(&mut engine, 2);
        let effects = engine.handle(10, Input::PeerDisconnected { peer: 1 });
        assert_eq!(sends(&effects), vec![(2, "getsnapshot")], "no waiting out the timeout");
        assert!(engine.bootstrapping());
    }
}
