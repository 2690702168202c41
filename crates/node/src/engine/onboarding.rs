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
use super::{Effect, EngineConfig, ReportEvent, SnapshotPin};
use ng_chain::utxo::UtxoSet;
use ng_core::block::NgBlock;
use ng_crypto::sha256::Hash256;
use ng_net::message::{InvItem, InvKind, Message, WireSnapshot};
use ng_net::sync::{
    build_locator, ids_after_locator, HeaderRecord, SyncCommand, SyncScheduler,
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
    /// Header records requested per `getheaders` ([`EngineConfig::header_batch`]).
    header_batch: u32,
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
#[derive(Debug)]
struct BackfillState {
    /// The snapshot root height; everything strictly below it is fetched.
    target: u64,
    /// The peer currently serving the walk.
    peer: u64,
    /// Deadline of the outstanding request (headers or bodies); expiry rotates
    /// the walk to the next ready peer.
    deadline: u64,
    /// A `getheaders` is out and its reply pending.
    awaiting_headers: bool,
    /// Requested bodies not yet delivered: id → (height, kind).
    // ng-lint: bound(header_batch)
    expected: HashMap<Hash256, (u64, InvKind)>,
    /// Id of the last header record fetched (leads the next locator).
    cursor: Option<Hash256>,
    /// The header walk reached the root; finish once `expected` drains.
    exhausted: bool,
    /// Blocks fetched so far.
    fetched: u64,
}

impl Onboarding {
    /// Catch-up state for a chain rooted at `root_height`. With `bootstrap` set and
    /// a pin configured, the engine first tries to fetch the pinned snapshot.
    pub(super) fn new(cfg: &EngineConfig, root_height: u64, bootstrap: bool) -> Self {
        let pin = cfg.snapshot_pin.filter(|_| bootstrap);
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
            header_batch: cfg.header_batch,
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
                    effects.push(Effect::Send {
                        peer,
                        message: Message::GetHeaders {
                            locator,
                            limit: self.header_batch,
                        },
                    });
                }
                SyncCommand::RequestBlocks { peer, items } => {
                    // A timed-out request can be re-assigned to the same peer
                    // (single-peer networks, post-unjam retries).
                    relay.request_from(peer, &items, effects);
                }
                SyncCommand::Evicted { peer } => {
                    effects.push(Effect::Report(ReportEvent::SyncPeerEvicted { peer }));
                }
            }
        }
        self.drive_backfill(now_ms, relay, effects);
    }

    /// Advances the snapshot bootstrap: ask one ready peer at a time for the
    /// pinned snapshot, rotate on timeout or an honest miss, and fall back to a
    /// full parallel block download once every connected peer has been tried.
    fn drive_bootstrap(
        &mut self,
        now_ms: u64,
        relay: &Relay,
        effects: &mut Vec<Effect>,
    ) {
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
            effects.push(Effect::Send {
                peer: candidate,
                message: Message::GetSnapshot { height },
            });
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
                effects.push(Effect::Report(ReportEvent::SnapshotApplied { height }));
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
                if let Some(first) = ready.first() {
                    self.backfill = Some(BackfillState {
                        target: height,
                        peer: *first,
                        deadline: 0,
                        awaiting_headers: false,
                        expected: HashMap::new(),
                        cursor: None,
                        exhausted: false,
                        fetched: 0,
                    });
                }
            }
            Err(reason) => {
                // Served bytes that fail the pinned commitment are not a cache
                // miss but an attempted feed of a forged ledger: cut the cord.
                effects.push(Effect::Report(ReportEvent::SnapshotRejected { peer: from }));
                relay.punish(from, reason, self, effects);
            }
        }
    }

    /// Advances the background backfill of pre-root history. The backfill is a
    /// plain sequential walk — one `getheaders` below the root, then the bodies —
    /// because it is off the critical path: the node is already at the tip.
    fn drive_backfill(
        &mut self,
        now_ms: u64,
        relay: &mut Relay,
        effects: &mut Vec<Effect>,
    ) {
        let Some(bf) = self.backfill.as_mut() else {
            return;
        };
        if bf.exhausted && bf.expected.is_empty() && !bf.awaiting_headers {
            let blocks = bf.fetched;
            self.backfill = None;
            effects.push(Effect::Report(ReportEvent::BackfillCompleted { blocks }));
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
            effects.push(Effect::Send {
                peer,
                message: Message::GetHeaders {
                    locator,
                    limit: self.header_batch,
                },
            });
        } else {
            let mut pending: Vec<(u64, InvItem)> = bf
                .expected
                .iter()
                .map(|(id, (height, kind))| (*height, InvItem::new(*kind, *id)))
                .collect();
            pending.sort_unstable_by_key(|(height, item)| (*height, item.id));
            let items: Vec<InvItem> = pending.into_iter().map(|(_, item)| item).collect();
            relay.request_from(peer, &items, effects);
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
        if records.first().is_some_and(|first| first.height > bf.target) {
            return false; // starts above the root: that is the forward sync's reply
        }
        bf.awaiting_headers = false;
        let wanted: Vec<&HeaderRecord> =
            records.iter().filter(|r| r.height < bf.target).collect();
        if let Some(last) = wanted.last() {
            bf.cursor = Some(last.id);
        }
        // The walk ends when the batch reaches the root (records at or above the
        // target were filtered out), runs dry, or hits the server's tip early.
        bf.exhausted |= records.is_empty()
            || wanted.len() < records.len()
            || (records.len() as u32) < self.header_batch;
        let mut fresh: Vec<(u64, InvItem)> = Vec::new();
        for record in wanted {
            if self.backfilled.contains_key(&record.id) || bf.expected.contains_key(&record.id) {
                continue;
            }
            // One block per height below the root is all of history; a server
            // describing more is lying, and `backfilled` must stay bounded.
            if (self.backfilled.len() + bf.expected.len()) as u64 >= bf.target {
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
        fresh.sort_unstable_by_key(|(height, item)| (*height, item.id));
        let items: Vec<InvItem> = fresh.into_iter().map(|(_, item)| item).collect();
        relay.request_from(peer, &items, effects);
        true
    }

    pub(super) fn handle_headers(
        &mut self,
        peer: u64,
        records: Vec<HeaderRecord>,
        now_ms: u64,
        chain: &Chain,
        relay: &mut Relay,
        effects: &mut Vec<Effect>,
    ) {
        effects.push(Effect::Report(ReportEvent::SyncBatchReceived {
            peer,
            count: records.len(),
        }));
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
            self.header_batch.saturating_sub(dropped)
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

/// Answers a `getheaders` from the main chain.
pub(super) fn serve_headers(
    chain: &Chain,
    peer: u64,
    locator: &[Hash256],
    limit: u32,
    effects: &mut Vec<Effect>,
) {
    effects.push(Effect::Report(ReportEvent::SyncRequestServed { peer }));
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
                kind: if stored.block.is_key() {
                    InvKind::KeyBlock
                } else {
                    InvKind::MicroBlock
                },
                height: stored.height,
            })
        })
        .collect();
    effects.push(Effect::Send {
        peer,
        message: Message::Headers(records),
    });
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
        effects.push(Effect::Report(ReportEvent::SnapshotServed { peer }));
    }
    effects.push(Effect::Send {
        peer,
        message: Message::Snapshot(reply),
    });
}
