//! Header synchronisation: block locators, batched header serving, and the
//! multi-peer download scheduler.
//!
//! When a node connects to a peer whose best chain is ahead of its own (a fresh node,
//! or one returning from a partition), gossip alone cannot help — `inv` only announces
//! *new* objects. The sync protocol closes the gap the way Bitcoin does, in two
//! pipelined stages:
//!
//! 1. **Headers first.** The lagging side sends a *block locator* (exponentially
//!    spaced main-chain hashes, newest first); the serving side finds the latest
//!    locator entry on its own main chain and replies with a batch of
//!    [`HeaderRecord`]s for everything after it. A full batch means "ask again"; a
//!    partial batch means the server's tip was reached. Header walks run
//!    concurrently against every peer, so the scheduler always knows the best
//!    header tip the network advertises.
//! 2. **Parallel block download.** Every header describing a block we lack enters a
//!    single height-ordered download queue. [`SyncScheduler::plan`] partitions the
//!    queue across all ready peers, keeping at most [`SyncConfig::window`] requests
//!    in flight per peer, stamping each request with a deadline. An expired
//!    deadline re-queues the block (preferring a *different* peer on retry) and
//!    strikes the stalling peer; [`SyncConfig::max_strikes`] strikes evict the peer
//!    from download duty entirely. If every peer ends up evicted while work
//!    remains, the slate is wiped clean — a stall must never become a deadlock.
//!
//! The functions and the scheduler here are pure — they operate on id slices and an
//! injected clock — so the whole exchange is unit-testable without sockets;
//! `ng_node`'s engine drives them over its effect system, re-planning on every
//! `Tick` so the deterministic SimNet can exercise loss, stalls and eviction.

use crate::message::{InvItem, InvKind};
use ng_crypto::sha256::Hash256;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Default maximum number of header records per `headers` batch.
pub const DEFAULT_HEADER_BATCH: u32 = 256;

/// A compact description of one block, enough for a peer to decide whether it needs
/// the full block and to request blocks in parent-before-child order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct HeaderRecord {
    /// The block id.
    pub id: Hash256,
    /// The parent block id.
    pub prev: Hash256,
    /// Whether the block is a key block or a microblock.
    pub kind: InvKind,
    /// Height of the block on the server's main chain.
    pub height: u64,
}

/// Builds a block locator over a main chain (genesis first, as returned by
/// `ChainStore::main_chain`): the last ~10 blocks densely, then exponentially sparser
/// steps, always ending with genesis. Returned newest first.
pub fn build_locator(main_chain: &[Hash256]) -> Vec<Hash256> {
    let mut locator = Vec::new();
    if main_chain.is_empty() {
        return locator;
    }
    let mut index = main_chain.len() - 1;
    let mut step = 1usize;
    loop {
        locator.push(main_chain[index]);
        if index == 0 {
            break;
        }
        if locator.len() >= 10 {
            step = step.saturating_mul(2);
        }
        index = index.saturating_sub(step);
    }
    locator
}

/// Index into `main_chain` of the most recent block that also appears in `locator`
/// (the fork point from the server's perspective). Falls back to 0 — the shared
/// genesis — when nothing matches.
pub fn locate_fork_index(main_chain: &[Hash256], locator: &[Hash256]) -> usize {
    // The locator is newest-first, so the first hit is the latest common block.
    for hash in locator {
        if let Some(pos) = main_chain.iter().rposition(|id| id == hash) {
            return pos;
        }
    }
    0
}

/// The ids a server should describe in response to a locator: everything on its main
/// chain after the fork point, capped at `limit`. A full batch (`len() == limit`)
/// tells the requester to ask again; a partial batch means the tip was reached.
pub fn ids_after_locator<'a>(
    main_chain: &'a [Hash256],
    locator: &[Hash256],
    limit: usize,
) -> &'a [Hash256] {
    let fork = locate_fork_index(main_chain, locator);
    let start = (fork + 1).min(main_chain.len());
    let end = (start + limit).min(main_chain.len());
    &main_chain[start..end]
}

/// Knobs of the download scheduler.
#[derive(Clone, Copy, Debug)]
pub struct SyncConfig {
    /// Maximum block requests in flight per peer. Modest on purpose: the requester
    /// absorbs out-of-order arrivals in its bounded orphan buffers, so the total
    /// in-flight window across peers must stay well under those caps.
    pub window: usize,
    /// Deadline for any `getheaders` or assigned `getdata` reply, in milliseconds.
    pub request_timeout_ms: u64,
    /// Consecutive timeouts before a peer is evicted from download duty.
    pub max_strikes: u32,
    /// Maximum heights the download may run ahead of the connect frontier (the
    /// requester's current chain height). Without this cap, one lost low block
    /// stalls connection while every higher block keeps arriving, overflows the
    /// requester's bounded orphan buffer, and evicts exactly the carriers needed
    /// next — wedging the sync permanently. Must stay comfortably under that
    /// buffer's capacity (1024) with the full in-flight window on top.
    pub lookahead: u64,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            window: 16,
            request_timeout_ms: 3_000,
            max_strikes: 2,
            lookahead: 512,
        }
    }
}

/// What the engine must do for the scheduler, as returned by [`SyncScheduler::plan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncCommand {
    /// Send a `getheaders` to `peer`. `lead` is the tail of the last batch the peer
    /// served; the caller puts it in front of its own main-chain locator so a full
    /// batch of already-known headers still makes forward progress.
    RequestHeaders {
        /// Destination connection key.
        peer: u64,
        /// Tail of the peer's last served batch, if any.
        lead: Option<Hash256>,
    },
    /// Send a `getdata` for `items` to `peer` (one command per peer per plan).
    RequestBlocks {
        /// Destination connection key.
        peer: u64,
        /// The blocks assigned to this peer, in height order.
        items: Vec<InvItem>,
    },
    /// `peer` accumulated [`SyncConfig::max_strikes`] timeouts and no longer gets
    /// download assignments. The connection itself stays up — gossip still flows —
    /// the report is for observability.
    Evicted {
        /// The evicted connection key.
        peer: u64,
    },
}

/// Per-peer download state inside the scheduler.
#[derive(Clone, Debug, Default)]
struct PeerSync {
    /// Best height this peer has advertised (handshake, then growing with every
    /// headers batch it serves).
    best_height: u64,
    /// An active header walk: keep requesting batches until a partial one arrives.
    walking: bool,
    /// Deadline of the outstanding `getheaders`, if one is in flight.
    awaiting: Option<u64>,
    /// Tail of the last served batch (leads the next locator — forward progress
    /// even when a full batch added nothing new locally).
    last_served: Option<Hash256>,
    /// Assigned block requests currently in flight to this peer.
    in_flight: usize,
    /// Consecutive timeouts; reset by any timely reply.
    strikes: u32,
    /// Evicted from download duty (strikes exceeded the cap).
    evicted: bool,
}

/// One assigned block download.
#[derive(Clone, Debug)]
struct Assignment {
    peer: u64,
    deadline: u64,
    record: HeaderRecord,
}

/// The multi-peer sync scheduler: tracks header walks against every ready peer and
/// partitions the resulting download queue across them. Replaces the old
/// single-peer `PeerSyncState`, whose lack of deadlines meant one dropped reply
/// stalled that peer's sync forever.
///
/// All iteration is over [`BTreeMap`]s or height-sorted queues, so for identical
/// inputs the scheduler emits identical commands — the engine's determinism
/// contract extends through it.
#[derive(Debug, Default)]
pub struct SyncScheduler {
    config: SyncConfig,
    // ng-lint: allow(bounded-collections): one entry per connected peer; the
    // driver's connection limit is the cap, and `peer_gone` removes entries.
    peers: BTreeMap<u64, PeerSync>,
    /// Blocks to download, oldest (lowest height) first.
    // ng-lint: allow(bounded-collections): one record per missing main-chain
    // block discovered by the header walk; drains as downloads complete and is
    // cleared outright when the scheduler goes idle.
    queue: VecDeque<HeaderRecord>,
    /// Ids currently in `queue` (authoritative — stale queue entries are skipped).
    // ng-lint: allow(bounded-collections): mirrors `queue` (see its waiver);
    // pruned on assignment and cleared when the scheduler goes idle.
    queued: HashSet<Hash256>,
    /// In-flight assignments by block id.
    // ng-lint: bound(window)
    assigned: BTreeMap<Hash256, Assignment>,
    /// On retry after a timeout, avoid handing the block to this peer again.
    // ng-lint: allow(bounded-collections): at most one entry per outstanding
    // retry; removed on delivery and cleared when the scheduler goes idle.
    avoid: HashMap<Hash256, u64>,
    /// Blocks delivered during the current sync burst (suppresses re-queueing a
    /// block a second header walk lists again while it sits in the orphan buffer).
    /// Cleared whenever the scheduler goes idle, so it never outgrows one burst.
    // ng-lint: allow(bounded-collections): bounded by one sync burst — cleared
    // whenever the scheduler goes idle, per the field docs above.
    done: HashSet<Hash256>,
    /// Completed downloads per peer (the ≥2-peers-concurrently assertions read it).
    // ng-lint: allow(bounded-collections): one counter per peer ever assigned
    // work; peers are capped by the driver's connection limit.
    delivered_by: BTreeMap<u64, u64>,
    evictions: u64,
}

impl SyncScheduler {
    /// A scheduler with the given knobs and no peers.
    pub fn new(config: SyncConfig) -> Self {
        SyncScheduler {
            config,
            ..Default::default()
        }
    }

    /// Registers a ready peer with its handshake-advertised best height.
    pub fn peer_ready(&mut self, peer: u64, best_height: u64) {
        let entry = self.peers.entry(peer).or_default();
        entry.best_height = entry.best_height.max(best_height);
    }

    /// Removes a peer; its in-flight assignments return to the queue front.
    pub fn peer_gone(&mut self, peer: u64) {
        self.peers.remove(&peer);
        let orphaned: Vec<Hash256> = self
            .assigned
            .iter()
            .filter(|(_, a)| a.peer == peer)
            .map(|(id, _)| *id)
            .collect();
        for id in orphaned {
            let assignment = self.assigned.remove(&id).expect("collected above");
            self.requeue_front(assignment.record);
        }
    }

    /// Starts (or restarts) a header walk. `preferred` is the natural target — the
    /// peer that completed a handshake, or the sender of an orphan block. The walk
    /// only actually targets it while its record is clean: once a round with it
    /// failed (strikes) or it was evicted, the walk falls back to the best-header
    /// peer instead — an orphan's direct sender may be behind or Byzantine.
    pub fn request_sync(&mut self, preferred: u64) {
        let trusted = self
            .peers
            .get(&preferred)
            .is_some_and(|p| !p.evicted && p.strikes == 0);
        let target = if trusted {
            Some(preferred)
        } else {
            self.best_header_peer(Some(preferred)).or_else(|| {
                // Nobody else to fall back to: a struck (but not evicted) sender
                // is still better than no sync at all.
                self.peers
                    .get(&preferred)
                    .filter(|p| !p.evicted)
                    .map(|_| preferred)
            })
        };
        if let Some(target) = target {
            let peer = self.peers.get_mut(&target).expect("selected from map");
            peer.walking = true;
        }
    }

    /// The non-evicted peer advertising the greatest best height (ties broken by
    /// fewest strikes, then lowest key), excluding `but_not`.
    fn best_header_peer(&self, but_not: Option<u64>) -> Option<u64> {
        self.peers
            .iter()
            .filter(|(key, p)| Some(**key) != but_not && !p.evicted)
            .min_by_key(|(key, p)| (std::cmp::Reverse(p.best_height), p.strikes, **key))
            .map(|(key, _)| *key)
    }

    /// Records an arrived `headers` batch (served against a request of `limit`).
    /// `known` answers "do we already hold this block?" — typically chain-store
    /// membership. Unknown records join the download queue in serving order.
    pub fn on_headers(
        &mut self,
        peer: u64,
        records: &[HeaderRecord],
        limit: u32,
        known: impl Fn(&Hash256) -> bool,
    ) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        state.awaiting = None;
        state.strikes = 0; // a timely reply clears the slate
        if (records.len() as u32) < limit {
            state.walking = false; // the peer's tip was reached
        }
        state.last_served = records.last().map(|r| r.id).or(state.last_served);
        if let Some(last) = records.last() {
            state.best_height = state.best_height.max(last.height);
        }
        for record in records {
            if known(&record.id)
                || self.queued.contains(&record.id)
                || self.assigned.contains_key(&record.id)
                || self.done.contains(&record.id)
            {
                continue;
            }
            self.queued.insert(record.id);
            self.queue.push_back(*record);
        }
    }

    /// Records a block arrival — from *any* path. A gossip delivery from a third
    /// peer satisfies a scheduled download exactly like the assigned peer's reply
    /// would (re-downloading it wasted a round trip and a slot under the old
    /// per-peer bookkeeping). Returns true if the block was queued or assigned,
    /// i.e. the sync expected it.
    pub fn note_delivery(&mut self, id: &Hash256) -> bool {
        if let Some(assignment) = self.assigned.remove(id) {
            if let Some(peer) = self.peers.get_mut(&assignment.peer) {
                peer.in_flight = peer.in_flight.saturating_sub(1);
            }
            *self.delivered_by.entry(assignment.peer).or_insert(0) += 1;
            self.avoid.remove(id);
            self.done.insert(*id);
            return true;
        }
        if self.queued.remove(id) {
            self.avoid.remove(id);
            self.done.insert(*id);
            return true;
        }
        false
    }

    /// True while any walk, request or queued download is outstanding.
    pub fn active(&self) -> bool {
        !self.queued.is_empty()
            || !self.assigned.is_empty()
            || self
                .peers
                .values()
                .any(|p| p.walking || p.awaiting.is_some())
    }

    /// The earliest outstanding deadline (header or block requests) — what the
    /// engine arms its wakeup timer with.
    pub fn next_deadline(&self) -> Option<u64> {
        let headers = self.peers.values().filter_map(|p| p.awaiting).min();
        let blocks = self.assigned.values().map(|a| a.deadline).min();
        match (headers, blocks) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Blocks queued or in flight — the scheduler's outstanding download work.
    pub fn pending(&self) -> usize {
        self.queued.len() + self.assigned.len()
    }

    /// Completed downloads per peer, sorted by peer key.
    pub fn downloads_by_peer(&self) -> Vec<(u64, u64)> {
        self.delivered_by.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Total peers evicted from download duty so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops all queued and in-flight work (walks included). Used after a snapshot
    /// bootstrap re-roots the chain: everything scheduled against the old (genesis)
    /// root is below the new root and can never connect.
    pub fn reset_downloads(&mut self) {
        self.queue.clear();
        self.queued.clear();
        self.assigned.clear();
        self.avoid.clear();
        self.done.clear();
        for peer in self.peers.values_mut() {
            peer.walking = false;
            peer.awaiting = None;
            peer.in_flight = 0;
            peer.last_served = None;
        }
    }

    fn requeue_front(&mut self, record: HeaderRecord) {
        if self.queued.insert(record.id) {
            self.queue.push_front(record);
        }
    }

    /// Advances the scheduler to `now`: expires overdue requests (striking and
    /// possibly evicting their peers, re-queueing their blocks), restarts
    /// interrupted header walks against the best remaining peer, and hands out new
    /// header and block requests up to every peer's window. `frontier` is the
    /// caller's current chain height — assignments never run more than
    /// [`SyncConfig::lookahead`] heights past it, so out-of-order arrivals stay
    /// inside the caller's bounded reassembly buffer. Returns the commands the
    /// engine must execute, in deterministic order.
    pub fn plan(&mut self, now: u64, frontier: u64) -> Vec<SyncCommand> {
        let mut commands = Vec::new();
        self.expire(now, &mut commands);
        self.unjam_if_all_evicted();
        self.emit_header_requests(now, &mut commands);
        self.assign_blocks(now, frontier, &mut commands);
        if !self.active() {
            self.done.clear();
        }
        commands
    }

    fn expire(&mut self, now: u64, commands: &mut Vec<SyncCommand>) {
        // Overdue header walks: strike the peer and move the walk to the best
        // alternative — the sender-targeted round failed, fall back (bugfix: the
        // old state machine waited on the dropped reply forever).
        let mut restart_walk = false;
        for state in self.peers.values_mut() {
            if state.awaiting.is_some_and(|deadline| deadline <= now) {
                state.awaiting = None;
                state.strikes += 1;
                if state.walking {
                    state.walking = false;
                    restart_walk = true;
                }
            }
        }
        // Overdue block requests: re-queue oldest-first so height order survives,
        // and remember the failed peer so the retry goes elsewhere if possible.
        let overdue: Vec<Hash256> = self
            .assigned
            .iter()
            .filter(|(_, a)| a.deadline <= now)
            .map(|(id, _)| *id)
            .collect();
        let mut struck: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut records: Vec<(u64, HeaderRecord)> = Vec::new();
        for id in overdue {
            let assignment = self.assigned.remove(&id).expect("collected above");
            if let Some(peer) = self.peers.get_mut(&assignment.peer) {
                peer.in_flight = peer.in_flight.saturating_sub(1);
            }
            struck.insert(assignment.peer);
            self.avoid.insert(id, assignment.peer);
            records.push((assignment.record.height, assignment.record));
        }
        records.sort_by_key(|(height, record)| (std::cmp::Reverse(*height), record.id));
        for (_, record) in records {
            self.requeue_front(record);
        }
        // One strike per peer per plan, no matter how many of its requests expired
        // together (they all timed out for the same underlying reason).
        for peer in struck {
            if let Some(state) = self.peers.get_mut(&peer) {
                state.strikes += 1;
            }
        }
        // Evict peers over the strike cap.
        let over_cap: Vec<u64> = self
            .peers
            .iter()
            .filter(|(_, p)| !p.evicted && p.strikes >= self.config.max_strikes)
            .map(|(key, _)| *key)
            .collect();
        for peer in over_cap {
            let state = self.peers.get_mut(&peer).expect("collected above");
            state.evicted = true;
            state.walking = false;
            state.awaiting = None;
            self.evictions += 1;
            commands.push(SyncCommand::Evicted { peer });
            // Re-queue whatever was still assigned to it.
            let orphaned: Vec<Hash256> = self
                .assigned
                .iter()
                .filter(|(_, a)| a.peer == peer)
                .map(|(id, _)| *id)
                .collect();
            for id in orphaned {
                let assignment = self.assigned.remove(&id).expect("collected above");
                self.avoid.insert(id, peer);
                self.requeue_front(assignment.record);
            }
            if let Some(state) = self.peers.get_mut(&peer) {
                state.in_flight = 0;
            }
        }
        if restart_walk {
            if let Some(target) = self.best_header_peer(None) {
                self.peers.get_mut(&target).expect("from map").walking = true;
            }
        }
    }

    /// If work remains but every peer has been evicted, wipe the slate: a fully
    /// evicted peer set would deadlock the sync, and a second chance is strictly
    /// better than hanging (the stalling peer just gets re-evicted).
    fn unjam_if_all_evicted(&mut self) {
        if self.peers.is_empty()
            || self.peers.values().any(|p| !p.evicted)
            || (self.queued.is_empty() && self.assigned.is_empty())
        {
            return;
        }
        for state in self.peers.values_mut() {
            state.evicted = false;
            state.strikes = 0;
        }
    }

    fn emit_header_requests(&mut self, now: u64, commands: &mut Vec<SyncCommand>) {
        for (key, state) in self.peers.iter_mut() {
            if state.walking && state.awaiting.is_none() && !state.evicted {
                state.awaiting = Some(now + self.config.request_timeout_ms);
                commands.push(SyncCommand::RequestHeaders {
                    peer: *key,
                    lead: state.last_served,
                });
            }
        }
    }

    fn assign_blocks(&mut self, now: u64, frontier: u64, commands: &mut Vec<SyncCommand>) {
        if self.queue.is_empty() {
            return;
        }
        let horizon = frontier.saturating_add(self.config.lookahead);
        let mut batches: BTreeMap<u64, Vec<InvItem>> = BTreeMap::new();
        while let Some(record) = self.queue.pop_front() {
            if !self.queued.contains(&record.id) {
                continue; // delivered (or reset) while queued — stale entry
            }
            if record.height > horizon {
                // Past the look-ahead window: the queue is height-ordered, so
                // everything behind it is even further out. Delivering the blocks
                // below (including the frontier gap, always the lowest queued
                // height) advances the frontier and releases the next tranche.
                self.queue.push_front(record);
                break;
            }
            let Some(peer) = self.pick_peer(&record) else {
                // Every peer is at capacity (or gone): keep the block at the front
                // and stop — later queue entries are even higher.
                self.queue.push_front(record);
                break;
            };
            self.queued.remove(&record.id);
            self.assigned.insert(
                record.id,
                Assignment {
                    peer,
                    deadline: now + self.config.request_timeout_ms,
                    record,
                },
            );
            self.peers.get_mut(&peer).expect("picked from map").in_flight += 1;
            batches
                .entry(peer)
                .or_default()
                .push(InvItem::new(record.kind, record.id));
        }
        for (peer, items) in batches {
            commands.push(SyncCommand::RequestBlocks { peer, items });
        }
    }

    /// Chooses the peer for one block: not evicted, window not full, preferring
    /// peers that advertise the block's height (they certainly have it), the
    /// fewest in-flight requests (load balancing), and — on a retry — anyone but
    /// the peer whose request just timed out.
    fn pick_peer(&self, record: &HeaderRecord) -> Option<u64> {
        let avoid = self.avoid.get(&record.id).copied();
        let candidates: Vec<(u64, &PeerSync)> = self
            .peers
            .iter()
            .filter(|(_, p)| !p.evicted && p.in_flight < self.config.window)
            .map(|(key, p)| (*key, p))
            .collect();
        let pick = |exclude: Option<u64>| {
            candidates
                .iter()
                .filter(|(key, _)| Some(*key) != exclude)
                .min_by_key(|(key, p)| {
                    (p.best_height < record.height, p.in_flight, *key)
                })
                .map(|(key, _)| *key)
        };
        pick(avoid).or_else(|| pick(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_crypto::sha256::sha256;

    fn chain(n: usize) -> Vec<Hash256> {
        (0..n).map(|i| sha256(&(i as u64).to_le_bytes())).collect()
    }

    #[test]
    fn locator_on_short_chain_lists_everything() {
        let c = chain(5);
        let loc = build_locator(&c);
        let mut expect: Vec<Hash256> = c.clone();
        expect.reverse();
        assert_eq!(loc, expect);
    }

    #[test]
    fn locator_is_dense_near_tip_and_sparse_near_genesis() {
        let c = chain(200);
        let loc = build_locator(&c);
        // Newest first, genesis last.
        assert_eq!(loc.first(), c.last());
        assert_eq!(loc.last(), Some(&c[0]));
        // The first ten entries step by one.
        for (offset, id) in loc.iter().take(10).enumerate() {
            assert_eq!(*id, c[c.len() - 1 - offset]);
        }
        // Exponential spacing keeps the locator logarithmic in chain length.
        assert!(loc.len() < 30, "locator too long: {}", loc.len());
    }

    #[test]
    fn empty_chain_gives_empty_locator() {
        assert!(build_locator(&[]).is_empty());
    }

    #[test]
    fn fork_index_finds_latest_common_block() {
        let shared = chain(50);
        // The "server" extends the shared prefix by 20 blocks.
        let mut server = shared.clone();
        server.extend((100..120).map(|i| sha256(&(i as u64).to_le_bytes())));
        // The "client" extends it differently by 3 blocks.
        let mut client = shared.clone();
        client.extend((200..203).map(|i| sha256(&(i as u64).to_le_bytes())));

        let locator = build_locator(&client);
        let fork = locate_fork_index(&server, &locator);
        // The latest common block the locator exposes is within the dense window of
        // the client's last 10 entries plus one sparse step, i.e. at or before 49.
        assert!(fork < 50);
        assert_eq!(server[fork], shared[fork]);
    }

    #[test]
    fn unknown_locator_falls_back_to_genesis() {
        let server = chain(10);
        let locator = vec![sha256(b"not on this chain")];
        assert_eq!(locate_fork_index(&server, &locator), 0);
    }

    #[test]
    fn ids_after_locator_serves_batches_until_tip() {
        let server = chain(30);
        let client = server[..10].to_vec();
        let locator = build_locator(&client);
        let first = ids_after_locator(&server, &locator, 8);
        assert_eq!(first.len(), 8, "full batch");
        assert_eq!(first[0], server[10]);
        // Pretend the client caught up to block 25; next batch is partial.
        let caught_up = server[..26].to_vec();
        let locator = build_locator(&caught_up);
        let last = ids_after_locator(&server, &locator, 8);
        assert_eq!(last, &server[26..30]);
        assert!(last.len() < 8, "partial batch signals the tip");
    }

    #[test]
    fn synced_peer_gets_empty_batch() {
        let server = chain(12);
        let locator = build_locator(&server);
        assert!(ids_after_locator(&server, &locator, 16).is_empty());
    }

    // ---- scheduler ------------------------------------------------------------

    fn record(seq: u64, height: u64) -> HeaderRecord {
        HeaderRecord {
            id: sha256(&seq.to_le_bytes()),
            prev: sha256(&seq.wrapping_sub(1).to_le_bytes()),
            kind: InvKind::KeyBlock,
            height,
        }
    }

    fn records(range: std::ops::Range<u64>) -> Vec<HeaderRecord> {
        range.map(|i| record(i, i)).collect()
    }

    fn config() -> SyncConfig {
        SyncConfig {
            window: 4,
            request_timeout_ms: 1_000,
            max_strikes: 2,
            lookahead: 512,
        }
    }

    fn header_targets(commands: &[SyncCommand]) -> Vec<u64> {
        commands
            .iter()
            .filter_map(|c| match c {
                SyncCommand::RequestHeaders { peer, .. } => Some(*peer),
                _ => None,
            })
            .collect()
    }

    fn block_batches(commands: &[SyncCommand]) -> Vec<(u64, usize)> {
        commands
            .iter()
            .filter_map(|c| match c {
                SyncCommand::RequestBlocks { peer, items } => Some((*peer, items.len())),
                _ => None,
            })
            .collect()
    }

    fn assignments(commands: &[SyncCommand]) -> HashMap<Hash256, u64> {
        commands
            .iter()
            .filter_map(|c| match c {
                SyncCommand::RequestBlocks { peer, items } => {
                    Some(items.iter().map(move |item| (item.id, *peer)))
                }
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn walk_requests_batches_until_partial() {
        let mut s = SyncScheduler::new(config());
        s.peer_ready(1, 100);
        s.request_sync(1);
        let plan = s.plan(0, 0);
        assert_eq!(header_targets(&plan), vec![1]);
        // Full batch of already-known headers: walk continues with the batch tail.
        let batch = records(0..8);
        s.on_headers(1, &batch, 8, |_| true);
        let plan = s.plan(10, 0);
        assert_eq!(header_targets(&plan), vec![1]);
        match &plan[0] {
            SyncCommand::RequestHeaders { lead, .. } => {
                assert_eq!(*lead, Some(batch.last().unwrap().id), "tail leads locator")
            }
            other => panic!("unexpected command {other:?}"),
        }
        // Partial batch ends the walk.
        s.on_headers(1, &records(8..10), 8, |_| true);
        assert!(s.plan(20, 0).is_empty());
        assert!(!s.active());
    }

    #[test]
    fn downloads_partition_across_peers_with_windows() {
        let mut s = SyncScheduler::new(config());
        s.peer_ready(1, 100);
        s.peer_ready(2, 100);
        s.request_sync(1);
        s.plan(0, 0);
        s.on_headers(1, &records(0..10), 16, |_| false);
        let plan = s.plan(10, 0);
        // 10 blocks over two peers with window 4: both saturate, 2 left queued.
        assert_eq!(block_batches(&plan), vec![(1, 4), (2, 4)]);
        assert!(s.active());
        // Deliveries free slots; the remainder is assigned on the next plan.
        for r in records(0..4) {
            assert!(s.note_delivery(&r.id));
        }
        let plan = s.plan(20, 0);
        assert_eq!(block_batches(&plan).iter().map(|(_, n)| n).sum::<usize>(), 2);
    }

    #[test]
    fn assignments_never_outrun_the_lookahead_window() {
        let mut s = SyncScheduler::new(SyncConfig {
            window: 16,
            lookahead: 6,
            ..config()
        });
        s.peer_ready(1, 100);
        s.peer_ready(2, 100);
        s.request_sync(1);
        s.plan(0, 0);
        s.on_headers(1, &records(1..21), 32, |_| false);
        // Frontier 0, lookahead 6: only heights 1..=6 may go out, even though the
        // windows could absorb all 20 — the rest would land in the requester's
        // bounded orphan buffer with the frontier gap still open.
        let plan = s.plan(10, 0);
        let out: usize = block_batches(&plan).iter().map(|(_, n)| n).sum();
        assert_eq!(out, 6, "{plan:?}");
        assert_eq!(s.pending(), 20);
        // The frontier advancing releases the next tranche (heights 7..=10).
        for r in records(1..5) {
            assert!(s.note_delivery(&r.id));
        }
        let plan = s.plan(20, 4);
        let out: usize = block_batches(&plan).iter().map(|(_, n)| n).sum();
        assert_eq!(out, 4, "{plan:?}");
    }

    #[test]
    fn timeout_requeues_to_another_peer_and_evicts_stallers() {
        let mut s = SyncScheduler::new(config());
        s.peer_ready(1, 100);
        s.peer_ready(2, 100);
        s.request_sync(1);
        s.plan(0, 0);
        s.on_headers(1, &records(0..2), 16, |_| false);
        let plan = s.plan(0, 0);
        let first = block_batches(&plan);
        assert_eq!(first.iter().map(|(_, n)| n).sum::<usize>(), 2);
        let first_by_id = assignments(&plan);
        // Nothing arrives; past the deadline every block moves to a peer other
        // than the one whose request just timed out.
        let plan = s.plan(1_001, 0);
        let retry = block_batches(&plan);
        assert_eq!(retry.iter().map(|(_, n)| n).sum::<usize>(), 2);
        let retry_by_id = assignments(&plan);
        for (id, peer) in &retry_by_id {
            assert_ne!(
                Some(peer),
                first_by_id.get(id),
                "retry re-targets the peer that just stalled on this block"
            );
        }
        // A second round of timeouts evicts (max_strikes = 2) — each stall strikes
        // the peer holding the requests at that time.
        let plan = s.plan(2_002, 0);
        assert!(
            plan.iter().any(|c| matches!(c, SyncCommand::Evicted { .. })),
            "stalling peer evicted: {plan:?}"
        );
        assert!(s.evictions() >= 1);
    }

    #[test]
    fn all_evicted_resets_instead_of_deadlocking() {
        let mut s = SyncScheduler::new(SyncConfig {
            max_strikes: 1,
            ..config()
        });
        s.peer_ready(1, 100);
        s.request_sync(1);
        s.plan(0, 0);
        s.on_headers(1, &records(0..2), 16, |_| false);
        s.plan(0, 0);
        // Timeout → the only peer is evicted → immediately un-evicted within the
        // same plan (work remains) and the blocks are re-assigned to it.
        let plan = s.plan(1_001, 0);
        assert!(plan.iter().any(|c| matches!(c, SyncCommand::Evicted { peer: 1 })));
        assert_eq!(block_batches(&plan), vec![(1, 2)], "re-assigned after reset");
    }

    #[test]
    fn gossip_delivery_clears_assignment_from_any_path() {
        let mut s = SyncScheduler::new(config());
        s.peer_ready(1, 100);
        s.request_sync(1);
        s.plan(0, 0);
        let batch = records(0..1);
        s.on_headers(1, &batch, 16, |_| false);
        s.plan(0, 0);
        // The block arrives via gossip (the scheduler does not care from where).
        assert!(s.note_delivery(&batch[0].id));
        assert!(!s.active(), "no stuck in-flight entry");
        // And it is not re-requested.
        assert!(s.plan(10, 0).is_empty());
    }

    #[test]
    fn header_timeout_restarts_walk_on_best_header_peer() {
        let mut s = SyncScheduler::new(config());
        s.peer_ready(1, 5); // the orphan's sender: low best height
        s.peer_ready(2, 500); // the best-header peer
        s.request_sync(1);
        let plan = s.plan(0, 0);
        assert_eq!(header_targets(&plan), vec![1], "first round targets the sender");
        // The sender never answers; the walk falls back to the best-header peer.
        let plan = s.plan(1_001, 0);
        assert_eq!(header_targets(&plan), vec![2]);
        // And a fresh orphan from the (now struck) sender no longer targets it.
        s.on_headers(2, &[], 16, |_| true);
        s.request_sync(1);
        let plan = s.plan(1_002, 0);
        assert_eq!(header_targets(&plan), vec![2]);
    }

    #[test]
    fn peer_gone_requeues_its_assignments() {
        let mut s = SyncScheduler::new(config());
        s.peer_ready(1, 100);
        s.request_sync(1);
        s.plan(0, 0);
        s.on_headers(1, &records(0..3), 16, |_| false);
        s.plan(0, 0);
        s.peer_gone(1);
        assert!(s.active(), "blocks back in the queue");
        s.peer_ready(2, 100);
        let plan = s.plan(5, 0);
        assert_eq!(block_batches(&plan), vec![(2, 3)]);
    }

    #[test]
    fn reset_downloads_clears_everything() {
        let mut s = SyncScheduler::new(config());
        s.peer_ready(1, 100);
        s.request_sync(1);
        s.plan(0, 0);
        s.on_headers(1, &records(0..6), 16, |_| false);
        s.plan(0, 0);
        s.reset_downloads();
        assert!(!s.active());
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn next_deadline_tracks_earliest_outstanding_request() {
        let mut s = SyncScheduler::new(config());
        assert_eq!(s.next_deadline(), None);
        s.peer_ready(1, 100);
        s.request_sync(1);
        s.plan(100, 0);
        assert_eq!(s.next_deadline(), Some(1_100));
        s.on_headers(1, &records(0..2), 16, |_| false);
        s.plan(200, 0);
        assert_eq!(s.next_deadline(), Some(1_200));
    }
}
