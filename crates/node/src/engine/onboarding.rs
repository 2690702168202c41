//! The onboarding component: how a node that is behind catches up — headers-first
//! download, snapshot bootstrap against a pin, backfill of the history below it.

use super::SnapshotPin;
use ng_core::block::NgBlock;
use ng_crypto::sha256::Hash256;
use ng_net::message::InvKind;
use ng_net::sync::SyncScheduler;
use std::collections::{BTreeSet, HashMap};

/// Catch-up state: the download scheduler, the bootstrap and the backfill.
#[derive(Debug)]
pub(super) struct Onboarding {
    /// Multi-peer sync: concurrent header walks plus the windowed parallel block
    /// download scheduler (request deadlines, retry-on-another-peer, eviction).
    pub(super) sync: SyncScheduler,
    /// In-progress snapshot bootstrap; `None` once decided (applied, or fallen
    /// back to a full block download).
    pub(super) bootstrap: Option<BootstrapState>,
    /// In-progress background backfill of the history below a snapshot root.
    pub(super) backfill: Option<BackfillState>,
    /// Blocks fetched by the snapshot backfill. They sit below the tree's root, so
    /// this is the one block store outside the tree; it exists to serve full syncs.
    /// Capped by the root height: `claim_backfill_headers` stops requesting
    /// once one block per height below the root is held or expected.
    // ng-lint: bound(root_height)
    pub(super) backfilled: HashMap<Hash256, NgBlock>,
    /// Height of the chain root: 0 on a genesis-rooted chain, the pin height after
    /// a snapshot bootstrap. Forward sync ignores header records at or below it —
    /// they can never connect; the backfill owns that range.
    pub(super) root_height: u64,
}

/// Progress of a snapshot bootstrap: ask one ready peer at a time for the pinned
/// snapshot; fall back to a full block download once every ready peer was tried.
#[derive(Debug)]
pub(super) struct BootstrapState {
    /// The trusted checkpoint the served snapshot must match.
    pub(super) pin: SnapshotPin,
    /// Peers already asked (whether they answered or not).
    // ng-lint: allow(bounded-collections): subset of the connected peers, which
    // the driver's connection limit caps; dropped whole when bootstrap decides.
    pub(super) tried: BTreeSet<u64>,
    /// Outstanding request: `(peer, deadline_ms)`.
    pub(super) waiting: Option<(u64, u64)>,
}

/// Progress of the background history backfill below a snapshot root: a
/// sequential header walk from genesis toward the root against one peer at a
/// time, bodies fetched batch by batch. Fetched blocks are stored and made
/// servable, never connected — they sit below the root.
#[derive(Debug)]
pub(super) struct BackfillState {
    /// The snapshot root height; everything strictly below it is fetched.
    pub(super) target: u64,
    /// The peer currently serving the walk.
    pub(super) peer: u64,
    /// Deadline of the outstanding request (headers or bodies); expiry rotates
    /// the walk to the next ready peer.
    pub(super) deadline: u64,
    /// A `getheaders` is out and its reply pending.
    pub(super) awaiting_headers: bool,
    /// Requested bodies not yet delivered: id → (height, kind).
    // ng-lint: bound(header_batch)
    pub(super) expected: HashMap<Hash256, (u64, InvKind)>,
    /// Id of the last header record fetched (leads the next locator).
    pub(super) cursor: Option<Hash256>,
    /// The header walk reached the root; finish once `expected` drains.
    pub(super) exhausted: bool,
    /// Blocks fetched so far.
    pub(super) fetched: u64,
}
