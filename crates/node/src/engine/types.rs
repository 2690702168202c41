//! The engine's wire-facing vocabulary: its configuration, the [`Input`]s a driver
//! feeds it and the [`Effect`]s (with their [`ReportEvent`]s) it answers with.

use ng_chain::error::TxError;
use ng_chain::transaction::Transaction;
use ng_core::params::NgParams;
use ng_crypto::sha256::Hash256;
use ng_net::message::Message;
use ng_net::sync::SyncConfig;
use serde::Serialize;

/// Static configuration of one engine (the protocol-relevant subset of the old
/// daemon config — no addresses, no tick rates).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Stable node id; also seeds the deterministic key pair.
    pub id: u64,
    /// Protocol parameters (shared by every node of a network).
    pub params: NgParams,
    /// When true the engine streams microblocks from its mempool on its own while it
    /// is the leader, arming `SetTimer` effects for the next production deadline;
    /// when false microblocks are produced only on [`Input::ProduceMicroblock`] (the
    /// deterministic mode the test harnesses use).
    pub auto_microblocks: bool,
    /// Download-scheduler knobs: per-peer in-flight windows, request timeouts,
    /// stalling-peer eviction.
    pub sync: SyncConfig,
    /// When set, a fresh engine bootstraps by fetching the checkpoint snapshot the
    /// pin commits to (instead of downloading the whole chain), roots its chain at
    /// the pinned anchor, and backfills the history below it in the background.
    pub snapshot_pin: Option<SnapshotPin>,
    /// Serve checkpoint snapshots to bootstrapping peers even without durable
    /// storage: the checkpoint cadence keeps the newest snapshot in memory. Nodes
    /// with a durable backend serve from disk regardless of this flag.
    pub serve_snapshots: bool,
    /// Block-propagation knobs: compact microblock relay and the structured
    /// broadcast overlay. Both default off, preserving the classic flood.
    pub gossip: GossipConfig,
}

/// How this engine relays blocks (§7 propagation). The defaults reproduce the
/// classic flood: an `inv` over every link, the block fetched with `getdata`.
/// Enabling `compact` swaps microblock pushes for BIP152-style
/// [`ng_net::relay::CompactMicroBlock`] announcements
/// reconstructed from the receiver's mempool; enabling `overlay` restricts full
/// pushes to a small eager set and advertises over the rest with `ihave`,
/// Plumtree-style (see [`ng_net::overlay`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipConfig {
    /// Announce microblocks as compact blocks (short tx ids + mempool
    /// reconstruction) instead of full blocks.
    pub compact: bool,
    /// Broadcast blocks over the eager/lazy overlay instead of flooding every link.
    pub overlay: bool,
}

impl GossipConfig {
    /// The compact + overlay stack the scalable-gossip benchmarks run.
    pub fn scalable() -> Self {
        GossipConfig {
            compact: true,
            overlay: true,
        }
    }
}

impl EngineConfig {
    /// A config with the given id and parameters and the default knobs.
    pub fn new(id: u64, params: NgParams) -> Self {
        EngineConfig {
            id,
            params,
            auto_microblocks: false,
            sync: SyncConfig::default(),
            snapshot_pin: None,
            serve_snapshots: false,
            gossip: GossipConfig::default(),
        }
    }
}

/// A trusted checkpoint pin for snapshot bootstrap (assumeutxo-style). Obtained
/// out of band — shipped with the binary, operator-configured — exactly like
/// Bitcoin Core's `assumeutxo` hashes. The engine refuses any served snapshot
/// whose anchor height, anchor block id, or **recomputed** sorted UTXO commitment
/// disagrees with the pin, so a Byzantine server can withhold a snapshot but never
/// substitute a forged ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotPin {
    /// Anchor height of the pinned checkpoint.
    pub height: u64,
    /// Block id of the anchor key block.
    pub root: Hash256,
    /// Sorted (collision-resistant) UTXO commitment at the anchor.
    pub sorted: Hash256,
}

/// Everything that can happen to an engine. Connection events and decoded wire
/// messages come from the driver's transport; `Tick` is the driver firing a deadline
/// the engine armed via [`Effect::SetTimer`]; the rest are local commands.
#[derive(Clone, Debug, Serialize)]
pub enum Input {
    /// A connection to a remote peer was established. `peer` is the driver's key for
    /// the connection; `inbound` says who dialed (the outbound side speaks first).
    PeerConnected {
        /// Driver-assigned connection key.
        peer: u64,
        /// True if the remote initiated the connection.
        inbound: bool,
    },
    /// A connection went away (socket closed, link severed).
    PeerDisconnected {
        /// Driver-assigned connection key.
        peer: u64,
    },
    /// A decoded message arrived on a connection.
    Message {
        /// Driver-assigned connection key.
        peer: u64,
        /// The decoded message.
        message: Message,
    },
    /// A timer armed via [`Effect::SetTimer`] fired.
    Tick,
    /// Local command: mine (and adopt and announce) a key block.
    MineKeyBlock,
    /// Local command: produce one microblock from the mempool if leader and due.
    ProduceMicroblock {
        /// When true, an empty mempool produces nothing (instead of an empty block).
        require_transactions: bool,
    },
    /// Local command: submit a transaction to the mempool (and gossip).
    SubmitTx(Box<Transaction>),
}

/// What the driver must do after a [`super::Engine::handle`] call, in order.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum Effect {
    /// Send `message` on connection `peer`.
    Send {
        /// Destination connection key.
        peer: u64,
        /// The message to transmit.
        message: Message,
    },
    /// Send `message` to every ready peer (the driver expands this over
    /// [`super::Engine::ready_peers`]). Emitted for freshly produced local objects, which
    /// by construction no peer knows yet.
    Broadcast {
        /// The message to transmit to every ready peer.
        message: Message,
    },
    /// Arm (or re-arm) the driver's single wakeup timer for an absolute deadline on
    /// the driver's clock; the driver feeds [`Input::Tick`] once it passes. A later
    /// `SetTimer` replaces any earlier one.
    SetTimer {
        /// Absolute deadline in the driver's `now_ms` timebase.
        deadline_ms: u64,
    },
    /// Disarm the wakeup timer: every deadline the engine was waiting on has been
    /// satisfied. Without this, a sync request's timeout would fire a pointless
    /// `Tick` long after the reply arrived (and keep SimNet scenarios from going
    /// quiescent inside their virtual-time budgets).
    ClearTimer,
    /// Close the connection (the engine has already forgotten the peer).
    Disconnect {
        /// Connection key to close.
        peer: u64,
    },
    /// A protocol event for observability. The engine never counts anything itself —
    /// drivers feed these to [`ng_metrics::counters::NodeCounters`] (see
    /// [`crate::report::record`]), keeping the engine free of shared state.
    Report(ReportEvent),
}

/// Protocol events surfaced via [`Effect::Report`]. Block/transaction ids double as
/// return values: drivers resolve command replies (e.g. "what did I just mine?") by
/// scanning the reported events.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum ReportEvent {
    /// A connection completed its version handshake.
    PeerReady {
        /// Connection key.
        peer: u64,
        /// The remote's stable node id.
        node_id: u64,
    },
    /// A peer violated the protocol and was disconnected.
    PeerMisbehaved {
        /// Connection key.
        peer: u64,
        /// Human-readable violation.
        reason: String,
    },
    /// A block joined the chain (local or remote).
    BlockAccepted {
        /// The block id.
        id: Hash256,
        /// Whether the main-chain tip changed.
        tip_changed: bool,
        /// Whether blocks left the main chain (a reorg).
        reorg: bool,
    },
    /// A duplicate block was ignored.
    BlockDuplicate {
        /// The block id.
        id: Hash256,
    },
    /// A block was buffered because its parent is unknown.
    BlockOrphaned {
        /// The block id.
        id: Hash256,
    },
    /// A block failed validation.
    BlockRejected {
        /// The block id.
        id: Hash256,
    },
    /// This node mined (and adopted) a key block.
    KeyBlockMined {
        /// The key block id.
        id: Hash256,
    },
    /// This node produced (and adopted) a microblock as leader.
    MicroblockProduced {
        /// The microblock id.
        id: Hash256,
    },
    /// A transaction entered the mempool.
    TxAccepted {
        /// The transaction id.
        txid: Hash256,
    },
    /// A transaction was refused: submitted, or relayed by a peer and judged in
    /// its admission batch. A peer's copy of a transaction this node already
    /// holds ([`AdmitReject::is_duplicate`]) is gossip redundancy, not a refusal,
    /// and is not reported; a submitted one is.
    TxRejected {
        /// The transaction id.
        txid: Hash256,
        /// Why it was refused.
        reason: AdmitReject,
    },
    /// A `getheaders` request was served.
    SyncRequestServed {
        /// Requesting connection key.
        peer: u64,
    },
    /// A `headers` batch arrived while syncing.
    SyncBatchReceived {
        /// Serving connection key.
        peer: u64,
        /// Number of records in the batch.
        count: usize,
    },
    /// The incremental chainstate rolled across a tip change.
    LedgerRolled {
        /// Blocks connected to the ledger view.
        connected: u64,
        /// Blocks disconnected from the ledger view (non-zero on reorgs).
        disconnected: u64,
    },
    /// A durable-storage write failed. The engine keeps running in memory; the
    /// driver decides whether to alert or shut down.
    StorageFailed {
        /// Human-readable failure.
        reason: String,
    },
    /// A snapshot / finality checkpoint was written.
    CheckpointWritten {
        /// Anchor height of the snapshot.
        height: u64,
    },
    /// A checkpoint snapshot was served to a bootstrapping peer.
    SnapshotServed {
        /// Requesting connection key.
        peer: u64,
    },
    /// A served snapshot passed the pinned-commitment checks and rooted the chain.
    SnapshotApplied {
        /// Anchor height of the applied snapshot.
        height: u64,
    },
    /// A served snapshot contradicted the pin and was refused.
    SnapshotRejected {
        /// The serving connection key (disconnected for it).
        peer: u64,
    },
    /// A peer accumulated too many request timeouts and was evicted from download
    /// duty (the connection itself stays up — gossip still flows).
    SyncPeerEvicted {
        /// The evicted connection key.
        peer: u64,
    },
    /// The background backfill below a snapshot root fetched all of history.
    BackfillCompleted {
        /// Blocks fetched by the backfill.
        blocks: u64,
    },
    /// A compact announcement was reconstructed into a full microblock — entirely
    /// from the local mempool, or after one `getblocktxn` round trip.
    CompactReconstructed {
        /// The microblock id.
        id: Hash256,
        /// Transactions fetched via `blocktxn` (0 = pure mempool reconstruction).
        fetched: usize,
    },
    /// A compact reconstruction failed (collision, bad reply, digest mismatch) and
    /// the node fell back to a full-block fetch.
    CompactFallback {
        /// The microblock id.
        id: Hash256,
    },
    /// A lazy `ihave` timed out: the advertising link was grafted back to eager and
    /// the block pulled over it (the overlay's self-healing move).
    OverlayGraft {
        /// The grafted connection key.
        peer: u64,
    },
    /// A duplicate eager push demoted the link it came over to lazy.
    OverlayPrune {
        /// The pruned connection key.
        peer: u64,
    },
    /// This node observed a leader sign two microblocks over the same parent and
    /// constructed the fraud proof itself (§4.5).
    PoisonDetected {
        /// The equivocating leader.
        accused: u64,
        /// Canonical id of the constructed poison transaction.
        txid: Hash256,
    },
    /// A poison transaction (local or remote) passed validation and its revenue
    /// revocation was applied to the ledger view.
    PoisonAccepted {
        /// The leader whose epoch revenue was revoked.
        accused: u64,
        /// The statically determined revocable amount, in satoshis.
        revoked_sats: u64,
    },
    /// An incoming poison transaction was dropped: invalid evidence, a duplicate,
    /// or a losing competitor of a poison already applied for the same epoch.
    PoisonRejected {
        /// Human-readable drop reason.
        reason: String,
    },
    /// A poison transaction was flooded onward to this node's ready peers.
    PoisonRelayed {
        /// Canonical id of the relayed poison transaction.
        txid: Hash256,
    },
}

/// Why a transaction was not pooled ([`ReportEvent::TxRejected`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum AdmitReject {
    /// Already pending: pooled, or queued for the next admission batch.
    AlreadyPooled,
    /// Already serialized on the main chain.
    AlreadyConfirmed,
    /// Larger than an empty microblock's payload: no block could ever carry it.
    Oversized,
    /// Validation against the ledger view failed.
    Invalid(TxError),
    /// It spends an outpoint a pooled transaction already spends.
    DoubleSpend,
}

impl AdmitReject {
    /// True if this node already holds the transaction: pending or confirmed.
    pub fn is_duplicate(&self) -> bool {
        matches!(
            self,
            AdmitReject::AlreadyPooled | AdmitReject::AlreadyConfirmed
        )
    }

    /// True for a missing or forged signature. Under full validation a relay
    /// forwards only what it admitted, so this is never an honest peer's mistake —
    /// unlike a missing input or an immature coinbase, which depend on the view.
    pub fn forged(&self) -> bool {
        matches!(self, AdmitReject::Invalid(TxError::BadSignature(_)))
    }
}
