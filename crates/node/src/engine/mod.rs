//! The sans-I/O protocol engine: the entire Bitcoin-NG peer protocol as one pure,
//! deterministic state machine.
//!
//! [`Engine::handle`] consumes an [`Input`] — a connection event, a decoded wire
//! [`Message`], a timer tick, or a local command — together with the caller's clock
//! (`now_ms`), and returns the [`Effect`]s the caller must execute. The engine itself
//! never touches sockets, threads, message queues, or clocks: all I/O and time arrive as
//! inputs and leave as effects. Two drivers exercise the same engine:
//!
//! * [`crate::daemon`] — real TCP sockets and wall-clock time (the live node);
//! * [`crate::simnet`] — N engines wired through a seeded in-process scheduler with
//!   configurable latency, loss, and partitions (deterministic scenario testing).
//!
//! # The router and its four components
//!
//! [`Engine`] itself is a thin router: it owns the configuration and the timer it
//! last armed, turns an [`Input`] into calls on four components, and arms the
//! driver's timer with the earliest deadline any of them waits on. Each component
//! owns its state outright — nothing else can name those fields — and is handed
//! its siblings as explicit `&`/`&mut` parameters, so a method's signature lists
//! everything it can read or write. All of them push into the one effect list of
//! the `handle` pass, in call order.
//!
//! | component | owns | does |
//! |---|---|---|
//! | `chain` | `node` (the block tree), `view` (the incremental ledger), `mempool`, `storage`, `last_snapshot_height`, `latest_snapshot` | admission, block production, the ledger roll and its persistence hooks, checkpoints, finality, restart recovery |
//! | `relay` | `peers`, `overlay`, `compact`, `held_back`, `relay_memory` | handshakes, `inv`/`getdata`, compact blocks, the eager/lazy overlay, announcing, punishing |
//! | `onboarding` | `sync`, `bootstrap`, `backfill`, `backfilled`, `root_height` | headers-first download, snapshot bootstrap against a [`SnapshotPin`], backfill of the history below it |
//! | `fraud` | `micro_sightings`, `poisons`, `pending_poisons` | §4.5: equivocation detection, poison validation, the min-txid rule, parking, re-assertion |
//!
//! One copy of every object: a block lives in the block tree, a pending
//! transaction in the mempool, and the wire is served from those two stores — a
//! `keyblock`/`microblock`/`tx` message is built at the moment it is sent, and a
//! block is served exactly when it may be announced. The only other bodies held
//! are the relay's bounded memory of recently announced transactions and the
//! below-root history a snapshot-rooted node backfills.
//!
//! The order of calls inside `accept_block` — the one path every block takes,
//! whoever delivered it — is fixed, and the effect trace depends on it:
//!
//! 1. `onboarding.note_delivery`, `relay.block_arrived`: whatever was waiting for
//!    this block (a scheduled download, a lazy pull, a compact reconstruction)
//!    stops waiting;
//! 2. `chain.insert`: structure, proof of work, leader signature, fork choice;
//! 3. if the tip moved, `chain.roll_ledger` — which connects the blocks, drops the
//!    ones whose transactions do not validate (`relay.release`), lets
//!    `fraud.ledger_rolled` re-assert its poisons and retry the parked ones,
//!    persists, checkpoints and rolls the mempool — and then `relay.punish` if the
//!    block just delivered was one of the dropped;
//! 4. if the block survived: `BlockAccepted`, `relay.block_accepted` (announce it
//!    or hold it back, then flush what became announceable),
//!    `fraud.block_stored` (a second signature under the same parent is an
//!    equivocation; proofs parked under this block are retried).
//!
//! A duplicate goes to `relay.prune_duplicate_link`; an orphan to
//! `relay.hold_back` and, unless the scheduler expected it,
//! `onboarding.request_sync`.
//!
//! Determinism contract: for a fixed [`EngineConfig`], an identical sequence of
//! `(now_ms, Input)` pairs produces an identical sequence of effects, byte for byte.
//! Every internal iteration that feeds an effect is over an ordered collection or
//! explicitly sorted. The `SimNet` determinism suite enforces this property across
//! seeds.

use crate::chainstate::ChainView;
use ng_chain::amount::Amount;
use ng_chain::chainstore::InsertOutcome;
use ng_chain::transaction::Transaction;
use ng_chain::utxo::UtxoSet;
use ng_core::block::NgBlock;
use ng_core::node::NgNode;
use ng_crypto::sha256::Hash256;
use ng_net::message::{InvKind, Message};
use ng_net::peer::PeerAction;

mod chain;
mod fraud;
mod onboarding;
mod relay;
mod types;

use chain::Chain;
use fraud::Fraud;
use onboarding::Onboarding;
use relay::Relay;

pub use types::{Effect, EngineConfig, GossipConfig, Input, ReportEvent, SnapshotPin};

/// Queues `message` for connection `peer`.
fn send(effects: &mut Vec<Effect>, peer: u64, message: Message) {
    effects.push(Effect::Send { peer, message });
}

/// How the wire names a block's kind.
fn inv_kind(block: &NgBlock) -> InvKind {
    match block {
        NgBlock::Key(_) => InvKind::KeyBlock,
        NgBlock::Micro(_) => InvKind::MicroBlock,
    }
}

/// Surfaces a protocol event to the driver.
fn report(effects: &mut Vec<Effect>, event: ReportEvent) {
    effects.push(Effect::Report(event));
}

/// The pure Bitcoin-NG protocol engine. See the module docs for the contract.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    chain: Chain,
    relay: Relay,
    onboarding: Onboarding,
    fraud: Fraud,
    /// The deadline of the last `SetTimer` effect emitted, to avoid re-arming the
    /// driver with a deadline it already holds. Cleared when a `Tick` consumes it.
    last_timer: Option<u64>,
}

impl Engine {
    /// Creates an engine over a fresh chain (genesis only).
    pub fn new(config: EngineConfig) -> Self {
        let (chain, pin) = (Chain::new(&config), config.snapshot_pin);
        Self::assemble(config, chain, 0, pin)
    }

    /// An engine around the given chain, everything else empty; with a `pin`, it
    /// starts by bootstrapping from the pinned snapshot.
    fn assemble(
        config: EngineConfig,
        chain: Chain,
        root_height: u64,
        pin: Option<SnapshotPin>,
    ) -> Self {
        Engine {
            relay: Relay::new(&config),
            onboarding: Onboarding::new(&config, root_height, pin),
            fraud: Fraud::new(),
            chain,
            config,
            last_timer: None,
        }
    }

    /// Rebuilds an engine from what a [`ng_storage::FileStorage::open`] recovery
    /// scan found on disk — the restart path. Cost is O(finality depth), not
    /// O(chain length):
    ///
    /// 1. The block tree is rooted at the recovered finality checkpoint (or
    ///    genesis on a young chain) and the stored blocks above it are replayed
    ///    through [`NgChainState::restore_insert`] — no signature or
    ///    proof-of-work re-verification, they were validated before being made
    ///    durable. WAL-invalidated blocks are skipped. The fork-choice rule is
    ///    deterministic, so the replay re-derives exactly the pre-crash tip.
    /// 2. Undo records are restored so post-restart reorgs (legal down to
    ///    finality) can still rewind pre-crash blocks.
    /// 3. The ledger view restores from the newest usable snapshot and syncs
    ///    forward to the re-derived tip, validating only the blocks above the
    ///    snapshot.
    ///
    /// The returned engine does **not** yet persist; pass the recovered backend to
    /// [`Self::set_storage`] after construction.
    ///
    /// [`NgChainState::restore_insert`]: ng_core::chain::NgChainState::restore_insert
    pub fn restore(config: EngineConfig, recovery: ng_storage::Recovery) -> Self {
        let (chain, root_height) = Chain::restore(&config, recovery);
        // A restored node already holds its history — a pin never re-bootstraps an
        // engine that recovered a chain from disk.
        let mut engine = Self::assemble(config, chain, root_height, None);
        engine.roll_ledger(None, &mut Vec::new());
        engine
    }

    /// Installs a durable backend: from here on every accepted block, undo record
    /// and completed roll is persisted, snapshots are written on the
    /// [`NgParams::checkpoint_interval`] cadence, and finality advances with the
    /// tip. Drivers with a datadir (the TCP daemon) call this; SimNet never does.
    ///
    /// [`NgParams::checkpoint_interval`]: ng_core::params::NgParams
    pub fn set_storage(&mut self, storage: Box<dyn ng_storage::ChainStorage>) {
        self.chain.set_storage(storage);
    }

    /// Installs a signature [`ng_chain::sigcache::BatchExecutor`] on the ledger
    /// view. Drivers with real threads (the TCP daemon, the testnet harness) call
    /// this with a worker pool; verification *results* are identical either way, so
    /// the engine's pure input→effect contract is unaffected — only wall-clock
    /// changes. SimNet leaves it unset to stay single-threaded.
    pub fn set_batch_executor(
        &mut self,
        executor: std::sync::Arc<dyn ng_chain::sigcache::BatchExecutor>,
    ) {
        self.chain.set_batch_executor(executor);
    }

    /// Feeds one input to the engine and returns the effects to execute, in order.
    pub fn handle(&mut self, now_ms: u64, input: Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        match input {
            Input::PeerConnected { peer, inbound } => {
                let height = self.chain.height();
                self.relay.connect(peer, inbound, height, now_ms, &mut effects)
            }
            Input::PeerDisconnected { peer } => self.relay.forget(peer, &mut self.onboarding),
            Input::Message { peer, message } => {
                self.on_message(peer, message, now_ms, &mut effects)
            }
            Input::Tick => {
                // The driver consumed the armed deadline; anything still pending
                // must be re-armed below.
                self.last_timer = None;
            }
            Input::MineKeyBlock => self.mine_key_block(now_ms, &mut effects),
            Input::ProduceMicroblock {
                require_transactions,
            } => {
                self.produce_microblock(now_ms, require_transactions, &mut effects);
            }
            Input::SubmitTx(tx) => self.accept_tx(None, *tx, &mut effects),
        }
        self.autostream(now_ms, &mut effects);
        // Any input may have freed download windows, expired deadlines, or changed
        // the bootstrap/backfill state: run one scheduler pass before re-arming.
        self.onboarding.drive(now_ms, &self.chain, &mut self.relay, &mut effects);
        self.relay.drive(now_ms, &mut effects);
        self.arm_timer(now_ms, &mut effects);
        effects
    }

    // ---- queries (drivers and snapshots) --------------------------------------

    /// The node id.
    pub fn id(&self) -> u64 {
        self.config.id
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Read access to the underlying protocol node.
    pub fn node(&self) -> &NgNode {
        self.chain.node()
    }

    /// Current main-chain tip.
    pub fn tip(&self) -> Hash256 {
        self.chain.node().tip()
    }

    /// Height of the tip.
    pub fn height(&self) -> u64 {
        self.chain.height()
    }

    /// Commitment to the UTXO set derived from the main chain — the convergence
    /// criterion between nodes. This is the strong sorted-hash commitment: the XOR
    /// rolling commitment is GF(2)-linear and an adversary who can craft outputs
    /// could engineer colliding divergent ledgers, so equality claims between nodes
    /// use the collision-resistant form. It is only computed when a driver
    /// snapshots or a harness polls convergence — never on the per-block hot path,
    /// which maintains [`ChainView::commitment`] incrementally instead.
    pub fn utxo_commitment(&self) -> Hash256 {
        self.chain.view().utxo().commitment()
    }

    /// The incrementally maintained UTXO ledger view.
    pub fn utxo(&self) -> &UtxoSet {
        self.chain.view().utxo()
    }

    /// The incremental chainstate (anchor, confirmed set, signature cache stats).
    pub fn chainstate(&self) -> &ChainView {
        self.chain.view()
    }

    /// Total blocks known (key + micro, excluding orphans).
    pub fn chain_len(&self) -> usize {
        self.chain.node().chain().len()
    }

    /// Pending transactions in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.chain.mempool().len()
    }

    /// True if the transaction id is pending in the mempool.
    pub fn mempool_contains(&self, txid: &Hash256) -> bool {
        self.chain.mempool().contains(txid)
    }

    /// True if this node is the current leader.
    pub fn is_leader(&self) -> bool {
        self.chain.node().is_leader()
    }

    /// The `(accused leader, epoch key block)` keys of every recorded poison —
    /// the fraud proofs this node has accepted and applied (§4.5).
    pub fn poisoned(&self) -> Vec<(u64, Hash256)> {
        self.fraud.poisoned()
    }

    /// Total revenue revoked across every recorded poison (the statically
    /// determined amounts, not live balances).
    pub fn poison_revoked_total(&self) -> Amount {
        self.fraud.revoked_total()
    }

    /// The node's view of the current leader.
    pub fn current_leader(&self) -> Option<u64> {
        self.chain.node().current_leader()
    }

    /// Connections whose handshake completed, sorted (the expansion set for
    /// [`Effect::Broadcast`]).
    pub fn ready_peers(&self) -> Vec<u64> {
        self.relay.ready_peers()
    }

    /// Number of connections whose handshake completed.
    pub fn ready_peer_count(&self) -> usize {
        self.relay.ready().count()
    }

    /// Every registered connection key, sorted (drivers tear these down on
    /// disconnect-all commands).
    pub fn connected_peers(&self) -> Vec<u64> {
        self.relay.connected_peers()
    }

    /// Completed sync block downloads per peer, sorted by peer key. The parallel
    /// cold-sync tests assert ≥ 2 peers contributed through this.
    pub fn sync_downloads_by_peer(&self) -> Vec<(u64, u64)> {
        self.onboarding.sync().downloads_by_peer()
    }

    /// Peers evicted from download duty so far.
    pub fn sync_evictions(&self) -> u64 {
        self.onboarding.sync().evictions()
    }

    /// True while the download scheduler has outstanding work (walks, queued or
    /// in-flight blocks).
    pub fn sync_active(&self) -> bool {
        self.onboarding.sync().active()
    }

    /// Blocks the download scheduler still has queued or in flight.
    pub fn sync_pending(&self) -> usize {
        self.onboarding.sync().pending()
    }

    /// True while a snapshot bootstrap is undecided.
    pub fn bootstrapping(&self) -> bool {
        self.onboarding.bootstrapping()
    }

    /// True while the background history backfill still runs.
    pub fn backfilling(&self) -> bool {
        self.onboarding.backfilling()
    }

    /// Height of the chain root (0 on a genesis-rooted chain; the pin height after
    /// a snapshot bootstrap).
    pub fn root_height(&self) -> u64 {
        self.onboarding.root_height()
    }

    /// The newest checkpoint snapshot held in memory, if any.
    pub fn latest_snapshot(&self) -> Option<&ng_storage::Snapshot> {
        self.chain.latest_snapshot()
    }

    /// Current eager-set connections of the broadcast overlay, ascending (empty
    /// unless `gossip.overlay` is on).
    pub fn overlay_eager(&self) -> Vec<u64> {
        self.relay.overlay().eager().collect()
    }

    /// Current lazy-set connections of the broadcast overlay, ascending.
    pub fn overlay_lazy(&self) -> Vec<u64> {
        self.relay.overlay().lazy().collect()
    }

    /// Inserts a transaction straight into the mempool — no gossip, no effects.
    /// Bench and test harnesses use this to pre-fill many nodes' pools with the
    /// same transactions deterministically (the precondition compact relay
    /// exploits) without paying for a transaction flood first.
    pub fn preload_tx(&mut self, tx: Transaction) -> bool {
        self.chain.admit(&tx.txid(), &tx)
    }

    // ---- incoming messages ----------------------------------------------------

    fn on_message(&mut self, peer: u64, message: Message, now_ms: u64, effects: &mut Vec<Effect>) {
        let height = self.chain.height();
        let Some(actions) = self.relay.receive(peer, message, height, now_ms) else {
            return; // unknown or already-forgotten connection
        };
        for action in actions {
            match action {
                PeerAction::Send(message) => send(effects, peer, message),
                PeerAction::HandshakeComplete {
                    node_id,
                    best_height,
                    ..
                } => {
                    // The handshake replies are queued above; now sync.
                    report(effects, ReportEvent::PeerReady { peer, node_id });
                    self.fraud.offer_records(peer, effects);
                    self.relay.peer_ready(peer);
                    self.onboarding.peer_ready(peer, best_height);
                }
                PeerAction::Disconnect(error) => {
                    let reason = error.to_string();
                    self.relay.punish(peer, reason, &mut self.onboarding, effects);
                    return;
                }
                PeerAction::Announced(item) => {
                    self.relay.on_inv(peer, item, &self.chain, &self.onboarding, effects)
                }
                PeerAction::Requested(item) => {
                    self.relay.on_getdata(peer, item, &self.chain, &self.onboarding, effects)
                }
                PeerAction::Deliver(message) => {
                    self.handle_delivered(peer, message, now_ms, effects)
                }
            }
        }
    }

    /// A block body arrived: the snapshot backfill takes the ones it asked for,
    /// everything else is offered to the chain.
    fn on_block(&mut self, from: u64, block: NgBlock, now_ms: u64, effects: &mut Vec<Effect>) {
        if let Some(block) = self.onboarding.claim_block(block, &mut self.chain, effects) {
            self.accept_block(Some(from), block, now_ms, effects);
        }
    }

    // ---- delivered objects ----------------------------------------------------

    fn handle_delivered(
        &mut self,
        from: u64,
        message: Message,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        match message {
            Message::KeyBlock(kb) => self.on_block(from, NgBlock::Key(*kb), now_ms, effects),
            Message::MicroBlock(mb) => self.on_block(from, NgBlock::Micro(*mb), now_ms, effects),
            Message::Tx(tx) => self.accept_tx(Some(from), *tx, effects),
            Message::GetHeaders { locator, limit } => {
                onboarding::serve_headers(&self.chain, from, &locator, limit, effects);
            }
            Message::Headers(records) => {
                self.onboarding.handle_headers(
                    from,
                    records,
                    now_ms,
                    &self.chain,
                    &mut self.relay,
                    effects,
                );
            }
            Message::GetSnapshot { height } => {
                onboarding::serve_snapshot(&mut self.chain, from, height, effects);
            }
            Message::Snapshot(snapshot) => {
                self.onboarding.handle_snapshot(
                    &self.config,
                    from,
                    snapshot.map(|boxed| *boxed),
                    &mut self.chain,
                    &mut self.relay,
                    effects,
                );
            }
            Message::CmpctBlock(compact) => {
                let rebuilt = self.relay.on_compact(from, *compact, &self.chain, effects);
                if let Some(block) = rebuilt {
                    self.accept_block(Some(from), block, now_ms, effects);
                }
            }
            Message::GetBlockTxn { block, indexes } => self.relay.serve_block_txn(
                from,
                block,
                &indexes,
                &self.chain,
                &self.onboarding,
                effects,
            ),
            Message::BlockTxn { block, txs } => {
                if let Some(block) = self.relay.on_block_txn(from, block, txs, effects) {
                    self.accept_block(Some(from), block, now_ms, effects);
                }
            }
            Message::IHave(items) => {
                self.relay.on_ihave(from, items, now_ms, &self.chain, &self.onboarding)
            }
            Message::Graft(item) => {
                self.relay.on_graft(from, item, &self.chain, &self.onboarding, effects)
            }
            Message::Prune => self.relay.on_prune(from),
            Message::Poison(poison) => {
                self.fraud.adopt(&mut self.chain, &self.relay, Some(from), *poison, effects)
            }
            _ => {}
        }
    }

    /// A transaction arrived (from a peer, or submitted locally): pool it if the
    /// chain admits it, then remember and announce it.
    fn accept_tx(&mut self, from: Option<u64>, tx: Transaction, effects: &mut Vec<Effect>) {
        let txid = tx.txid();
        if self.chain.admit(&txid, &tx) {
            report(effects, ReportEvent::TxAccepted { txid });
            self.relay.relay_tx(txid, tx, from, effects);
        }
    }

    fn accept_block(
        &mut self,
        from: Option<u64>,
        block: NgBlock,
        now_ms: u64,
        effects: &mut Vec<Effect>,
    ) {
        let id = block.id();
        let expected = self.onboarding.note_delivery(&id);
        self.relay.block_arrived(&id);
        let micro_key = match &block {
            NgBlock::Micro(mb) => Some((mb.header.prev, mb.header.leader)),
            NgBlock::Key(_) => None,
        };
        match self.chain.insert(block, now_ms) {
            Ok(InsertOutcome::Accepted {
                tip_changed, reorg, ..
            }) => {
                if tip_changed {
                    self.roll_ledger(from.map(|peer| (peer, id)), effects);
                }
                // The roll may have invalidated the block (its transactions failed
                // validate-on-connect): only a surviving block is reported,
                // relayed and looked at for equivocation.
                if self.chain.holds(&id) {
                    let reorg = reorg.is_some();
                    report(effects, ReportEvent::BlockAccepted { id, tip_changed, reorg });
                    self.relay.block_accepted(id, from, &self.chain, effects);
                    let (chain, relay) = (&mut self.chain, &self.relay);
                    self.fraud.block_stored(chain, relay, micro_key, id, effects);
                }
            }
            Ok(InsertOutcome::Duplicate) => {
                report(effects, ReportEvent::BlockDuplicate { id });
                if let Some(from) = from {
                    // A second eager path pushed a full copy: demote that link.
                    self.relay.prune_duplicate_link(from, effects);
                }
            }
            Ok(InsertOutcome::Orphaned { .. }) => {
                report(effects, ReportEvent::BlockOrphaned { id });
                // Remember the id so the block is announced once its ancestors
                // arrive (the chain layer adopts it without telling us).
                self.relay.hold_back(id);
                // We are missing history; a header walk fills the gap — unless the
                // scheduler expected this block, in which case its ancestors are
                // already queued or in flight. The walk nominally targets the
                // sender, but the scheduler falls back to the best-header peer once
                // a round with the sender failed: an orphan's direct sender can be
                // behind (it relayed before syncing itself) or Byzantine.
                if let Some(from) = from {
                    if !expected {
                        self.onboarding.request_sync(from);
                    }
                }
            }
            Err(_) => report(effects, ReportEvent::BlockRejected { id }),
        }
    }

    /// Rolls the ledger to the current tip ([`Chain::roll_ledger`]). `from` names
    /// the peer and the block it just delivered; if that very block turns out to
    /// carry invalid transactions, the peer is disconnected.
    fn roll_ledger(&mut self, from: Option<(u64, Hash256)>, effects: &mut Vec<Effect>) {
        let delivered = from.map(|(_, id)| id);
        let (fraud, relay) = (&mut self.fraud, &mut self.relay);
        let delivered_invalid = self.chain.roll_ledger(delivered, fraud, relay, effects);
        if let (true, Some((peer, _))) = (delivered_invalid, from) {
            let reason = "sent a microblock with invalid transactions".to_string();
            self.relay.punish(peer, reason, &mut self.onboarding, effects);
        }
    }

    // ---- block production -----------------------------------------------------

    /// This node just mined or produced block `id`: roll the ledger over it,
    /// report it, announce it.
    fn adopt_own_block(&mut self, id: Hash256, event: ReportEvent, effects: &mut Vec<Effect>) {
        self.roll_ledger(None, effects);
        report(effects, event);
        self.relay.announce_block(id, None, &self.chain, effects);
    }

    fn mine_key_block(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        let id = self.chain.mine_key_block(now_ms);
        self.adopt_own_block(id, ReportEvent::KeyBlockMined { id }, effects);
    }

    fn produce_microblock(
        &mut self,
        now_ms: u64,
        require_transactions: bool,
        effects: &mut Vec<Effect>,
    ) -> Option<Hash256> {
        let id = self.chain.produce_microblock(now_ms, require_transactions)?;
        self.adopt_own_block(id, ReportEvent::MicroblockProduced { id }, effects);
        Some(id)
    }

    /// In auto mode, drain whatever the protocol's spacing rules allow right now.
    fn autostream(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        if !self.config.auto_microblocks {
            return;
        }
        while !self.chain.mempool().is_empty()
            && self.produce_microblock(now_ms, true, effects).is_some()
        {}
    }

    /// Arms the driver's wakeup timer with the earliest deadline any component
    /// waits on — block production, the download scheduler, the snapshot
    /// bootstrap, the backfill, a lazy pull — if there is one and the driver does
    /// not hold it already.
    fn arm_timer(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        // `None` while not leader: only a new key block unblocks production.
        let production = (self.config.auto_microblocks && !self.chain.mempool().is_empty())
            .then(|| self.chain.node().next_microblock_ms())
            .flatten();
        let earliest = [
            production,
            self.onboarding.next_deadline(&self.relay),
            self.relay.overlay().next_deadline(),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(deadline) = earliest else {
            if self.last_timer.take().is_some() {
                effects.push(Effect::ClearTimer);
            }
            return;
        };
        // Never arm a deadline in the past: anything already actionable ran in
        // this same `handle` pass (`autostream`, the components' `drive`).
        let deadline = deadline.max(now_ms + 1);
        if self.last_timer != Some(deadline) {
            self.last_timer = Some(deadline);
            let deadline_ms = deadline;
            effects.push(Effect::SetTimer { deadline_ms });
        }
    }
}

#[cfg(test)]
mod testkit {
    //! Fixtures shared by the unit tests of the router and of every component.

    use super::*;
    use ng_core::params::NgParams;
    use ng_net::message::ProtocolKind;

    pub(in crate::engine) fn params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 2,
            // The synthetic `test_tx` workload spends outpoints that do not exist;
            // these suites exercise the protocol, not the ledger rules (§7).
            validate_transactions: false,
            ..NgParams::default()
        }
    }

    pub(in crate::engine) fn engine(id: u64) -> Engine {
        Engine::new(EngineConfig::new(id, params()))
    }

    pub(in crate::engine) fn gossip_engine(id: u64, gossip: GossipConfig) -> Engine {
        let mut config = EngineConfig::new(id, params());
        config.gossip = gossip;
        Engine::new(config)
    }

    /// Validating parameters with immediately spendable coinbases.
    pub(in crate::engine) fn validated_params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 2,
            coinbase_maturity: 0,
            ..NgParams::default()
        }
    }

    /// Registers a handshaken peer on `engine` under connection key `peer`.
    pub(in crate::engine) fn register_peer(engine: &mut Engine, peer: u64) {
        engine.handle(0, Input::PeerConnected { peer, inbound: true });
        let version = Message::Version {
            node_id: 10_000 + peer,
            protocol: ProtocolKind::BitcoinNg,
            best_height: 0,
            time_ms: 0,
        };
        for message in [version, Message::Verack, Message::Headers(vec![])] {
            deliver(engine, 0, peer, message);
        }
    }

    /// Has `engine` produce a microblock from whatever it has pooled.
    pub(in crate::engine) fn produce(engine: &mut Engine, now_ms: u64) -> Vec<Effect> {
        let require_transactions = true;
        engine.handle(now_ms, Input::ProduceMicroblock { require_transactions })
    }

    /// Delivers `message` to `engine` over connection `peer`.
    pub(in crate::engine) fn deliver(
        engine: &mut Engine,
        now_ms: u64,
        peer: u64,
        message: Message,
    ) -> Vec<Effect> {
        engine.handle(now_ms, Input::Message { peer, message })
    }

    /// The protocol events among `effects`.
    pub(in crate::engine) fn reports(effects: &[Effect]) -> impl Iterator<Item = &ReportEvent> {
        effects.iter().filter_map(|effect| match effect {
            Effect::Report(event) => Some(event),
            _ => None,
        })
    }

    /// The `Send` effects among `effects`, as `(peer, command)` pairs.
    pub(in crate::engine) fn sends(effects: &[Effect]) -> Vec<(u64, &'static str)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { peer, message } => Some((*peer, message.command())),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use crate::testnet::test_tx;
    use std::collections::VecDeque;

    /// Runs every message effect between two engines until both queues drain
    /// (b's inbox first). `a` talks to `b` over connection key 0 on both sides.
    fn pump(now: u64, a: &mut Engine, b: &mut Engine, first: Vec<Effect>, from_a: bool) {
        let mut inboxes = [VecDeque::new(), VecDeque::new()]; // a's, b's
        let mut emitted = Some((first, from_a));
        while let Some((effects, sender_is_a)) = emitted.take() {
            for effect in effects {
                if let Effect::Send { message, .. } | Effect::Broadcast { message } = effect {
                    inboxes[usize::from(sender_is_a)].push_back(message);
                }
            }
            if let Some(message) = inboxes[1].pop_front() {
                emitted = Some((deliver(b, now, 0, message), false));
            } else if let Some(message) = inboxes[0].pop_front() {
                emitted = Some((deliver(a, now, 0, message), true));
            }
        }
    }

    /// The first message among `effects` with the given wire command.
    fn sent(effects: &[Effect], command: &str) -> Option<Message> {
        effects.iter().find_map(|effect| match effect {
            Effect::Send { message, .. } | Effect::Broadcast { message }
                if message.command() == command =>
            {
                Some(message.clone())
            }
            _ => None,
        })
    }

    fn connect(now: u64, a: &mut Engine, b: &mut Engine) {
        let hello = a.handle(now, Input::PeerConnected { peer: 0, inbound: false });
        assert_eq!(sends(&hello), vec![(0, "version")]);
        b.handle(now, Input::PeerConnected { peer: 0, inbound: true });
        pump(now, a, b, hello, true);
        assert_eq!(a.ready_peer_count(), 1);
        assert_eq!(b.ready_peer_count(), 1);
    }

    #[test]
    fn compact_announcement_reconstructs_at_the_receiver() {
        let mut a = gossip_engine(1, GossipConfig::scalable());
        let mut b = gossip_engine(2, GossipConfig::scalable());
        connect(1_000, &mut a, &mut b);
        let mined = a.handle(1_100, Input::MineKeyBlock);
        pump(1_100, &mut a, &mut b, mined, true);
        assert_eq!(b.height(), 1);
        // Transactions still flood in overlay mode: both pools end up holding it,
        // which is exactly what compact reconstruction relies on.
        let submitted = a.handle(1_200, Input::SubmitTx(Box::new(test_tx(1))));
        pump(1_200, &mut a, &mut b, submitted, true);
        assert_eq!(b.mempool_len(), 1);
        let produced = produce(&mut a, 1_300);
        assert!(sends(&produced).contains(&(0, "cmpct")), "the eager push is compact");
        assert_eq!(sent(&produced, "microblock"), None, "no full carrier on the wire");
        pump(1_300, &mut a, &mut b, produced, true);
        assert_eq!(b.height(), 2, "b reconstructed the microblock from its pool");
        assert_eq!(b.mempool_len(), 0);
    }

    #[test]
    fn lazy_ihave_pull_recovers_a_block_never_pushed() {
        // b prunes the link, so a only advertises over it: delivery *must* go
        // through the ihave → timeout → graft pull path.
        let gossip = GossipConfig {
            compact: false,
            overlay: true,
        };
        let mut a = gossip_engine(1, gossip);
        let mut b = gossip_engine(2, gossip);
        connect(1_000, &mut a, &mut b);
        a.handle(1_050, Input::Message { peer: 0, message: Message::Prune });
        assert!(a.overlay_lazy().contains(&0), "the prune demoted a's end");
        let mined = a.handle(1_100, Input::MineKeyBlock);
        let ihave = sent(&mined, "ihave").expect("lazy link gets an ihave");
        b.handle(1_105, Input::Message { peer: 0, message: ihave });
        assert_eq!(b.height(), 0, "an ihave transfers nothing");
        // The pull timer expires: b grafts the advertising link and pulls.
        let expired = b.handle(1_105 + ng_net::overlay::PULL_TIMEOUT_MS, Input::Tick);
        let graft = sent(&expired, "graft").expect("timeout grafts the advertiser");
        let served = a.handle(1_300, Input::Message { peer: 0, message: graft });
        pump(1_300, &mut a, &mut b, served, true);
        assert_eq!(b.height(), 1, "the graft pulled the block in full");
        assert!(b.overlay_eager().contains(&0), "grafted link is eager now");
        assert!(a.overlay_eager().contains(&0), "the graft promoted a's end too");
    }

    #[test]
    fn handshake_completes_between_two_engines() {
        let mut a = engine(1);
        let mut b = engine(2);
        connect(1_000, &mut a, &mut b);
        assert_eq!(a.ready_peers(), vec![0]);
    }

    #[test]
    fn mined_key_block_is_broadcast_and_reported() {
        let mut a = engine(1);
        let mut b = engine(2);
        connect(1_000, &mut a, &mut b);
        let effects = a.handle(2_000, Input::MineKeyBlock);
        let mined = reports(&effects).find_map(|e| match e {
            ReportEvent::KeyBlockMined { id } => Some(*id),
            _ => None,
        });
        assert!(mined.is_some());
        // Fresh local block: announced as a single broadcast inv.
        assert!(matches!(sent(&effects, "inv"), Some(Message::Inv(_))));
        assert_eq!(sends(&effects), vec![], "one broadcast, no per-peer sends");
        // Delivering the inv to b triggers getdata → block → adoption.
        pump(2_000, &mut a, &mut b, effects, true);
        assert_eq!(b.tip(), mined.unwrap());
        assert_eq!(b.current_leader(), Some(1));
    }

    #[test]
    fn transactions_flow_into_leader_microblocks() {
        let mut a = engine(1);
        let mut b = engine(2);
        connect(1_000, &mut a, &mut b);
        let effects = a.handle(2_000, Input::MineKeyBlock);
        pump(2_000, &mut a, &mut b, effects, true);

        // Submit to the non-leader; gossip carries it to the leader.
        let effects = b.handle(2_100, Input::SubmitTx(Box::new(test_tx(1))));
        assert!(reports(&effects).any(|e| matches!(e, ReportEvent::TxAccepted { .. })));
        pump(2_100, &mut a, &mut b, effects, false);
        assert_eq!(a.mempool_len(), 1, "gossip delivered the tx to the leader");

        let effects = produce(&mut a, 2_200);
        assert!(reports(&effects).any(|e| matches!(e, ReportEvent::MicroblockProduced { .. })));
        pump(2_200, &mut a, &mut b, effects, true);
        assert_eq!(a.tip(), b.tip());
        assert_eq!(a.utxo_commitment(), b.utxo_commitment());
        assert_eq!(a.mempool_len(), 0, "serialized tx left the mempool");
        assert_eq!(b.mempool_len(), 0, "confirmed tx rolled out of b's pool too");
    }

    #[test]
    fn an_answered_request_disarms_the_timer_it_armed() {
        let mut a = engine(1);
        a.handle(0, Input::PeerConnected { peer: 4, inbound: true });
        let version = Message::Version {
            node_id: 44,
            protocol: ng_net::message::ProtocolKind::BitcoinNg,
            best_height: 0,
            time_ms: 0,
        };
        // The handshake completes: a header walk goes out under a deadline.
        let effects = a.handle(0, Input::Message { peer: 4, message: version });
        assert!(sends(&effects).contains(&(4, "getheaders")));
        let timeout = a.config().sync.request_timeout_ms;
        assert!(effects.contains(&Effect::SetTimer { deadline_ms: timeout }));
        assert_eq!(a.handle(1, Input::Message { peer: 4, message: Message::Verack }), vec![]);
        // The reply arrives in time: nothing is pending, so the driver's timer is
        // cleared rather than left to fire a pointless tick.
        let reply = Input::Message { peer: 4, message: Message::Headers(vec![]) };
        assert_eq!(a.handle(5, reply).last(), Some(&Effect::ClearTimer));
    }

    #[test]
    fn auto_mode_arms_timer_and_streams_on_tick() {
        let mut config = EngineConfig::new(1, params());
        config.auto_microblocks = true;
        let mut a = Engine::new(config);
        a.handle(1_000, Input::MineKeyBlock);
        let armed = |effects: &[Effect]| {
            effects.iter().find_map(|e| match e {
                Effect::SetTimer { deadline_ms } => Some(*deadline_ms),
                _ => None,
            })
        };
        let streamed = |effects: &[Effect]| {
            reports(effects).any(|e| matches!(e, ReportEvent::MicroblockProduced { .. }))
        };
        // An empty mempool arms nothing.
        assert_eq!(armed(&a.handle(1_000, Input::Tick)), None);

        // A submitted tx is streamed immediately (spacing already elapsed) and the
        // timer stays unarmed because the pool drained.
        assert!(streamed(&a.handle(1_100, Input::SubmitTx(Box::new(test_tx(1))))));
        assert_eq!(a.mempool_len(), 0);

        // A second tx inside the production interval cannot be streamed yet: the
        // engine arms the exact protocol deadline instead.
        let effects = a.handle(1_101, Input::SubmitTx(Box::new(test_tx(2))));
        assert_eq!(armed(&effects), Some(1_102), "production interval is 2 ms");
        assert_eq!(a.mempool_len(), 1);

        // Re-arming with the same deadline is suppressed until a tick consumes it.
        assert_eq!(armed(&a.handle(1_101, Input::SubmitTx(Box::new(test_tx(3))))), None);

        // The tick at the deadline streams the pending transactions.
        assert!(streamed(&a.handle(1_102, Input::Tick)));
        assert_eq!(a.mempool_len(), 0);
    }

    #[test]
    fn handshake_sync_catches_a_fresh_node_up() {
        let mut a = engine(1);
        let mut b = engine(2);
        // b builds two epochs on its own before a ever connects.
        b.handle(1_000, Input::MineKeyBlock);
        b.handle(2_000, Input::MineKeyBlock);
        connect(3_000, &mut a, &mut b);
        assert_eq!(a.tip(), b.tip(), "handshake sync caught the fresh node up");
        assert_eq!(a.height(), 2);
    }

    #[test]
    fn orphan_block_triggers_header_sync_with_sender() {
        let mut a = engine(1);
        let mut b = engine(2);
        connect(1_000, &mut a, &mut b);
        // b mines two epochs, but the first announcement is dropped on the wire: a
        // only ever hears about the *second* key block, whose parent it lacks.
        let _lost = b.handle(2_000, Input::MineKeyBlock);
        let announced = b.handle(3_000, Input::MineKeyBlock);
        pump(3_000, &mut a, &mut b, announced, false);
        // Receiving the parentless block forced a header sync with its sender,
        // which backfilled the missing epoch and adopted the stashed orphan.
        assert_eq!(a.tip(), b.tip(), "orphan-triggered sync converged the chains");
        assert_eq!(a.height(), 2);
    }
}
