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
//! Everything the daemon used to interleave with its event loop lives here: the
//! version handshake (via [`ng_net::peer::Peer`]), headers-first multi-peer sync
//! with windowed parallel block download (via [`ng_net::sync::SyncScheduler`]),
//! assumeutxo-style snapshot bootstrap against a pinned checkpoint
//! ([`SnapshotPin`]) with background history backfill, `inv`/`getdata` gossip,
//! leader microblock streaming from the mempool, fork-choice reorg handling over
//! the incremental UTXO ledger view, and poison-evidence construction hooks exposed
//! by the underlying [`NgNode`].
//!
//! One copy of every object: a block lives in the block tree ([`NgNode::chain`]),
//! a pending transaction in the mempool, and the wire is served from those two
//! stores — a `keyblock`/`microblock`/`tx` message is built at the moment it is
//! sent, and a block is served exactly when it may be announced
//! ([`Engine::announceable`]). The only other bodies held are a bounded memory of
//! recently announced transactions and the below-root history a snapshot-rooted
//! node backfills.
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
use ng_net::message::Message;
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
        let chain = Chain::new(&config);
        Self::assemble(config, chain, 0, true)
    }

    /// An engine around the given chain, everything else empty. `bootstrap` lets a
    /// configured snapshot pin take effect.
    fn assemble(mut config: EngineConfig, chain: Chain, root_height: u64, bootstrap: bool) -> Self {
        // Keep the requested batch inside what `serve_headers` is willing to serve;
        // otherwise every served batch would look partial and sync would stop early.
        config.header_batch = config.header_batch.clamp(1, 4096);
        Engine {
            relay: Relay::new(&config),
            onboarding: Onboarding::new(&config, root_height, bootstrap),
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
        let mut engine = Self::assemble(config, chain, root_height, false);
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
                self.relay
                    .connect(peer, inbound, height, now_ms, &mut effects)
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
        self.onboarding
            .drive(now_ms, &self.chain, &mut self.relay, &mut effects);
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
        self.relay.overlay_eager()
    }

    /// Current lazy-set connections of the broadcast overlay, ascending.
    pub fn overlay_lazy(&self) -> Vec<u64> {
        self.relay.overlay_lazy()
    }

    /// Inserts a transaction straight into the mempool — no gossip, no effects.
    /// Bench and test harnesses use this to pre-fill many nodes' pools with the
    /// same transactions deterministically (the precondition compact relay
    /// exploits) without paying for a transaction flood first.
    pub fn preload_tx(&mut self, tx: Transaction) -> bool {
        self.chain.preload(tx)
    }

    // ---- incoming messages ----------------------------------------------------

    fn on_message(&mut self, peer: u64, message: Message, now_ms: u64, effects: &mut Vec<Effect>) {
        let height = self.chain.height();
        let Some(actions) = self.relay.receive(peer, message, height, now_ms) else {
            return; // unknown or already-forgotten connection
        };
        for action in actions {
            match action {
                PeerAction::Send(message) => effects.push(Effect::Send { peer, message }),
                PeerAction::HandshakeComplete {
                    node_id,
                    best_height,
                    ..
                } => {
                    // The handshake replies are queued above; now sync.
                    effects.push(Effect::Report(ReportEvent::PeerReady { peer, node_id }));
                    self.fraud.offer_records(peer, effects);
                    self.relay.peer_ready(peer);
                    self.onboarding.peer_ready(peer, best_height);
                }
                PeerAction::Disconnect(error) => {
                    self.relay
                        .punish(peer, error.to_string(), &mut self.onboarding, effects);
                    return;
                }
                PeerAction::Announced(item) => {
                    self.relay
                        .on_inv(peer, item, &self.chain, &self.onboarding, effects)
                }
                PeerAction::Requested(item) => {
                    self.relay
                        .on_getdata(peer, item, &self.chain, &self.onboarding, effects)
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
                self.relay
                    .on_ihave(from, items, now_ms, &self.chain, &self.onboarding)
            }
            Message::Graft(item) => {
                self.relay
                    .on_graft(from, item, &self.chain, &self.onboarding, effects)
            }
            Message::Prune => self.relay.on_prune(from),
            Message::Poison(poison) => {
                self.fraud
                    .adopt(&mut self.chain, &self.relay, Some(from), *poison, effects);
            }
            _ => {}
        }
    }

    /// A transaction arrived (from a peer, or submitted locally): pool it if the
    /// chain admits it, then remember and announce it.
    fn accept_tx(&mut self, from: Option<u64>, tx: Transaction, effects: &mut Vec<Effect>) {
        let txid = tx.txid();
        if self.chain.admit(&txid, &tx) {
            effects.push(Effect::Report(ReportEvent::TxAccepted { txid }));
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
        // Clear any scheduled download of this block no matter which path delivered
        // it — the assigned peer's reply, a gossip push from a third peer, a
        // producer's broadcast. The old per-peer bookkeeping only credited the
        // syncing peer, leaving the in-flight entry stuck (and the block
        // re-downloaded) whenever gossip won the race.
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
                let reorged = reorg.is_some();
                if tip_changed {
                    self.roll_ledger(from.map(|peer| (peer, id)), effects);
                }
                // The roll may have invalidated the block (its transactions failed
                // validate-on-connect): only a surviving block is announced. Under
                // full validation a microblock is relayed only once this node's own
                // ledger validated it (it connected to the main chain) — relaying a
                // never-validated side-branch block would hand peers a block this
                // node cannot vouch for, and an honest relay must never take the
                // punishment for a Byzantine block it merely forwarded. Side-branch
                // blocks are held back and announced if their branch later wins.
                if self.chain.holds(&id) {
                    effects.push(Effect::Report(ReportEvent::BlockAccepted {
                        id,
                        tip_changed,
                        reorg: reorged,
                    }));
                    self.relay.block_accepted(id, from, &self.chain, effects);
                    self.fraud
                        .block_stored(&mut self.chain, &self.relay, micro_key, id, effects);
                }
            }
            Ok(InsertOutcome::Duplicate) => {
                effects.push(Effect::Report(ReportEvent::BlockDuplicate { id }));
                if let Some(from) = from {
                    // A second eager path pushed a full copy: demote that link.
                    self.relay.prune_duplicate_link(from, effects);
                }
            }
            Ok(InsertOutcome::Orphaned { .. }) => {
                effects.push(Effect::Report(ReportEvent::BlockOrphaned { id }));
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
            Err(_) => {
                effects.push(Effect::Report(ReportEvent::BlockRejected { id }));
            }
        }
    }

    /// Rolls the ledger to the current tip ([`Chain::roll_ledger`]). `from` names
    /// the peer and the block it just delivered; if that very block turns out to
    /// carry invalid transactions, the peer is disconnected.
    fn roll_ledger(&mut self, from: Option<(u64, Hash256)>, effects: &mut Vec<Effect>) {
        let delivered = from.map(|(_, id)| id);
        let delivered_invalid =
            self.chain
                .roll_ledger(delivered, &mut self.fraud, &mut self.relay, effects);
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
        effects.push(Effect::Report(event));
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
            self.relay.next_deadline(),
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
            effects.push(Effect::SetTimer {
                deadline_ms: deadline,
            });
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
        engine.handle(
            0,
            Input::Message {
                peer,
                message: Message::Version {
                    node_id: 10_000 + peer,
                    protocol: ProtocolKind::BitcoinNg,
                    best_height: 0,
                    time_ms: 0,
                },
            },
        );
        engine.handle(0, Input::Message { peer, message: Message::Verack });
        engine.handle(0, Input::Message { peer, message: Message::Headers(vec![]) });
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

    /// Runs every message effect between two engines until both queues drain.
    /// `a` talks to `b` over connection key 0 on both sides.
    fn pump(now: u64, a: &mut Engine, b: &mut Engine, first: Vec<Effect>, from_a: bool) {
        let mut queues: Vec<Vec<Message>> = vec![Vec::new(), Vec::new()]; // to a, to b
        let absorb = |effects: Vec<Effect>, sender_is_a: bool, queues: &mut Vec<Vec<Message>>| {
            for effect in effects {
                match effect {
                    Effect::Send { message, .. } | Effect::Broadcast { message } => {
                        queues[if sender_is_a { 1 } else { 0 }].push(message);
                    }
                    _ => {}
                }
            }
        };
        absorb(first, from_a, &mut queues);
        loop {
            if let Some(message) = queues[1].first().cloned() {
                queues[1].remove(0);
                let effects = b.handle(now, Input::Message { peer: 0, message });
                absorb(effects, false, &mut queues);
            } else if let Some(message) = queues[0].first().cloned() {
                queues[0].remove(0);
                let effects = a.handle(now, Input::Message { peer: 0, message });
                absorb(effects, true, &mut queues);
            } else {
                break;
            }
        }
    }

    fn connect(now: u64, a: &mut Engine, b: &mut Engine) {
        let hello = a.handle(
            now,
            Input::PeerConnected {
                peer: 0,
                inbound: false,
            },
        );
        assert!(matches!(
            hello.first(),
            Some(Effect::Send {
                message: Message::Version { .. },
                ..
            })
        ));
        b.handle(
            now,
            Input::PeerConnected {
                peer: 0,
                inbound: true,
            },
        );
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
        let produced = a.handle(
            1_300,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        let full_micro = |e: &Effect| {
            matches!(
                e,
                Effect::Send {
                    message: Message::MicroBlock(_),
                    ..
                } | Effect::Broadcast {
                    message: Message::MicroBlock(_)
                }
            )
        };
        assert!(
            produced.iter().any(|e| matches!(
                e,
                Effect::Send {
                    message: Message::CmpctBlock(_),
                    ..
                }
            )),
            "the eager push is compact"
        );
        assert!(!produced.iter().any(full_micro), "no full carrier on the wire");
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
        let ihave = mined
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    message: m @ Message::IHave(_),
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("lazy link gets an ihave");
        b.handle(1_105, Input::Message { peer: 0, message: ihave });
        assert_eq!(b.height(), 0, "an ihave transfers nothing");
        // The pull timer expires: b grafts the advertising link and pulls.
        let expired = b.handle(1_105 + ng_net::overlay::PULL_TIMEOUT_MS, Input::Tick);
        let graft = expired
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    message: m @ Message::Graft(_),
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("timeout grafts the advertiser");
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
        let mined = effects.iter().find_map(|e| match e {
            Effect::Report(ReportEvent::KeyBlockMined { id }) => Some(*id),
            _ => None,
        });
        assert!(mined.is_some());
        // Fresh local block: announced as a single broadcast inv.
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Broadcast { message: Message::Inv(_) })));
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
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::TxAccepted { .. }))));
        pump(2_100, &mut a, &mut b, effects, false);
        assert_eq!(a.mempool_len(), 1, "gossip delivered the tx to the leader");

        let effects = a.handle(
            2_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        let produced = effects.iter().any(|e| {
            matches!(e, Effect::Report(ReportEvent::MicroblockProduced { .. }))
        });
        assert!(produced);
        pump(2_200, &mut a, &mut b, effects, true);
        assert_eq!(a.tip(), b.tip());
        assert_eq!(a.utxo_commitment(), b.utxo_commitment());
        assert_eq!(a.mempool_len(), 0, "serialized tx left the mempool");
        assert_eq!(b.mempool_len(), 0, "confirmed tx rolled out of b's pool too");
    }

    #[test]
    fn auto_mode_arms_timer_and_streams_on_tick() {
        let mut config = EngineConfig::new(1, params());
        config.auto_microblocks = true;
        let mut a = Engine::new(config);
        a.handle(1_000, Input::MineKeyBlock);
        // An empty mempool arms nothing.
        assert!(!a
            .handle(1_000, Input::Tick)
            .iter()
            .any(|e| matches!(e, Effect::SetTimer { .. })));

        // A submitted tx is streamed immediately (spacing already elapsed) and the
        // timer stays unarmed because the pool drained.
        let effects = a.handle(1_100, Input::SubmitTx(Box::new(test_tx(1))));
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::MicroblockProduced { .. }))));
        assert_eq!(a.mempool_len(), 0);

        // A second tx inside the production interval cannot be streamed yet: the
        // engine arms the exact protocol deadline instead.
        let effects = a.handle(1_101, Input::SubmitTx(Box::new(test_tx(2))));
        let deadline = effects.iter().find_map(|e| match e {
            Effect::SetTimer { deadline_ms } => Some(*deadline_ms),
            _ => None,
        });
        assert_eq!(deadline, Some(1_102), "production interval is 2 ms");
        assert_eq!(a.mempool_len(), 1);

        // Re-arming with the same deadline is suppressed until a tick consumes it.
        let effects = a.handle(1_101, Input::SubmitTx(Box::new(test_tx(3))));
        assert!(!effects.iter().any(|e| matches!(e, Effect::SetTimer { .. })));

        // The tick at the deadline streams the pending transactions.
        let effects = a.handle(1_102, Input::Tick);
        assert!(effects
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::MicroblockProduced { .. }))));
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
