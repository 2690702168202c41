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
use ng_chain::mempool::Mempool;
use ng_chain::payload::Payload;
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
        let node = NgNode::new(config.id, config.params, config.tie_break_seed);
        let view = ChainView::new(&config.params, node.chain().genesis_id());
        Self::assemble(config, node, view, true, 0)
    }

    /// An engine around the given chain and ledger view, everything else empty.
    fn assemble(
        mut config: EngineConfig,
        node: NgNode,
        view: ChainView,
        bootstrap: bool,
        root_height: u64,
    ) -> Self {
        // Keep the requested batch inside what `serve_headers` is willing to serve;
        // otherwise every served batch would look partial and sync would stop early.
        config.header_batch = config.header_batch.clamp(1, 4096);
        let onboarding = Onboarding::new(&config, root_height, bootstrap);
        let relay = Relay::new(&config);
        Engine {
            config,
            chain: Chain {
                node,
                mempool: Mempool::new(),
                view,
                storage: None,
                last_snapshot_height: 0,
                latest_snapshot: None,
            },
            relay,
            onboarding,
            fraud: Fraud::new(),
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
        let ng_storage::Recovery {
            root,
            snapshots,
            blocks,
            undos,
            invalidated,
            last_roll: _,
        } = recovery;
        let root_height = root.as_ref().map(|snap| snap.height).unwrap_or(0);
        let node = match root {
            Some(snap) => {
                let chain = ng_core::chain::NgChainState::from_root(
                    config.params,
                    config.tie_break_seed,
                    snap.root,
                    snap.height,
                    snap.total_work,
                );
                NgNode::from_chain(config.id, chain)
            }
            None => NgNode::new(config.id, config.params, config.tie_break_seed),
        };
        // Placeholder view; replaced below once the replayed store exists. A
        // restored node already holds its history — a pin never re-bootstraps an
        // engine that recovered a chain from disk.
        let placeholder = ChainView::new(&config.params, Hash256::ZERO);
        let mut engine = Self::assemble(config, node, placeholder, false, root_height);
        // 1: replay stored blocks in their original acceptance order. A parent
        // missing because its branch was rooted away (or WAL-invalidated) just
        // drops its descendants — they were not on the finalized path.
        for (_height, id, block) in blocks {
            if invalidated.contains(&id) {
                continue;
            }
            let _ = engine.chain.node.chain_mut().restore_insert_with_id(block, id);
        }
        // 2: restore undo records for every block that survived the replay.
        for (id, undo) in undos {
            if engine.chain.node.chain().store().contains(&id) {
                engine.chain.node.chain_mut().set_undo(id, undo);
            }
        }
        // 3: restore the view from the newest snapshot whose anchor survived, and
        // sync forward to the re-derived tip.
        let newest_height = snapshots.first().map(|s| s.height);
        let usable = snapshots
            .into_iter()
            .find(|snap| engine.chain.node.chain().store().contains(&snap.root.id()));
        match usable {
            Some(snap) => {
                let anchor = snap.root.id();
                let utxo = ng_chain::utxo::UtxoSet::from_parts(
                    engine.config.params.coinbase_maturity,
                    snap.entries.into_iter().collect(),
                    snap.rolling,
                );
                let confirmed = snap.confirmed.into_iter().collect();
                engine.chain.view = ChainView::restore(&engine.config.params, anchor, utxo, confirmed);
                engine.chain.last_snapshot_height = newest_height.unwrap_or(snap.height);
            }
            None => {
                engine.chain.view =
                    ChainView::new(&engine.config.params, engine.chain.node.chain().genesis_id());
            }
        }
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
        self.chain.node.chain_mut().track_newly_stored(true);
        self.chain.storage = Some(storage);
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
        self.chain.view.set_batch_executor(executor);
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
            Input::SubmitTx(tx) => {
                self.accept_tx(None, *tx, &mut effects);
            }
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
        &self.chain.node
    }

    /// Current main-chain tip.
    pub fn tip(&self) -> Hash256 {
        self.chain.node.tip()
    }

    /// Height of the tip.
    pub fn height(&self) -> u64 {
        self.chain.node.chain().store().tip_height()
    }

    /// Commitment to the UTXO set derived from the main chain — the convergence
    /// criterion between nodes. This is the strong sorted-hash commitment: the XOR
    /// rolling commitment is GF(2)-linear and an adversary who can craft outputs
    /// could engineer colliding divergent ledgers, so equality claims between nodes
    /// use the collision-resistant form. It is only computed when a driver
    /// snapshots or a harness polls convergence — never on the per-block hot path,
    /// which maintains [`ChainView::commitment`] incrementally instead.
    pub fn utxo_commitment(&self) -> Hash256 {
        self.chain.view.utxo().commitment()
    }

    /// The incrementally maintained UTXO ledger view.
    pub fn utxo(&self) -> &UtxoSet {
        self.chain.view.utxo()
    }

    /// The incremental chainstate (anchor, confirmed set, signature cache stats).
    pub fn chainstate(&self) -> &ChainView {
        &self.chain.view
    }

    /// Total blocks known (key + micro, excluding orphans).
    pub fn chain_len(&self) -> usize {
        self.chain.node.chain().len()
    }

    /// Pending transactions in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.chain.mempool.len()
    }

    /// True if the transaction id is pending in the mempool.
    pub fn mempool_contains(&self, txid: &Hash256) -> bool {
        self.chain.mempool.contains(txid)
    }

    /// True if this node is the current leader.
    pub fn is_leader(&self) -> bool {
        self.chain.node.is_leader()
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
        self.chain.node.current_leader()
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
        self.chain.latest_snapshot.as_ref()
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
        let txid = tx.txid();
        if self.chain.mempool.contains(&txid) || self.chain.view.is_confirmed(&txid) {
            return false;
        }
        if tx.serialized_size() as u64 > self.config.params.max_microblock_payload_bytes() {
            return false;
        }
        match self.chain.view.admission_fee(&tx, self.height() + 1) {
            Ok(fee) => self.chain.mempool.insert_with_fee(tx, fee),
            Err(_) => false,
        }
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
            Message::Tx(tx) => {
                self.accept_tx(Some(from), *tx, effects);
            }
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

    fn accept_tx(&mut self, from: Option<u64>, tx: Transaction, effects: &mut Vec<Effect>) -> bool {
        let txid = tx.txid();
        if self.chain.mempool.contains(&txid) {
            return false;
        }
        // Gossip is multi-hop: a transaction can arrive after the microblock that
        // serialized it. Anything already on the main chain has no business in the
        // mempool.
        if self.chain.view.is_confirmed(&txid) {
            return false;
        }
        // A transaction that cannot fit an empty microblock can never be serialized
        // on this chain; pooling it would head-of-line-block FIFO selection (and, in
        // auto mode, spin the production timer) forever.
        if tx.serialized_size() as u64 > self.config.params.max_microblock_payload_bytes() {
            return false;
        }
        // Admission runs the view's validation policy: with full validation on, a
        // transaction spending nonexistent outputs or inflating value never enters
        // the pool, and its signature verification is cached for connect time. A
        // transaction chained on a still-pending mempool parent is validated with
        // its inputs resolved against the pool (signatures, vouts and value
        // conservation included); `filter_valid` re-validates the chain as a
        // sequence at production time.
        let fee = match self.chain.view.admission_fee(&tx, self.height() + 1) {
            Ok(fee) => fee,
            Err(ng_chain::error::TxError::MissingInput(outpoint))
                if self.chain.mempool.contains(&outpoint.txid) =>
            {
                match self.pool_chained_fee(&tx) {
                    Some(fee) => fee,
                    None => return false,
                }
            }
            Err(_) => return false,
        };
        if !self.chain.mempool.insert_with_fee(tx.clone(), fee) {
            return false;
        }
        effects.push(Effect::Report(ReportEvent::TxAccepted { txid }));
        self.relay.relay_tx(txid, tx, from, effects);
        true
    }

    /// Validates a transaction whose inputs may spend outputs of still-pending
    /// mempool parents, resolving them against the pool (full validation — the
    /// shared [`ng_chain::utxo`] rules — with the verdict landing in the signature
    /// cache). In-pool double spends are rejected separately by the mempool's
    /// spent-outpoint index at insert time.
    fn pool_chained_fee(&mut self, tx: &Transaction) -> Option<ng_chain::amount::Amount> {
        let height = self.height() + 1;
        let mempool = &self.chain.mempool;
        self.chain.view
            .chained_admission_fee(tx, height, &|outpoint| {
                mempool
                    .get(&outpoint.txid)
                    .and_then(|parent| parent.tx.outputs.get(outpoint.vout as usize))
                    .copied()
            })
            .ok()
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
        match self.chain.node.on_block(block, now_ms) {
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
                if self.chain.node.chain().store().contains(&id) {
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

    /// Rolls the incremental ledger view to the current tip and the mempool with it:
    /// reorg-disconnected transactions return to the pool (unless reconfirmed on the
    /// new branch), newly serialized transactions leave it. Per-block cost is
    /// O(transactions in the rolled blocks) — never O(chain length).
    ///
    /// If a connecting microblock's transactions fail full validation, the block
    /// (and any descendants) is invalidated out of the block tree, the chain
    /// re-selects its best remaining tip, and the roll retries — so the view always
    /// lands on a fully valid main chain. When the invalid block is the very
    /// block the peer just delivered, that peer is disconnected: it either forged
    /// the microblock (it is the Byzantine leader) or relayed one it failed to
    /// validate. Rejections of *other* blocks (e.g. a pending descendant adopted in
    /// the same insert) never punish the deliverer — an honest relay of a valid
    /// parent must not take the blame for the Byzantine child that rode behind it.
    ///
    /// The delta accumulates across retries, so the transactions of blocks
    /// disconnected before a failed connect are still re-admitted to the mempool.
    fn roll_ledger(&mut self, from: Option<(u64, Hash256)>, effects: &mut Vec<Effect>) {
        let mut delta = crate::chainstate::SyncDelta::default();
        let mut sender_misbehaved = false;
        loop {
            let target = self.chain.node.tip();
            match self.chain.view.sync_into(self.chain.node.chain_mut(), target, &mut delta) {
                Ok(()) => break,
                Err(crate::chainstate::SyncError::Connect(error)) => {
                    if let Some((_, delivered)) = from {
                        sender_misbehaved |= error.block == delivered;
                    }
                    effects.push(Effect::Report(ReportEvent::BlockRejected {
                        id: error.block,
                    }));
                    self.persist_invalidated(&error.block, effects);
                    for gone in self.chain.node.chain_mut().invalidate(&error.block) {
                        self.relay.release(&gone);
                    }
                }
                Err(crate::chainstate::SyncError::UnwindableBlock { .. }) => {
                    // A connected block on the reorg path lost its undo record — a
                    // store corruption, never reachable under the finality/pruning
                    // discipline. Abandon the branch that requires the impossible
                    // rewind: invalidating the candidate tip re-selects the best
                    // tip elsewhere, and the loop converges because each pass
                    // removes at least one block from the tree.
                    let gone_tip = self.chain.node.tip();
                    effects.push(Effect::Report(ReportEvent::BlockRejected {
                        id: gone_tip,
                    }));
                    self.persist_invalidated(&gone_tip, effects);
                    for gone in self.chain.node.chain_mut().invalidate(&gone_tip) {
                        self.relay.release(&gone);
                    }
                }
            }
        }
        self.fraud.ledger_rolled(&mut self.chain, &self.relay, effects);
        self.persist_roll(&delta, effects);
        self.advance_finality();
        if !delta.is_empty() {
            // Checkpoint on the cadence even without durable storage when this node
            // serves snapshots: SimNet bootstrap providers keep theirs in memory.
            self.maybe_checkpoint(effects);
            effects.push(Effect::Report(ReportEvent::LedgerRolled {
                connected: delta.connected_blocks,
                disconnected: delta.disconnected_blocks,
            }));
            // Re-admit disconnected transactions against the post-roll view (their
            // inputs are unspent again on the new branch), skipping anything the
            // new branch already serialized. The delta lists them in chain order —
            // parents before the children that spend them — so a chained child
            // whose parent was just re-admitted resolves through the pool.
            for tx in delta.disconnected_txs {
                let txid = tx.txid();
                if self.chain.view.is_confirmed(&txid) || self.chain.mempool.contains(&txid) {
                    continue;
                }
                let fee = match self.chain.view.admission_fee(&tx, self.height() + 1) {
                    Ok(fee) => Some(fee),
                    Err(ng_chain::error::TxError::MissingInput(outpoint))
                        if self.chain.mempool.contains(&outpoint.txid) =>
                    {
                        self.pool_chained_fee(&tx)
                    }
                    // A coinbase spend the reorg pushed back below maturity is only
                    // temporarily invalid — kept (unpriced) until it re-matures,
                    // mirroring the production-time stale filter's policy.
                    Err(ng_chain::error::TxError::ImmatureCoinbase { .. }) => {
                        Some(ng_chain::amount::Amount::ZERO)
                    }
                    Err(_) => None,
                };
                if let Some(fee) = fee {
                    self.chain.mempool.insert_with_fee(tx, fee);
                }
            }
            // A retried roll can have connected a block and then disconnected it
            // again (the branch lost after an invalidation): only ids that are
            // *still* confirmed leave the mempool.
            let confirmed_now: Vec<Hash256> = delta
                .connected_txids
                .iter()
                .filter(|txid| self.chain.view.is_confirmed(txid))
                .copied()
                .collect();
            self.chain.mempool.remove_all(confirmed_now.iter());
        }
        if sender_misbehaved {
            if let Some((peer, _)) = from {
                let reason = "sent a microblock with invalid transactions".to_string();
                self.relay.punish(peer, reason, &mut self.onboarding, effects);
            }
        }
    }

    // ---- durable storage ------------------------------------------------------

    fn report_storage_failure(err: ng_storage::StoreError, effects: &mut Vec<Effect>) {
        effects.push(Effect::Report(ReportEvent::StorageFailed {
            reason: err.to_string(),
        }));
    }

    /// Logs an invalidation to the WAL so recovery never re-adopts the block.
    fn persist_invalidated(&mut self, id: &Hash256, effects: &mut Vec<Effect>) {
        let Some(storage) = self.chain.storage.as_mut() else {
            return;
        };
        if let Err(err) = storage.note_invalidated(id) {
            Self::report_storage_failure(err, effects);
        }
    }

    /// Persists everything one completed roll produced, in dependency order:
    /// newly stored blocks, then the undo records of the connected blocks, then
    /// the roll commit that references them (the backend flushes data files before
    /// the commit record — see [`ng_storage::ChainStorage::commit_roll`]). Finally
    /// writes a snapshot if the checkpoint cadence came due at a key block.
    fn persist_roll(&mut self, delta: &crate::chainstate::SyncDelta, effects: &mut Vec<Effect>) {
        // One binding up front: `storage` borrows only the `storage` field, so
        // the chain accesses below stay legal and no panicking re-unwrap of the
        // option is ever needed.
        let Some(storage) = self.chain.storage.as_mut() else {
            return;
        };
        for id in self.chain.node.chain_mut().drain_newly_stored() {
            let Some(stored) = self.chain.node.chain().store().get(&id) else {
                // Inserted, then invalidated before this roll completed: the
                // WAL's invalidation record (already written) covers it.
                continue;
            };
            let (block, height) = (stored.block.clone(), stored.height);
            if let Err(err) = storage.store_block(&block, height) {
                Self::report_storage_failure(err, effects);
            }
        }
        if delta.is_empty() {
            return;
        }
        for id in &delta.connected_block_ids {
            // A retried roll can have disconnected (or invalidated) a block it
            // connected earlier; only blocks with a live undo are re-persisted.
            let Some(undo) = self.chain.node.chain().undo_of(id) else {
                continue;
            };
            let undo = undo.clone();
            let height = self.chain.node.chain().store().height_of(id).unwrap_or(0);
            if let Err(err) = storage.store_undo(id, height, &undo) {
                Self::report_storage_failure(err, effects);
            }
        }
        let anchor = self.chain.view.anchor();
        let anchor_height = self
            .chain.node
            .chain()
            .store()
            .get(&anchor)
            .map(|s| s.height)
            .unwrap_or(0);
        let roll = ng_storage::RollCommit {
            anchor,
            anchor_height,
            rolling: self.chain.view.commitment(),
            disconnected: delta.disconnected_block_ids.clone(),
            connected: delta.connected_block_ids.clone(),
        };
        if let Err(err) = storage.commit_roll(&roll) {
            Self::report_storage_failure(err, effects);
        }
    }

    /// Writes a full snapshot / finality checkpoint when the view rests at a key
    /// block and at least [`NgParams::checkpoint_interval`] heights passed since
    /// the last one. Anchoring only at key blocks keeps a restored chain's epoch
    /// context self-contained (the leader entitled to sign above the root is the
    /// root itself). Runs for durable nodes (the checkpoint is the fast-restart
    /// root) and for snapshot servers (the checkpoint is what `getsnapshot`
    /// answers with); a node that is neither skips the O(set size) copy.
    ///
    /// [`NgParams::checkpoint_interval`]: ng_core::params::NgParams
    fn maybe_checkpoint(&mut self, effects: &mut Vec<Effect>) {
        if self.chain.storage.is_none() && !self.config.serve_snapshots {
            return;
        }
        let anchor = self.chain.view.anchor();
        let Some(stored) = self.chain.node.chain().store().get(&anchor) else {
            return;
        };
        let height = stored.height;
        if height < self.chain.last_snapshot_height + self.config.params.checkpoint_interval {
            return;
        }
        let Some(root) = stored.block.as_key().cloned() else {
            return; // mid-epoch; the next key block will carry the checkpoint
        };
        let total_work = stored.total_work;
        let mut entries: Vec<_> = self
            .chain.view
            .utxo()
            .iter()
            .map(|(outpoint, entry)| (*outpoint, *entry))
            .collect();
        entries.sort_unstable_by_key(|(outpoint, _)| *outpoint);
        let mut confirmed: Vec<_> = self
            .chain.view
            .confirmed_counts()
            .iter()
            .map(|(txid, count)| (*txid, *count))
            .collect();
        confirmed.sort_unstable();
        let snapshot = ng_storage::Snapshot {
            root,
            height,
            total_work,
            rolling: self.chain.view.commitment(),
            sorted: self.chain.view.utxo().commitment(),
            entries,
            confirmed,
        };
        if let Some(storage) = self.chain.storage.as_mut() {
            if let Err(err) = storage.store_snapshot(&snapshot) {
                // Do not advance the cadence: the next roll retries the write.
                Self::report_storage_failure(err, effects);
                return;
            }
        }
        self.chain.last_snapshot_height = height;
        self.chain.latest_snapshot = Some(snapshot);
        effects.push(Effect::Report(ReportEvent::CheckpointWritten { height }));
    }

    /// Advances the finality checkpoint to `tip_height − finality_depth` and
    /// prunes undo records below it — reorgs that deep are refused at insert time
    /// ([`ng_chain::error::BlockError::FinalityViolation`]), so their undos can
    /// never be consumed. Runs for every engine, durable or not: it is what keeps
    /// a long-lived node's undo map O(finality depth) instead of O(chain length).
    fn advance_finality(&mut self) {
        let depth = self.config.params.finality_depth;
        let tip_height = self.chain.node.chain().store().tip_height();
        let fin_height = tip_height.saturating_sub(depth);
        let current = self
            .chain.node
            .chain()
            .finalized()
            .map(|(height, _)| height)
            .unwrap_or(0);
        if fin_height <= current {
            return;
        }
        let tip = self.chain.node.tip();
        let Some(fin_id) = self.chain.node.chain().store().ancestor_at(&tip, fin_height) else {
            return;
        };
        self.chain.node.chain_mut().set_finalized(&fin_id);
        self.chain.node.chain_mut().prune_undo(fin_height);
    }

    // ---- block production -----------------------------------------------------

    fn mine_key_block(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        let kb = self.chain.node.mine_and_adopt_key_block(now_ms);
        self.roll_ledger(None, effects);
        let id = kb.id();
        effects.push(Effect::Report(ReportEvent::KeyBlockMined { id }));
        self.relay.announce_block(id, None, &self.chain, effects);
    }

    fn produce_microblock(
        &mut self,
        now_ms: u64,
        require_transactions: bool,
        effects: &mut Vec<Effect>,
    ) -> Option<Hash256> {
        if !self.chain.node.microblock_ready(now_ms) {
            return None;
        }
        let budget = self.config.params.max_microblock_payload_bytes() as usize;
        let selected = self.chain.mempool.select_fifo(budget);
        // Under full validation the payload must validate as a sequence against the
        // live view — a pooled transaction can have gone stale (its input spent on
        // a reorged-in branch). Hopelessly stale ones are dropped from the pool
        // entirely (they can never be serialized and would otherwise clog FIFO
        // selection forever) — EXCEPT transactions that are only *temporarily*
        // invalid: a child whose missing input another pooled transaction still
        // provides (merely ordered ahead of its parent this round), and a coinbase
        // spend a reorg pushed back below maturity (valid again in a few blocks).
        let (txs, rejected) = self.chain.view.filter_valid(selected, self.height() + 1);
        let stale: Vec<Hash256> = rejected
            .into_iter()
            .filter(|(_, error)| match error {
                ng_chain::error::TxError::MissingInput(outpoint) => {
                    !self.chain.mempool.contains(&outpoint.txid)
                }
                ng_chain::error::TxError::ImmatureCoinbase { .. } => false,
                _ => true,
            })
            .map(|(txid, _)| txid)
            .collect();
        if !stale.is_empty() {
            self.chain.mempool.remove_all(stale.iter());
        }
        if require_transactions && txs.is_empty() {
            return None;
        }
        let txids: Vec<Hash256> = txs.iter().map(|t| t.txid()).collect();
        let micro = self
            .chain.node
            .produce_microblock(now_ms, Payload::Transactions(txs))?;
        self.chain.mempool.remove_all(txids.iter());
        self.roll_ledger(None, effects);
        let id = micro.id();
        effects.push(Effect::Report(ReportEvent::MicroblockProduced { id }));
        self.relay.announce_block(id, None, &self.chain, effects);
        Some(id)
    }

    /// In auto mode, drain whatever the protocol's spacing rules allow right now.
    fn autostream(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        if !self.config.auto_microblocks {
            return;
        }
        while !self.chain.mempool.is_empty() && self.produce_microblock(now_ms, true, effects).is_some() {}
    }

    /// Arms the driver's wakeup timer with the earliest pending deadline across
    /// block production, the download scheduler, the snapshot bootstrap, and the
    /// backfill — if there is one and the driver does not hold it already.
    fn arm_timer(&mut self, now_ms: u64, effects: &mut Vec<Effect>) {
        let mut candidates: Vec<u64> = Vec::new();
        if self.config.auto_microblocks && !self.chain.mempool.is_empty() {
            // `None` while not leader: only a new key block unblocks production.
            if let Some(deadline) = self.chain.node.next_microblock_ms() {
                candidates.push(deadline);
            }
        }
        if let Some(deadline) = self.onboarding.next_deadline(&self.relay) {
            candidates.push(deadline);
        }
        if let Some(deadline) = self.relay.next_deadline() {
            candidates.push(deadline);
        }
        let Some(deadline) = candidates.into_iter().min() else {
            if self.last_timer.take().is_some() {
                effects.push(Effect::ClearTimer);
            }
            return;
        };
        // Never arm a deadline in the past: anything already actionable ran in
        // this same `handle` pass (`autostream`, `drive_sync`).
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
    use ng_chain::amount::Amount;
    use ng_chain::transaction::{OutPoint, TransactionBuilder};
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;

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

    /// A counting [`ng_storage::MemoryStorage`] shared with the test so hook
    /// invocations stay observable after the engine takes ownership of the box.
    #[derive(Clone, Debug, Default)]
    struct SharedMem(std::sync::Arc<std::sync::Mutex<ng_storage::MemoryStorage>>);

    impl ng_storage::ChainStorage for SharedMem {
        fn store_block(
            &mut self,
            block: &ng_core::block::NgBlock,
            height: u64,
        ) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().store_block(block, height)
        }
        fn store_undo(
            &mut self,
            id: &Hash256,
            height: u64,
            undo: &ng_chain::undo::BlockUndo,
        ) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().store_undo(id, height, undo)
        }
        fn commit_roll(&mut self, roll: &ng_storage::RollCommit) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().commit_roll(roll)
        }
        fn note_invalidated(&mut self, id: &Hash256) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().note_invalidated(id)
        }
        fn store_snapshot(
            &mut self,
            snapshot: &ng_storage::Snapshot,
        ) -> Result<(), ng_storage::StoreError> {
            self.0.lock().unwrap().store_snapshot(snapshot)
        }
    }

    #[test]
    fn persistence_hooks_fire_through_the_storage_trait() {
        let mut a = engine(1);
        let mem = SharedMem::default();
        a.set_storage(Box::new(mem.clone()));
        a.handle(1_000, Input::MineKeyBlock);
        a.handle(1_100, Input::SubmitTx(Box::new(test_tx(1))));
        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        let m = mem.0.lock().unwrap();
        assert_eq!(m.blocks, 2, "key block + microblock persisted");
        assert_eq!(m.undos, 2, "one undo per connected block");
        assert_eq!(m.rolls, 2, "one durable commit per completed roll");
        assert_eq!(m.invalidated, 0);
        assert_eq!(m.snapshots, 0, "checkpoint cadence (256) not reached at height 2");
        let roll = m.last_roll.as_ref().expect("microblock roll recorded");
        assert_eq!(roll.anchor, a.tip());
        assert_eq!(roll.anchor_height, 2);
        assert_eq!(roll.connected.len(), 1);
        assert!(roll.disconnected.is_empty());
        assert_eq!(roll.rolling, a.chainstate().commitment());
    }

    #[test]
    fn duplicate_and_confirmed_transactions_are_ignored() {
        let mut a = engine(1);
        a.handle(1_000, Input::MineKeyBlock);
        let tx = test_tx(7);
        let accepted = a.handle(1_100, Input::SubmitTx(Box::new(tx.clone())));
        assert!(accepted
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::TxAccepted { .. }))));
        // A duplicate produces no report.
        let dup = a.handle(1_101, Input::SubmitTx(Box::new(tx.clone())));
        assert!(dup.is_empty());
        // Serialize it; resubmitting the now-confirmed tx is also ignored.
        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert_eq!(a.mempool_len(), 0);
        let confirmed = a.handle(1_300, Input::SubmitTx(Box::new(tx)));
        assert!(confirmed.is_empty());
        assert_eq!(a.mempool_len(), 0);
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

    #[test]
    fn chained_unconfirmed_transactions_are_admitted_and_serialized() {
        use ng_crypto::signer::SchnorrSigner;
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        a.handle(1_000, Input::MineKeyBlock);
        let kb_id = a.tip();
        let signer = SchnorrSigner::new(*a.node().keys());
        let mut parent = TransactionBuilder::new()
            .input(OutPoint::new(kb_id, 0))
            .output(Amount::from_coins(25), a.node().keys().address())
            .build();
        parent.sign_all_inputs(&signer);
        // The child spends the parent's output while the parent is still pending in
        // the mempool: admission cannot price it against the UTXO view yet, but it
        // must be pooled (not dropped) and serialize right behind its parent.
        let mut child = TransactionBuilder::new()
            .input(OutPoint::new(parent.txid(), 0))
            .output(Amount::from_coins(24), KeyPair::from_id(3).address())
            .build();
        child.sign_all_inputs(&signer);

        assert!(!a
            .handle(1_100, Input::SubmitTx(Box::new(parent.clone())))
            .is_empty());
        let effects = a.handle(1_101, Input::SubmitTx(Box::new(child.clone())));
        assert!(
            effects
                .iter()
                .any(|e| matches!(e, Effect::Report(ReportEvent::TxAccepted { .. }))),
            "chained child must be admitted while its parent is unconfirmed"
        );
        assert_eq!(a.mempool_len(), 2);

        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert_eq!(a.mempool_len(), 0, "parent and child both serialized");
        assert!(a.chainstate().is_confirmed(&parent.txid()));
        assert!(a.chainstate().is_confirmed(&child.txid()));
        assert_eq!(
            a.utxo().balance_of(&KeyPair::from_id(3).address()),
            Amount::from_coins(24)
        );
    }

    #[test]
    fn honest_relay_is_not_punished_for_a_byzantine_descendant() {
        use ng_core::block::{MicroBlock, MicroHeader};
        use ng_crypto::signer::{SchnorrSigner, Signer as _};

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
        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert!(a.chainstate().is_confirmed(&spend.txid()));

        // A rival miner on the same epoch mines a heavier key block, and — being
        // Byzantine — signs a microblock on it spending a nonexistent output.
        let kb1 = a.node().chain().get(&kb1_id).expect("key block").clone();
        let mut rival = ng_core::node::NgNode::new(2, validated_params(), 0);
        rival.on_block(kb1, 1_001).unwrap();
        let rival_kb = rival.mine_and_adopt_key_block(2_000);
        let bad_payload = Payload::Transactions(vec![TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"phantom"), 0))
            .output(Amount::from_sats(1), KeyPair::from_id(9).address())
            .build()]);
        let bad_header = MicroHeader {
            prev: rival_kb.id(),
            time_ms: 2_010,
            payload_digest: bad_payload.digest(),
            leader: 2,
        };
        let bad = MicroBlock {
            signature: SchnorrSigner::new(*rival.keys()).sign(&bad_header.signing_hash()),
            header: bad_header,
            payload: bad_payload,
        };
        let bad_id = bad.id();

        // An honest peer relays the Byzantine microblock FIRST (it becomes a
        // pending child), then the valid rival key block. Adopting the key block
        // drags the pending child in: the reorg disconnects a's microblock,
        // connects the rival key block, and fails on the Byzantine child.
        register_peer(&mut a, 7);
        a.handle(
            3_000,
            Input::Message {
                peer: 7,
                message: Message::MicroBlock(Box::new(bad)),
            },
        );
        let effects = a.handle(
            3_001,
            Input::Message {
                peer: 7,
                message: Message::KeyBlock(Box::new(rival_kb.clone())),
            },
        );

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
    fn reorg_readmits_chained_transactions_across_blocks() {
        use ng_crypto::signer::SchnorrSigner;
        // Parent and child serialized in two separate microblocks; a heavier rival
        // branch reorgs both out. The child's input only resolves through the
        // re-admitted parent, so re-admission must process chain order and fall
        // back to pool-resolved validation.
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        a.handle(1_000, Input::MineKeyBlock);
        let kb1_id = a.tip();
        let signer = SchnorrSigner::new(*a.node().keys());
        let mut parent = TransactionBuilder::new()
            .input(OutPoint::new(kb1_id, 0))
            .output(Amount::from_coins(25), a.node().keys().address())
            .build();
        parent.sign_all_inputs(&signer);
        let mut child = TransactionBuilder::new()
            .input(OutPoint::new(parent.txid(), 0))
            .output(Amount::from_coins(24), KeyPair::from_id(4).address())
            .build();
        child.sign_all_inputs(&signer);
        a.handle(1_100, Input::SubmitTx(Box::new(parent.clone())));
        a.handle(
            1_200,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        a.handle(1_300, Input::SubmitTx(Box::new(child.clone())));
        a.handle(
            1_400,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert!(a.chainstate().is_confirmed(&parent.txid()));
        assert!(a.chainstate().is_confirmed(&child.txid()));

        // Rival branch: two key blocks on the shared epoch outweigh the microblocks.
        let kb1 = a.node().chain().get(&kb1_id).expect("key block").clone();
        let mut rival = ng_core::node::NgNode::new(2, validated_params(), 0);
        rival.on_block(kb1, 1_001).unwrap();
        let rival_kb1 = rival.mine_and_adopt_key_block(2_000);
        let rival_kb2 = rival.mine_and_adopt_key_block(2_100);
        register_peer(&mut a, 5);
        a.handle(
            3_000,
            Input::Message {
                peer: 5,
                message: Message::KeyBlock(Box::new(rival_kb1)),
            },
        );
        a.handle(
            3_001,
            Input::Message {
                peer: 5,
                message: Message::KeyBlock(Box::new(rival_kb2.clone())),
            },
        );
        assert_eq!(a.tip(), rival_kb2.id(), "reorg applied");
        assert!(
            a.mempool_contains(&parent.txid()),
            "disconnected parent re-admitted"
        );
        assert!(
            a.mempool_contains(&child.txid()),
            "disconnected child re-admitted through its pooled parent"
        );
        // The chain serializes again in order on the new branch.
        a.handle(
            4_000,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        assert!(!a.is_leader() || a.mempool_len() == 0);
    }

    #[test]
    fn direct_sender_of_invalid_microblock_is_disconnected() {
        use ng_core::block::{MicroBlock, MicroHeader};
        use ng_crypto::signer::{SchnorrSigner, Signer as _};

        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        register_peer(&mut a, 3);
        a.handle(1_000, Input::MineKeyBlock);
        let tip = a.tip();
        // The Byzantine leader (this engine's own id/keys, so the signature is
        // valid) sends a phantom-spend microblock directly.
        let payload = Payload::Transactions(vec![TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"phantom"), 0))
            .output(Amount::from_sats(1), KeyPair::from_id(9).address())
            .build()]);
        let header = MicroHeader {
            prev: tip,
            time_ms: 1_500,
            payload_digest: payload.digest(),
            leader: 1,
        };
        let bad = MicroBlock {
            signature: SchnorrSigner::new(KeyPair::from_id(1)).sign(&header.signing_hash()),
            header,
            payload,
        };
        let bad_id = bad.id();
        let effects = a.handle(
            2_000,
            Input::Message {
                peer: 3,
                message: Message::MicroBlock(Box::new(bad)),
            },
        );
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
    fn oversized_transaction_is_rejected() {
        let mut p = params();
        p.max_microblock_bytes = 512;
        let mut a = Engine::new(EngineConfig::new(1, p));
        a.handle(1_000, Input::MineKeyBlock);
        let mut builder = TransactionBuilder::new().input(OutPoint::new(sha256(b"big"), 0));
        for seq in 0..64u64 {
            builder = builder.output(Amount::from_sats(1 + seq), KeyPair::from_id(9).address());
        }
        let big = builder.build();
        assert!(big.serialized_size() as u64 > a.config().params.max_microblock_payload_bytes());
        // Rejected outright: no report, nothing pooled, no production timer to spin.
        let effects = a.handle(1_100, Input::SubmitTx(Box::new(big)));
        assert!(effects.is_empty());
        assert_eq!(a.mempool_len(), 0);
    }
}
