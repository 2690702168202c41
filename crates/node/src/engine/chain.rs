//! The chain component: the block tree, the ledger view, the mempool and the
//! durable backend behind them.
//!
//! It owns the protocol node (whose block tree is the one store of blocks), the
//! incremental ledger view, the one store of pending transactions, the durable
//! backend and the checkpoint cadence. Admission, block production, the ledger
//! roll with its persistence hooks, finality and restart recovery live here;
//! every write to the backend goes through [`persist`], so a storage failure is
//! reported once, the same way, wherever it happens.
//!
//! # The admission queue
//!
//! A validating engine does not verify a peer's `tx` frame when it arrives: it
//! queues the transaction with its source ([`Chain::enqueue`]; the first arrival
//! of a txid wins) and admits the whole queue at once ([`Chain::flush_admission`]):
//! every signature goes into one batch, which costs a fraction of verifying them
//! one by one. The router flushes the queue when it holds [`ADMISSION_BATCH`]
//! transactions; when the oldest has waited [`ADMISSION_DEADLINE_MS`], or
//! [`ADMISSION_LONE_MS`] while no second frame has joined it (checked before each
//! input is handled; the timer it arms includes that deadline); before it
//! produces a microblock; and before it handles any message that carries a
//! block — so compact reconstruction and connect find the transactions pooled
//! and their signatures cached. The lone frame's short wait keeps batching from
//! costing latency where it saves nothing: on a wall clock, a verification
//! deferred until a block needs it sits on that block's path. A queued
//! transaction is neither relayed nor selected: it is relayed once its batch
//! admitted it. Local submits and re-admission after a reorg are admitted at
//! once ([`Chain::admit`]), as is everything when validation is off: there is no
//! signature to batch.

use super::fraud::Fraud;
use super::relay::Relay;
use super::{report, AdmitReject, Effect, EngineConfig, ReportEvent, SnapshotPin};
use crate::chainstate::{ChainView, SyncDelta, SyncError};
use ng_chain::amount::Amount;
use ng_chain::chainstore::InsertOutcome;
use ng_chain::error::{BlockError, TxError};
use ng_chain::fifo::BoundedFifoMap;
use ng_chain::mempool::Mempool;
use ng_chain::payload::Payload;
use ng_chain::sigcache::BatchExecutor;
use ng_chain::transaction::{OutPoint, Transaction, TxInput, TxOutput};
use ng_chain::utxo::UtxoSet;
use ng_core::block::{KeyBlock, NgBlock};
use ng_core::chain::NgChainState;
use ng_core::node::NgNode;
use ng_crypto::pow::Work;
use ng_crypto::sha256::Hash256;
use ng_net::message::WireSnapshot;
use ng_storage::{ChainStorage, Recovery, RollCommit, Snapshot, StoreError};
use std::collections::HashSet;
use std::sync::Arc;

/// Relayed transactions an admission batch holds before it is flushed. Criterion
/// `schnorr_verify_batch` prices one signature at 125 µs alone and at 105, 61
/// and 51 µs in batches of 16, 64 and 256: at 64 a batch has 86 % of the
/// 256-batch's saving over a lone verification. The queue is what a peer's
/// frames can grow, and a forged signature costs a bisection of ≈ 2·log₂(batch)
/// extra passes, so the batch stays no larger than that. `ledger_snapshot`'s
/// `admission_batch` row prices the whole path per transaction (validation,
/// batch, pooling, the `inv`s): 278 µs for a lone frame, 196, 118 and 91 µs in
/// queues of 8, 32 and 128, on a 2-core host where one verification took 161 µs.
const ADMISSION_BATCH: usize = 64;

/// Longest a relayed transaction waits in the admission queue, in the engine's
/// ms. `mesh_signed` relays ≈ 3.3 transactions per virtual ms into each node, so
/// 20 ms fills about one [`ADMISSION_BATCH`]; a block arriving or the leader's
/// production flushes sooner. It is also the most one relay hop can add to a
/// transaction's propagation: two 10 ms microblock intervals.
const ADMISSION_DEADLINE_MS: u64 = 20;

/// Longest a relayed transaction waits alone in the admission queue, in the
/// engine's ms: a second frame within it extends the wait to
/// [`ADMISSION_DEADLINE_MS`]. A batch of one costs as much as a lone
/// verification, so a frame with no company gains nothing by waiting, and on a
/// wall clock its verification would then sit on the path of the block that
/// carries it. At `mesh_signed`'s ≈ 3.3 frames per ms a lone frame is joined
/// within about 0.3 ms (Poisson odds of none in 1 ms: e^-3.3 ≈ 4 %); at
/// `tcp_durable`'s one frame per ms and 2 ms microblocks most frames are
/// verified alone, before the block that carries them arrives.
const ADMISSION_LONE_MS: u64 = 1;

/// A transaction that was queued for admission, with its source peer and the
/// verdict of its batch.
pub(super) type Verdict = (Hash256, Transaction, u64, Admission);

/// A transaction's fee once pooled, or why it was not.
pub(super) type Admission = Result<Amount, AdmitReject>;

/// Everything this node knows about the ledger, and where it persists it.
#[derive(Debug)]
pub(super) struct Chain {
    /// The protocol node. Its block tree is the one store of blocks: `getdata`,
    /// `graft`, `getblocktxn` and eager pushes all read from it.
    node: NgNode,
    /// The one store of pending transactions (`getdata(tx)` reads it first).
    mempool: Mempool,
    /// The incremental ledger view: UTXO set, confirmed-txid set and rolling
    /// commitment, maintained by connecting/disconnecting blocks (never by replay).
    view: ChainView,
    /// The durable backend, when this engine persists
    /// ([`super::Engine::set_storage`]). `None` keeps the engine pure (SimNet, unit
    /// tests): no file system, no non-determinism.
    storage: Option<Box<dyn ChainStorage>>,
    /// Relayed transactions waiting for the next admission batch, oldest first,
    /// each with the peer it came from and when (see the module docs).
    admission: BoundedFifoMap<Hash256, (Transaction, u64, u64)>,
    /// Keep the newest checkpoint in memory even without a durable backend
    /// ([`EngineConfig::serve_snapshots`]).
    serve_snapshots: bool,
    /// Height of the last snapshot written, gating the checkpoint cadence.
    last_snapshot_height: u64,
    /// Newest checkpoint snapshot held in memory — what `getsnapshot` requests are
    /// served from (falling back to `storage.latest_snapshot()`). Filled by the
    /// checkpoint cadence and by a successfully applied bootstrap snapshot.
    latest_snapshot: Option<Snapshot>,
}

/// Seed of the random equal-work tie-break (§3 fn. 2). One value for every engine:
/// nodes seeding it differently resolve the same equal-work fork differently and
/// can split permanently.
const TIE_BREAK_SEED: u64 = 0;

/// The block tree of a chain that starts at `root` — a checkpoint's key block, its
/// height and the work below it — or at genesis.
fn tree_rooted_at(cfg: &EngineConfig, root: Option<(KeyBlock, u64, Work)>) -> NgNode {
    match root {
        Some((key, height, total_work)) => {
            let tree =
                NgChainState::from_root(cfg.params, TIE_BREAK_SEED, key, height, total_work);
            NgNode::from_chain(cfg.id, tree)
        }
        None => NgNode::new(cfg.id, cfg.params, TIE_BREAK_SEED),
    }
}

impl Chain {
    /// A fresh chain: genesis only, an empty ledger, an empty mempool.
    pub(super) fn new(cfg: &EngineConfig) -> Self {
        let node = tree_rooted_at(cfg, None);
        let view = ChainView::new(&cfg.params, node.chain().genesis_id());
        Self::over(cfg, node, view, 0)
    }

    fn over(cfg: &EngineConfig, node: NgNode, view: ChainView, last_snapshot_height: u64) -> Self {
        Chain {
            node,
            mempool: Mempool::new(),
            view,
            admission: BoundedFifoMap::new(ADMISSION_BATCH),
            storage: None,
            serve_snapshots: cfg.serve_snapshots,
            last_snapshot_height,
            latest_snapshot: None,
        }
    }

    /// Rebuilds the chain from what a recovery scan found on disk, and says at
    /// which height its tree is rooted. See [`super::Engine::restore`] for the
    /// three steps; the caller rolls the ledger forward to the re-derived tip.
    pub(super) fn restore(cfg: &EngineConfig, recovery: Recovery) -> (Self, u64) {
        let Recovery {
            root,
            snapshots,
            blocks,
            undos,
            invalidated,
            last_roll: _,
        } = recovery;
        let root_height = root.as_ref().map(|snap| snap.height).unwrap_or(0);
        let mut node =
            tree_rooted_at(cfg, root.map(|snap| (snap.root, snap.height, snap.total_work)));
        // 1: replay stored blocks in their original acceptance order. A parent
        // missing because its branch was rooted away (or WAL-invalidated) just
        // drops its descendants — they were not on the finalized path.
        for (_height, id, block) in blocks {
            if invalidated.contains(&id) {
                continue;
            }
            let _ = node.chain_mut().restore_insert_with_id(block, id);
        }
        // 2: restore undo records for every block that survived the replay.
        for (id, undo) in undos {
            if node.chain().store().contains(&id) {
                node.chain_mut().set_undo(id, undo);
            }
        }
        // 3: restore the view from the newest snapshot whose anchor survived.
        let newest_height = snapshots.first().map(|s| s.height);
        let usable = snapshots
            .into_iter()
            .find(|snap| node.chain().store().contains(&snap.root.id()));
        let (view, last_snapshot_height) = match usable {
            Some(snap) => {
                let utxo = UtxoSet::from_parts(
                    cfg.params.coinbase_maturity,
                    snap.entries.into_iter().collect(),
                    snap.rolling,
                );
                let confirmed = snap.confirmed.into_iter().collect();
                let view = ChainView::restore(&cfg.params, snap.root.id(), utxo, confirmed);
                (view, newest_height.unwrap_or(snap.height))
            }
            None => (ChainView::new(&cfg.params, node.chain().genesis_id()), 0),
        };
        (Self::over(cfg, node, view, last_snapshot_height), root_height)
    }

    /// Re-roots the chain at a snapshot that passed the pin's checks: the block
    /// tree restarts from the pinned key block as if it were genesis, the ledger
    /// view adopts the served UTXO set, the mempool starts empty. The snapshot is
    /// kept in durable-snapshot form, so this node can serve the same bootstrap
    /// to the next fresh joiner.
    pub(super) fn reroot(
        &mut self,
        cfg: &EngineConfig,
        pin: SnapshotPin,
        snapshot: WireSnapshot,
        utxo: UtxoSet,
        effects: &mut Vec<Effect>,
    ) {
        let WireSnapshot {
            root,
            height,
            total_work,
            mut entries,
            mut confirmed,
        } = snapshot;
        self.node = tree_rooted_at(cfg, Some((root.clone(), height, total_work)));
        if self.storage.is_some() {
            self.node.chain_mut().track_newly_stored(true);
        }
        let counts = confirmed.iter().copied().collect();
        self.view = ChainView::restore(&cfg.params, pin.root, utxo, counts);
        self.mempool = Mempool::new();
        persist(&mut self.storage, effects, |storage| {
            storage.store_block(&NgBlock::Key(root.clone()), height)
        });
        entries.sort_unstable_by_key(|(outpoint, _)| *outpoint);
        confirmed.sort_unstable();
        let stored = Snapshot {
            root,
            height,
            total_work,
            rolling: self.view.commitment(),
            sorted: pin.sorted,
            entries,
            confirmed,
        };
        persist(&mut self.storage, effects, |storage| storage.store_snapshot(&stored));
        self.latest_snapshot = Some(stored);
        self.last_snapshot_height = height;
    }

    /// Installs the durable backend; from here on newly stored blocks are tracked
    /// for the next roll's persistence pass.
    pub(super) fn set_storage(&mut self, storage: Box<dyn ChainStorage>) {
        self.node.chain_mut().track_newly_stored(true);
        self.storage = Some(storage);
    }

    /// Installs a signature batch executor on the ledger view.
    pub(super) fn set_batch_executor(&mut self, executor: Arc<dyn BatchExecutor>) {
        self.view.set_batch_executor(executor);
    }

    // ---- reads ----------------------------------------------------------------

    /// The protocol node and its block tree.
    pub(super) fn node(&self) -> &NgNode {
        &self.node
    }

    /// The incremental ledger view.
    pub(super) fn view(&self) -> &ChainView {
        &self.view
    }

    /// The one store of pending transactions.
    pub(super) fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// The block tree to read and the ledger view to write, together: what the
    /// fraud component needs to apply a poison's revocation and bounty.
    pub(super) fn ledger_mut(&mut self) -> (&NgNode, &mut ChainView) {
        (&self.node, &mut self.view)
    }

    /// Height of the main-chain tip.
    pub(super) fn height(&self) -> u64 {
        self.node.chain().store().tip_height()
    }

    /// True if the block is in the tree.
    pub(super) fn holds(&self, id: &Hash256) -> bool {
        self.node.chain().store().contains(id)
    }

    /// True if this node may relay (and serve) the block: it is in the tree and —
    /// under full validation — either carries its own proof of work (a key block) or
    /// was validated by this node's ledger (it sits on the main chain). A node never
    /// vouches for a microblock it has not validated.
    pub(super) fn announceable(&self, id: &Hash256) -> bool {
        match self.node.chain().get(id) {
            None => false,
            Some(NgBlock::Key(_)) => true,
            Some(NgBlock::Micro(_)) => {
                !self.view.validating() || self.node.chain().store().is_in_main_chain(id)
            }
        }
    }

    /// The newest checkpoint snapshot held in memory, if any.
    pub(super) fn latest_snapshot(&self) -> Option<&Snapshot> {
        self.latest_snapshot.as_ref()
    }

    /// The checkpoint snapshot at `height`, if this node holds it: the in-memory
    /// one when it matches, else the durable backend's newest.
    pub(super) fn snapshot_at(&mut self, height: u64) -> Option<Snapshot> {
        self.latest_snapshot
            .as_ref()
            .filter(|snap| snap.height == height)
            .cloned()
            .or_else(|| {
                self.storage
                    .as_mut()
                    .and_then(|storage| storage.latest_snapshot().ok().flatten())
                    .filter(|snap| snap.height == height)
            })
    }

    // ---- admission ------------------------------------------------------------

    /// The checks every route into the mempool starts with: not pending already,
    /// not on the main chain already (gossip is multi-hop: a transaction can
    /// arrive after the microblock that serialized it), and small enough to fit
    /// an empty microblock — one that is not can never be serialized on this
    /// chain, and pooling it would head-of-line-block FIFO selection (and, in
    /// auto mode, spin the production timer) forever.
    fn poolable(&self, txid: &Hash256, tx: &Transaction) -> Result<(), AdmitReject> {
        let limit = self.node.chain().params().max_microblock_payload_bytes();
        if self.mempool.contains(txid) {
            Err(AdmitReject::AlreadyPooled)
        } else if self.view.is_confirmed(txid) {
            Err(AdmitReject::AlreadyConfirmed)
        } else if tx.serialized_size() as u64 > limit {
            Err(AdmitReject::Oversized)
        } else {
            Ok(())
        }
    }

    /// The fee `tx` would pay in the next block, by the view's validation policy:
    /// with full validation on, a transaction spending nonexistent outputs or
    /// inflating value is refused, and its signature verification is cached for
    /// connect time. A transaction chained on a still-pending mempool parent is
    /// validated with its inputs resolved against the pool (signatures, vouts and
    /// value conservation included — in-pool double spends are rejected
    /// separately by the mempool's spent-outpoint index at insert time);
    /// `filter_valid` re-validates the chain as a sequence at production time.
    fn admission_fee(&mut self, tx: &Transaction) -> Result<Amount, TxError> {
        let (height, mempool) = (self.height() + 1, &self.mempool);
        let pooled = |outpoint: &OutPoint| pooled_output(mempool, outpoint);
        self.view.chained_admission_fee(tx, height, &pooled)
    }

    /// Admits a transaction to the mempool at once, if it is new, fits and
    /// validates; returns its fee.
    pub(super) fn admit(&mut self, txid: &Hash256, tx: &Transaction) -> Admission {
        self.poolable(txid, tx)?;
        let fee = self.admission_fee(tx).map_err(AdmitReject::Invalid)?;
        self.pool(tx.clone(), fee)
    }

    fn pool(&mut self, tx: Transaction, fee: Amount) -> Admission {
        match self.mempool.insert_with_fee(tx, fee) {
            true => Ok(fee),
            false => Err(AdmitReject::DoubleSpend),
        }
    }

    /// True if the admission queue holds `txid`.
    pub(super) fn queued(&self, txid: &Hash256) -> bool {
        self.admission.contains_key(txid)
    }

    /// True if `tx` spends an output of a queued transaction.
    pub(super) fn spends_queued(&self, tx: &Transaction) -> bool {
        let queued = |input: &TxInput| self.queued(&input.outpoint.txid);
        !self.admission.is_empty() && tx.inputs.iter().any(queued)
    }

    /// When the queued transactions must be admitted at the latest (`None` while
    /// the queue is empty).
    pub(super) fn admission_due_ms(&self) -> Option<u64> {
        let (_, _, queued_at) = self.admission.values().next()?;
        let alone = self.admission.len() == 1;
        Some(queued_at + if alone { ADMISSION_LONE_MS } else { ADMISSION_DEADLINE_MS })
    }

    /// Queues a transaction `from` a peer for the next admission batch, unless it
    /// is pending, confirmed or oversized already. `Ok(true)` when the batch is
    /// full and must be flushed now.
    pub(super) fn enqueue(
        &mut self,
        txid: Hash256,
        tx: Transaction,
        from: u64,
        now_ms: u64,
    ) -> Result<bool, AdmitReject> {
        if self.queued(&txid) {
            return Err(AdmitReject::AlreadyPooled);
        }
        self.poolable(&txid, &tx)?;
        self.admission.insert(txid, (tx, from, now_ms));
        Ok(self.admission.len() >= ADMISSION_BATCH)
    }

    /// Admits the queued transactions as one batch
    /// ([`ChainView::batch_admission_fees`]) and pools those that pass in
    /// arrival order. A transaction that spends an output of one refused in the
    /// same batch is refused too. Returns every queued transaction with its
    /// source and verdict, in arrival order, and leaves the queue empty.
    pub(super) fn flush_admission(&mut self) -> Vec<Verdict> {
        let queued = self.admission.drain();
        let (height, mempool) = (self.height() + 1, &self.mempool);
        let pooled = |outpoint: &OutPoint| pooled_output(mempool, outpoint);
        let batch = queued.iter().map(|(txid, (tx, _, _))| (*txid, tx));
        let fees = self.view.batch_admission_fees(batch, height, &pooled);
        // Queued transactions refused for good: no pooled transaction can spend
        // their outputs.
        let (mut refused, mut verdicts) = (HashSet::new(), Vec::new());
        for ((txid, (tx, from, _)), fee) in queued.into_iter().zip(fees) {
            let orphaned = tx
                .inputs
                .iter()
                .find(|input| refused.contains(&input.outpoint.txid));
            // Screened again: a submit or a reorg may have pooled it meanwhile.
            let verdict = match (self.poolable(&txid, &tx), fee, orphaned) {
                (Err(reason), _, _) => Err(reason),
                (_, Err(error), _) => Err(AdmitReject::Invalid(error)),
                (_, _, Some(input)) => {
                    Err(AdmitReject::Invalid(TxError::MissingInput(input.outpoint)))
                }
                (Ok(()), Ok(fee), None) => self.pool(tx.clone(), fee),
            };
            if matches!(
                verdict,
                Err(AdmitReject::Invalid(_) | AdmitReject::DoubleSpend)
            ) {
                refused.insert(txid);
            }
            verdicts.push((txid, tx, from, verdict));
        }
        verdicts
    }

    // ---- blocks ---------------------------------------------------------------

    /// Offers a block to the tree (structure, proof of work, leader signature,
    /// fork choice). Its transactions are judged when the ledger rolls over it.
    pub(super) fn insert(
        &mut self,
        block: NgBlock,
        now_ms: u64,
    ) -> Result<InsertOutcome, BlockError> {
        self.node.on_block(block, now_ms)
    }

    /// Mines a key block on the tip and adopts it.
    pub(super) fn mine_key_block(&mut self, now_ms: u64) -> Hash256 {
        self.node.mine_and_adopt_key_block(now_ms).id()
    }

    /// Produces one microblock from the mempool, if this node is the leader and
    /// the spacing rules allow one now. With `require_transactions`, an empty
    /// selection produces nothing (instead of an empty block).
    pub(super) fn produce_microblock(
        &mut self,
        now_ms: u64,
        require_transactions: bool,
    ) -> Option<Hash256> {
        if !self.node.microblock_ready(now_ms) {
            return None;
        }
        let budget = self.node.chain().params().max_microblock_payload_bytes() as usize;
        let selected = self.mempool.select_fifo(budget);
        // Under full validation the payload must validate as a sequence against the
        // live view — a pooled transaction can have gone stale (its input spent on
        // a reorged-in branch). Hopelessly stale ones are dropped from the pool
        // entirely (they can never be serialized and would otherwise clog FIFO
        // selection forever) — EXCEPT transactions that are only *temporarily*
        // invalid: a child whose missing input another pooled transaction still
        // provides (merely ordered ahead of its parent this round), and a coinbase
        // spend a reorg pushed back below maturity (valid again in a few blocks).
        let (txs, rejected) = self.view.filter_valid(selected, self.height() + 1);
        let stale: Vec<Hash256> = rejected
            .into_iter()
            .filter(|(_, error)| match error {
                TxError::MissingInput(outpoint) => !self.mempool.contains(&outpoint.txid),
                TxError::ImmatureCoinbase { .. } => false,
                _ => true,
            })
            .map(|(txid, _)| txid)
            .collect();
        if !stale.is_empty() {
            self.mempool.remove_all(stale.iter());
        }
        if require_transactions && txs.is_empty() {
            return None;
        }
        let txids: Vec<Hash256> = txs.iter().map(|t| t.txid()).collect();
        let micro = self
            .node
            .produce_microblock(now_ms, Payload::Transactions(txs))?;
        self.mempool.remove_all(txids.iter());
        Some(micro.id())
    }

    /// Rolls the incremental ledger view to the current tip and the mempool with it:
    /// reorg-disconnected transactions return to the pool (unless reconfirmed on the
    /// new branch), newly serialized transactions leave it. Per-block cost is
    /// O(transactions in the rolled blocks) — never O(chain length).
    ///
    /// If a connecting microblock's transactions fail full validation, the block
    /// (and any descendants) is invalidated out of the block tree, the chain
    /// re-selects its best remaining tip, and the roll retries — so the view always
    /// lands on a fully valid main chain. Returns true when the invalid block is
    /// `delivered`, the very block a peer just handed over: that peer either forged
    /// the microblock (it is the Byzantine leader) or relayed one it failed to
    /// validate. Rejections of *other* blocks (e.g. a pending descendant adopted in
    /// the same insert) never blame the deliverer — an honest relay of a valid
    /// parent must not take the blame for the Byzantine child that rode behind it.
    ///
    /// The delta accumulates across retries, so the transactions of blocks
    /// disconnected before a failed connect are still re-admitted to the mempool.
    pub(super) fn roll_ledger(
        &mut self,
        delivered: Option<Hash256>,
        fraud: &mut Fraud,
        relay: &mut Relay,
        effects: &mut Vec<Effect>,
    ) -> bool {
        let mut delta = SyncDelta::default();
        let mut delivered_invalid = false;
        loop {
            let target = self.node.tip();
            let rejected = match self.view.sync_into(self.node.chain_mut(), target, &mut delta) {
                Ok(()) => break,
                Err(SyncError::Connect(error)) => {
                    delivered_invalid |= delivered == Some(error.block);
                    error.block
                }
                // A connected block on the reorg path lost its undo record — a
                // store corruption, never reachable under the finality/pruning
                // discipline. Abandon the branch that requires the impossible
                // rewind: invalidating the candidate tip re-selects the best
                // tip elsewhere, and the loop converges because each pass
                // removes at least one block from the tree.
                Err(SyncError::UnwindableBlock { .. }) => self.node.tip(),
            };
            report(effects, ReportEvent::BlockRejected { id: rejected });
            // Logged to the WAL so recovery never re-adopts the block.
            persist(&mut self.storage, effects, |storage| storage.note_invalidated(&rejected));
            for gone in self.node.chain_mut().invalidate(&rejected) {
                relay.release(&gone);
            }
        }
        fraud.ledger_rolled(self, relay, effects);
        self.persist_roll(&delta, effects);
        self.advance_finality();
        if !delta.is_empty() {
            // Checkpoint on the cadence even without durable storage when this node
            // serves snapshots: SimNet bootstrap providers keep theirs in memory.
            self.maybe_checkpoint(effects);
            let (connected, disconnected) = (delta.connected_blocks, delta.disconnected_blocks);
            report(effects, ReportEvent::LedgerRolled { connected, disconnected });
            // Re-admit disconnected transactions against the post-roll view (their
            // inputs are unspent again on the new branch), skipping anything the
            // new branch already serialized. The delta lists them in chain order —
            // parents before the children that spend them — so a chained child
            // whose parent was just re-admitted resolves through the pool.
            for tx in delta.disconnected_txs {
                let txid = tx.txid();
                if self.view.is_confirmed(&txid) || self.mempool.contains(&txid) {
                    continue;
                }
                let fee = match self.admission_fee(&tx) {
                    Ok(fee) => fee,
                    // A coinbase spend the reorg pushed back below maturity is only
                    // temporarily invalid — kept (unpriced) until it re-matures,
                    // mirroring the production-time stale filter's policy.
                    Err(TxError::ImmatureCoinbase { .. }) => Amount::ZERO,
                    Err(_) => continue,
                };
                self.mempool.insert_with_fee(tx, fee);
            }
            // A retried roll can have connected a block and then disconnected it
            // again (the branch lost after an invalidation): only ids that are
            // *still* confirmed leave the mempool.
            let confirmed_now: Vec<Hash256> = delta
                .connected_txids
                .iter()
                .filter(|txid| self.view.is_confirmed(txid))
                .copied()
                .collect();
            self.mempool.remove_all(confirmed_now.iter());
        }
        delivered_invalid
    }

    // ---- durable storage ------------------------------------------------------

    /// Makes a block of the history below the root durable (the snapshot backfill
    /// fetched it; the tree never sees it).
    pub(super) fn store_below_root(
        &mut self,
        block: &NgBlock,
        height: u64,
        effects: &mut Vec<Effect>,
    ) {
        persist(&mut self.storage, effects, |storage| storage.store_block(block, height));
    }

    /// Persists everything one completed roll produced, in dependency order:
    /// newly stored blocks, then the undo records of the connected blocks, then
    /// the roll commit that references them (the backend flushes data files before
    /// the commit record — see [`ChainStorage::commit_roll`]).
    fn persist_roll(&mut self, delta: &SyncDelta, effects: &mut Vec<Effect>) {
        if self.storage.is_none() {
            return;
        }
        for id in self.node.chain_mut().drain_newly_stored() {
            let Some(stored) = self.node.chain().store().get(&id) else {
                // Inserted, then invalidated before this roll completed: the
                // WAL's invalidation record (already written) covers it.
                continue;
            };
            persist(&mut self.storage, effects, |storage| {
                storage.store_block(&stored.block, stored.height)
            });
        }
        if delta.is_empty() {
            return;
        }
        let tree = self.node.chain();
        for id in &delta.connected_block_ids {
            // A retried roll can have disconnected (or invalidated) a block it
            // connected earlier; only blocks with a live undo are re-persisted.
            let Some(undo) = tree.undo_of(id) else {
                continue;
            };
            let height = tree.store().height_of(id).unwrap_or(0);
            persist(&mut self.storage, effects, |storage| storage.store_undo(id, height, undo));
        }
        let anchor = self.view.anchor();
        let roll = RollCommit {
            anchor,
            anchor_height: tree.store().height_of(&anchor).unwrap_or(0),
            rolling: self.view.commitment(),
            disconnected: delta.disconnected_block_ids.clone(),
            connected: delta.connected_block_ids.clone(),
        };
        persist(&mut self.storage, effects, |storage| storage.commit_roll(&roll));
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
        if self.storage.is_none() && !self.serve_snapshots {
            return;
        }
        let tree = self.node.chain();
        let Some(stored) = tree.store().get(&self.view.anchor()) else {
            return;
        };
        let height = stored.height;
        if height < self.last_snapshot_height + tree.params().checkpoint_interval {
            return;
        }
        let Some(root) = stored.block.as_key().cloned() else {
            return; // mid-epoch; the next key block will carry the checkpoint
        };
        let mut entries: Vec<_> = self
            .view
            .utxo()
            .iter()
            .map(|(outpoint, entry)| (*outpoint, *entry))
            .collect();
        entries.sort_unstable_by_key(|(outpoint, _)| *outpoint);
        let mut confirmed: Vec<_> = self
            .view
            .confirmed_counts()
            .iter()
            .map(|(txid, count)| (*txid, *count))
            .collect();
        confirmed.sort_unstable();
        let snapshot = Snapshot {
            root,
            height,
            total_work: stored.total_work,
            rolling: self.view.commitment(),
            sorted: self.view.utxo().commitment(),
            entries,
            confirmed,
        };
        if !persist(&mut self.storage, effects, |storage| storage.store_snapshot(&snapshot)) {
            return; // the cadence does not advance: the next roll retries the write
        }
        self.last_snapshot_height = height;
        self.latest_snapshot = Some(snapshot);
        report(effects, ReportEvent::CheckpointWritten { height });
    }

    /// Advances the finality checkpoint to `tip_height − finality_depth` and
    /// prunes undo records below it — reorgs that deep are refused at insert time
    /// ([`BlockError::FinalityViolation`]), so their undos can never be consumed.
    /// Runs for every engine, durable or not: it is what keeps a long-lived
    /// node's undo map O(finality depth) instead of O(chain length).
    fn advance_finality(&mut self) {
        let tree = self.node.chain();
        let fin_height = self.height().saturating_sub(tree.params().finality_depth);
        let current = tree.finalized().map(|(height, _)| height).unwrap_or(0);
        if fin_height <= current {
            return;
        }
        let Some(fin_id) = tree.store().ancestor_at(&tree.tip(), fin_height) else {
            return;
        };
        self.node.chain_mut().set_finalized(&fin_id);
        self.node.chain_mut().prune_undo(fin_height);
    }
}

/// The output `outpoint` names, if a pooled transaction creates it.
fn pooled_output(mempool: &Mempool, outpoint: &OutPoint) -> Option<TxOutput> {
    let parent = &mempool.get(&outpoint.txid)?.tx;
    parent.outputs.get(outpoint.vout as usize).copied()
}

/// Runs one write against the durable backend, if there is one. A failure is
/// surfaced as [`ReportEvent::StorageFailed`] and `false` — never a panic: the
/// engine keeps running in memory (a full disk degrades the node instead of
/// killing consensus) and the driver decides whether to alert or shut down.
fn persist(
    storage: &mut Option<Box<dyn ChainStorage>>,
    effects: &mut Vec<Effect>,
    write: impl FnOnce(&mut dyn ChainStorage) -> Result<(), StoreError>,
) -> bool {
    let Some(storage) = storage else {
        return true;
    };
    match write(storage.as_mut()) {
        Ok(()) => true,
        Err(err) => {
            let reason = err.to_string();
            report(effects, ReportEvent::StorageFailed { reason });
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::{Engine, Input};
    use super::*;
    use crate::testnet::test_tx;
    use ng_chain::transaction::{OutPoint, TransactionBuilder};
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::{SchnorrSigner, SignatureBytes};
    use ng_net::message::{InvItem, InvKind, Message};

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

    /// A backend with a bad disk: every write fails while `full`, and the next
    /// `bad_snapshots` snapshot writes fail regardless.
    #[derive(Debug)]
    struct BadDisk {
        full: bool,
        bad_snapshots: u32,
    }

    impl BadDisk {
        fn write(&self) -> Result<(), StoreError> {
            match self.full {
                true => Err(StoreError::Io(std::io::Error::other("no space left on device"))),
                false => Ok(()),
            }
        }
    }

    impl ChainStorage for BadDisk {
        fn store_block(&mut self, _: &NgBlock, _: u64) -> Result<(), StoreError> {
            self.write()
        }
        fn store_undo(
            &mut self,
            _: &Hash256,
            _: u64,
            _: &ng_chain::undo::BlockUndo,
        ) -> Result<(), StoreError> {
            self.write()
        }
        fn commit_roll(&mut self, _: &RollCommit) -> Result<(), StoreError> {
            self.write()
        }
        fn note_invalidated(&mut self, _: &Hash256) -> Result<(), StoreError> {
            self.write()
        }
        fn store_snapshot(&mut self, _: &Snapshot) -> Result<(), StoreError> {
            if self.bad_snapshots > 0 {
                self.bad_snapshots -= 1;
                return Err(StoreError::Io(std::io::Error::other("short write")));
            }
            self.write()
        }
    }

    #[test]
    fn every_failed_write_is_reported_and_the_node_keeps_running() {
        let mut a = engine(1);
        a.set_storage(Box::new(BadDisk { full: true, bad_snapshots: 0 }));
        let effects = a.handle(1_000, Input::MineKeyBlock);
        let failures = reports(&effects)
            .filter(|event| matches!(event, ReportEvent::StorageFailed { .. }))
            .count();
        assert_eq!(failures, 3, "the block, its undo record and the roll commit");
        assert!(reports(&effects).any(|e| matches!(e, ReportEvent::KeyBlockMined { .. })));
        assert_eq!(a.height(), 1, "consensus goes on in memory");
    }

    #[test]
    fn a_failed_checkpoint_write_is_retried_at_the_next_key_block() {
        let mut p = params();
        p.checkpoint_interval = 2;
        let mut a = Engine::new(EngineConfig::new(1, p));
        a.set_storage(Box::new(BadDisk { full: false, bad_snapshots: 1 }));
        let written = |effects: &[Effect]| {
            reports(effects).find_map(|event| match event {
                ReportEvent::CheckpointWritten { height } => Some(*height),
                _ => None,
            })
        };
        a.handle(1_000, Input::MineKeyBlock);
        let effects = a.handle(1_100, Input::MineKeyBlock);
        assert_eq!(written(&effects), None, "height 2 was due, but the write failed");
        assert!(a.latest_snapshot().is_none());
        let effects = a.handle(1_200, Input::MineKeyBlock);
        assert_eq!(written(&effects), Some(3), "the cadence did not advance past the failure");
        assert_eq!(a.latest_snapshot().map(|snap| snap.height), Some(3));
    }

    #[test]
    fn a_preloaded_child_of_a_pooled_parent_is_pooled_too() {
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        a.handle(1_000, Input::MineKeyBlock);
        let signer = SchnorrSigner::new(*a.node().keys());
        let mut parent = TransactionBuilder::new()
            .input(OutPoint::new(a.tip(), 0))
            .output(Amount::from_coins(25), a.node().keys().address())
            .build();
        parent.sign_all_inputs(&signer);
        let mut child = TransactionBuilder::new()
            .input(OutPoint::new(parent.txid(), 0))
            .output(Amount::from_coins(24), KeyPair::from_id(3).address())
            .build();
        child.sign_all_inputs(&signer);
        let orphan = child.clone();
        assert!(!a.preload_tx(orphan), "its input is nowhere yet");
        assert!(a.preload_tx(parent.clone()));
        assert!(!a.preload_tx(parent), "already pending");
        assert!(a.preload_tx(child), "resolved through the pooled parent");
        assert_eq!(a.mempool_len(), 2);
    }

    #[test]
    fn persistence_hooks_fire_through_the_storage_trait() {
        let mut a = engine(1);
        let mem = SharedMem::default();
        a.set_storage(Box::new(mem.clone()));
        a.handle(1_000, Input::MineKeyBlock);
        a.handle(1_100, Input::SubmitTx(Box::new(test_tx(1))));
        produce(&mut a, 1_200);
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
    fn a_synthetic_payload_cannot_mint_through_the_next_coinbase() {
        // A synthetic summary declares its own fees, and `closing_epoch` adds them
        // to the next key block's coinbase allowance: connected, it mints.
        let params = ng_core::params::NgParams::default();
        let mut attacker = ng_core::node::NgNode::new(1, params, 0);
        let k1 = attacker.mine_and_adopt_key_block(1_000);
        let payload = Payload::Synthetic {
            bytes: 100,
            tx_count: 1,
            total_fees: Amount::from_coins(1_000_000),
            tag: 1,
        };
        let micro = attacker.produce_microblock(20_000, payload).expect("leader");
        let k2 = attacker.mine_and_adopt_key_block(30_000);
        let rejected = |effects: &[Effect], block: Hash256| {
            reports(effects).any(|e| matches!(e, ReportEvent::BlockRejected { id } if *id == block))
        };

        let mut victim = Engine::new(EngineConfig::new(2, params));
        register_peer(&mut victim, 7);
        deliver(&mut victim, 1_001, 7, Message::KeyBlock(Box::new(k1)));
        let effects = deliver(&mut victim, 20_001, 7, Message::MicroBlock(Box::new(micro.clone())));
        assert!(rejected(&effects, micro.id()));
        assert!(reports(&effects).any(|e| matches!(e, ReportEvent::PeerMisbehaved { peer: 7, .. })));
        assert!(!victim.connected_peers().contains(&7));
        register_peer(&mut victim, 8);
        let effects = deliver(&mut victim, 30_001, 8, Message::KeyBlock(Box::new(k2.clone())));
        assert!(rejected(&effects, k2.id()), "a descendant of an invalid block");
        assert_eq!(victim.height(), 1);
        assert_eq!(victim.utxo().total_value(), Amount::from_coins(25));
        crate::ledger::assert_supply_bounded([&victim]);
    }

    #[test]
    fn a_coinbase_spend_signed_by_the_wrong_key_is_refused_at_admission_and_at_connect() {
        let mut leader = ng_core::node::NgNode::new(1, validated_params(), 0);
        let k1 = leader.mine_and_adopt_key_block(1_000);
        // The leader's coinbase under the leader's public key — which anyone knows —
        // and a signature made with somebody else's secret.
        let thief = KeyPair::from_id(9);
        let mut theft = TransactionBuilder::new()
            .input(OutPoint::new(k1.id(), 0))
            .output(Amount::from_coins(25), thief.address())
            .build();
        theft.sign_all_inputs(&SchnorrSigner::new(thief));
        theft.inputs[0].pubkey = Some(leader.keys().public);

        let mut victim = Engine::new(EngineConfig::new(2, validated_params()));
        register_peer(&mut victim, 7);
        deliver(&mut victim, 1_001, 7, Message::KeyBlock(Box::new(k1)));
        let effects = victim.handle(1_002, Input::SubmitTx(Box::new(theft.clone())));
        assert!(!reports(&effects).any(|e| matches!(e, ReportEvent::TxAccepted { .. })));
        assert_eq!(victim.mempool_len(), 0);
        let payload = Payload::Transactions(vec![theft]);
        let micro = leader.produce_microblock(1_010, payload).expect("leader");
        let effects = deliver(&mut victim, 1_011, 7, Message::MicroBlock(Box::new(micro.clone())));
        assert!(victim.node().chain().is_invalid(&micro.id()));
        assert!(reports(&effects).any(|e| matches!(e, ReportEvent::PeerMisbehaved { peer: 7, .. })));
        assert_eq!(victim.utxo().balance_of(&thief.address()), Amount::ZERO);
    }

    // ---- the admission queue ---------------------------------------------------

    /// A validating leader with handshaken peers 5, 6 and 7, and `n` confirmed
    /// outputs its own key can spend — the inputs of the spends the tests relay.
    fn funded_leader(n: u32) -> (Engine, Vec<OutPoint>) {
        let mut a = Engine::new(EngineConfig::new(1, validated_params()));
        [5, 6, 7]
            .into_iter()
            .for_each(|peer| register_peer(&mut a, peer));
        a.handle(1_000, Input::MineKeyBlock);
        let owner = a.node().keys().address();
        let mut builder = TransactionBuilder::new().input(OutPoint::new(a.tip(), 0));
        for _ in 0..n {
            builder = builder.output(Amount::from_sats(1_000_000), owner);
        }
        let mut fanout = builder.build();
        fanout.sign_all_inputs(&SchnorrSigner::new(*a.node().keys()));
        a.handle(1_001, Input::SubmitTx(Box::new(fanout.clone())));
        produce(&mut a, 1_002);
        assert!(a.chainstate().is_confirmed(&fanout.txid()));
        let outputs = (0..n).map(|vout| OutPoint::new(fanout.txid(), vout));
        (a, outputs.collect())
    }

    /// A spend of `input` back to `a`'s key, signed by it.
    fn spend(a: &Engine, input: OutPoint, sats: u64) -> Transaction {
        let mut tx = TransactionBuilder::new()
            .input(input)
            .output(Amount::from_sats(sats), a.node().keys().address())
            .build();
        tx.sign_all_inputs(&SchnorrSigner::new(*a.node().keys()));
        tx
    }

    /// `tx` with its signature broken: every structural check still passes.
    fn forge(mut tx: Transaction) -> Transaction {
        if let Some(SignatureBytes::Schnorr(bytes)) = &mut tx.inputs[0].signature {
            bytes[64] ^= 1;
        }
        tx
    }

    fn relayed(peer: u64, tx: &Transaction) -> Input {
        Input::Message {
            peer,
            message: Message::Tx(Box::new(tx.clone())),
        }
    }

    fn accepted(effects: &[Effect]) -> Vec<Hash256> {
        reports(effects)
            .filter_map(|event| match event {
                ReportEvent::TxAccepted { txid } => Some(*txid),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn one_forged_signature_in_a_batch_refuses_that_transaction_and_its_relay() {
        let (mut a, inputs) = funded_leader(ADMISSION_BATCH as u32);
        let mut frames: Vec<(u64, Transaction)> = inputs
            .iter()
            .map(|input| (5, spend(&a, *input, 900_000)))
            .collect();
        frames[20] = (7, forge(frames[20].1.clone()));
        let forged = frames[20].1.txid();
        let mut effects = Vec::new();
        for (peer, tx) in &frames {
            effects = a.handle(1_100, relayed(*peer, tx));
        }
        // The 64th frame filled the batch: one flush judged all of them.
        let honest: Vec<Hash256> = frames
            .iter()
            .filter(|(peer, _)| *peer == 5)
            .map(|(_, tx)| tx.txid())
            .collect();
        assert_eq!(accepted(&effects), honest, "the other 63, in arrival order");
        assert_eq!(a.mempool_len(), 63);
        let refused = reports(&effects).find_map(|event| match event {
            ReportEvent::TxRejected { txid, reason } => Some((*txid, reason.forged())),
            _ => None,
        });
        assert_eq!(refused, Some((forged, true)));
        let misbehaved = ReportEvent::PeerMisbehaved {
            peer: 7,
            reason: "relayed a transaction with a bad signature".to_string(),
        };
        assert!(reports(&effects).any(|event| *event == misbehaved));
        assert!(effects.contains(&Effect::Disconnect { peer: 7 }));
        assert_eq!(a.connected_peers(), vec![5, 6], "the honest relay stays");
        let (_, misses) = a.chainstate().sig_cache_stats();
        produce(&mut a, 1_200);
        assert_eq!(a.mempool_len(), 0);
        let misses_now = a.chainstate().sig_cache_stats().1;
        assert_eq!(misses_now, misses, "connect found every verdict");
    }

    #[test]
    fn a_parent_and_its_child_in_one_batch_are_both_pooled() {
        let (mut a, inputs) = funded_leader(2);
        let parent = spend(&a, inputs[0], 900_000);
        let child = spend(&a, OutPoint::new(parent.txid(), 0), 800_000);
        let mut orphan = spend(&a, OutPoint::new(sha256(b"nowhere"), 0), 1);
        orphan.outputs[0].amount = Amount::from_sats(2); // a different txid
        for tx in [&orphan, &parent, &child] {
            a.handle(1_100, relayed(5, tx));
        }
        assert_eq!(a.mempool_len(), 0, "all three are queued");
        let effects = produce(&mut a, 1_101);
        assert_eq!(accepted(&effects), vec![parent.txid(), child.txid()]);
        let missing = TxError::MissingInput(orphan.inputs[0].outpoint);
        let refused = ReportEvent::TxRejected {
            txid: orphan.txid(),
            reason: AdmitReject::Invalid(missing),
        };
        assert!(reports(&effects).any(|event| *event == refused));
        let peers = a.connected_peers();
        assert!(peers.contains(&5), "a missing input punishes nobody");
        let confirmed = a.chainstate().is_confirmed(&child.txid());
        assert!(confirmed, "both went into the microblock");
    }

    #[test]
    fn a_child_of_a_refused_transaction_is_refused_in_the_same_batch() {
        let (mut a, inputs) = funded_leader(2);
        let parent = forge(spend(&a, inputs[0], 900_000));
        let child = spend(&a, OutPoint::new(parent.txid(), 0), 800_000);
        a.handle(1_100, relayed(5, &parent));
        a.handle(1_100, relayed(6, &child));
        let effects = produce(&mut a, 1_101);
        assert_eq!(accepted(&effects), vec![]);
        assert_eq!(a.mempool_len(), 0);
        assert_eq!(a.connected_peers(), vec![6, 7], "only the forger goes");
    }

    #[test]
    fn a_queued_transaction_is_neither_relayed_served_nor_selected_before_its_flush() {
        let (mut a, inputs) = funded_leader(1);
        let tx = spend(&a, inputs[0], 900_000);
        let item = InvItem::new(InvKind::Transaction, tx.txid());
        let queued = a.handle(1_100, relayed(5, &tx));
        assert_eq!(sends(&queued), vec![], "no inv yet");
        assert!(!a.mempool_contains(&tx.txid()));
        // Queued is held (here within the millisecond a lone frame waits): an
        // announcement of it is not answered with a request, and a request for it
        // is not served.
        let announced = deliver(&mut a, 1_100, 6, Message::Inv(vec![item]));
        assert_eq!(sends(&announced), vec![]);
        let requested = deliver(&mut a, 1_100, 7, Message::GetData(vec![item]));
        assert_eq!(sends(&requested), vec![]);
        // Production flushes first: the transaction is admitted, announced to the
        // one peer that has not announced it and is not its source, and only then
        // selected.
        let effects = produce(&mut a, 1_103);
        assert_eq!(sends(&effects)[0], (7, "inv"));
        let order: Vec<&ReportEvent> = reports(&effects).collect();
        assert!(matches!(order[0], ReportEvent::TxAccepted { .. }));
        assert!(order
            .iter()
            .any(|e| matches!(e, ReportEvent::MicroblockProduced { .. })));
        assert!(a.chainstate().is_confirmed(&tx.txid()));
    }

    #[test]
    fn a_block_from_a_peer_flushes_the_queue_before_it_is_handled() {
        let (mut a, inputs) = funded_leader(1);
        let tx = spend(&a, inputs[0], 900_000);
        a.handle(1_100, relayed(5, &tx));
        let key_block = a.node().clone().mine_key_block(1_200);
        let effects = deliver(&mut a, 1_200, 6, Message::KeyBlock(Box::new(key_block)));
        let events: Vec<&ReportEvent> = reports(&effects).collect();
        assert!(matches!(events[0], ReportEvent::TxAccepted { .. }));
        assert!(a.mempool_contains(&tx.txid()));
    }

    #[test]
    fn a_lone_frame_waits_one_millisecond_for_company() {
        let (mut a, inputs) = funded_leader(3);
        let txs: Vec<Transaction> = inputs
            .iter()
            .map(|input| spend(&a, *input, 900_000))
            .collect();
        // Alone, a frame is admitted by the tick its millisecond arms.
        let effects = a.handle(1_100, relayed(5, &txs[0]));
        assert!(effects.contains(&Effect::SetTimer { deadline_ms: 1_101 }));
        assert_eq!(accepted(&a.handle(1_101, Input::Tick)), vec![txs[0].txid()]);
        // A second frame within that millisecond makes a batch, which waits for
        // the deadline.
        a.handle(1_200, relayed(5, &txs[1]));
        a.handle(1_200, relayed(6, &txs[2]));
        assert_eq!(a.chain.admission_due_ms(), Some(1_200 + ADMISSION_DEADLINE_MS));
        assert_eq!(accepted(&a.handle(1_201, Input::Tick)), vec![]);
        let due = 1_200 + ADMISSION_DEADLINE_MS;
        assert_eq!(accepted(&a.handle(due, Input::Tick)).len(), 2);
    }

    #[test]
    fn a_submit_while_frames_are_queued_is_answered_in_its_own_effects() {
        let (mut a, inputs) = funded_leader(3);
        let queued = spend(&a, inputs[0], 900_000);
        a.handle(1_100, relayed(5, &queued));
        // An independent submit is admitted at once; the queue waits (every input
        // here lands within the millisecond a lone frame waits).
        let mine = spend(&a, inputs[1], 900_000);
        let effects = a.handle(1_100, Input::SubmitTx(Box::new(mine.clone())));
        assert_eq!(accepted(&effects), vec![mine.txid()]);
        assert!(a.chain.queued(&queued.txid()));
        // A submit spending a queued transaction flushes the queue first.
        let child = spend(&a, OutPoint::new(queued.txid(), 0), 800_000);
        let effects = a.handle(1_100, Input::SubmitTx(Box::new(child.clone())));
        assert_eq!(accepted(&effects), vec![queued.txid(), child.txid()]);
        // A refused submit is answered with its reason, the queue untouched.
        let other = spend(&a, inputs[2], 900_000);
        a.handle(1_103, relayed(5, &other));
        let forged = forge(spend(&a, inputs[2], 1));
        let effects = a.handle(1_103, Input::SubmitTx(Box::new(forged.clone())));
        let reason = AdmitReject::Invalid(TxError::BadSignature(inputs[2]));
        assert_eq!(refused(&effects, forged.txid()), Some(reason));
        assert!(a.chain.queued(&other.txid()));
    }

    #[test]
    fn an_engine_with_a_queued_transaction_always_has_a_timer_armed() {
        let (mut a, inputs) = funded_leader(40);
        let txs: Vec<Transaction> = inputs
            .iter()
            .map(|input| spend(&a, *input, 900_000))
            .collect();
        let armed = |a: &Engine, now: u64| match a.chain.admission_due_ms() {
            None => true,
            Some(due) => due > now && a.last_timer.is_some_and(|at| at <= due),
        };
        let mut now = 1_100;
        let mut pooled = 0;
        for (i, pair) in txs.chunks(2).enumerate() {
            // Two frames every 3 ms from two peers, with ticks between: a pair
            // waits for the deadline, not the lone frame's millisecond.
            for (peer, tx) in [5, 6].into_iter().zip(pair) {
                pooled += accepted(&a.handle(now, relayed(peer, tx))).len();
                assert!(armed(&a, now), "after the frames of pair {i}");
            }
            if let Some(at) = a.last_timer.filter(|at| *at <= now + 3) {
                let effects = a.handle(at, Input::Tick);
                pooled += accepted(&effects).len();
                assert!(armed(&a, at), "after the tick at {at}");
            }
            now += 3;
        }
        let due = a.chain.admission_due_ms().expect("the last frames wait");
        assert!(due <= now - 3 + ADMISSION_DEADLINE_MS);
        pooled += accepted(&a.handle(due, Input::Tick)).len();
        assert_eq!(pooled, 40, "every deadline tick admitted what waited");
        assert_eq!(a.chain.admission_due_ms(), None);
    }

    /// The one effect of a submit the chain refused: its reason.
    fn refused(effects: &[Effect], txid: Hash256) -> Option<AdmitReject> {
        match effects {
            [Effect::Report(ReportEvent::TxRejected { txid: id, reason })] if *id == txid => {
                Some(reason.clone())
            }
            _ => None,
        }
    }

    #[test]
    fn duplicate_and_confirmed_submits_change_nothing_and_say_why() {
        let mut a = engine(1);
        a.handle(1_000, Input::MineKeyBlock);
        let tx = test_tx(7);
        let accepted = a.handle(1_100, Input::SubmitTx(Box::new(tx.clone())));
        assert!(accepted
            .iter()
            .any(|e| matches!(e, Effect::Report(ReportEvent::TxAccepted { .. }))));
        // A duplicate is refused with its reason, and nothing else happens.
        let dup = a.handle(1_101, Input::SubmitTx(Box::new(tx.clone())));
        assert_eq!(refused(&dup, tx.txid()), Some(AdmitReject::AlreadyPooled));
        // Serialize it; resubmitting the now-confirmed tx is refused too.
        produce(&mut a, 1_200);
        assert_eq!(a.mempool_len(), 0);
        let confirmed = a.handle(1_300, Input::SubmitTx(Box::new(tx.clone())));
        let reason = refused(&confirmed, tx.txid());
        assert_eq!(reason, Some(AdmitReject::AlreadyConfirmed));
        assert_eq!(a.mempool_len(), 0);
        // A peer's copy of a transaction this node holds is gossip redundancy:
        // no report at all.
        register_peer(&mut a, 4);
        assert_eq!(deliver(&mut a, 1_400, 4, Message::Tx(Box::new(tx))), vec![]);
    }

    #[test]
    fn an_in_pool_double_spend_is_refused_as_one() {
        let mut a = engine(1);
        a.handle(1_000, Input::MineKeyBlock);
        let spend = |coins| {
            TransactionBuilder::new()
                .input(OutPoint::new(sha256(b"coin"), 0))
                .output(Amount::from_coins(coins), KeyPair::from_id(9).address())
                .build()
        };
        a.handle(1_100, Input::SubmitTx(Box::new(spend(1))));
        let rival = spend(2);
        let effects = a.handle(1_101, Input::SubmitTx(Box::new(rival.clone())));
        let reason = refused(&effects, rival.txid());
        assert_eq!(reason, Some(AdmitReject::DoubleSpend));
        assert_eq!(a.mempool_len(), 1);
    }

    #[test]
    fn chained_unconfirmed_transactions_are_admitted_and_serialized() {
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

        produce(&mut a, 1_200);
        assert_eq!(a.mempool_len(), 0, "parent and child both serialized");
        assert!(a.chainstate().is_confirmed(&parent.txid()));
        assert!(a.chainstate().is_confirmed(&child.txid()));
        assert_eq!(
            a.utxo().balance_of(&KeyPair::from_id(3).address()),
            Amount::from_coins(24)
        );
    }

    #[test]
    fn reorg_readmits_chained_transactions_across_blocks() {
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
        produce(&mut a, 1_200);
        a.handle(1_300, Input::SubmitTx(Box::new(child.clone())));
        produce(&mut a, 1_400);
        assert!(a.chainstate().is_confirmed(&parent.txid()));
        assert!(a.chainstate().is_confirmed(&child.txid()));

        // Rival branch: two key blocks on the shared epoch outweigh the microblocks.
        let kb1 = a.node().chain().get(&kb1_id).expect("key block").clone();
        let mut rival = ng_core::node::NgNode::new(2, validated_params(), 0);
        rival.on_block(kb1, 1_001).unwrap();
        let rival_kb1 = rival.mine_and_adopt_key_block(2_000);
        let rival_kb2 = rival.mine_and_adopt_key_block(2_100);
        register_peer(&mut a, 5);
        deliver(&mut a, 3_000, 5, Message::KeyBlock(Box::new(rival_kb1)));
        deliver(&mut a, 3_001, 5, Message::KeyBlock(Box::new(rival_kb2.clone())));
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
        produce(&mut a, 4_000);
        assert!(!a.is_leader() || a.mempool_len() == 0);
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
        // Rejected outright: nothing pooled, no production timer to spin.
        let txid = big.txid();
        let effects = a.handle(1_100, Input::SubmitTx(Box::new(big)));
        assert_eq!(refused(&effects, txid), Some(AdmitReject::Oversized));
        assert_eq!(a.mempool_len(), 0);
    }
}
