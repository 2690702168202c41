//! The incremental chainstate: a ledger view maintained by *connecting* and
//! *disconnecting* blocks instead of replaying the chain from genesis.
//!
//! PR 3's engine re-derived its UTXO set and confirmed-transaction set with
//! [`crate::ledger::rebuild_utxo`] on **every** tip change — O(chain length) work per
//! microblock, directly against the paper's claim that microblock throughput is
//! bounded only by network capacity (§4, §8). Worse, the replay applied microblock
//! transactions unchecked, so a Byzantine leader could spend nonexistent outputs or
//! mint value and every honest node would still "converge" on the corrupt ledger.
//!
//! [`ChainView`] fixes both structurally:
//!
//! * **Incremental**: the view tracks the block it currently reflects (its *anchor*)
//!   and rolls to a new tip by walking the fork — disconnecting with the per-block
//!   [`BlockUndo`] records stored in the chain store, connecting by applying each
//!   block's effects. Per-block cost is O(transactions in the block), independent of
//!   chain length; the set commitment is the UTXO set's O(1) rolling commitment.
//! * **Validate-on-connect**: when [`NgParams::validate_transactions`] is set (the
//!   default), every microblock transaction is fully validated against the live UTXO
//!   view as the block connects — inputs exist and are unspent, coinbase maturity,
//!   input signatures (through a bounded [`SigCache`], so reorg-reconnected and
//!   gossip-revalidated transactions skip re-verification), and value conservation.
//!   A microblock whose payload is a `Payload::Synthetic` summary fails outright:
//!   its self-declared fees would raise the next coinbase allowance unchecked.
//!   A failing block makes [`ChainView::sync`] return a [`ConnectError`]; the engine
//!   invalidates the block out of the tree and disconnects the peer that sent it.
//!
//! [`crate::ledger::rebuild_utxo`] remains as the differential-testing oracle: the
//! equivalence suite drives arbitrary reorg schedules and asserts the incremental
//! view and a fresh replay agree at every step.

use ng_chain::amount::Amount;
use ng_chain::error::TxError;
use ng_chain::sigcache::{BatchExecutor, BatchVerifier, SigCache};
use ng_chain::transaction::{OutPoint, Transaction, TxOutput};
use ng_chain::undo::BlockUndo;
use ng_chain::utxo::{TxUndo, UtxoEntry, UtxoSet};
use ng_core::block::{KeyBlock, NgBlock};
use ng_crypto::keys::Address;
use ng_core::chain::NgChainState;
use ng_core::params::NgParams;
use ng_crypto::sha256::Hash256;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a block could not join the ledger view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectError {
    /// The offending block.
    pub block: Hash256,
    /// Index of the failing transaction within the block's payload.
    pub tx_index: usize,
    /// What the transaction did wrong.
    pub error: TxError,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block {} transaction {} invalid: {}",
            self.block, self.tx_index, self.error
        )
    }
}

/// Why a [`ChainView::sync`] could not complete. The roll is transactional: on any
/// error the view rests at a consistent block (never mid-block, never mid-reorg
/// with a consumed undo record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// A connecting block failed transaction validation; the view stopped at its
    /// parent. Invalidate the offender and sync again.
    Connect(ConnectError),
    /// A block on the disconnect path has no undo record, so the reorg can never
    /// be executed. Detected *before* the first block is touched — the view is
    /// unchanged. Unreachable under the finality discipline (undo records are only
    /// pruned below finality, and forks below finality are refused on insert), but
    /// a corrupted store must surface as an error, not a panic mid-rewind.
    UnwindableBlock {
        /// The connected block that cannot be rewound.
        block: Hash256,
    },
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::Connect(err) => err.fmt(f),
            SyncError::UnwindableBlock { block } => {
                write!(f, "block {block} has no undo record and cannot be rewound")
            }
        }
    }
}

impl From<ConnectError> for SyncError {
    fn from(err: ConnectError) -> Self {
        SyncError::Connect(err)
    }
}

/// What changed across one [`ChainView::sync`]: the engine rolls its mempool from
/// this instead of re-deriving the whole confirmed set.
#[derive(Clone, Debug, Default)]
pub struct SyncDelta {
    /// Transaction ids newly serialized on the main chain, in connect order.
    pub connected_txids: Vec<Hash256>,
    /// Transactions of disconnected microblocks in **chain order** (oldest block
    /// first, block order within) — parents always precede the children that spend
    /// them, so re-admission can resolve chained spends front to back.
    pub disconnected_txs: Vec<Transaction>,
    /// Blocks connected to the view.
    pub connected_blocks: u64,
    /// Blocks disconnected from the view.
    pub disconnected_blocks: u64,
    /// Ids of the connected blocks, in connect order — the durable backend logs a
    /// roll commit from these.
    pub connected_block_ids: Vec<Hash256>,
    /// Ids of the disconnected blocks, in disconnect order (tip first).
    pub disconnected_block_ids: Vec<Hash256>,
}

impl SyncDelta {
    /// True if the sync was a no-op (view already at the tip).
    pub fn is_empty(&self) -> bool {
        self.connected_blocks == 0 && self.disconnected_blocks == 0
    }
}

/// The incremental ledger view. See the module docs.
#[derive(Clone)]
pub struct ChainView {
    /// The block the view currently reflects (always in the chain store).
    anchor: Hash256,
    utxo: UtxoSet,
    /// Reference-counted ids of transactions serialized on the connected prefix
    /// (counted, not set-membership: an unchecked chain may serialize one id twice).
    confirmed: HashMap<Hash256, u32>,
    /// Poisoner-bounty outpoints currently minted (out-of-band, by
    /// [`Self::apply_poison_revocation`]). A bounty absent from the UTXO set but
    /// present here was *spent*, not unminted — re-asserting the poison must not
    /// re-issue it, and a late competing poison must not mint a second one while
    /// the first bounty's value is already in circulation. One entry per accepted
    /// poison (the protocol caps those), removed on revert.
    minted_bounties: std::collections::BTreeSet<OutPoint>,
    sig_cache: SigCache,
    /// Whether connects fully validate transactions (`NgParams::validate_transactions`).
    validate: bool,
    /// Optional worker-pool executor for signature batches. Installed by the
    /// *drivers* (TCP daemon, testnet harness); the engine itself never spawns
    /// threads, and without an executor every batch verifies inline with identical
    /// results — SimNet scenarios stay deterministic and single-threaded.
    executor: Option<Arc<dyn BatchExecutor>>,
}

impl std::fmt::Debug for ChainView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainView")
            .field("anchor", &self.anchor)
            .field("utxo", &self.utxo.len())
            .field("confirmed", &self.confirmed.len())
            .field("validate", &self.validate)
            .field("parallel", &self.executor.is_some())
            .finish()
    }
}

impl ChainView {
    /// A view anchored at the genesis block (whose coinbase is empty) for the given
    /// parameter set.
    pub fn new(params: &NgParams, genesis: Hash256) -> Self {
        ChainView {
            anchor: genesis,
            utxo: UtxoSet::with_maturity(params.coinbase_maturity),
            confirmed: HashMap::new(),
            minted_bounties: std::collections::BTreeSet::new(),
            sig_cache: SigCache::default(),
            validate: params.validate_transactions,
            executor: None,
        }
    }

    /// Reconstructs a view from durable snapshot state: the anchor block it
    /// reflected, its full UTXO set and its confirmed-transaction refcounts. The
    /// restart path — the node then [`Self::sync`]s forward from the anchor to the
    /// recovered tip instead of replaying from genesis.
    pub fn restore(
        params: &NgParams,
        anchor: Hash256,
        utxo: UtxoSet,
        confirmed: HashMap<Hash256, u32>,
    ) -> Self {
        ChainView {
            anchor,
            utxo,
            confirmed,
            minted_bounties: std::collections::BTreeSet::new(),
            sig_cache: SigCache::default(),
            validate: params.validate_transactions,
            executor: None,
        }
    }

    /// The confirmed-transaction refcounts (serialized into durable snapshots,
    /// restored through [`Self::restore`]).
    pub fn confirmed_counts(&self) -> &HashMap<Hash256, u32> {
        &self.confirmed
    }

    /// Installs a worker-pool executor: connect-time signature batches split into
    /// one chunk per worker and verify concurrently. Verification results are
    /// identical with or without an executor — this is purely a throughput knob,
    /// which is why it may be installed by drivers without consensus implications.
    pub fn set_batch_executor(&mut self, executor: Arc<dyn BatchExecutor>) {
        self.executor = Some(executor);
    }

    /// A batch verifier wired to this view's executor (inline when none).
    fn new_batch(&self) -> BatchVerifier {
        match &self.executor {
            Some(executor) => BatchVerifier::with_executor(executor.clone()),
            None => BatchVerifier::new(),
        }
    }

    /// The block the view currently reflects.
    pub fn anchor(&self) -> Hash256 {
        self.anchor
    }

    /// Read access to the live UTXO set.
    pub fn utxo(&self) -> &UtxoSet {
        &self.utxo
    }

    /// The O(1) rolling commitment to the UTXO set.
    pub fn commitment(&self) -> Hash256 {
        self.utxo.rolling_commitment()
    }

    /// True if full transaction validation is enabled for this view.
    pub fn validating(&self) -> bool {
        self.validate
    }

    /// True if the transaction id is serialized on the connected chain prefix.
    pub fn is_confirmed(&self, txid: &Hash256) -> bool {
        self.confirmed.contains_key(txid)
    }

    /// Number of distinct confirmed transaction ids (oracle tests compare this).
    pub fn confirmed_len(&self) -> usize {
        self.confirmed.len()
    }

    /// Signature-cache statistics `(hits, misses)`.
    pub fn sig_cache_stats(&self) -> (u64, u64) {
        (self.sig_cache.hits(), self.sig_cache.misses())
    }

    /// The fee a transaction would pay if admitted at `height`, under this view's
    /// validation policy: full (cached-signature) validation when validating,
    /// otherwise the unchecked fee with zero as the unknown-input fallback.
    pub fn admission_fee(&mut self, tx: &Transaction, height: u64) -> Result<Amount, TxError> {
        self.chained_admission_fee(tx, height, &|_| None)
    }

    /// Like [`Self::admission_fee`], but inputs missing from the UTXO view may
    /// resolve through `resolve` (the engine passes a lookup into its mempool, so a
    /// chained spend of a pending parent validates fully — signatures, vouts and
    /// value conservation included — and its verification lands in the signature
    /// cache for connect time).
    pub fn chained_admission_fee(
        &mut self,
        tx: &Transaction,
        height: u64,
        resolve: ng_chain::utxo::InputResolver<'_>,
    ) -> Result<Amount, TxError> {
        if !self.validate {
            return Ok(self.utxo.fee_unchecked(tx).unwrap_or(Amount::ZERO));
        }
        let mut verdicts = self.batch_admission_fees([(tx.txid(), tx)], height, resolve);
        verdicts.pop().expect("one verdict per transaction")
    }

    /// The verdicts on a batch of transactions admitted together at `height`, in
    /// batch order: each the fee it would pay, or why it may not be pooled. What
    /// one signature batch decides for a whole admission queue.
    ///
    /// Each transaction is fully validated (signatures, vouts, value
    /// conservation): inputs missing from the view resolve through `pooled`,
    /// then through the outputs of the batch's earlier transactions that passed
    /// so far, so a parent and its child arriving together both pass. Every uncached signature is
    /// deferred into one [`BatchVerifier`] (with this view's executor) and
    /// checked by a single flush, which names every failing transaction; those
    /// fail with [`TxError::BadSignature`] and the rest are cached. A child whose
    /// in-batch parent fails here still passes: the caller, pooling in batch
    /// order, refuses it when it finds the parent refused.
    pub(crate) fn batch_admission_fees<'a>(
        &mut self,
        txs: impl IntoIterator<Item = (Hash256, &'a Transaction)>,
        height: u64,
        pooled: ng_chain::utxo::InputResolver<'_>,
    ) -> Vec<Result<Amount, TxError>> {
        debug_assert!(self.validate, "only a validating view batches admission");
        let mut batch = self.new_batch();
        let mut verdicts = Vec::new();
        // Position and body of every transaction that passed so far, by txid.
        let mut passed: HashMap<Hash256, (usize, &Transaction)> = HashMap::new();
        for (txid, tx) in txs {
            let resolve = |outpoint: &OutPoint| {
                pooled(outpoint).or_else(|| {
                    let (_, parent) = passed.get(&outpoint.txid)?;
                    parent.outputs.get(outpoint.vout as usize).copied()
                })
            };
            let deferred = batch.len();
            let verdict = self.utxo.validate_deferred_chained(
                tx,
                height,
                &mut self.sig_cache,
                &resolve,
                &mut batch,
            );
            match verdict {
                Ok(_) => {
                    passed.insert(txid, (verdicts.len(), tx));
                }
                // Never flush a refused transaction's signatures: its verdict
                // would be cached on a partial check.
                Err(_) => batch.truncate(deferred),
            }
            verdicts.push(verdict);
        }
        if let Err(failures) = batch.flush(&mut self.sig_cache) {
            for failure in failures {
                if let Some(&(index, _)) = passed.get(&failure.txid) {
                    if verdicts[index].is_ok() {
                        verdicts[index] = Err(TxError::BadSignature(failure.outpoint));
                    }
                }
            }
        }
        verdicts
    }

    /// Splits candidate transactions into the prefix-valid set (each validated
    /// against the view with all earlier selections applied, so in-payload chains
    /// are honoured) and the invalid rest with the error that disqualified each.
    /// The view is left unchanged. With validation off, every candidate is valid by
    /// definition.
    pub fn filter_valid(
        &mut self,
        txs: Vec<Transaction>,
        height: u64,
    ) -> (Vec<Transaction>, Vec<(Hash256, TxError)>) {
        if !self.validate {
            return (txs, Vec::new());
        }
        let mut valid = Vec::with_capacity(txs.len());
        let mut invalid = Vec::new();
        let mut undos: Vec<TxUndo> = Vec::with_capacity(txs.len());
        for tx in txs {
            match self.utxo.validate_cached(&tx, height, &mut self.sig_cache) {
                Ok(_) => {
                    undos.push(self.utxo.apply(&tx, height));
                    valid.push(tx);
                }
                Err(error) => invalid.push((tx.txid(), error)),
            }
        }
        for undo in undos.iter().rev() {
            self.utxo.unapply(undo);
        }
        (valid, invalid)
    }

    /// Rolls the view to the chain's current tip, disconnecting and connecting along
    /// the fork path. On a [`SyncError::Connect`] the view stops at the last good
    /// block (the failing block's parent); the caller is expected to invalidate the
    /// offender and call `sync` again.
    pub fn sync(&mut self, chain: &mut NgChainState) -> Result<SyncDelta, SyncError> {
        let target = chain.tip();
        self.sync_to(chain, target)
    }

    /// Like [`Self::sync`] but towards an explicit target block — the differential
    /// suite and the benchmarks use this to walk the view across fork branches the
    /// fork-choice rule would not select.
    pub fn sync_to(
        &mut self,
        chain: &mut NgChainState,
        target: Hash256,
    ) -> Result<SyncDelta, SyncError> {
        let mut delta = SyncDelta::default();
        self.sync_into(chain, target, &mut delta)?;
        Ok(delta)
    }

    /// The accumulating form of [`Self::sync_to`]: everything rolled — including the
    /// blocks disconnected *before* a connect failure — lands in `delta`, so a
    /// caller that invalidates the offender and retries never loses the
    /// disconnected transactions of a partially completed roll.
    pub fn sync_into(
        &mut self,
        chain: &mut NgChainState,
        target: Hash256,
        delta: &mut SyncDelta,
    ) -> Result<(), SyncError> {
        if target == self.anchor {
            return Ok(());
        }
        let fork = chain
            .store()
            .find_fork_point(&self.anchor, &target)
            .expect("anchor and target share at least the genesis block");
        // Transactional precheck: every block on the disconnect path must be
        // rewindable *before* the first one is touched. A missing undo record
        // surfaces as an error with the view untouched — never a panic halfway
        // through a reorg.
        let mut cursor = self.anchor;
        while cursor != fork {
            if chain.undo_of(&cursor).is_none() {
                return Err(SyncError::UnwindableBlock { block: cursor });
            }
            cursor = chain
                .store()
                .get(&cursor)
                .expect("disconnect path blocks exist")
                .block
                .prev();
        }
        while self.anchor != fork {
            self.disconnect_block(chain, delta);
        }
        // Walk target → fork only (never to genesis): the sync cost is bounded by
        // the fork depth, not the chain length.
        let connect_path: Vec<Hash256> = {
            let mut path = Vec::new();
            let mut cursor = target;
            while cursor != fork {
                path.push(cursor);
                cursor = chain
                    .store()
                    .get(&cursor)
                    .expect("connect path blocks exist")
                    .block
                    .prev();
            }
            path.reverse();
            path
        };
        for id in connect_path {
            self.connect_block(chain, id, delta)?;
        }
        Ok(())
    }

    /// Connects one block (a child of the current anchor) to the view, producing and
    /// storing its undo record. On a transaction failure the partially applied block
    /// is rolled back exactly and the anchor is left unchanged.
    fn connect_block(
        &mut self,
        chain: &mut NgChainState,
        id: Hash256,
        delta: &mut SyncDelta,
    ) -> Result<(), ConnectError> {
        let stored = chain.store().get(&id).expect("connect path blocks exist");
        let height = stored.height;
        let block = stored.block.clone();
        let mut undo = BlockUndo::default();
        match &block {
            NgBlock::Key(kb) => {
                for (vout, output) in kb.coinbase.iter().enumerate() {
                    let outpoint = OutPoint::new(id, vout as u32);
                    let replaced = self.utxo.insert_unchecked(
                        outpoint,
                        UtxoEntry {
                            output: *output,
                            height,
                            coinbase: true,
                        },
                    );
                    debug_assert!(replaced.is_none(), "key-block ids are unique");
                    undo.coinbase.push(outpoint);
                }
            }
            NgBlock::Micro(mb) => {
                if self.validate && mb.payload.transactions().is_none() {
                    // A synthetic summary declares its own fees, and the next key
                    // block's coinbase allowance counts them: a validating view
                    // cannot check that figure against anything, so it refuses it.
                    return Err(ConnectError {
                        block: id,
                        tx_index: 0,
                        error: TxError::SyntheticPayload,
                    });
                }
                if let Some(txs) = mb.payload.transactions() {
                    // State checks and application run per transaction (so in-block
                    // chained spends see their parents), while every uncached
                    // signature is deferred into one block-wide batch.
                    let mut batch = self.new_batch();
                    for (index, tx) in txs.iter().enumerate() {
                        if let Err(error) = self.apply_tx(tx, height, &mut undo, &mut batch) {
                            self.rollback_partial(&undo);
                            return Err(ConnectError {
                                block: id,
                                tx_index: index,
                                error,
                            });
                        }
                    }
                    if let Err(failures) = batch.flush(&mut self.sig_cache) {
                        self.rollback_partial(&undo);
                        // Jobs were deferred in block order: the first failure is
                        // the earliest bad transaction.
                        let failure = &failures[0];
                        let tx_index = txs
                            .iter()
                            .position(|tx| tx.txid() == failure.txid)
                            .expect("failing job came from this block");
                        return Err(ConnectError {
                            block: id,
                            tx_index,
                            error: TxError::BadSignature(failure.outpoint),
                        });
                    }
                }
            }
        }
        for tx_undo in &undo.txs {
            *self.confirmed.entry(tx_undo.txid).or_insert(0) += 1;
            delta.connected_txids.push(tx_undo.txid);
        }
        chain.set_undo(id, undo);
        self.anchor = id;
        delta.connected_blocks += 1;
        delta.connected_block_ids.push(id);
        Ok(())
    }

    /// Applies one transaction under the view's validation policy, appending to the
    /// block undo. Under validation the state-dependent checks run inline and the
    /// uncached signature checks land in `batch` (flushed once per block).
    fn apply_tx(
        &mut self,
        tx: &Transaction,
        height: u64,
        undo: &mut BlockUndo,
        batch: &mut BatchVerifier,
    ) -> Result<(), TxError> {
        if self.validate {
            self.utxo
                .validate_deferred(tx, height, &mut self.sig_cache, batch)?;
            undo.txs.push(self.utxo.apply(tx, height));
            return Ok(());
        }
        // Unchecked replay, byte-for-byte what `rebuild_utxo` does — but recording
        // exactly which entries existed so the block can still be rewound.
        let tx_index = undo.txs.len() as u32;
        let mut spent = Vec::with_capacity(tx.inputs.len());
        for input in &tx.inputs {
            if let Some(entry) = self.utxo.remove_unchecked(&input.outpoint) {
                spent.push((input.outpoint, entry));
            }
        }
        let txid = tx.txid();
        for (vout, output) in tx.outputs.iter().enumerate() {
            let outpoint = OutPoint::new(txid, vout as u32);
            let replaced = self.utxo.insert_unchecked(
                outpoint,
                UtxoEntry {
                    output: *output,
                    height,
                    coinbase: tx.is_coinbase(),
                },
            );
            if let Some(old) = replaced {
                undo.replaced.push((tx_index, outpoint, old));
            }
        }
        undo.txs.push(TxUndo {
            txid,
            output_count: tx.outputs.len() as u32,
            spent,
        });
        Ok(())
    }

    /// Rewinds the transactions of a partially connected block (connect failed
    /// midway): walk the recorded undos backwards, interleaving the replaced-entry
    /// restores at their recorded positions.
    /// Applies the ledger effect of an accepted poison transaction (§4.5):
    /// removes the epoch key block's still-unspent coinbase outputs paying the
    /// accused leader and mints the poisoner's bounty as a new coinbase-class
    /// output. Idempotent — re-asserting an already-applied poison (e.g. after a
    /// reorg reconnected the epoch key block and resurrected the cheater's
    /// outputs) removes only what is present and never duplicates the bounty.
    ///
    /// Determinism contract: the bounty entry's height is the epoch key block's
    /// height — not the local tip height — because [`UtxoSet::entry_digest`]
    /// hashes the height, and nodes apply the same poison at different local
    /// times. Everything here is a pure function of (key block, poison), so every
    /// honest node's commitment converges. Returns the amount actually removed.
    pub fn apply_poison_revocation(
        &mut self,
        epoch_kb: &KeyBlock,
        epoch_kb_id: Hash256,
        epoch_height: u64,
        reward_outpoint: OutPoint,
        reward: Amount,
        poisoner: Address,
    ) -> Amount {
        let cheater = epoch_kb.leader_pubkey.address();
        let mut removed = Amount::ZERO;
        for (vout, output) in epoch_kb.coinbase.iter().enumerate() {
            if output.address != cheater {
                continue;
            }
            let outpoint = OutPoint::new(epoch_kb_id, vout as u32);
            if let Some(entry) = self.utxo.remove_unchecked(&outpoint) {
                removed += entry.output.amount;
            }
        }
        if !reward.is_zero() {
            if self.utxo.contains(&reward_outpoint) {
                // Already present (e.g. restored from a snapshot taken after the
                // mint): just record that it is ours, so a later spend is
                // distinguishable from "never minted".
                self.minted_bounties.insert(reward_outpoint);
            } else if self.minted_bounties.insert(reward_outpoint) {
                // First mint. If the insert reports the outpoint was already
                // tracked, the bounty was minted earlier and has since been
                // *spent* — its value is in circulation and re-minting it here
                // (on the next re-assert after the spend) would inflate the
                // supply.
                self.utxo.insert_unchecked(
                    reward_outpoint,
                    UtxoEntry {
                        output: TxOutput::new(reward, poisoner),
                        height: epoch_height,
                        coinbase: true,
                    },
                );
            }
        }
        removed
    }

    /// True if a poisoner bounty was minted at `reward_outpoint` and has since
    /// been spent: its value is irrevocably in circulation, so the poison that
    /// minted it can no longer be displaced by a competitor (which would mint a
    /// second bounty) and a re-assert must not re-issue it.
    pub fn bounty_spent(&self, reward_outpoint: &OutPoint) -> bool {
        self.minted_bounties.contains(reward_outpoint) && !self.utxo.contains(reward_outpoint)
    }

    /// Removes a poisoner bounty minted by [`Self::apply_poison_revocation`] —
    /// either because a smaller-txid competing poison replaced it, or because the
    /// epoch key block it rode on left the main chain. The revoked coinbase
    /// outputs themselves need no restore here: a disconnect of the epoch key
    /// block rewinds them via its undo record (removal of an already-absent entry
    /// is a no-op), and a reconnect re-creates them for re-assertion.
    pub fn revert_poison_reward(&mut self, reward_outpoint: &OutPoint) -> bool {
        self.minted_bounties.remove(reward_outpoint);
        self.utxo.remove_unchecked(reward_outpoint).is_some()
    }

    fn rollback_partial(&mut self, undo: &BlockUndo) {
        for (index, tx_undo) in undo.txs.iter().enumerate().rev() {
            self.utxo.unapply(tx_undo);
            for (tx_index, outpoint, entry) in undo.replaced.iter().rev() {
                if *tx_index as usize == index {
                    self.utxo.insert_unchecked(*outpoint, *entry);
                }
            }
        }
        for outpoint in undo.coinbase.iter().rev() {
            self.utxo.remove_unchecked(outpoint);
        }
    }

    /// Disconnects the anchor block from the view using its stored undo record,
    /// moving the anchor to its parent.
    ///
    /// The undo record is *peeked* first and only consumed once the rewind has
    /// fully applied — a disconnect that panics partway (allocator failure, bug in
    /// an unapply) must not have already destroyed the record it was built from.
    fn disconnect_block(&mut self, chain: &mut NgChainState, delta: &mut SyncDelta) {
        let id = self.anchor;
        let parent = chain
            .store()
            .get(&id)
            .expect("anchored block exists")
            .block
            .prev();
        let undo = chain
            .undo_of(&id)
            .expect("sync_into prechecked the disconnect path")
            .clone();
        for tx_undo in &undo.txs {
            if let Some(count) = self.confirmed.get_mut(&tx_undo.txid) {
                *count -= 1;
                if *count == 0 {
                    self.confirmed.remove(&tx_undo.txid);
                }
            }
        }
        self.rollback_partial(&undo);
        chain.take_undo(&id);
        if let Some(txs) = chain
            .get(&id)
            .and_then(|b| b.as_micro())
            .and_then(|m| m.payload.transactions())
        {
            // Blocks disconnect tip-down; prepending each block's transactions
            // keeps the accumulated list in chain (parent-before-child) order.
            delta
                .disconnected_txs
                .splice(0..0, txs.iter().filter(|tx| !tx.is_coinbase()).cloned());
        }
        self.anchor = parent;
        delta.disconnected_blocks += 1;
        delta.disconnected_block_ids.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::rebuild_utxo;
    use ng_chain::payload::Payload;
    use ng_chain::transaction::TransactionBuilder;
    use ng_core::node::NgNode;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::SchnorrSigner;

    fn unchecked_params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 1,
            validate_transactions: false,
            ..NgParams::default()
        }
    }

    fn validated_params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 1,
            coinbase_maturity: 0,
            ..NgParams::default()
        }
    }

    fn fake_tx(seq: u64) -> Transaction {
        TransactionBuilder::new()
            .input(OutPoint::new(sha256(&seq.to_le_bytes()), 0))
            .output(Amount::from_sats(1_000 + seq), KeyPair::from_id(seq).address())
            .build()
    }

    /// Asserts the view and a fresh genesis replay agree on both commitments.
    fn assert_matches_oracle(view: &ChainView, node: &NgNode) {
        let oracle = rebuild_utxo(node.chain());
        assert_eq!(view.commitment(), oracle.rolling_commitment());
        assert_eq!(view.utxo().commitment(), oracle.commitment());
    }

    #[test]
    fn incremental_connect_tracks_the_replay_oracle() {
        let mut node = NgNode::new(1, unchecked_params(), 7);
        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        node.mine_and_adopt_key_block(1_000);
        view.sync(node.chain_mut()).unwrap();
        assert_matches_oracle(&view, &node);

        for round in 0..5u64 {
            let txs = vec![fake_tx(round * 2), fake_tx(round * 2 + 1)];
            node.produce_microblock(2_000 + round, Payload::Transactions(txs))
                .expect("leader produces");
            let delta = view.sync(node.chain_mut()).unwrap();
            assert_eq!(delta.connected_blocks, 1);
            assert_eq!(delta.connected_txids.len(), 2);
            assert_matches_oracle(&view, &node);
        }
        assert_eq!(view.confirmed_len(), 10);
        assert!(view.is_confirmed(&fake_tx(0).txid()));
        assert!(!view.is_confirmed(&fake_tx(99).txid()));
    }

    #[test]
    fn sync_to_walks_forks_back_and_forth_exactly() {
        // Build a fork: one epoch, then two competing microblock branches.
        let mut node = NgNode::new(1, unchecked_params(), 7);
        let kb = node.mine_and_adopt_key_block(1_000);
        let main1 = node
            .produce_microblock(2_000, Payload::Transactions(vec![fake_tx(1), fake_tx(2)]))
            .unwrap();
        let main2 = node
            .produce_microblock(3_000, Payload::Transactions(vec![fake_tx(3)]))
            .unwrap();
        // A competing branch signed by the same leader, parented at the key block.
        let alt_payload = Payload::Transactions(vec![fake_tx(4)]);
        let alt_header = ng_core::block::MicroHeader {
            prev: kb.id(),
            time_ms: 2_500,
            payload_digest: alt_payload.digest(),
            leader: 1,
        };
        let alt = ng_core::block::MicroBlock {
            signature: SchnorrSigner::new(*node.keys())
                .sign(&alt_header.signing_hash()),
            header: alt_header,
            payload: alt_payload,
        };
        node.on_block(NgBlock::Micro(alt.clone()), 2_501).unwrap();

        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        let delta = view.sync_to(node.chain_mut(), main2.id()).unwrap();
        assert_eq!(delta.connected_blocks, 3, "kb + two microblocks");
        let on_main = view.commitment();

        // Walk to the alt branch: two disconnects (with undo), one connect.
        let delta = view.sync_to(node.chain_mut(), alt.id()).unwrap();
        assert_eq!(delta.disconnected_blocks, 2);
        assert_eq!(delta.connected_blocks, 1);
        assert_eq!(delta.disconnected_txs.len(), 3, "main-branch txs come back");
        assert!(view.is_confirmed(&fake_tx(4).txid()));
        assert!(!view.is_confirmed(&fake_tx(1).txid()));

        // And back again: the commitment round-trips exactly.
        view.sync_to(node.chain_mut(), main2.id()).unwrap();
        assert_eq!(view.commitment(), on_main);
        assert_eq!(view.anchor(), main2.id());
        assert!(view.is_confirmed(&fake_tx(1).txid()), "reconnected via {}", main1.id());
        // Follow the fork-choice tip (whichever branch won) and pin the oracle.
        view.sync(node.chain_mut()).unwrap();
        assert_matches_oracle(&view, &node);
    }

    /// Regression (transactional disconnect): a missing undo record anywhere on
    /// the disconnect path must abort the walk *before* any mutation — the old
    /// code consumed undos one block at a time and left the view half-rewound.
    #[test]
    fn unwindable_disconnect_path_aborts_before_touching_the_view() {
        let mut node = NgNode::new(1, unchecked_params(), 7);
        let kb = node.mine_and_adopt_key_block(1_000);
        let main1 = node
            .produce_microblock(2_000, Payload::Transactions(vec![fake_tx(1), fake_tx(2)]))
            .unwrap();
        let main2 = node
            .produce_microblock(3_000, Payload::Transactions(vec![fake_tx(3)]))
            .unwrap();
        let alt_payload = Payload::Transactions(vec![fake_tx(4)]);
        let alt_header = ng_core::block::MicroHeader {
            prev: kb.id(),
            time_ms: 2_500,
            payload_digest: alt_payload.digest(),
            leader: 1,
        };
        let alt = ng_core::block::MicroBlock {
            signature: SchnorrSigner::new(*node.keys()).sign(&alt_header.signing_hash()),
            header: alt_header,
            payload: alt_payload,
        };
        node.on_block(NgBlock::Micro(alt.clone()), 2_501).unwrap();

        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        view.sync_to(node.chain_mut(), main2.id()).unwrap();

        // Lose the *deeper* undo: the walk to `alt` disconnects main2 first, so
        // a non-transactional disconnect would consume main2's undo and mutate
        // the view before discovering main1 cannot be rewound.
        let stolen = node.chain_mut().take_undo(&main1.id()).expect("undo exists");
        let before_rolling = view.commitment();
        let before_sorted = view.utxo().commitment();
        let before_confirmed = view.confirmed_len();

        let err = view.sync_to(node.chain_mut(), alt.id()).unwrap_err();
        let SyncError::UnwindableBlock { block } = err else {
            panic!("expected an unwindable-block error");
        };
        assert_eq!(block, main1.id());
        assert_eq!(view.anchor(), main2.id(), "anchor untouched");
        assert_eq!(view.commitment(), before_rolling, "ledger untouched");
        assert_eq!(view.utxo().commitment(), before_sorted);
        assert_eq!(view.confirmed_len(), before_confirmed);
        assert!(
            node.chain().undo_of(&main2.id()).is_some(),
            "no undo on the aborted path was consumed"
        );

        // Restoring the undo record lets the identical walk succeed.
        node.chain_mut().set_undo(main1.id(), stolen);
        view.sync_to(node.chain_mut(), alt.id()).unwrap();
        assert_eq!(view.anchor(), alt.id());
        assert!(view.is_confirmed(&fake_tx(4).txid()));
        assert!(!view.is_confirmed(&fake_tx(1).txid()));
    }

    #[test]
    fn validated_connect_accepts_real_spends_and_reports_fees() {
        let mut node = NgNode::new(1, validated_params(), 7);
        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        let kb = node.mine_and_adopt_key_block(1_000);
        view.sync(node.chain_mut()).unwrap();
        // The key block's coinbase (25 coins to the miner) is spendable at maturity 0.
        let coinbase_out = OutPoint::new(kb.id(), 0);
        assert!(view.utxo().contains(&coinbase_out));
        let mut spend = TransactionBuilder::new()
            .input(coinbase_out)
            .output(Amount::from_coins(24), KeyPair::from_id(2).address())
            .build();
        spend.sign_all_inputs(&SchnorrSigner::new(*node.keys()));

        let fee = view.admission_fee(&spend, 2).unwrap();
        assert_eq!(fee, Amount::from_coins(1));
        node.produce_microblock(2_000, Payload::Transactions(vec![spend.clone()]))
            .unwrap();
        let delta = view.sync(node.chain_mut()).unwrap();
        assert_eq!(delta.connected_txids, vec![spend.txid()]);
        assert!(!view.utxo().contains(&coinbase_out), "input consumed");
        assert_eq!(
            view.utxo().balance_of(&KeyPair::from_id(2).address()),
            Amount::from_coins(24)
        );
        let (hits, _) = view.sig_cache_stats();
        assert!(hits >= 1, "connect reused the admission-time verification");
        assert_matches_oracle(&view, &node);
    }

    #[test]
    fn validated_connect_rejects_phantom_spends_and_rolls_back_exactly() {
        let mut node = NgNode::new(1, validated_params(), 7);
        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        let kb = node.mine_and_adopt_key_block(1_000);
        view.sync(node.chain_mut()).unwrap();
        let clean = view.commitment();

        // A valid spend followed by a phantom spend in one block: the block must be
        // rejected as a whole and the valid prefix rolled back.
        let mut good = TransactionBuilder::new()
            .input(OutPoint::new(kb.id(), 0))
            .output(Amount::from_coins(25), KeyPair::from_id(2).address())
            .build();
        good.sign_all_inputs(&SchnorrSigner::new(*node.keys()));
        let phantom = fake_tx(77);
        node.produce_microblock(
            2_000,
            Payload::Transactions(vec![good, phantom.clone()]),
        )
        .expect("the producing node does not self-validate payloads");
        let SyncError::Connect(err) = view.sync(node.chain_mut()).unwrap_err() else {
            panic!("expected a connect error");
        };
        assert_eq!(err.tx_index, 1);
        assert!(matches!(err.error, TxError::MissingInput(_)));
        assert_eq!(view.anchor(), kb.id(), "view stays at the last good block");
        assert_eq!(view.commitment(), clean, "partial block fully rolled back");

        // Invalidating the offender and re-syncing converges on the pruned chain.
        node.chain_mut().invalidate(&err.block);
        let delta = view.sync(node.chain_mut()).unwrap();
        assert!(delta.is_empty());
        assert_matches_oracle(&view, &node);
    }

    #[test]
    fn batched_connect_rejects_forged_signature_and_rolls_back_exactly() {
        let mut node = NgNode::new(1, validated_params(), 7);
        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        let kb = node.mine_and_adopt_key_block(1_000);
        view.sync(node.chain_mut()).unwrap();
        let clean = view.commitment();

        // A spend signed by the wrong key: every state check passes except the
        // signature equation, so only the batch flush can catch it.
        let mut forged = TransactionBuilder::new()
            .input(OutPoint::new(kb.id(), 0))
            .output(Amount::from_coins(25), KeyPair::from_id(2).address())
            .build();
        forged.sign_all_inputs(&SchnorrSigner::new(*node.keys()));
        if let Some(ng_crypto::signer::SignatureBytes::Schnorr(bytes)) =
            &mut forged.inputs[0].signature
        {
            bytes[64] ^= 1;
        }
        node.produce_microblock(2_000, Payload::Transactions(vec![forged.clone()]))
            .expect("the producing node does not self-validate payloads");
        let SyncError::Connect(err) = view.sync(node.chain_mut()).unwrap_err() else {
            panic!("expected a connect error");
        };
        assert_eq!(err.tx_index, 0);
        assert!(matches!(err.error, TxError::BadSignature(_)));
        assert_eq!(view.anchor(), kb.id(), "view stays at the last good block");
        assert_eq!(view.commitment(), clean, "failed batch fully rolled back");
        let (_, misses) = view.sig_cache_stats();
        assert!(misses >= 1);
        assert!(
            !view.is_confirmed(&forged.txid()),
            "rejected transaction never confirms"
        );
    }

    #[test]
    fn parallel_executor_matches_inline_verification() {
        // The same block connects identically with and without a worker pool; the
        // pool is a throughput knob, never a semantics knob.
        let run = |executor: Option<std::sync::Arc<dyn BatchExecutor>>| {
            let mut node = NgNode::new(1, validated_params(), 7);
            let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
            if let Some(executor) = executor {
                view.set_batch_executor(executor);
            }
            let kb = node.mine_and_adopt_key_block(1_000);
            view.sync(node.chain_mut()).unwrap();
            let signer = SchnorrSigner::new(*node.keys());
            // A chain of spends so the batch holds several distinct signatures.
            let mut txs = Vec::new();
            let mut prev = OutPoint::new(kb.id(), 0);
            for coins in [24u64, 23, 22, 21] {
                let mut tx = TransactionBuilder::new()
                    .input(prev)
                    .output(Amount::from_coins(coins), node.keys().address())
                    .build();
                tx.sign_all_inputs(&signer);
                prev = OutPoint::new(tx.txid(), 0);
                txs.push(tx);
            }
            node.produce_microblock(2_000, Payload::Transactions(txs)).unwrap();
            view.sync(node.chain_mut()).unwrap();
            view.commitment()
        };
        let inline = run(None);
        let pooled = run(Some(std::sync::Arc::new(crate::parallel::WorkerPool::new(3))));
        assert_eq!(inline, pooled);
    }

    #[test]
    fn filter_valid_drops_invalid_candidates_and_preserves_chains() {
        let mut node = NgNode::new(1, validated_params(), 7);
        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        let kb = node.mine_and_adopt_key_block(1_000);
        view.sync(node.chain_mut()).unwrap();
        let before = view.commitment();

        let signer = SchnorrSigner::new(*node.keys());
        let mut parent = TransactionBuilder::new()
            .input(OutPoint::new(kb.id(), 0))
            .output(Amount::from_coins(25), node.keys().address())
            .build();
        parent.sign_all_inputs(&signer);
        // A child spending the parent's in-payload output: valid only because the
        // filter applies earlier selections before validating later ones.
        let mut child = TransactionBuilder::new()
            .input(OutPoint::new(parent.txid(), 0))
            .output(Amount::from_coins(24), KeyPair::from_id(3).address())
            .build();
        child.sign_all_inputs(&signer);
        let phantom = fake_tx(5);

        let (valid, invalid) = view.filter_valid(
            vec![parent.clone(), phantom.clone(), child.clone()],
            2,
        );
        assert_eq!(
            valid.iter().map(|t| t.txid()).collect::<Vec<_>>(),
            vec![parent.txid(), child.txid()]
        );
        assert_eq!(invalid.len(), 1);
        assert_eq!(invalid[0].0, phantom.txid());
        assert!(matches!(invalid[0].1, TxError::MissingInput(_)));
        assert_eq!(view.commitment(), before, "filtering leaves the view unchanged");
    }

    #[test]
    fn spent_bounty_is_never_reminted_and_revert_clears_tracking() {
        let mut node = NgNode::new(1, unchecked_params(), 7);
        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        let kb = node.mine_and_adopt_key_block(1_000);
        view.sync(node.chain_mut()).unwrap();

        let reward_outpoint = OutPoint::new(sha256(b"poison txid"), 0);
        let poisoner = KeyPair::from_id(9).address();
        let reward = Amount::from_sats(500);

        let removed =
            view.apply_poison_revocation(&kb, kb.id(), 1, reward_outpoint, reward, poisoner);
        assert!(!removed.is_zero(), "leader coinbase revoked");
        assert!(view.utxo().contains(&reward_outpoint), "bounty minted");
        assert!(!view.bounty_spent(&reward_outpoint));

        // Every ledger roll re-asserts: idempotent while the bounty is unspent.
        let after_mint = view.utxo().commitment();
        view.apply_poison_revocation(&kb, kb.id(), 1, reward_outpoint, reward, poisoner);
        assert_eq!(view.utxo().commitment(), after_mint);

        // The poisoner spends the matured bounty (modelled as a raw removal);
        // subsequent re-asserts must not conjure a second copy of its value.
        view.utxo.remove_unchecked(&reward_outpoint).expect("bounty present");
        assert!(view.bounty_spent(&reward_outpoint));
        let after_spend = view.utxo().commitment();
        view.apply_poison_revocation(&kb, kb.id(), 1, reward_outpoint, reward, poisoner);
        assert!(!view.utxo().contains(&reward_outpoint), "spent bounty not re-minted");
        assert_eq!(view.utxo().commitment(), after_spend);

        // Reverting (epoch key block left the main chain) clears the tracking, so
        // a later re-assertion on reconnect mints cleanly again.
        assert!(!view.revert_poison_reward(&reward_outpoint), "nothing left to remove");
        assert!(!view.bounty_spent(&reward_outpoint));
        view.apply_poison_revocation(&kb, kb.id(), 1, reward_outpoint, reward, poisoner);
        assert!(view.utxo().contains(&reward_outpoint), "fresh mint after revert");
    }
}
