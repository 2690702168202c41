//! The chain component: the block tree, the ledger view, the mempool and the
//! durable backend behind them.

use super::{Effect, EngineConfig, ReportEvent, SnapshotPin};
use crate::chainstate::ChainView;
use ng_chain::mempool::Mempool;
use ng_chain::utxo::UtxoSet;
use ng_core::block::NgBlock;
use ng_core::node::NgNode;
use ng_crypto::sha256::Hash256;
use ng_net::message::WireSnapshot;
use ng_storage::{ChainStorage, Snapshot, StoreError};

/// Everything this node knows about the ledger, and where it persists it.
#[derive(Debug)]
pub(super) struct Chain {
    /// The protocol node. Its block tree is the one store of blocks: `getdata`,
    /// `graft`, `getblocktxn` and eager pushes all read from it.
    pub(super) node: NgNode,
    /// The one store of pending transactions (`getdata(tx)` reads it first).
    pub(super) mempool: Mempool,
    /// The incremental ledger view: UTXO set, confirmed-txid set and rolling
    /// commitment, maintained by connecting/disconnecting blocks (never by replay).
    pub(super) view: ChainView,
    /// The durable backend, when this engine persists ([`super::Engine::set_storage`]).
    /// `None` keeps the engine pure (SimNet, unit tests): no file system, no
    /// non-determinism. Storage failures are surfaced as
    /// [`ReportEvent::StorageFailed`] effects, never panics — a full disk degrades
    /// the node to in-memory operation instead of killing consensus.
    pub(super) storage: Option<Box<dyn ng_storage::ChainStorage>>,
    /// Height of the last snapshot written, gating the checkpoint cadence.
    pub(super) last_snapshot_height: u64,
    /// Newest checkpoint snapshot held in memory — what `getsnapshot` requests are
    /// served from (falling back to `storage.latest_snapshot()`). Filled by the
    /// checkpoint cadence and by a successfully applied bootstrap snapshot.
    pub(super) latest_snapshot: Option<ng_storage::Snapshot>,
}

impl Chain {
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

    /// The block tree to read and the ledger view to write, together: what the
    /// fraud component needs to apply a poison's revocation and bounty.
    pub(super) fn ledger_mut(&mut self) -> (&NgNode, &mut ChainView) {
        (&self.node, &mut self.view)
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
        let tree = ng_core::chain::NgChainState::from_root(
            cfg.params,
            cfg.tie_break_seed,
            root.clone(),
            height,
            total_work,
        );
        self.node = NgNode::from_chain(cfg.id, tree);
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
}

/// Runs one write against the durable backend, if there is one. A failure is
/// surfaced as [`ReportEvent::StorageFailed`] and `false` — never a panic, never
/// an early return for the caller to forget: a full disk degrades the node to
/// in-memory operation instead of killing consensus.
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
            effects.push(Effect::Report(ReportEvent::StorageFailed {
                reason: err.to_string(),
            }));
            false
        }
    }
}
