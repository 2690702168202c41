//! The chain component: the block tree, the ledger view, the mempool and the
//! durable backend behind them.

use crate::chainstate::ChainView;
use ng_chain::mempool::Mempool;
use ng_core::node::NgNode;

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

    /// The block tree to read and the ledger view to write, together: what the
    /// fraud component needs to apply a poison's revocation and bounty.
    pub(super) fn ledger_mut(&mut self) -> (&NgNode, &mut ChainView) {
        (&self.node, &mut self.view)
    }
}
