//! Observability bridge between the pure engine and the metrics layer.
//!
//! The engine never counts anything itself — it stays a deterministic function of
//! its inputs. Drivers pass every [`ReportEvent`] carried by an
//! [`Effect::Report`](crate::engine::Effect::Report) to [`record`], which bumps the
//! matching [`NodeCounters`]; transport-level counters (messages, connections,
//! disconnects, timer wakeups, broadcasts) are the driver's own business. The
//! [`NodeSnapshot`] assembled from an engine plus a counter snapshot is what both
//! drivers hand to the convergence harnesses.

use crate::engine::{AdmitReject, Engine, ReportEvent};
use ng_crypto::sha256::Hash256;
use ng_metrics::counters::{CounterSnapshot, NodeCounters};

/// Applies one reported protocol event to a node's counters.
pub fn record(counters: &NodeCounters, event: &ReportEvent) {
    match event {
        ReportEvent::PeerReady { .. } => {}
        ReportEvent::PeerMisbehaved { .. } => counters.peers_misbehaved.incr(),
        ReportEvent::LedgerRolled {
            connected,
            disconnected,
        } => {
            counters.ledger_blocks_connected.add(*connected);
            counters.ledger_blocks_disconnected.add(*disconnected);
        }
        ReportEvent::BlockAccepted { reorg, .. } => {
            counters.blocks_accepted.incr();
            if *reorg {
                counters.reorgs.incr();
            }
        }
        ReportEvent::BlockDuplicate { .. } => counters.blocks_duplicate.incr(),
        ReportEvent::BlockOrphaned { .. } => counters.blocks_orphaned.incr(),
        ReportEvent::BlockRejected { .. } => counters.blocks_rejected.incr(),
        ReportEvent::KeyBlockMined { .. } => {
            counters.key_blocks_mined.incr();
            counters.blocks_accepted.incr();
        }
        ReportEvent::MicroblockProduced { .. } => {
            counters.microblocks_produced.incr();
            counters.blocks_accepted.incr();
        }
        ReportEvent::TxAccepted { .. } => counters.txs_accepted.incr(),
        ReportEvent::TxRejected { reason, .. } => match reason {
            AdmitReject::AlreadyPooled => counters.txs_rejected_pooled.incr(),
            AdmitReject::AlreadyConfirmed => counters.txs_rejected_confirmed.incr(),
            AdmitReject::Oversized => counters.txs_rejected_oversized.incr(),
            AdmitReject::Invalid(_) => counters.txs_rejected_invalid.incr(),
            AdmitReject::DoubleSpend => counters.txs_rejected_double_spend.incr(),
        },
        ReportEvent::SyncRequestServed { .. } => counters.sync_requests_served.incr(),
        ReportEvent::SyncBatchReceived { .. } => counters.sync_batches_received.incr(),
        ReportEvent::StorageFailed { .. } => counters.storage_failures.incr(),
        ReportEvent::CheckpointWritten { .. } => counters.checkpoints_written.incr(),
        ReportEvent::SnapshotServed { .. } => counters.snapshots_served.incr(),
        ReportEvent::SnapshotApplied { .. } => counters.snapshots_applied.incr(),
        ReportEvent::SnapshotRejected { .. } => counters.snapshots_rejected.incr(),
        ReportEvent::SyncPeerEvicted { .. } => counters.sync_peers_evicted.incr(),
        ReportEvent::BackfillCompleted { blocks } => counters.backfill_blocks.add(*blocks),
        ReportEvent::CompactReconstructed { fetched, .. } => {
            counters.compact_reconstructed.incr();
            counters.compact_txs_fetched.add(*fetched as u64);
        }
        ReportEvent::CompactFallback { .. } => counters.compact_fallbacks.incr(),
        ReportEvent::OverlayGraft { .. } => counters.overlay_grafts.incr(),
        ReportEvent::OverlayPrune { .. } => counters.overlay_prunes.incr(),
        ReportEvent::PoisonDetected { .. } => counters.poison_detected.incr(),
        ReportEvent::PoisonRelayed { .. } => counters.poison_relayed.incr(),
        ReportEvent::PoisonAccepted { .. } => counters.poison_accepted.incr(),
        ReportEvent::PoisonRejected { .. } => counters.poison_rejected.incr(),
    }
}

/// A point-in-time view of one node, as reported to the harness.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct NodeSnapshot {
    /// The node id.
    pub id: u64,
    /// Current main-chain tip.
    pub tip: Hash256,
    /// Height of the tip.
    pub height: u64,
    /// Commitment to the UTXO set derived from the main chain.
    pub utxo_commitment: Hash256,
    /// Total blocks known (key + micro, excluding orphans).
    pub chain_len: usize,
    /// Pending transactions in the mempool.
    pub mempool_len: usize,
    /// Connections whose handshake completed.
    pub ready_peers: usize,
    /// True if this node is the current leader.
    pub is_leader: bool,
    /// The node's view of the current leader.
    pub leader: Option<u64>,
    /// Event counters.
    pub counters: CounterSnapshot,
}

impl NodeSnapshot {
    /// Assembles a snapshot from an engine plus its driver's counters.
    pub fn collect(engine: &Engine, counters: CounterSnapshot) -> Self {
        NodeSnapshot {
            id: engine.id(),
            tip: engine.tip(),
            height: engine.height(),
            utxo_commitment: engine.utxo_commitment(),
            chain_len: engine.chain_len(),
            mempool_len: engine.mempool_len(),
            ready_peers: engine.ready_peer_count(),
            is_leader: engine.is_leader(),
            leader: engine.current_leader(),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Input};
    use ng_core::params::NgParams;

    #[test]
    fn events_map_onto_the_expected_counters() {
        let counters = NodeCounters::new();
        record(
            &counters,
            &ReportEvent::BlockAccepted {
                id: Hash256::ZERO,
                tip_changed: true,
                reorg: true,
            },
        );
        record(&counters, &ReportEvent::KeyBlockMined { id: Hash256::ZERO });
        record(
            &counters,
            &ReportEvent::MicroblockProduced { id: Hash256::ZERO },
        );
        record(&counters, &ReportEvent::TxAccepted { txid: Hash256::ZERO });
        let rejected = |reason| ReportEvent::TxRejected {
            txid: Hash256::ZERO,
            reason,
        };
        record(&counters, &rejected(AdmitReject::AlreadyPooled));
        record(&counters, &rejected(AdmitReject::DoubleSpend));
        let outpoint = ng_chain::transaction::OutPoint::new(Hash256::ZERO, 0);
        let forged = ng_chain::error::TxError::BadSignature(outpoint);
        record(&counters, &rejected(AdmitReject::Invalid(forged)));
        record(&counters, &ReportEvent::SyncRequestServed { peer: 1 });
        let snap = counters.snapshot();
        assert_eq!(snap.blocks_accepted, 3, "remote + mined + produced");
        assert_eq!(snap.reorgs, 1);
        assert_eq!(snap.key_blocks_mined, 1);
        assert_eq!(snap.microblocks_produced, 1);
        assert_eq!(snap.txs_accepted, 1);
        assert_eq!(snap.txs_rejected_pooled, 1);
        assert_eq!(snap.txs_rejected_double_spend, 1);
        assert_eq!(snap.txs_rejected_invalid, 1);
        assert_eq!(snap.txs_rejected_confirmed + snap.txs_rejected_oversized, 0);
        assert_eq!(snap.sync_requests_served, 1);
    }

    #[test]
    fn snapshot_mirrors_the_engine() {
        let mut engine = Engine::new(EngineConfig::new(7, NgParams::default()));
        engine.handle(1_000, Input::MineKeyBlock);
        let snap = NodeSnapshot::collect(&engine, CounterSnapshot::default());
        assert_eq!(snap.id, 7);
        assert_eq!(snap.height, 1);
        assert!(snap.is_leader);
        assert_eq!(snap.leader, Some(7));
        assert_eq!(snap.tip, engine.tip());
        assert_eq!(snap.utxo_commitment, engine.utxo_commitment());
    }
}
