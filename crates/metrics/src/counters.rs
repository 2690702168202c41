//! Lightweight atomic counters for live nodes.
//!
//! The simulator produces a complete [`crate::log::ExperimentLog`] after the fact; a
//! live daemon instead needs cheap always-on counters it can bump from its event loop
//! and expose in status reports. [`NodeCounters`] groups the counters a Bitcoin-NG
//! node maintains; [`CounterSnapshot`] is the plain-data copy handed to reports.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A single monotonically increasing event counter, safe to bump from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares the counter list once and emits the live [`NodeCounters`], the
/// plain-data [`CounterSnapshot`] and the copy between them.
macro_rules! node_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// The counters a live node maintains across its event loop.
        #[derive(Debug, Default)]
        pub struct NodeCounters {
            $($(#[$doc])* pub $name: Counter,)*
        }

        /// Point-in-time values of a [`NodeCounters`] set.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl NodeCounters {
            /// Fresh zeroed counters.
            pub fn new() -> Self {
                Self::default()
            }

            /// A plain-data copy of every counter at this instant.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.get(),)*
                }
            }
        }
    };
}

node_counters! {
    /// Messages received from peers (after decoding).
    messages_in,
    /// Messages sent to peers.
    messages_out,
    /// Connections established (inbound + outbound).
    connections,
    /// Connections lost or dropped.
    disconnects,
    /// Blocks accepted into the chain (key blocks + microblocks, local or remote).
    blocks_accepted,
    /// Blocks rejected by validation.
    blocks_rejected,
    /// Blocks buffered because their parent was unknown.
    blocks_orphaned,
    /// Duplicate blocks ignored.
    blocks_duplicate,
    /// Main-chain reorganisations applied.
    reorgs,
    /// Key blocks mined by this node.
    key_blocks_mined,
    /// Microblocks produced by this node while leader.
    microblocks_produced,
    /// Transactions accepted into the mempool.
    txs_accepted,
    /// Transactions refused because they were already pending (pooled or queued).
    txs_rejected_pooled,
    /// Transactions refused because they were already confirmed.
    txs_rejected_confirmed,
    /// Transactions refused because no microblock could carry them.
    txs_rejected_oversized,
    /// Transactions refused by validation (missing inputs, bad signatures, …).
    txs_rejected_invalid,
    /// Transactions refused as double spends of a pooled transaction.
    txs_rejected_double_spend,
    /// `getheaders` requests served to peers.
    sync_requests_served,
    /// `headers` batches received while syncing from peers.
    sync_batches_received,
    /// Timer-driven wakeups (the driver fired a deadline the engine armed via a
    /// `SetTimer` effect).
    timer_wakeups,
    /// Broadcast effects executed (one per effect, not per fan-out destination).
    broadcasts,
    /// Blocks connected to the incremental ledger view.
    ledger_blocks_connected,
    /// Blocks disconnected from the incremental ledger view (reorg rewinds).
    ledger_blocks_disconnected,
    /// Peers disconnected for protocol violations (bad handshakes, microblocks
    /// with invalid transactions).
    peers_misbehaved,
    /// Durable-storage writes that failed (the node keeps running in memory).
    storage_failures,
    /// UTXO snapshots / finality checkpoints written to durable storage.
    checkpoints_written,
    /// Checkpoint snapshots served to bootstrapping peers.
    snapshots_served,
    /// Checkpoint snapshots verified against the pin and applied (bootstrap).
    snapshots_applied,
    /// Served snapshots that failed the pinned-commitment check and were refused.
    snapshots_rejected,
    /// Peers evicted from download duty for stalling (timeouts over the cap).
    sync_peers_evicted,
    /// Historical blocks fetched by background backfill below a snapshot root.
    backfill_blocks,
    /// Compact microblock announcements reconstructed into full blocks (from the
    /// mempool alone or after a `getblocktxn` round trip).
    compact_reconstructed,
    /// Transactions fetched via `blocktxn` to complete compact reconstructions.
    compact_txs_fetched,
    /// Compact reconstructions that failed and fell back to a full-block fetch.
    compact_fallbacks,
    /// Lazy `ihave` pulls that timed out and grafted the advertising link back to
    /// eager (the overlay's self-healing move).
    overlay_grafts,
    /// Eager links demoted to lazy after delivering a duplicate push.
    overlay_prunes,
    /// Leader equivocations this node detected itself (fraud proofs constructed).
    poison_detected,
    /// Poison transactions flooded onward to peers.
    poison_relayed,
    /// Poison transactions validated and applied (revenue revoked).
    poison_accepted,
    /// Poison transactions dropped (invalid, duplicate, or losing competitor).
    poison_rejected,
}

/// Per-command wire-traffic accounting: how many messages and bytes of each
/// [`Message::command`] flavour a node sent and received. Drivers own the byte
/// counts — the SimNet charges [`Message::wire_size`] per transmission, the TCP
/// daemon can charge real frame lengths — because the pure engine never sees
/// encoded bytes. Single-writer by design (each driver owns its node's stats);
/// `&mut self` recording keeps it free of atomics.
///
/// [`Message::command`]: ../../ng_net/message/enum.Message.html#method.command
/// [`Message::wire_size`]: ../../ng_net/message/enum.Message.html#method.wire_size
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    by_command: BTreeMap<String, CommandTraffic>,
}

/// Message and byte totals of one wire command in each direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandTraffic {
    /// Messages received.
    pub msgs_in: u64,
    /// Messages sent.
    pub msgs_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes sent.
    pub bytes_out: u64,
}

impl WireStats {
    /// Fresh empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one sent message of `bytes` wire bytes to `command`.
    pub fn record_out(&mut self, command: &str, bytes: u64) {
        let entry = self.entry(command);
        entry.msgs_out += 1;
        entry.bytes_out += bytes;
    }

    /// Charges one received message of `bytes` wire bytes to `command`.
    pub fn record_in(&mut self, command: &str, bytes: u64) {
        let entry = self.entry(command);
        entry.msgs_in += 1;
        entry.bytes_in += bytes;
    }

    fn entry(&mut self, command: &str) -> &mut CommandTraffic {
        if !self.by_command.contains_key(command) {
            self.by_command
                .insert(command.to_owned(), CommandTraffic::default());
        }
        self.by_command.get_mut(command).expect("just inserted")
    }

    /// The totals of one command (zeros if never seen).
    pub fn command(&self, command: &str) -> CommandTraffic {
        self.by_command.get(command).copied().unwrap_or_default()
    }

    /// Every command with its totals, in command order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CommandTraffic)> {
        self.by_command.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total bytes sent across all commands.
    pub fn total_bytes_out(&self) -> u64 {
        self.by_command.values().map(|t| t.bytes_out).sum()
    }

    /// Total bytes received across all commands.
    pub fn total_bytes_in(&self) -> u64 {
        self.by_command.values().map(|t| t.bytes_in).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn snapshot_copies_values() {
        let counters = NodeCounters::new();
        counters.blocks_accepted.add(3);
        counters.reorgs.incr();
        let snap = counters.snapshot();
        assert_eq!(snap.blocks_accepted, 3);
        assert_eq!(snap.reorgs, 1);
        assert_eq!(snap.messages_in, 0);
        // Snapshots are decoupled from later updates.
        counters.reorgs.incr();
        assert_eq!(snap.reorgs, 1);
    }

    #[test]
    fn wire_stats_bucket_by_command_and_direction() {
        let mut stats = WireStats::new();
        stats.record_out("cmpct", 120);
        stats.record_out("cmpct", 80);
        stats.record_in("microblock", 1_000);
        stats.record_out("ihave", 49);
        let cmpct = stats.command("cmpct");
        assert_eq!(cmpct.msgs_out, 2);
        assert_eq!(cmpct.bytes_out, 200);
        assert_eq!(cmpct.bytes_in, 0);
        assert_eq!(stats.command("microblock").bytes_in, 1_000);
        assert_eq!(stats.command("never-seen"), CommandTraffic::default());
        assert_eq!(stats.total_bytes_out(), 249);
        assert_eq!(stats.total_bytes_in(), 1_000);
        // Deterministic command order for reports.
        let commands: Vec<&str> = stats.iter().map(|(c, _)| c).collect();
        assert_eq!(commands, vec!["cmpct", "ihave", "microblock"]);
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let counters = Arc::new(NodeCounters::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&counters);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.messages_in.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counters.snapshot().messages_in, 4000);
    }
}
