//! `mesh_signed` and `mesh_synth`: N engines in a `SimNet` with compact relay
//! and the broadcast overlay, autonomous microblocks, and an open-loop
//! submitter on the simulated clock. One driver, two configurations.
//!
//! The simulated clock makes the confirmation latencies and every count exact
//! for a seed; wall time and CPU time say what the simulation itself cost.

use crate::check;
use crate::host;
use crate::round::{datadir_bytes, install_storage, Artefacts, Ctx, Round};
use crate::stats;
use crate::trace;
use crate::workload::{self, OpenLoop};
use ng_chain::transaction::{OutPoint, Transaction};
use ng_core::block::NgBlock;
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::Hash256;
use ng_node::engine::GossipConfig;
use ng_node::simnet::{SimConfig, SimNet};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// One mesh workload's shape.
pub struct MeshConfig {
    /// Engines in the mesh (full mesh, seeded one-way link delay 2–20 virtual ms).
    pub nodes: usize,
    /// Full transaction validation with signed spends, or the synthetic
    /// `test_tx` stream with validation off (the paper's §7 method).
    pub validate: bool,
    /// A `FileStorage { fsync: true }` on every engine.
    pub durable: bool,
    /// Open-loop submits per virtual millisecond, round-robin over the nodes.
    pub rate_per_ms: f64,
    /// Transactions per full-size round.
    pub transactions: usize,
    /// `auto_microblocks` production interval, virtual ms.
    pub microblock_interval_ms: u64,
    /// A different node mines a key block this often (leader hand-over,
    /// §4.2–4.4); `None` keeps the first leader.
    pub handover_ms: Option<u64>,
    /// After the steady phase a fresh node joins and cold-syncs.
    pub join: bool,
}

/// The headline full path: every layer at realistic proportions.
pub const SIGNED: MeshConfig = MeshConfig {
    nodes: 3,
    validate: true,
    durable: true,
    rate_per_ms: 5.0,
    transactions: 6_000,
    microblock_interval_ms: 10,
    handover_ms: Some(500),
    join: true,
};

/// `crypto` and `storage` taken out: relay, mempool, routing and the
/// simulator itself do the work.
pub const SYNTH: MeshConfig = MeshConfig {
    nodes: 4,
    validate: false,
    durable: false,
    rate_per_ms: 20.0,
    transactions: 40_000,
    microblock_interval_ms: 10,
    handover_ms: None,
    join: false,
};

/// Virtual milliseconds the network gets to confirm the backlog after the
/// last submit before unconfirmed transactions count as failed.
const DRAIN_DEADLINE_MS: u64 = 30_000;

/// Virtual milliseconds a fresh node gets to reach the network's tip.
const JOIN_DEADLINE_MS: u64 = 120_000;

/// Fewest transactions confirmed on *every* node, not counting the first
/// `base` (the fan-out).
fn confirmed_everywhere(net: &SimNet, nodes: usize, base: usize) -> usize {
    (0..nodes)
        .map(|node| net.engine(node).chainstate().confirmed_len())
        .min()
        .unwrap_or(0)
        .saturating_sub(base)
}

/// Runs the network until every listed transaction is confirmed on every node.
fn settle(net: &mut SimNet, nodes: usize, txids: &[Hash256], errors: &mut Vec<String>) {
    for _ in 0..2_000 {
        net.run(10);
        let done = (0..nodes).all(|node| {
            let view = net.engine(node).chainstate();
            txids.iter().all(|txid| view.is_confirmed(txid))
        });
        if done {
            return;
        }
    }
    errors.push("set-up transactions were not confirmed on every node".to_string());
}

struct WireTotals {
    bytes: u64,
    messages: u64,
    tx_bytes: u64,
    deliveries: u64,
}

fn wire_totals(net: &SimNet, nodes: usize) -> WireTotals {
    let mut totals = WireTotals {
        bytes: 0,
        messages: 0,
        tx_bytes: 0,
        deliveries: 0,
    };
    for node in 0..nodes {
        let stats = net.wire_stats(node);
        totals.bytes += stats.total_bytes_out();
        totals.tx_bytes += stats.command("tx").bytes_out;
        for (_, traffic) in stats.iter() {
            totals.messages += traffic.msgs_out;
            totals.deliveries += traffic.msgs_in;
        }
    }
    totals
}

/// One round of a mesh workload.
pub fn round(cfg: &MeshConfig, ctx: &Ctx) -> Round {
    let count = ctx.scaled(cfg.transactions);
    let nodes = cfg.nodes;
    let mut out = Round {
        nodes: nodes as u64,
        durable_nodes: if cfg.durable { nodes as u64 } else { 0 },
        simulated_clock: true,
        ..Round::default()
    };

    // ---- set-up: launch nodes, mine, fan the coinbase out, pre-sign ----
    let setup_started = Instant::now();
    let mut config = SimConfig::new(nodes, ctx.link_seed());
    config.params = NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: cfg.microblock_interval_ms,
        coinbase_maturity: 0,
        validate_transactions: cfg.validate,
        ..NgParams::default()
    };
    config.auto_microblocks = true;
    config.gossip = GossipConfig::scalable();
    config.record_arrivals = true;
    let params = config.params;
    let mut net = SimNet::new(config);
    let scratch = cfg.durable.then(|| ctx.scratch_dir());
    let datadir = |node: usize| -> Option<PathBuf> {
        scratch.as_ref().map(|dir| dir.join(format!("node-{node}")))
    };
    for node in 0..nodes {
        if let Some(dir) = datadir(node) {
            install_storage(net.engine_mut(node), &dir, &ctx.tracer);
        }
    }
    let everyone: Vec<usize> = (0..nodes).collect();
    net.connect_mesh(&everyone);
    net.run(1_000);
    let key_block = net.mine_key_block(0);
    net.run(200);

    let mut fanout_txs = 0usize;
    let (mut txs, txids, wallet): (Vec<Transaction>, Vec<Hash256>, Option<KeyPair>) =
        if cfg.validate {
            let coinbase = OutPoint::new(key_block, 0);
            let value = net
                .engine(0)
                .utxo()
                .get(&coinbase)
                .expect("the mined key block pays its miner at vout 0")
                .output
                .amount;
            let owner = *net.engine(0).node().keys();
            let work = workload::signed(ctx.seed, coinbase, value, &owner, count, &params);
            for level in work.fanout {
                let ids: Vec<Hash256> = level.iter().map(Transaction::txid).collect();
                fanout_txs += level.len();
                for tx in level {
                    if !net.submit_tx(0, tx) {
                        out.errors
                            .push("a fan-out transaction was refused".to_string());
                    }
                }
                settle(&mut net, nodes, &ids, &mut out.errors);
            }
            (work.spends, work.txids, Some(work.wallet))
        } else {
            let (txs, txids) = workload::synthetic(ctx.seed, count);
            (txs, txids, None)
        };
    let prefix = net.engine(0).height() as usize;
    out.setup_s = setup_started.elapsed().as_secs_f64();

    // ---- timed region: open-loop submits on the simulated clock ----
    let schedule = OpenLoop {
        rate: cfg.rate_per_ms,
    };
    // When each accepted transaction was *due*, in virtual ms (fractional: the
    // schedule is finer than the 1 ms step the simulator is driven in).
    let mut due_ms: HashMap<Hash256, f64> = HashMap::with_capacity(count);
    let mut progress: Vec<(f64, usize)> = Vec::with_capacity(count / 10);
    let mut leader = 0usize;
    let mut accepted = 0usize;
    let bytes_before: u64 = (0..nodes)
        .filter_map(&datadir)
        .map(|d| datadir_bytes(&d))
        .sum();
    let wire_before = wire_totals(&net, nodes);
    let spans_from = trace::mark(&ctx.tracer);
    let cpu_started = host::cpu_seconds();
    let started = Instant::now();
    let started_ms = net.now_ms();
    let mut pending = txs.drain(..).zip(&txids).enumerate().peekable();
    let mut last_submit_ms = started_ms;
    loop {
        let tick = net.now_ms() - started_ms;
        if let Some(every) = cfg.handover_ms {
            if tick > 0 && tick.is_multiple_of(every) && pending.peek().is_some() {
                leader = (leader + 1) % nodes;
                trace::span(&ctx.tracer, "simnet.mine_key_block", None, || {
                    net.mine_key_block(leader)
                });
            }
        }
        while let Some((index, _)) = pending.peek() {
            if schedule.due(*index) > tick as f64 {
                break;
            }
            let (index, (tx, txid)) = pending.next().expect("peeked");
            let node = index % nodes;
            let taken = trace::span(&ctx.tracer, "simnet.submit_tx", Some(*txid), || {
                net.submit_tx(node, tx)
            });
            if taken {
                accepted += 1;
                due_ms.insert(*txid, started_ms as f64 + schedule.due(index));
            }
            last_submit_ms = net.now_ms();
        }
        trace::span(&ctx.tracer, "simnet.run", None, || net.run(1));
        let confirmed = confirmed_everywhere(&net, nodes, fanout_txs);
        if progress.last().is_none_or(|&(_, best)| confirmed > best) {
            progress.push((started.elapsed().as_secs_f64(), confirmed));
        }
        if pending.peek().is_none() {
            // Same transactions everywhere is not yet the same chain: after a
            // hand-over two branches can both hold every transaction.
            let drained = confirmed >= accepted
                && (0..nodes).all(|node| {
                    let engine = net.engine(node);
                    engine.mempool_len() == 0 && engine.tip() == net.engine(0).tip()
                });
            if drained || net.now_ms() - last_submit_ms > DRAIN_DEADLINE_MS {
                break;
            }
        }
    }
    drop(pending);
    out.timed_wall_s = started.elapsed().as_secs_f64();
    out.timed_cpu_s = host::cpu_seconds() - cpu_started;
    out.span_window = (spans_from, trace::mark(&ctx.tracer));
    let virtual_ms = net.now_ms() - started_ms;
    let wire_after = wire_totals(&net, nodes);
    out.storage_bytes = (0..nodes)
        .filter_map(&datadir)
        .map(|d| datadir_bytes(&d))
        .sum::<u64>()
        - bytes_before;
    out.blocks = net.engine(0).height() - prefix as u64;
    out.deliveries = wire_after.deliveries - wire_before.deliveries;

    // ---- correctness: convergence, oracle, exactly-once, datadir reopen ----
    let engines: Vec<_> = (0..nodes).map(|node| net.engine(node)).collect();
    check::converged(&engines, &mut out.errors);
    check::oracle(net.engine(0), &mut out.errors);
    let chain = check::main_chain_blocks(net.engine(0));
    out.confirmed = check::exactly_once(&chain, &txids, &mut out.errors);
    out.timed_txs = out.confirmed;
    out.attempted = count as u64;
    out.failed = out.attempted - out.confirmed.min(out.attempted);
    let mut open_ms = Vec::new();
    for node in 0..nodes {
        if let Some(dir) = datadir(node).filter(|_| ctx.durability_gate()) {
            let engine = net.engine(node);
            open_ms.push(check::reopen(
                &dir,
                engine.config(),
                engine.tip(),
                engine.utxo_commitment(),
                &mut out.errors,
            ));
        }
    }

    // ---- figures ----
    // Completion times: the k-th transaction completed when the slowest node's
    // confirmed count first reached k.
    let mut completions = Vec::with_capacity(count);
    let mut reached = 0usize;
    for &(at, confirmed) in &progress {
        completions.extend(std::iter::repeat_n(at, confirmed - reached));
        reached = confirmed;
    }
    // Virtual confirmation latency: due → the block that finally holds the
    // transaction is connected on the last node.
    let block_ids: Vec<Hash256> = chain.iter().map(NgBlock::id).collect();
    let mut connected_everywhere = vec![0.0f64; chain.len()];
    for node in 0..nodes {
        let firsts = block_ids.iter().map(|id| {
            let seen = net
                .arrivals(id)
                .iter()
                .find(|(at_node, _)| *at_node == node);
            seen.map(|&(_, at)| at as f64)
        });
        for (latest, at) in connected_everywhere
            .iter_mut()
            .zip(stats::connect_times(firsts))
        {
            *latest = latest.max(at);
        }
    }
    let mut latencies_ms = Vec::with_capacity(count);
    for (block, everywhere_at) in chain.iter().zip(connected_everywhere) {
        let NgBlock::Micro(micro) = block else {
            continue;
        };
        for tx in micro.payload.transactions().unwrap_or(&[]) {
            if let Some(&due) = due_ms.get(&tx.txid()) {
                latencies_ms.push((everywhere_at - due).max(0.0));
            }
        }
    }

    let depth_ratio = out.record_timed_region(&completions, latencies_ms);
    let confirmed = out.confirmed.max(1) as f64;
    let counters: Vec<_> = net.snapshots().into_iter().map(|s| s.counters).collect();
    let sum = |pick: fn(&ng_metrics::counters::CounterSnapshot) -> u64| -> f64 {
        counters.iter().take(nodes).map(pick).sum::<u64>() as f64
    };
    let reconstructed = sum(|c| c.compact_reconstructed);
    let fallbacks = sum(|c| c.compact_fallbacks);
    let wire_bytes = (wire_after.bytes - wire_before.bytes) as f64;
    let (hits, misses) = net.engine(0).chainstate().sig_cache_stats();
    out.layer = vec![
        ("engine.depth_ratio", depth_ratio),
        (
            "chain.sigcache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("net.wire_bytes_per_tx", wire_bytes / confirmed),
        (
            "net.msgs_per_tx",
            (wire_after.messages - wire_before.messages) as f64 / confirmed,
        ),
        (
            "net.tx_relay_bytes_share",
            (wire_after.tx_bytes - wire_before.tx_bytes) as f64 / wire_bytes.max(1.0),
        ),
        (
            "net.compact_hit_ratio",
            reconstructed / (reconstructed + fallbacks).max(1.0),
        ),
        (
            "net.compact_txs_fetched_per_block",
            sum(|c| c.compact_txs_fetched) / reconstructed.max(1.0),
        ),
        (
            "net.overlay_grafts_per_block",
            sum(|c| c.overlay_grafts) / out.blocks.max(1) as f64,
        ),
        (
            "simnet.deliveries_per_s",
            out.deliveries as f64 / out.timed_wall_s,
        ),
        (
            "simnet.virtual_ms_per_wall_s",
            virtual_ms as f64 / out.timed_wall_s,
        ),
    ];
    if !open_ms.is_empty() {
        out.layer
            .push(("storage.open_recover_ms", stats::median(&open_ms)));
    }
    out.artefacts = Some(Artefacts {
        params,
        blocks: chain,
        prefix,
        wallet,
    });

    // ---- join: a fresh node cold-syncs to the network's tip ----
    if cfg.join {
        let chain_txs = net.engine(0).node().chain().main_chain_tx_count();
        let join_started = Instant::now();
        let join_started_ms = net.now_ms();
        let fresh = net.add_node_with(|_| {});
        if let Some(dir) = datadir(fresh) {
            install_storage(net.engine_mut(fresh), &dir, &ctx.tracer);
        }
        for peer in 0..nodes {
            net.connect(fresh, peer);
        }
        while net.engine(fresh).tip() != net.engine(0).tip() {
            if net.now_ms() - join_started_ms > JOIN_DEADLINE_MS {
                break;
            }
            trace::span(&ctx.tracer, "simnet.join", None, || net.run(10));
        }
        let join_s = join_started.elapsed().as_secs_f64();
        check::converged(&[net.engine(0), net.engine(fresh)], &mut out.errors);
        out.layer.extend([
            ("sync.join_tx_per_s", chain_txs as f64 / join_s),
            (
                "sync.join_virtual_ms",
                (net.now_ms() - join_started_ms) as f64,
            ),
            (
                "sync.join_bytes_per_tx",
                net.wire_stats(fresh).total_bytes_in() as f64 / chain_txs.max(1) as f64,
            ),
            (
                "sync.peer_evictions",
                net.engine(fresh).sync_evictions() as f64,
            ),
        ]);
    }
    drop(net);
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulated-clock figures of one `mesh_synth --smoke` round, as bits.
    fn simulated_figures(seed: u64, round_index: usize) -> Vec<u64> {
        let ctx = Ctx {
            seed,
            smoke: true,
            tracer: None,
            round: round_index,
        };
        let round = round(&SYNTH, &ctx);
        assert!(round.errors.is_empty(), "{:?}", round.errors);
        assert_eq!((round.failed, round.confirmed), (0, round.attempted));
        let exact = [
            "net.wire_bytes_per_tx",
            "net.msgs_per_tx",
            "net.compact_hit_ratio",
        ];
        let counts = round
            .layer
            .iter()
            .filter(|(name, _)| exact.contains(name))
            .map(|(_, value)| value.to_bits());
        [round.confirm_ms.0, round.confirm_ms.1]
            .map(f64::to_bits)
            .into_iter()
            .chain(counts)
            .collect()
    }

    #[test]
    fn same_seed_gives_bit_identical_simulated_metrics() {
        let first = simulated_figures(11, 1);
        assert_eq!(first.len(), 5, "two latencies and three counts");
        assert_eq!(first, simulated_figures(11, 1));
        // The link-delay stream repeats after a full cycle of topologies…
        assert_eq!(first, simulated_figures(11, 1 + crate::round::TOPOLOGIES));
        // …and differs between seeds and within the cycle.
        assert_ne!(first, simulated_figures(12, 1));
        assert_ne!(first, simulated_figures(11, 2));
    }
}
