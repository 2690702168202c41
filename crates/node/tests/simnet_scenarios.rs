//! Scenario tests over the deterministic in-process network — the `SimNet`
//! counterpart of the loopback-TCP `testnet_convergence` suite, plus a seed sweep.
//!
//! The parity tests mirror the TCP suite's two scenarios (rotating leaders;
//! partition/heal reorg) against the *same* `Engine`, but run in milliseconds of
//! wall-clock time. The sweep then drives 64 seeds of randomised topology stress —
//! partition shapes, latency ranges, and message loss all drawn from the seed — and
//! asserts that every one of them converges to identical tips and UTXO commitments
//! after a reliable heal, which no fixed hand-written scenario could cover.

use ng_chain::amount::Amount;
use ng_chain::transaction::{OutPoint, TransactionBuilder};
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::rng::SimRng;
use ng_crypto::signer::SchnorrSigner;
use ng_node::simnet::{SimConfig, SimNet};
use ng_node::testnet::test_tx;

#[test]
fn five_nodes_with_rotating_leaders_converge() {
    let mut net = SimNet::new(SimConfig::new(5, 1));
    net.connect_mesh(&[0, 1, 2, 3, 4]);
    assert!(net.run(2_000), "handshakes settle");

    let mut tx_seq = 0u64;
    for leader in 0..5 {
        net.mine_key_block(leader);
        for _ in 0..3 {
            tx_seq += 1;
            assert!(net.submit_tx(leader, test_tx(tx_seq)));
        }
        net.run(500);
        net.produce_microblock(leader)
            .expect("leader with a non-empty mempool produces");
        assert!(net.run(2_000), "epoch settles");
        assert!(net.converged(), "epoch led by {leader}:\n{}", net.report());
    }

    let report = net.report();
    for snap in &report.snapshots {
        assert_eq!(snap.height, 10, "node {}:\n{report}", snap.id);
        assert_eq!(snap.chain_len, 11, "10 blocks + genesis");
        assert_eq!(snap.mempool_len, 0, "all transactions serialized");
        assert_eq!(snap.ready_peers, 4, "full mesh");
        assert!(snap.counters.blocks_accepted >= 10);
        assert!(snap.counters.messages_in > 0 && snap.counters.messages_out > 0);
    }
    for (id, snap) in report.snapshots.iter().enumerate() {
        assert_eq!(snap.counters.key_blocks_mined, 1, "node {id}");
        assert_eq!(snap.counters.microblocks_produced, 1, "node {id}");
    }
}

/// Messages of one wire command sent across all nodes.
fn sent(net: &SimNet, command: &str) -> u64 {
    (0..net.len()).map(|node| net.wire_stats(node).command(command).msgs_out).sum()
}

/// A transaction's first hop is its body, every later hop `inv` → `getdata` →
/// `tx`: each body crosses each link at most once, so a 4-node mesh needs 3
/// bodies per transaction — and, every peer being a first hop, next to no
/// `getdata`. (An `inv` used to be answered like a `getdata` — any node that
/// already held the transaction pushed the whole body back at the announcer,
/// 8.85 bodies per transaction; then every hop was announced first, 3 requests
/// per transaction.)
#[test]
fn each_transaction_body_crosses_the_mesh_about_three_times() {
    let mut config = SimConfig::new(4, 5);
    config.min_latency_ms = 2;
    config.max_latency_ms = 20;
    let mut net = SimNet::new(config);
    net.connect_mesh(&[0, 1, 2, 3]);
    assert!(net.run(2_000), "handshakes settle");
    net.mine_key_block(0);
    net.run(500);
    let block_requests = sent(&net, "getdata");
    let txs = 200u64;
    for seq in 0..txs {
        assert!(net.submit_tx((seq % 4) as usize, test_tx(seq)));
        net.run(1);
    }
    assert!(net.run(5_000), "relay settles");
    for node in 0..4 {
        assert_eq!(net.engine(node).mempool_len(), txs as usize, "node {node}");
    }
    let bodies = sent(&net, "tx");
    let requests = sent(&net, "getdata") - block_requests;
    assert!(
        bodies as f64 <= 3.5 * txs as f64,
        "{bodies} tx bodies for {txs} transactions ({requests} getdata)"
    );
    assert!(bodies >= 3 * txs, "every node still received every transaction");
    assert!(requests as f64 <= 0.1 * txs as f64, "{requests} getdata for {txs} transactions");
}

/// The first hop carries the body, so one link delay after a submit the
/// transaction is in every mempool of a mesh (`inv` → `getdata` → `tx` took
/// three).
#[test]
fn a_submitted_transaction_is_everywhere_within_one_link_delay() {
    let config = SimConfig::new(4, 9);
    let max_link_delay = config.max_latency_ms;
    let mut net = SimNet::new(config);
    net.connect_mesh(&[0, 1, 2, 3]);
    assert!(net.run(2_000), "handshakes settle");
    for seq in 0..40u64 {
        let tx = test_tx(seq);
        let txid = tx.txid();
        assert!(net.submit_tx((seq % 4) as usize, tx));
        net.run(max_link_delay);
        for node in 0..4 {
            assert!(net.engine(node).mempool_contains(&txid), "transaction {seq}, node {node}");
        }
    }
}

/// Links are FIFO, so a leader's own transactions reach each peer ahead of the
/// compact block that names them, and everybody else's went to all peers at
/// once: under a steady load (5 transactions per ms over the four nodes, a
/// microblock every 10 ms) no reconstruction fetches anything with
/// `getblocktxn`. (Announced first, the leader's own — a quarter of every
/// block — were still two link delays from its peers.)
#[test]
fn steady_state_compact_blocks_reconstruct_without_a_fetch() {
    let mut config = SimConfig::new(4, 9);
    config.gossip = ng_node::engine::GossipConfig::scalable();
    config.auto_microblocks = true;
    config.params.microblock_interval_ms = 10;
    let mut net = SimNet::new(config);
    net.connect_mesh(&[0, 1, 2, 3]);
    assert!(net.run(2_000), "handshakes settle");
    net.mine_key_block(0);
    net.run(500);
    for seq in 0..1_000u64 {
        assert!(net.submit_tx((seq % 4) as usize, test_tx(seq)));
        if seq % 5 == 4 {
            net.run(1);
        }
    }
    assert!(net.run(5_000) && net.converged(), "blocks settle");
    let snapshots = net.snapshots();
    let produced = snapshots[0].counters.microblocks_produced;
    assert!(produced >= 20, "{produced} microblocks");
    for snapshot in &snapshots[1..] {
        assert_eq!(snapshot.mempool_len, 0, "node {}: every transaction confirmed", snapshot.id);
        assert_eq!(snapshot.counters.compact_reconstructed, produced, "node {}", snapshot.id);
        assert_eq!(snapshot.counters.compact_txs_fetched, 0, "node {}", snapshot.id);
    }
}

/// Beyond a mesh most peers are second hops: a 100-node degree-8 topology, and a
/// lossy mesh where a pushed body can vanish (a neighbour's `inv` then fetches
/// it), still put every transaction in every pool, for no more bodies than
/// announcing every hop cost (269.76 and 6.92 per transaction on these seeds).
#[test]
fn pushed_transactions_reach_every_pool_on_sparse_and_lossy_networks() {
    let mut sparse = SimNet::new(SimConfig::new(100, 11));
    sparse.connect_degree(8);
    let mut lossy_config = SimConfig::new(6, 12);
    lossy_config.loss = 0.05;
    let mut lossy = SimNet::new(lossy_config);
    lossy.connect_mesh(&[0, 1, 2, 3, 4, 5]);
    for (net, txs, bodies_when_announced) in [(&mut sparse, 50u64, 269.76), (&mut lossy, 200, 6.92)] {
        net.run(5_000);
        let nodes = net.len();
        for seq in 0..txs {
            assert!(net.submit_tx(seq as usize * 7 % nodes, test_tx(seq)));
            net.run(1);
        }
        net.run(10_000);
        for node in 0..nodes {
            assert_eq!(net.engine(node).mempool_len(), txs as usize, "node {node} of {nodes}");
        }
        let per_tx = sent(net, "tx") as f64 / txs as f64;
        assert!(per_tx <= bodies_when_announced, "{nodes} nodes: {per_tx} bodies per transaction");
    }
}

/// The same fill on a validating network, where every relayed `tx` frame waits
/// in its node's admission queue and is verified in a batch before it goes on:
/// 12 nodes of degree 3, signed spends entering at every node. Every pool
/// fills, the leader serializes them all, and the network converges on a ledger
/// that mints nothing. At 5 % message loss no frame is refused and no peer is
/// punished, but neither the fill nor the convergence holds, before batching
/// either: a node asks each announcer of an object once, and a lost reply or
/// announcement is never asked for again (seed 5 before batching: 11 bodies
/// missing over 9 pools, 3 spends the leader never got; with it: 6 bodies
/// over 4 pools, and one node that missed the microblock).
#[test]
fn batch_admitted_signed_spends_fill_every_pool_on_a_sparse_network() {
    for loss in [0.0, 0.05] {
        let mut config = SimConfig::new(12, 5);
        config.params = NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 2,
            coinbase_maturity: 0,
            ..NgParams::default()
        };
        config.loss = loss;
        let mut net = SimNet::new(config);
        net.connect_degree(3);
        net.run(5_000);
        let key_block = net.mine_key_block(0);
        net.run(5_000);
        let owner = *net.engine(0).node().keys();
        let signer = SchnorrSigner::new(owner);
        let spends = 48u32;
        let mut builder = TransactionBuilder::new().input(OutPoint::new(key_block, 0));
        for _ in 0..spends {
            builder = builder.output(Amount::from_sats(1_000_000), owner.address());
        }
        let mut fanout = builder.build();
        fanout.sign_all_inputs(&signer);
        assert!(net.submit_tx(0, fanout.clone()));
        net.produce_microblock(0).expect("node 0 leads");
        net.run(10_000);
        let nodes = net.len();
        for vout in 0..spends {
            let mut tx = TransactionBuilder::new()
                .input(OutPoint::new(fanout.txid(), vout))
                .output(
                    Amount::from_sats(900_000),
                    KeyPair::from_id(u64::from(vout)).address(),
                )
                .build();
            tx.sign_all_inputs(&signer);
            assert!(net.submit_tx(vout as usize * 7 % nodes, tx));
            net.run(1);
        }
        net.run(10_000);
        let filled = (0..nodes).all(|node| net.engine(node).mempool_len() == spends as usize);
        net.produce_microblock(0).expect("node 0 leads");
        net.run(10_000);
        let snapshots = net.snapshots();
        assert!(snapshots
            .iter()
            .all(|node| node.counters.peers_misbehaved == 0));
        assert!(snapshots
            .iter()
            .all(|node| node.counters.txs_rejected_invalid == 0));
        ng_node::ledger::assert_supply_bounded((0..nodes).map(|node| net.engine(node)));
        // Fill and convergence are asserted without loss only: a node asks each
        // announcer of an object once, so at 5 % loss a body or block lost once
        // can stay missing for good. Assert them at every loss once the relay
        // falls back to the next announcer (ROADMAP item 7).
        if loss == 0.0 {
            assert!(filled, "every pool held every spend");
            assert!(net.converged());
            for node in 0..nodes {
                let engine = net.engine(node);
                assert_eq!(engine.mempool_len(), 0, "node {node}");
                assert_eq!(engine.chainstate().confirmed_len(), 1 + spends as usize);
            }
        }
    }
}

#[test]
fn partition_and_heal_forces_a_reorg() {
    let mut net = SimNet::new(SimConfig::new(5, 2));
    net.connect_mesh(&[0, 1, 2, 3, 4]);
    net.run(2_000);

    // Shared history: node 0 leads one full epoch.
    net.mine_key_block(0);
    assert!(net.submit_tx(0, test_tx(1_000)));
    net.run(500);
    net.produce_microblock(0).expect("leader produces");
    assert!(net.run(2_000));
    assert!(net.converged(), "no shared history:\n{}", net.report());

    // Split: {0, 1, 2} vs {3, 4}.
    net.partition(&[&[0, 1, 2], &[3, 4]]);

    // The minority side mines one key block and serializes a doomed transaction.
    net.mine_key_block(3);
    assert!(net.submit_tx(3, test_tx(2_000)));
    net.run(500);
    net.produce_microblock(3).expect("minority leader produces");
    net.run(2_000);

    // The majority side mines two key blocks — strictly more work.
    net.mine_key_block(0);
    net.run(2_000);
    net.mine_key_block(1);
    net.run(2_000);

    let snaps = net.snapshots();
    let majority_tip = snaps[0].tip;
    assert_eq!(snaps[1].tip, majority_tip);
    assert_eq!(snaps[2].tip, majority_tip);
    let minority_tip = snaps[3].tip;
    assert_eq!(snaps[4].tip, minority_tip);
    assert_ne!(majority_tip, minority_tip, "partition had no effect");

    // Heal. The minority must reorg onto the majority's heavier chain.
    net.heal();
    assert!(net.run(10_000), "healed network goes quiescent");
    let report = net.report();
    assert!(report.converged, "network did not re-converge:\n{report}");
    assert_eq!(report.tip, majority_tip, "the heavier branch must win:\n{report}");
    for snap in &report.snapshots[3..] {
        assert!(
            snap.counters.reorgs >= 1,
            "minority node {} never reorged:\n{report}",
            snap.id
        );
    }
    // Header sync (not plain gossip) carried the catch-up.
    assert!(
        report
            .snapshots
            .iter()
            .any(|s| s.counters.sync_batches_received > 0),
        "no sync batches observed:\n{report}"
    );
    // The minority's serialized transaction fell off the main chain and is back in
    // its mempool awaiting re-serialization.
    assert!(
        report.snapshots[3].mempool_len >= 1,
        "disconnected transaction was not reinserted:\n{report}"
    );
}

/// 64 seeds of randomised stress: topology size, latency range, loss rate, number
/// of epochs, and the partition's group split are all drawn from the seed. Every
/// run must converge after a reliable heal — and every node must agree on both tip
/// and UTXO commitment.
#[test]
fn seed_sweep_random_partitions_latency_and_loss_all_converge() {
    for seed in 0..64u64 {
        let mut shape = SimRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
        let nodes = 3 + shape.next_below(4) as usize; // 3..=6
        let mut config = SimConfig::new(nodes, seed);
        config.min_latency_ms = 1 + shape.next_below(5);
        config.max_latency_ms = config.min_latency_ms + 1 + shape.next_below(40);
        config.loss = shape.range_f64(0.0, 0.25);
        let epochs = 1 + shape.next_below(3) as usize;

        let mut net = SimNet::new(config);
        let all: Vec<usize> = (0..nodes).collect();
        net.connect_mesh(&all);
        net.run(2_000);

        let mut tx_seq = seed.wrapping_mul(101_159);
        for epoch in 0..epochs {
            let leader = epoch % nodes;
            net.mine_key_block(leader);
            for _ in 0..3 {
                tx_seq += 1;
                net.submit_tx(leader, test_tx(tx_seq));
            }
            net.run(1_000);
            net.produce_microblock(leader);
            net.run(1_000);
        }

        // A random two-way split (both sides non-empty), divergence on both sides.
        let cut = 1 + shape.next_below((nodes - 1) as u64) as usize;
        let (left, right) = all.split_at(cut);
        net.partition(&[left, right]);
        net.mine_key_block(left[0]);
        net.run(1_000);
        net.mine_key_block(right[0]);
        net.run(1_000);
        // One side does strictly more work so the heal has a clear winner.
        net.mine_key_block(left[0]);
        net.run(1_000);

        // The healed network is reliable: loss off, reconnect, resync.
        net.set_loss(0.0);
        net.heal();
        assert!(
            net.run(120_000),
            "seed {seed}: network never went quiescent\n{}",
            net.report()
        );
        let report = net.report();
        assert!(
            report.converged,
            "seed {seed} ({nodes} nodes): did not converge\n{report}"
        );
        let first = &report.snapshots[0];
        for snap in &report.snapshots[1..] {
            assert_eq!(snap.tip, first.tip, "seed {seed}");
            assert_eq!(snap.utxo_commitment, first.utxo_commitment, "seed {seed}");
        }
    }
}
