//! Scalable-gossip scenarios at 100-node SimNet scale (§7 propagation).
//!
//! The paper measures how block propagation scales on a real overlay; this suite
//! reproduces the shape of those experiments deterministically. A 100-node,
//! degree-8 random topology propagates leader microblocks under three relay
//! stacks — classic flood, and the compact + eager/lazy overlay stack — and the
//! suite asserts the headline claim: compact relay over the structured overlay
//! delivers the same ≥99% coverage for a small fraction of the per-node relay
//! bytes. A second scenario severs the producer's eager links mid-stream and
//! checks the lazy `ihave` → timeout → graft path regrows the broadcast tree
//! (full coverage restored, grafts observed). A multi-seed sweep repeats
//! propagation under message loss and link churn. A leader hand-over workload
//! checks the overlay never prunes a link over a block it asked for, so an
//! observer keeps an eager link and does not wait out a pull timeout per block.

use ng_crypto::sha256::Hash256;
use ng_node::engine::GossipConfig;
use ng_node::simnet::{SimConfig, SimNet};
use ng_node::testnet::test_tx;

/// Commands that carry block relay traffic (the comparison unit between stacks).
const RELAY_COMMANDS: &[&str] = &[
    "inv",
    "getdata",
    "keyblock",
    "microblock",
    "cmpct",
    "getblocktxn",
    "blocktxn",
    "ihave",
    "graft",
    "prune",
];

/// Transactions preloaded into every node's pool before each microblock — the
/// mempool-convergence precondition compact relay exploits (and what makes the
/// full-carrier flood expensive: every copy re-ships all of them).
const TXS_PER_BLOCK: u64 = 32;

fn scale_net(nodes: usize, seed: u64, gossip: GossipConfig) -> SimNet {
    let mut config = SimConfig::new(nodes, seed);
    config.gossip = gossip;
    config.record_arrivals = true;
    let mut net = SimNet::new(config);
    net.connect_degree(8);
    assert!(net.run(5_000), "handshakes and initial sync settle");
    net
}

fn preload(net: &mut SimNet, tx_base: u64) {
    for node in 0..net.len() {
        for t in 0..TXS_PER_BLOCK {
            net.engine_mut(node).preload_tx(test_tx(tx_base + t));
        }
    }
}

/// Mines an epoch on node 0, streams one microblock, and returns
/// `(microblock id, production time)`.
fn produce_one_block(net: &mut SimNet, tx_base: u64) -> (Hash256, u64) {
    net.mine_key_block(0);
    net.run(2_000);
    preload(net, tx_base);
    let id = net.produce_microblock(0).expect("leader with a full pool");
    let produced_at = net.now_ms();
    net.run(10_000);
    (id, produced_at)
}

/// Fraction of nodes that accepted the block.
fn coverage(net: &SimNet, id: &Hash256) -> f64 {
    let mut nodes: Vec<usize> = net.arrivals(id).iter().map(|&(n, _)| n).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len() as f64 / net.len() as f64
}

/// Per-node first-arrival delays since production, ascending (the CDF).
fn delays(net: &SimNet, id: &Hash256, produced_at: u64) -> Vec<u64> {
    let mut first: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for &(node, at) in net.arrivals(id) {
        let entry = first.entry(node).or_insert(at);
        *entry = (*entry).min(at);
    }
    let mut delays: Vec<u64> = first.values().map(|&at| at - produced_at).collect();
    delays.sort_unstable();
    delays
}

/// Total block-relay bytes sent across all nodes.
fn relay_bytes(net: &SimNet) -> u64 {
    (0..net.len())
        .map(|node| {
            RELAY_COMMANDS
                .iter()
                .map(|c| net.wire_stats(node).command(c).bytes_out)
                .sum::<u64>()
        })
        .sum()
}

#[test]
fn compact_overlay_matches_flood_coverage_at_a_fraction_of_the_bytes() {
    const NODES: usize = 100;
    const SEED: u64 = 7;

    let mut flood = scale_net(NODES, SEED, GossipConfig::default());
    let flood_baseline = relay_bytes(&flood);
    let (flood_id, _) = produce_one_block(&mut flood, 0);
    let flood_cost = relay_bytes(&flood) - flood_baseline;
    assert!(
        coverage(&flood, &flood_id) >= 0.99,
        "flood covers the network"
    );

    let mut overlay = scale_net(NODES, SEED, GossipConfig::scalable());
    let overlay_baseline = relay_bytes(&overlay);
    let (overlay_id, produced_at) = produce_one_block(&mut overlay, 0);
    let overlay_cost = relay_bytes(&overlay) - overlay_baseline;
    assert!(
        coverage(&overlay, &overlay_id) >= 0.99,
        "the structured overlay covers the network too"
    );

    // The headline claim: same coverage, ≥5× fewer relay bytes per node.
    let reduction = flood_cost as f64 / overlay_cost as f64;
    assert!(
        reduction >= 5.0,
        "expected ≥5× relay-byte reduction at degree 8, got {reduction:.2}× \
         (flood {flood_cost} B, overlay {overlay_cost} B)"
    );

    // Propagation stays fast: the eager tree plus one pull timeout bounds the tail.
    let cdf = delays(&overlay, &overlay_id, produced_at);
    assert!(!cdf.is_empty());
    let p99 = cdf[(cdf.len() * 99 / 100).min(cdf.len() - 1)];
    assert!(
        p99 <= 2_000,
        "p99 propagation delay {p99} ms blows the virtual budget"
    );
}

#[test]
fn severed_eager_links_self_heal_through_lazy_pulls() {
    const NODES: usize = 30;
    let mut net = scale_net(NODES, 21, GossipConfig::scalable());

    // One warm-up block builds the broadcast tree (duplicates prune it).
    let (first, _) = produce_one_block(&mut net, 0);
    assert_eq!(coverage(&net, &first), 1.0, "warm-up block reaches everyone");

    // Sever every eager link of the producer mid-stream: its pushes now reach
    // nobody, so the next block can only leave node 0 over lazy `ihave` links.
    let eager = net.engine(0).overlay_eager();
    assert!(!eager.is_empty(), "producer has an eager set to sever");
    for peer in &eager {
        net.disconnect(0, *peer as usize);
    }
    assert!(
        net.engine(0).overlay_eager().is_empty(),
        "all eager links gone"
    );
    assert!(
        !net.engine(0).overlay_lazy().is_empty(),
        "lazy links survive to advertise over"
    );
    net.run(500);

    preload(&mut net, 1_000);
    let second = net
        .produce_microblock(0)
        .expect("producer is still the leader");
    net.run(15_000);

    assert_eq!(
        coverage(&net, &second),
        1.0,
        "lazy-pull promotion restored full coverage"
    );
    let grafts: u64 = (0..net.len())
        .map(|n| net.snapshots()[n].counters.overlay_grafts)
        .sum();
    assert!(grafts > 0, "healing went through the graft path");
    assert!(
        !net.engine(0).overlay_eager().is_empty(),
        "the broadcast tree regrew eager links at the producer"
    );
}

#[test]
fn propagation_survives_loss_and_churn_across_seeds() {
    for seed in [3, 11] {
        let mut config = SimConfig::new(100, seed);
        config.gossip = GossipConfig::scalable();
        config.record_arrivals = true;
        config.loss = 0.05;
        let mut net = SimNet::new(config);
        net.connect_degree(8);
        net.run(5_000);

        let (first, _) = produce_one_block(&mut net, 0);

        // Churn: a band of mid-ring links drops while the next block propagates.
        for n in 40..50usize {
            net.disconnect(n, (n + 1) % 100);
        }
        preload(&mut net, 2_000);
        let second = net.produce_microblock(0).expect("leader produces");
        net.run(10_000);

        // Lossy links may strand stragglers; reliable heal must finish the job
        // through pulls and header sync.
        net.set_loss(0.0);
        for n in 40..50usize {
            net.connect(n, (n + 1) % 100);
        }
        assert!(net.run(30_000), "seed {seed}: network goes quiescent");
        for (blk, label) in [(first, "first"), (second, "second")] {
            assert!(
                coverage(&net, &blk) >= 0.99,
                "seed {seed}: {label} block covered {:.3}",
                coverage(&net, &blk)
            );
        }
    }
}

/// The hand-over workload on a 3-node mesh (links 2–20 ms, 2 ms auto-microblocks,
/// compact + overlay): nodes 0 and 1 swap leadership every 250 ms, node 2 only
/// observes, and 6 000 transactions reach the non-leader, one per ms.
fn handover3(seed: u64) -> SimNet {
    let mut config = SimConfig::new(3, seed);
    config.gossip = GossipConfig::scalable();
    config.auto_microblocks = true;
    let mut net = SimNet::new(config);
    net.connect_mesh(&[0, 1, 2]);
    assert!(net.run(2_000), "handshakes settle");
    for ms in 0..6_000 {
        let leader = (ms / 250 % 2) as usize;
        if ms % 250 == 0 {
            net.mine_key_block(leader);
        }
        net.submit_tx(1 - leader, test_tx(ms));
        net.run(1);
    }
    assert!(net.run(5_000), "the network drains");
    net
}

#[test]
fn leader_hand_over_keeps_the_observer_on_an_eager_link() {
    // Before replies stopped counting as duplicate pushes, seeds 1–3 drew 600–680
    // grafts and 60–90 prunes, and the observer lost every eager link on two.
    for seed in 1..=3 {
        let net = handover3(seed);
        let counters: Vec<_> = net.snapshots().into_iter().map(|snap| snap.counters).collect();
        let grafts: u64 = counters.iter().map(|c| c.overlay_grafts).sum();
        let prunes: u64 = counters.iter().map(|c| c.overlay_prunes).sum();
        let observed = counters[2].blocks_accepted;
        assert!(net.converged(), "seed {seed}: converged");
        assert!(grafts * 100 <= observed, "seed {seed}: {grafts} grafts for {observed} blocks");
        assert!(prunes <= 4, "seed {seed}: {prunes} prunes");
        assert!(!net.engine(2).overlay_eager().is_empty(), "seed {seed}: observer has an eager link");
    }
}
