//! Property tests for the sans-I/O split's central promise: a `SimNet` run is a
//! pure function of its seed and input schedule.
//!
//! Identical seed + identical schedule must yield a byte-identical effect trace
//! (every `Send`/`Broadcast`/`SetTimer`/`Disconnect`/`Report` any engine ever
//! emitted, serialized) and equal `UtxoSet::commitment`s on every node — across
//! runs, across orderings of unrelated allocations, across hash-map seeds. A
//! different seed must change the trace (latencies differ), and a different
//! schedule must change it too.

use ng_core::block::{MicroBlock, MicroHeader};
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::{sha256, Hash256};
use ng_crypto::signer::SchnorrSigner;
use ng_net::message::Message;
use ng_node::engine::{GossipConfig, SnapshotPin};
use ng_node::simnet::{SimConfig, SimNet};
use ng_node::testnet::test_tx;
use proptest::prelude::*;

/// One parameterised scenario: mesh up, rotate every node through leadership with
/// transactions, partition into two halves, let both sides diverge, heal. Returns
/// the full effect trace plus the final per-node UTXO commitments and tips.
fn run_scenario(
    seed: u64,
    nodes: usize,
    max_latency: u64,
    txs_per_epoch: u64,
    auto: bool,
) -> (Vec<u8>, Vec<(Hash256, Hash256)>, bool) {
    run_scenario_over(seed, nodes, max_latency, txs_per_epoch, auto, GossipConfig::default())
}

/// [`run_scenario`] with the block-propagation stack chosen by the caller.
fn run_scenario_over(
    seed: u64,
    nodes: usize,
    max_latency: u64,
    txs_per_epoch: u64,
    auto: bool,
    gossip: GossipConfig,
) -> (Vec<u8>, Vec<(Hash256, Hash256)>, bool) {
    let mut config = SimConfig::new(nodes, seed);
    config.gossip = gossip;
    config.min_latency_ms = 1;
    config.max_latency_ms = max_latency;
    config.auto_microblocks = auto;
    config.record_trace = true;
    let mut net = SimNet::new(config);
    let all: Vec<usize> = (0..nodes).collect();
    net.connect_mesh(&all);
    net.run(2_000);

    let mut tx_seq = seed.wrapping_mul(7_919);
    for leader in 0..nodes {
        net.mine_key_block(leader);
        for _ in 0..txs_per_epoch {
            tx_seq += 1;
            net.submit_tx(leader, test_tx(tx_seq));
        }
        net.run(500);
        if !auto {
            net.produce_microblock(leader);
        }
        net.run(500);
    }

    if nodes >= 2 {
        let mid = nodes.div_ceil(2);
        let (left, right) = all.split_at(mid);
        net.partition(&[left, right]);
        net.mine_key_block(right[0]);
        net.run(500);
        net.mine_key_block(left[0]);
        net.run(500);
        net.mine_key_block(left[left.len() - 1]);
        net.run(500);
        net.heal();
    }
    net.run(60_000);

    let states = net
        .snapshots()
        .iter()
        .map(|s| (s.tip, s.utxo_commitment))
        .collect();
    (net.trace_bytes(), states, net.converged())
}

/// The `fast_sync` pin scenario with the trace on: a 3-node network grows past
/// the checkpoint cadence, a fresh node bootstraps from the pinned snapshot,
/// syncs forward and backfills the history below its root.
fn run_snapshot_bootstrap() -> Vec<u8> {
    let mut config = SimConfig::new(3, 21);
    config.serve_snapshots = true;
    config.record_trace = true;
    let mut net = SimNet::new(config);
    net.connect_mesh(&[0, 1, 2]);
    net.run(2_000);
    for h in 0..320 {
        net.mine_key_block(0);
        if h % 64 == 63 {
            net.run(2_000);
        }
    }
    assert!(net.run(30_000) && net.converged(), "established network settles");
    let snapshot = net.engine(0).latest_snapshot().expect("checkpoint at 256").clone();
    let pin = SnapshotPin {
        height: snapshot.height,
        root: snapshot.root.id(),
        sorted: snapshot.sorted,
    };
    let fresh = net.add_node_with(|engine_config| engine_config.snapshot_pin = Some(pin));
    for peer in 0..3 {
        net.connect(fresh, peer);
    }
    net.run(180_000);
    assert!(net.converged(), "bootstrapped node reached the tip");
    assert_eq!(net.engine(fresh).root_height(), pin.height);
    assert!(!net.engine(fresh).backfilling(), "backfill finished");
    assert_eq!(net.snapshots()[fresh].counters.backfill_blocks, pin.height - 1);
    net.trace_bytes()
}

/// The `chaos_scenarios` fraud-proof shape with the trace on: leader 0 produces a
/// microblock, an equally rooted sibling carrying its signature reaches node 2,
/// which builds the poison; the flood revokes the epoch revenue on all six nodes.
fn run_equivocation_to_poison() -> Vec<u8> {
    let mut config = SimConfig::new(6, 3);
    config.params = NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 2,
        validate_transactions: false,
        ..NgParams::default()
    };
    config.record_trace = true;
    let mut net = SimNet::new(config);
    net.connect_mesh(&[0, 1, 2, 3, 4, 5]);
    net.run(1_000);
    let kb = net.mine_key_block(0);
    net.run(1_000);
    net.produce_microblock(0).expect("leader is due");
    net.run(1_000);
    let payload = ng_chain::payload::Payload::Transactions(vec![test_tx(0xE0)]);
    let header = MicroHeader {
        prev: kb,
        time_ms: net.now_ms() + 10,
        payload_digest: payload.digest(),
        leader: 0,
    };
    let sibling = MicroBlock {
        signature: SchnorrSigner::new(KeyPair::from_id(0)).sign(&header.signing_hash()),
        header,
        payload,
    };
    net.inject_message(0, 2, Message::MicroBlock(Box::new(sibling)));
    assert!(net.run(13_000), "network goes quiescent");
    assert!(net.converged());
    for node in 0..6 {
        assert!(net.engine(node).poisoned().contains(&(0, kb)), "node {node} holds the poison");
    }
    net.trace_bytes()
}

/// Golden effect traces: SHA-256 of [`SimNet::trace_bytes`] for one fixed run per
/// engine component — flood relay, compact relay + overlay, snapshot bootstrap +
/// backfill, equivocation → poison. A refactor that moves code without changing
/// behaviour leaves all four untouched; a change that alters any emitted effect,
/// or the order of two, moves at least one and has to re-pin it with a reason.
#[test]
fn golden_traces_are_pinned() {
    let traces = [
        ("flood", run_scenario(42, 4, 20, 3, false).0, GOLDEN_FLOOD),
        (
            "scalable",
            run_scenario_over(42, 4, 20, 3, false, GossipConfig::scalable()).0,
            GOLDEN_SCALABLE,
        ),
        ("snapshot bootstrap", run_snapshot_bootstrap(), GOLDEN_BOOTSTRAP),
        ("equivocation", run_equivocation_to_poison(), GOLDEN_POISON),
    ];
    let got: Vec<String> = traces.iter().map(|(_, trace, _)| sha256(trace).to_hex()).collect();
    for ((name, _, pinned), hash) in traces.iter().zip(&got) {
        assert_eq!(hash, pinned, "{name} trace moved; all four: {got:#?}");
    }
}

const GOLDEN_FLOOD: &str =
    "4ec41995668498b2fcc77dc0c23d36cba34ab39c48e29e72203e2c2a1fa36f46";
const GOLDEN_SCALABLE: &str =
    "43581308dd134115eeffeda54e589378d9e38ca96a9d1be96b8740698f67da97";
const GOLDEN_BOOTSTRAP: &str =
    "d2369895a01be050f1d7c9c4cc1db321724b15a60cb5cfaf1d05b38c6d728c25";
const GOLDEN_POISON: &str =
    "0948fe6141970f8b08efc53f7881b0a2a1669193f393a241e63639bd60825f07";

proptest! {
    // Each case replays a full multi-epoch partition/heal scenario twice; 6 cases
    // per property keeps the suite under a minute in debug builds while still
    // varying seed, topology size, latency spread, and load.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The determinism contract itself, over random seeds and scenario shapes.
    #[test]
    fn identical_seed_and_schedule_is_byte_identical(
        seed in any::<u64>(),
        nodes in 2usize..6,
        max_latency in 1u64..40,
        txs in 1u64..6,
    ) {
        let (trace_a, states_a, converged_a) =
            run_scenario(seed, nodes, max_latency, txs, false);
        let (trace_b, states_b, converged_b) =
            run_scenario(seed, nodes, max_latency, txs, false);
        prop_assert_eq!(&trace_a, &trace_b, "same seed+schedule must replay byte-identically");
        prop_assert_eq!(&states_a, &states_b, "tips and UTXO commitments must match across runs");
        prop_assert_eq!(converged_a, converged_b);
        // The scenario always heals into agreement; every node's commitment is equal.
        prop_assert!(converged_a, "healed scenario must converge");
        prop_assert!(states_a.windows(2).all(|w| w[0] == w[1]));
    }

    /// Autonomous (timer-driven) streaming is just as deterministic as command-driven
    /// production: `SetTimer`/`Tick` round trips are part of the replayed schedule.
    #[test]
    fn auto_streaming_is_deterministic(
        seed in any::<u64>(),
        nodes in 2usize..5,
        max_latency in 1u64..25,
    ) {
        let (trace_a, states_a, converged_a) = run_scenario(seed, nodes, max_latency, 3, true);
        let (trace_b, states_b, _) = run_scenario(seed, nodes, max_latency, 3, true);
        prop_assert_eq!(&trace_a, &trace_b);
        prop_assert_eq!(&states_a, &states_b);
        prop_assert!(converged_a);
        prop_assert!(
            trace_a.windows(10).any(|w| w == b"\"SetTimer\""),
            "auto mode must have armed at least one timer"
        );
    }

    /// Sensitivity: the seed is load-bearing. A different seed draws different
    /// latencies and must perturb the effect trace.
    #[test]
    fn different_seed_changes_the_trace(seed in 0u64..1_000_000) {
        let (trace_a, _, _) = run_scenario(seed, 3, 20, 2, false);
        let (trace_b, _, _) = run_scenario(seed ^ 0x9E37_79B9, 3, 20, 2, false);
        prop_assert_ne!(trace_a, trace_b);
    }

    /// Sensitivity: the schedule is load-bearing too — one extra transaction must
    /// show up in the trace.
    #[test]
    fn different_schedule_changes_the_trace(seed in any::<u64>()) {
        let (trace_a, _, _) = run_scenario(seed, 3, 20, 2, false);
        let (trace_b, _, _) = run_scenario(seed, 3, 20, 3, false);
        prop_assert_ne!(trace_a, trace_b);
    }
}
