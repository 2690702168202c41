//! End-to-end adversarial scenarios under fault injection: the paper's §4.5
//! poison-transaction mechanism driven across a network that is concurrently
//! being crashed, eclipsed, skewed and throttled by the chaos layer.
//!
//! The headline scenario sweeps ≥16 seeds: a leader equivocates (signs two
//! microblocks at the same height), some honest node detects the sibling pair,
//! constructs the fraud proof, floods it, and every honest node — including
//! ones that were dark while the flood spread — ends with the cheater's epoch
//! revenue revoked and an identical UTXO commitment. Convergence of competing
//! proofs (every detecting node signs its own, with itself as poisoner) rides
//! on the min-txid rule, so the final bounty holder is deterministic per seed.

use ng_chain::amount::Amount;
use ng_core::block::{MicroBlock, MicroHeader};
use ng_core::params::NgParams;
use ng_core::poison::PoisonTransaction;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::Hash256;
use ng_crypto::signer::SchnorrSigner;
use ng_net::message::Message;
use ng_node::chaos::{Fault, FaultPlan};
use ng_node::ledger::assert_supply_bounded;
use ng_node::simnet::{SimConfig, SimNet};
use ng_node::testnet::test_tx;

/// Sixteen fixed seeds — the CI sweep the acceptance gate names. Each seed
/// yields a different latency schedule, hence different detection order,
/// different competing-poison sets, and a different canonical bounty winner;
/// the invariants must hold for all of them.
const SWEEP_SEEDS: [u64; 16] = [
    3, 7, 11, 19, 23, 31, 41, 53, 67, 79, 97, 113, 131, 151, 173, 197,
];

/// Fast spacing, non-validating transactions (the synthetic workload spends
/// phantom outpoints), tight finality for the long-range scenario.
fn chaos_params() -> NgParams {
    NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 2,
        validate_transactions: false,
        ..NgParams::default()
    }
}

fn net_with(nodes: usize, seed: u64, params: NgParams) -> SimNet {
    let mut config = SimConfig::new(nodes, seed);
    config.params = params;
    let mut net = SimNet::new(config);
    net.connect_mesh(&(0..nodes).collect::<Vec<_>>());
    net.run(1_000);
    net
}

/// A microblock correctly signed by `leader`'s key — the second signature of
/// an equivocation, injected as if the leader had gossiped it.
fn equivocating_microblock(leader: u64, prev: Hash256, time_ms: u64) -> MicroBlock {
    let payload = ng_chain::payload::Payload::Transactions(vec![test_tx(0xE0)]);
    let header = MicroHeader {
        prev,
        time_ms,
        payload_digest: payload.digest(),
        leader,
    };
    MicroBlock {
        signature: SchnorrSigner::new(KeyPair::from_id(leader)).sign(&header.signing_hash()),
        header,
        payload,
    }
}

/// One full equivocation round on an established net: leader 0 produces a
/// legitimate microblock on `kb`, then an equally-rooted sibling is injected
/// into `target`. Returns the epoch key block id.
fn run_equivocation(net: &mut SimNet, target: usize) -> Hash256 {
    let kb = net.mine_key_block(0);
    net.run(1_000);
    net.produce_microblock(0).expect("leader is due");
    net.run(1_000);
    let evil = equivocating_microblock(0, kb, net.now_ms() + 10);
    net.inject_message(0, target, Message::MicroBlock(Box::new(evil)));
    net.run(3_000);
    kb
}

/// Asserts the post-poison invariants on every live node of the net.
fn assert_poisoned_everywhere(net: &SimNet, kb: Hash256, nodes: usize) {
    let cheater = KeyPair::from_id(0).address();
    let canonical_revoked = net.engine(0).poison_revoked_total();
    assert!(
        canonical_revoked > Amount::ZERO,
        "the epoch coinbase paid the cheater something to revoke"
    );
    for node in 0..nodes {
        if net.is_down(node) {
            continue;
        }
        let engine = net.engine(node);
        assert!(
            engine.poisoned().contains(&(0, kb)),
            "node {node} recorded the poison against leader 0's epoch"
        );
        assert_eq!(
            engine.poison_revoked_total(),
            canonical_revoked,
            "node {node} computed the same revocable amount"
        );
        assert_eq!(
            engine.utxo().balance_of(&cheater),
            Amount::ZERO,
            "node {node} revoked the cheater's epoch revenue"
        );
    }
    assert!(net.converged(), "{}", net.report());
    assert_supply_bounded(net.live_engines());
}

#[test]
fn equivocating_leader_is_poisoned_across_sixteen_seeds() {
    for seed in SWEEP_SEEDS {
        let nodes = 6;
        let mut net = net_with(nodes, seed, chaos_params());
        let kb = run_equivocation(&mut net, 1 + (seed as usize % (nodes - 1)));
        assert!(net.run(10_000), "seed {seed}: network goes quiescent");

        assert_poisoned_everywhere(&net, kb, nodes);
        let snaps = net.snapshots();
        let detections: u64 = snaps.iter().map(|s| s.counters.poison_detected).sum();
        assert!(
            detections >= 1,
            "seed {seed}: some honest node detected the sibling pair"
        );
        for snap in &snaps {
            assert!(
                snap.counters.poison_accepted >= 1,
                "seed {seed}: node {} accepted a proof",
                snap.id
            );
        }
        let relays: u64 = snaps.iter().map(|s| s.counters.poison_relayed).sum();
        assert!(relays >= 1, "seed {seed}: the proof was flooded");
    }
}

/// Regression for the framing attack the two-header evidence rule exists to
/// stop: microblocks are innocently pruned whenever a competing key block forks
/// off a leader's microblock tail, so a "proof" citing a single pruned header
/// must convince nobody. The attacker here pairs the leader's real header with
/// a fabricated sibling signed by the attacker's own key — the best a non-leader
/// can do, since a genuine conflict needs two signatures only the leader can
/// produce. Every node must reject the flood and leave the honest leader's
/// epoch revenue untouched.
#[test]
fn honest_leader_cannot_be_framed_with_a_forged_conflict() {
    let nodes = 5;
    let mut net = net_with(nodes, 13, chaos_params());
    let kb = net.mine_key_block(0);
    net.run(1_000);
    let micro_id = net.produce_microblock(0).expect("leader is due");
    net.run(1_000);
    let micro = net
        .engine(0)
        .node()
        .chain()
        .get(&micro_id)
        .and_then(ng_core::block::NgBlock::as_micro)
        .cloned()
        .expect("leader's microblock is stored");

    // Node 4 plays the attacker: fabricate a sibling header under the same
    // parent, sign it with key 4 (not the leader's), flood the "fraud proof".
    let forged_payload = ng_chain::payload::Payload::Transactions(vec![test_tx(0xF1)]);
    let forged_header = MicroHeader {
        prev: kb,
        time_ms: micro.header.time_ms + 1,
        payload_digest: forged_payload.digest(),
        leader: 0,
    };
    let forged_signature =
        SchnorrSigner::new(KeyPair::from_id(4)).sign(&forged_header.signing_hash());
    let framing = PoisonTransaction {
        header_a: micro.header.clone(),
        signature_a: micro.signature.clone(),
        header_b: forged_header,
        signature_b: forged_signature,
        accused_leader: 0,
        poisoner: 4,
    };
    for victim in 0..nodes {
        if victim == 4 {
            continue;
        }
        net.inject_message(4, victim, Message::Poison(Box::new(framing.clone())));
    }
    assert!(net.run(5_000), "network goes quiescent");

    let leader = KeyPair::from_id(0).address();
    for node in 0..nodes {
        let engine = net.engine(node);
        assert!(
            engine.poisoned().is_empty(),
            "node {node} recorded no poison against the honest leader"
        );
        assert_eq!(engine.poison_revoked_total(), Amount::ZERO);
        assert!(
            engine.utxo().balance_of(&leader) > Amount::ZERO,
            "node {node} left the honest leader's epoch revenue intact"
        );
    }
    assert!(net.converged(), "{}", net.report());
    let rejected: u64 = net
        .snapshots()
        .iter()
        .map(|s| s.counters.poison_rejected)
        .sum();
    assert!(
        rejected >= (nodes as u64) - 1,
        "every framed node counted the rejection (got {rejected})"
    );
}

#[test]
fn competing_poisons_settle_on_one_bounty_deterministically() {
    // Inject the sibling into TWO distant nodes at once: both detect locally and
    // sign competing proofs naming themselves poisoner. The min-txid rule must
    // leave exactly one bounty standing, and the same one on a replayed seed.
    let commitment_of = |seed: u64| {
        let mut net = net_with(6, seed, chaos_params());
        let kb = net.mine_key_block(0);
        net.run(1_000);
        net.produce_microblock(0).expect("leader is due");
        net.run(1_000);
        let evil = equivocating_microblock(0, kb, net.now_ms() + 10);
        net.inject_message(0, 2, Message::MicroBlock(Box::new(evil.clone())));
        net.inject_message(0, 5, Message::MicroBlock(Box::new(evil)));
        assert!(net.run(10_000));
        assert_poisoned_everywhere(&net, kb, 6);
        net.engine(3).utxo_commitment()
    };
    assert_eq!(
        commitment_of(61),
        commitment_of(61),
        "same seed, same canonical poison, same final ledger"
    );
}

#[test]
fn eclipsed_victim_learns_the_poison_on_release() {
    let mut net = net_with(7, 83, chaos_params());
    // Node 6 is the attacker's sockpuppet: muted, it completes handshakes but
    // relays nothing — the victim's whole view of the network goes dark.
    net.mute(6);
    net.eclipse(5, &[6]);
    let kb = run_equivocation(&mut net, 1);
    net.run(5_000);

    let victim = net.engine(5);
    assert!(
        !victim.poisoned().contains(&(0, kb)),
        "the eclipsed victim heard neither the equivocation nor the proof"
    );
    assert!(!net.converged(), "victim diverged while eclipsed");

    net.release(5);
    // The sockpuppet leaves the network (it relayed nothing, so it is still at
    // genesis — an attacker node makes no honest-convergence claim).
    net.crash(6);
    assert!(net.run(30_000), "healed network goes quiescent");
    // The re-dialed honest peers push their recorded poisons at handshake —
    // floods are one-shot, so this is the only path a dark node has.
    assert!(
        net.engine(5).poisoned().contains(&(0, kb)),
        "handshake poison push reached the healed victim"
    );
    assert_poisoned_everywhere(&net, kb, 7);
}

#[test]
fn long_range_rewrite_is_refused_beyond_finality() {
    let mut params = chaos_params();
    params.finality_depth = 2;
    params.checkpoint_interval = 1;
    let mut net = net_with(5, 29, params);
    net.mine_key_block(0);
    net.run(1_000);
    assert!(net.converged());

    // Isolate node 4 with only the shared first epoch, then let the honest
    // majority advance past its finality depth.
    net.partition(&[&[0, 1, 2, 3], &[4]]);
    for round in 0..4 {
        net.mine_key_block(round % 2);
        net.run(500);
    }
    net.run(2_000);
    let honest_tip = net.engine(0).tip();
    let honest_height = net.engine(0).height();
    assert!(honest_height > params.finality_depth + 1);

    // The attacker secretly mines a strictly heavier chain from the old fork
    // point — the classic long-range rewrite.
    for _ in 0..6 {
        net.mine_key_block(4);
        net.run(200);
    }
    assert!(net.engine(4).height() > honest_height);

    net.heal();
    net.run(30_000);
    // Documented failure bound: honest nodes refuse to rewind finalized
    // blocks, so they keep their tip and stay mutually converged; the attacker
    // is permanently stranded on its heavier-but-too-late branch.
    for honest in [0, 1, 2, 3] {
        assert_eq!(
            net.engine(honest).tip(),
            honest_tip,
            "node {honest} kept the finalized chain"
        );
    }
    assert_ne!(net.engine(4).tip(), honest_tip, "attacker stayed stranded");
}

#[test]
fn churn_under_load_converges_after_the_plan_drains() {
    for seed in [5u64, 17, 59] {
        let nodes = 7;
        let mut config = SimConfig::new(nodes, seed);
        config.params = chaos_params();
        config.auto_microblocks = true;
        let mut net = SimNet::new(config);
        net.connect_mesh(&(0..nodes).collect::<Vec<_>>());
        net.run(1_000);
        net.mine_key_block(0);
        net.run(1_000);

        // Nodes 0..3 stay stable (the leader and relay quorum); 3..7 churn with
        // crash/cold-restart cycles, one link is throttled, one clock drifts.
        let start = net.now_ms();
        net.apply_fault_plan(
            FaultPlan::churn(seed, &[3, 4, 5, 6], start + 500, start + 12_000, 4_000, 800)
                .at(start + 250, Fault::ClockSkew { node: 2, skew_ms: 300 })
                .at(
                    start + 250,
                    Fault::LinkBandwidth {
                        from: 0,
                        to: 1,
                        bytes_per_ms: 64,
                    },
                ),
        );
        // Sustained load while the plan fires: the leader streams microblocks
        // autonomously; fresh transactions keep entering at a stable node.
        for batch in 0u64..12 {
            assert!(net.submit_tx(1, test_tx(1_000 + seed * 100 + batch)));
            net.run(1_500);
        }
        assert!(net.run(60_000), "seed {seed}: plan and queue drain");
        for node in 0..nodes {
            assert!(!net.is_down(node), "seed {seed}: every restart fired");
        }
        assert!(net.converged(), "seed {seed}: {}", net.report());
        let snaps = net.snapshots();
        assert!(
            snaps.iter().all(|s| s.mempool_len == 0),
            "seed {seed}: load fully serialized despite churn"
        );
        assert!(
            snaps[1].counters.microblocks_produced == 0,
            "seed {seed}: only the leader streams"
        );
    }
}

#[test]
fn equivocation_detection_survives_concurrent_churn() {
    // The tentpole composition: the fraud-proof pipeline must still converge
    // while an unrelated corner of the network is crash-looping.
    let mut net = net_with(8, 137, chaos_params());
    let start = net.now_ms();
    net.apply_fault_plan(FaultPlan::churn(137, &[6, 7], start, start + 8_000, 3_000, 600));
    let kb = run_equivocation(&mut net, 2);
    assert!(net.run(60_000), "plan and queue drain");
    assert_poisoned_everywhere(&net, kb, 8);
}
