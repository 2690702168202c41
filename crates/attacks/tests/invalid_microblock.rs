//! Attack scenario: a Byzantine **leader** signs microblocks whose transactions are
//! semantically invalid — spending nonexistent outpoints, or minting value out of
//! thin air.
//!
//! Before the incremental chainstate, honest nodes applied microblock transactions
//! to their ledger views unchecked: a `remove_unchecked` on a missing input silently
//! no-opped, so every honest node happily "converged" on the corrupt ledger. With
//! validate-on-connect the leader's signature still gets the block *into* the block
//! tree (it is structurally valid), but connecting it to the ledger validates every
//! transaction against the live UTXO view: honest nodes reject the block, cut it
//! out of the tree, refuse re-offered copies, and disconnect the peer that relayed
//! it — all asserted here end to end over SimNet.

use ng_chain::amount::Amount;
use ng_chain::transaction::{OutPoint, TransactionBuilder};
use ng_core::block::{MicroBlock, MicroHeader};
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::{sha256, Hash256};
use ng_crypto::signer::SchnorrSigner;
use ng_net::message::Message;
use ng_node::ledger::assert_supply_bounded;
use ng_node::simnet::{SimConfig, SimNet};

/// Validating parameters with fast microblock spacing and immediately spendable
/// coinbases (so a one-epoch scenario can move real coins).
fn validating_params() -> NgParams {
    NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 2,
        coinbase_maturity: 0,
        ..NgParams::default()
    }
}

fn net(nodes: usize, seed: u64) -> SimNet {
    let mut config = SimConfig::new(nodes, seed);
    config.params = validating_params();
    let mut net = SimNet::new(config);
    net.connect_mesh(&(0..nodes).collect::<Vec<_>>());
    net.run(1_000);
    net
}

/// A microblock correctly signed by `leader`'s key — the crafted carrier a
/// Byzantine leader would gossip.
fn leader_signed_microblock(
    leader: u64,
    prev: Hash256,
    time_ms: u64,
    txs: Vec<ng_chain::transaction::Transaction>,
) -> MicroBlock {
    let payload = ng_chain::payload::Payload::Transactions(txs);
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

#[test]
fn phantom_spend_microblock_is_rejected_and_leader_disconnected() {
    let mut net = net(3, 41);
    net.mine_key_block(0);
    net.run(1_000);
    let honest_tip = net.engine(1).tip();
    assert_eq!(honest_tip, net.engine(2).tip(), "epoch propagated");
    let clean = net.engine(1).utxo_commitment();
    assert_eq!(net.engine(1).ready_peer_count(), 2);

    // The leader signs a microblock spending an outpoint that does not exist.
    let phantom = TransactionBuilder::new()
        .input(OutPoint::new(sha256(b"no such output"), 0))
        .output(Amount::from_coins(1_000), KeyPair::from_id(9).address())
        .build();
    let evil = leader_signed_microblock(0, honest_tip, net.now_ms() + 10, vec![phantom]);
    let evil_id = evil.id();
    net.inject_message(0, 1, Message::MicroBlock(Box::new(evil.clone())));
    net.inject_message(0, 2, Message::MicroBlock(Box::new(evil)));
    net.run(2_000);

    for honest in [1, 2] {
        let engine = net.engine(honest);
        assert_eq!(engine.tip(), honest_tip, "node {honest} kept the clean tip");
        assert_eq!(engine.utxo_commitment(), clean, "node {honest} ledger untouched");
        assert!(
            !engine.node().chain().store().contains(&evil_id),
            "node {honest} cut the invalid block out of its tree"
        );
        assert!(
            engine.node().chain().is_invalid(&evil_id),
            "node {honest} remembers the block as invalid"
        );
        assert_eq!(
            engine.ready_peer_count(),
            1,
            "node {honest} disconnected the Byzantine leader, keeping only its honest peer"
        );
    }
    let snaps = net.snapshots();
    assert!(snaps[1].counters.blocks_rejected >= 1);
    assert!(snaps[1].counters.peers_misbehaved >= 1);
    assert_supply_bounded(net.live_engines());
}

#[test]
fn value_minting_microblock_is_rejected_by_every_honest_node() {
    let mut net = net(4, 43);
    let kb = {
        let id = net.mine_key_block(0);
        net.run(1_000);
        id
    };
    let clean = net.engine(1).utxo_commitment();

    // The leader spends its real 25-coin coinbase output but creates 1000 coins.
    let mut minting = TransactionBuilder::new()
        .input(OutPoint::new(kb, 0))
        .output(Amount::from_coins(1_000), KeyPair::from_id(0).address())
        .build();
    minting.sign_all_inputs(&SchnorrSigner::new(KeyPair::from_id(0)));
    let evil = leader_signed_microblock(0, net.engine(0).tip(), net.now_ms() + 10, vec![minting]);
    let evil_id = evil.id();
    for honest in [1, 2, 3] {
        net.inject_message(0, honest, Message::MicroBlock(Box::new(evil.clone())));
    }
    net.run(2_000);

    for honest in [1, 2, 3] {
        let engine = net.engine(honest);
        assert!(!engine.node().chain().store().contains(&evil_id));
        assert_eq!(engine.utxo_commitment(), clean, "no value was minted on node {honest}");
        assert_eq!(
            engine.ready_peer_count(),
            2,
            "node {honest} dropped only the Byzantine leader"
        );
    }
    // The honest majority still agrees with itself.
    assert_eq!(
        net.engine(1).utxo_commitment(),
        net.engine(2).utxo_commitment()
    );
    assert_eq!(
        net.engine(2).utxo_commitment(),
        net.engine(3).utxo_commitment()
    );
    assert_supply_bounded(net.live_engines());
}

#[test]
fn valid_spend_microblock_passes_validate_on_connect() {
    // Positive control: the same injection path with a *valid* spend is accepted by
    // every honest node — validate-on-connect rejects corruption, not commerce.
    let mut net = net(3, 47);
    let kb = net.mine_key_block(0);
    net.run(1_000);

    let mut spend = TransactionBuilder::new()
        .input(OutPoint::new(kb, 0))
        .output(Amount::from_coins(24), KeyPair::from_id(7).address())
        .build();
    spend.sign_all_inputs(&SchnorrSigner::new(KeyPair::from_id(0)));
    let good = leader_signed_microblock(0, net.engine(0).tip(), net.now_ms() + 10, vec![spend]);
    let good_id = good.id();
    net.inject_message(0, 1, Message::MicroBlock(Box::new(good.clone())));
    net.inject_message(0, 2, Message::MicroBlock(Box::new(good)));
    net.run(2_000);

    for honest in [1, 2] {
        let engine = net.engine(honest);
        assert_eq!(engine.tip(), good_id, "node {honest} adopted the valid microblock");
        assert_eq!(
            engine.utxo().balance_of(&KeyPair::from_id(7).address()),
            Amount::from_coins(24)
        );
        assert_eq!(engine.ready_peer_count(), 2, "nobody was disconnected");
    }
    assert_eq!(
        net.engine(1).utxo_commitment(),
        net.engine(2).utxo_commitment()
    );
    assert_supply_bounded(net.live_engines());
}
