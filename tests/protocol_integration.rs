//! Cross-crate integration tests: the Bitcoin-NG protocol driven through the facade
//! crate, exercising leader election, microblock serialization, fee distribution,
//! reorganisation across epochs and the poison-transaction lifecycle end to end.

use bitcoin_ng::chain::amount::Amount;
use bitcoin_ng::chain::payload::Payload;
use bitcoin_ng::core::block::{MicroBlock, MicroHeader};
use bitcoin_ng::core::{NgBlock, NgNode, NgParams, PoisonError};
use bitcoin_ng::crypto::signer::SchnorrSigner;

fn fast_params() -> NgParams {
    NgParams {
        microblock_interval_ms: 100,
        min_microblock_interval_ms: 10,
        ..NgParams::default()
    }
}

fn payload(tag: u64, fees: u64) -> Payload {
    Payload::Synthetic {
        bytes: 1_000,
        tx_count: 4,
        total_fees: Amount::from_sats(fees),
        tag,
    }
}

/// Delivers a block to every node in the slice except `from`.
fn broadcast(nodes: &mut [NgNode], from: usize, block: &NgBlock, now_ms: u64) {
    for (i, node) in nodes.iter_mut().enumerate() {
        if i != from {
            node.on_block(block.clone(), now_ms).expect("valid block");
        }
    }
}

#[test]
fn five_node_network_converges_across_three_epochs() {
    let params = fast_params();
    let mut nodes: Vec<NgNode> = (0..5).map(|id| NgNode::new(id, params, 1)).collect();

    let mut now = 1_000u64;
    for epoch in 0..3usize {
        let leader = epoch % nodes.len();
        let kb = nodes[leader].mine_and_adopt_key_block(now);
        broadcast(&mut nodes, leader, &NgBlock::Key(kb), now + 50);
        now += 500;
        for m in 0..4u64 {
            let micro = nodes[leader]
                .produce_microblock(now, payload(epoch as u64 * 10 + m, 100))
                .expect("leader in rate");
            broadcast(&mut nodes, leader, &NgBlock::Micro(micro), now + 50);
            now += 500;
        }
        now += 10_000;
    }

    // All nodes agree on the same tip and chain composition.
    let tip = nodes[0].tip();
    for node in &nodes {
        assert_eq!(node.tip(), tip);
        assert_eq!(node.chain().key_blocks_on_main_chain().len(), 3 + 1); // + genesis epoch key
        assert_eq!(node.chain().microblocks_on_main_chain().len(), 12);
    }
    assert_eq!(nodes[0].current_leader(), Some(2));
}

#[test]
fn fees_split_forty_sixty_between_consecutive_leaders() {
    let params = fast_params();
    let mut alice = NgNode::new(1, params, 3);
    let mut bob = NgNode::new(2, params, 3);

    let kb1 = alice.mine_and_adopt_key_block(1_000);
    bob.on_block(NgBlock::Key(kb1), 1_001).unwrap();

    // Alice serializes 10,000 sats of fees during her epoch.
    let micro = alice.produce_microblock(1_200, payload(1, 10_000)).unwrap();
    bob.on_block(NgBlock::Micro(micro), 1_201).unwrap();

    let kb2 = bob.mine_and_adopt_key_block(2_000);
    // Alice (previous leader) gets exactly 40%.
    let alice_output = kb2
        .coinbase
        .iter()
        .find(|o| o.address == alice.keys().address())
        .expect("previous leader paid");
    assert_eq!(alice_output.amount, Amount::from_sats(4_000));
    // Bob gets the block reward plus 60% of the epoch fees.
    let bob_output = kb2
        .coinbase
        .iter()
        .find(|o| o.address == bob.keys().address())
        .expect("new leader paid");
    assert_eq!(
        bob_output.amount,
        params.key_block_reward + Amount::from_sats(6_000)
    );
}

#[test]
fn microblocks_do_not_add_chain_weight() {
    // A branch with one key block and many microblocks loses to a branch with two key
    // blocks (§4.2: "microblocks do not affect the weight of the chain").
    let params = fast_params();
    let mut observer = NgNode::new(9, params, 5);
    let mut light = NgNode::new(1, params, 5); // one key block, many microblocks
    let mut heavy_a = NgNode::new(2, params, 5); // two key blocks
    let mut heavy_b = NgNode::new(3, params, 5);

    // Branch L: key block + 5 microblocks.
    let kb_light = light.mine_and_adopt_key_block(1_000);
    observer.on_block(NgBlock::Key(kb_light.clone()), 1_001).unwrap();
    let mut now = 1_100;
    for i in 0..5u64 {
        let micro = light.produce_microblock(now, payload(i, 10)).unwrap();
        observer.on_block(NgBlock::Micro(micro), now + 1).unwrap();
        now += 200;
    }
    assert_eq!(observer.current_leader(), Some(1));

    // Branch H: two key blocks built on the same genesis, exchanged only between the
    // heavy miners (they never saw branch L).
    let kb_a = heavy_a.mine_and_adopt_key_block(1_050);
    heavy_b.on_block(NgBlock::Key(kb_a.clone()), 1_060).unwrap();
    let kb_b = heavy_b.mine_and_adopt_key_block(2_000);

    // The observer now learns about branch H: two key blocks outweigh one key block
    // plus any number of microblocks.
    observer.on_block(NgBlock::Key(kb_a), 2_100).unwrap();
    observer.on_block(NgBlock::Key(kb_b.clone()), 2_101).unwrap();
    assert_eq!(observer.tip(), kb_b.id());
    assert_eq!(observer.current_leader(), Some(3));
    // The light branch's microblocks are all pruned.
    assert_eq!(observer.chain().microblocks_on_main_chain().len(), 0);
}

#[test]
fn microblock_fork_on_leader_switch_resolves_to_new_key_block() {
    // §4.3 / Figure 2: the old leader keeps producing microblocks until it hears the
    // new key block; nodes that saw those microblocks prune them when the key block
    // arrives.
    let params = fast_params();
    let mut old_leader = NgNode::new(1, params, 7);
    let mut new_leader = NgNode::new(2, params, 7);
    let mut user = NgNode::new(3, params, 7);

    let kb1 = old_leader.mine_and_adopt_key_block(1_000);
    for n in [&mut new_leader, &mut user] {
        n.on_block(NgBlock::Key(kb1.clone()), 1_001).unwrap();
    }
    let shared_micro = old_leader.produce_microblock(1_200, payload(1, 5)).unwrap();
    for n in [&mut new_leader, &mut user] {
        n.on_block(NgBlock::Micro(shared_micro.clone()), 1_201).unwrap();
    }

    // The new leader mines a key block on the shared microblock... but the old leader
    // has not heard it yet and keeps extending its own chain.
    let kb2 = new_leader.mine_and_adopt_key_block(2_000);
    let stale_micro = old_leader.produce_microblock(2_050, payload(2, 5)).unwrap();

    // The user sees the stale microblock first (it will be pruned), then the key block.
    user.on_block(NgBlock::Micro(stale_micro.clone()), 2_060).unwrap();
    assert_eq!(user.tip(), stale_micro.id());
    user.on_block(NgBlock::Key(kb2.clone()), 2_100).unwrap();
    assert_eq!(user.tip(), kb2.id());
    assert!(!user.chain().store().is_in_main_chain(&stale_micro.id()));
    assert_eq!(user.current_leader(), Some(2));

    // The old leader also switches once the key block reaches it.
    old_leader.on_block(NgBlock::Key(kb2.clone()), 2_110).unwrap();
    assert_eq!(old_leader.tip(), kb2.id());
    assert!(!old_leader.is_leader());
}

#[test]
fn invalid_microblocks_rejected_by_followers() {
    let params = fast_params();
    let mut leader = NgNode::new(1, params, 2);
    let mut follower = NgNode::new(2, params, 2);
    let kb = leader.mine_and_adopt_key_block(1_000);
    follower.on_block(NgBlock::Key(kb.clone()), 1_001).unwrap();

    // A microblock signed by a non-leader is rejected.
    let impostor = NgNode::new(5, params, 2);
    let forged_payload = payload(9, 10);
    let forged_header = MicroHeader {
        prev: kb.id(),
        time_ms: 1_300,
        payload_digest: forged_payload.digest(),
        leader: 5,
    };
    let forged = MicroBlock {
        signature: SchnorrSigner::new(*impostor.keys()).sign(&forged_header.signing_hash()),
        header: forged_header,
        payload: forged_payload,
    };
    assert!(follower.on_block(NgBlock::Micro(forged), 1_301).is_err());

    // A microblock violating the minimum spacing is rejected.
    let too_soon_payload = payload(10, 10);
    let too_soon_header = MicroHeader {
        prev: kb.id(),
        time_ms: kb.time_ms + 1, // below min_microblock_interval_ms
        payload_digest: too_soon_payload.digest(),
        leader: 1,
    };
    let too_soon = MicroBlock {
        signature: SchnorrSigner::new(*leader.keys()).sign(&too_soon_header.signing_hash()),
        header: too_soon_header,
        payload: too_soon_payload,
    };
    assert!(follower.on_block(NgBlock::Micro(too_soon), 1_400).is_err());

    // A microblock whose payload does not match the committed digest is rejected.
    let good = leader.produce_microblock(1_500, payload(11, 10)).unwrap();
    let mut tampered = good.clone();
    tampered.payload = payload(12, 999);
    assert!(follower.on_block(NgBlock::Micro(tampered), 1_501).is_err());
    // The untampered original is accepted.
    follower.on_block(NgBlock::Micro(good), 1_502).unwrap();
}

#[test]
fn poison_lifecycle_across_nodes() {
    let params = fast_params();
    let mut mallory = NgNode::new(1, params, 4);
    let mut carol = NgNode::new(3, params, 4);
    let mut dave = NgNode::new(4, params, 4);

    let kb = mallory.mine_and_adopt_key_block(1_000);
    carol.on_block(NgBlock::Key(kb.clone()), 1_001).unwrap();
    dave.on_block(NgBlock::Key(kb.clone()), 1_001).unwrap();

    // Mallory equivocates.
    let public = mallory.produce_microblock(1_200, payload(1, 500)).unwrap();
    let secret_payload = payload(2, 500);
    let secret_header = MicroHeader {
        prev: kb.id(),
        time_ms: 1_201,
        payload_digest: secret_payload.digest(),
        leader: 1,
    };
    let secret = MicroBlock {
        signature: SchnorrSigner::new(*mallory.keys()).sign(&secret_header.signing_hash()),
        header: secret_header,
        payload: secret_payload,
    };

    carol.on_block(NgBlock::Micro(public.clone()), 1_210).unwrap();
    carol.on_block(NgBlock::Micro(secret.clone()), 1_215).unwrap();

    let poison = carol.build_poison(&public, &secret).expect("fraud observed");
    let effect = carol
        .accept_poison(&poison, Amount::from_sats(100_000))
        .expect("valid evidence");
    assert_eq!(effect.revoked_leader, 1);
    assert_eq!(effect.poisoner_reward, Amount::from_sats(5_000));
    assert_eq!(effect.burned, Amount::from_sats(95_000));

    // Dave accepts the very same proof regardless of which sibling his own main
    // chain carries: two signed headers under one parent are objective evidence,
    // not a claim about anyone's local fork choice. (He has seen the parent key
    // block, which is all the attribution needs.)
    dave.on_block(NgBlock::Micro(public.clone()), 1_220).unwrap();
    let dave_effect = dave
        .accept_poison(&poison, Amount::from_sats(100_000))
        .expect("fraud proofs are objective");
    assert_eq!(dave_effect.revoked_leader, 1);

    // A second poison against the same cheater in the same epoch is rejected.
    assert_eq!(
        carol.accept_poison(&poison, Amount::from_sats(100_000)),
        Err(PoisonError::AlreadyPoisoned)
    );

    // Framing attempt: citing one innocently pruned microblock (here, the same
    // header twice) is no conflict and convinces nobody.
    let mut framed = poison.clone();
    framed.header_b = framed.header_a.clone();
    framed.signature_b = framed.signature_a.clone();
    assert_eq!(
        dave.accept_poison(&framed, Amount::from_sats(100_000)),
        Err(PoisonError::NoConflict)
    );
}

#[test]
fn confirmation_rule_waits_for_propagation_delay() {
    // §4.3: "a user that sees a microblock should wait for the propagation time of the
    // network before considering it in the chain".
    let params = fast_params();
    let mut leader = NgNode::new(1, params, 8);
    let mut user = NgNode::new(2, params, 8);
    let kb = leader.mine_and_adopt_key_block(1_000);
    user.on_block(NgBlock::Key(kb), 1_001).unwrap();
    let micro = leader.produce_microblock(1_200, payload(1, 10)).unwrap();
    user.on_block(NgBlock::Micro(micro.clone()), 1_210).unwrap();

    let propagation_delay = 5_000;
    assert!(!user
        .chain()
        .is_confirmed(&micro.id(), 1_300, propagation_delay));
    assert!(user
        .chain()
        .is_confirmed(&micro.id(), 1_210 + propagation_delay + 1, propagation_delay));
}
