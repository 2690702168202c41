//! Poison transactions: punishing an equivocating leader with a fraud proof.
//!
//! Microblocks cost nothing to produce, so a malicious leader can sign two different
//! microblocks with the same parent and show each half of the network a different
//! ledger — the setup for a double spend. Bitcoin-NG deters this economically: any
//! node that observes the equivocation can place a *poison transaction* citing both
//! conflicting signed headers as proof of fraud, revoking the cheater's epoch revenue
//! and collecting a bounty (§4.5).
//!
//! Run with:
//!
//! ```sh
//! cargo run --example poison_fraud_proof
//! ```

use bitcoin_ng::chain::amount::Amount;
use bitcoin_ng::chain::payload::Payload;
use bitcoin_ng::core::block::{MicroBlock, MicroHeader};
use bitcoin_ng::core::{NgBlock, NgNode, NgParams, PoisonError};
use bitcoin_ng::crypto::signer::SchnorrSigner;

fn payload(tag: u64, fees: u64) -> Payload {
    Payload::Synthetic {
        bytes: 2_000,
        tx_count: 8,
        total_fees: Amount::from_sats(fees),
        tag,
    }
}

fn main() {
    let params = NgParams {
        microblock_interval_ms: 1_000,
        min_microblock_interval_ms: 10,
        ..NgParams::default()
    };

    // Mallory will equivocate; Carol and Dave are honest observers on different sides
    // of the network partition Mallory is trying to exploit.
    let mut mallory = NgNode::new(1, params, 11);
    let mut carol = NgNode::new(3, params, 11);
    let mut dave = NgNode::new(4, params, 11);

    println!("== Bitcoin-NG poison transaction (fraud proof) ==\n");

    // Mallory wins the leader election.
    let kb = mallory.mine_and_adopt_key_block(1_000);
    carol.on_block(NgBlock::Key(kb.clone()), 1_050).unwrap();
    dave.on_block(NgBlock::Key(kb.clone()), 1_060).unwrap();
    println!("Mallory mined key block {} and leads the epoch", kb.id());

    // Mallory signs TWO microblocks with the same parent: one paying a merchant, one
    // quietly sending the same coins back to herself.
    let honest_looking = mallory
        .produce_microblock(2_000, payload(1, 5_000))
        .expect("leader produces");
    let conflicting_payload = payload(2, 5_000);
    let conflicting_header = MicroHeader {
        prev: kb.id(),
        time_ms: 2_001,
        payload_digest: conflicting_payload.digest(),
        leader: 1,
    };
    let conflicting = MicroBlock {
        signature: SchnorrSigner::new(*mallory.keys()).sign(&conflicting_header.signing_hash()),
        header: conflicting_header,
        payload: conflicting_payload,
    };
    println!("\nMallory equivocates: two signed microblocks share parent {}", kb.id());
    println!("  branch A: {}", honest_looking.id());
    println!("  branch B: {}", conflicting.id());

    // Carol sees branch A first, Dave sees branch B first: the brains are split.
    carol.on_block(NgBlock::Micro(honest_looking.clone()), 2_100).unwrap();
    carol.on_block(NgBlock::Micro(conflicting.clone()), 2_150).unwrap();
    dave.on_block(NgBlock::Micro(conflicting.clone()), 2_100).unwrap();
    dave.on_block(NgBlock::Micro(honest_looking.clone()), 2_150).unwrap();
    println!("\nCarol's tip: {}", carol.tip());
    println!("Dave's  tip: {}", dave.tip());

    // Carol notices the equivocation: the two signed siblings together are the proof
    // of fraud — self-contained evidence no main-chain state can argue with.
    let poison = carol
        .build_poison(&honest_looking, &conflicting)
        .expect("equivocation observed");
    println!(
        "\nCarol builds a poison transaction citing conflicting microblocks {} and {}",
        poison.header_a.id(),
        poison.header_b.id()
    );

    // Mallory's epoch revenue (block reward + her 40% of fees) is what gets revoked.
    let epoch_revenue = Amount::from_sats(2_504_000);
    let effect = carol
        .accept_poison(&poison, epoch_revenue)
        .expect("valid fraud proof");
    println!("\nEconomic effect of the accepted poison transaction:");
    println!("  revoked from Mallory : {:>10} sats", effect.revoked_amount.sats());
    println!("  bounty to the poisoner: {:>9} sats ({}%)", effect.poisoner_reward.sats(), params.poison_reward_percent);
    println!("  burned                : {:>10} sats", effect.burned.sats());
    assert_eq!(effect.poisoner_reward + effect.burned, effect.revoked_amount);

    // Only one poison transaction can be placed per cheater per epoch (§4.5).
    let again = carol.accept_poison(&poison, epoch_revenue);
    assert_eq!(again, Err(PoisonError::AlreadyPoisoned));
    println!("\nA second poison against the same cheater is rejected: {:?}", again.unwrap_err());

    // A single microblock — even a pruned one — is no evidence of fraud: a proof
    // requires two distinct signed headers under one parent, so honest leaders whose
    // tails are innocently pruned by a competing key block cannot be framed.
    assert!(carol.build_poison(&honest_looking, &honest_looking).is_none());
    println!("A lone (or pruned) microblock is not fraud evidence — honest leaders are safe.");

    println!("\nEquivocation is detectable, attributable, and unprofitable: the revenue Mallory");
    println!("hoped to double-spend is revoked before it matures (100-block coinbase maturity).");
}
