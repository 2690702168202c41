//! Microblock equivocation double spends.
//!
//! A Bitcoin-NG leader can sign two conflicting microblocks and show each to a
//! different victim (§4.5). The defence is twofold: victims wait for the network
//! propagation time before trusting a microblock (§4.3), and any observer of the
//! equivocation can place a poison transaction revoking the cheater's epoch revenue.
//! This module runs the attack against real `NgNode`s and reports whether the victim
//! would have been fooled under a given confirmation wait, and what the attack costs
//! the cheater once poisoned.

use ng_chain::amount::Amount;
use ng_chain::payload::Payload;
use ng_core::block::{MicroBlock, MicroHeader, NgBlock};
use ng_core::node::NgNode;
use ng_core::params::NgParams;
use ng_core::poison::PoisonEffect;
use ng_crypto::rng::SimRng;
use ng_crypto::signer::SchnorrSigner;
use serde::{Deserialize, Serialize};

/// Parameters of an equivocation double-spend attempt.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EquivocationConfig {
    /// Protocol parameters (fee split, poison bounty, intervals).
    pub params: NgParams,
    /// Network propagation delay between the attacker and the victim, in ms.
    pub propagation_delay_ms: u64,
    /// How long the victim waits after seeing its microblock before accepting the
    /// payment, in ms (§4.3 says: at least the propagation time).
    pub victim_wait_ms: u64,
    /// Value of the payment the attacker tries to double-spend, in sats.
    pub payment_sats: u64,
    /// The attacker's epoch revenue at stake (key-block reward + 40% of epoch fees).
    pub epoch_revenue_sats: u64,
    /// Random seed.
    pub seed: u64,
}

impl Default for EquivocationConfig {
    fn default() -> Self {
        EquivocationConfig {
            params: NgParams {
                microblock_interval_ms: 1_000,
                min_microblock_interval_ms: 10,
                ..NgParams::default()
            },
            propagation_delay_ms: 2_000,
            victim_wait_ms: 3_000,
            payment_sats: 1_000_000,
            epoch_revenue_sats: 2_500_000,
            seed: 1,
        }
    }
}

/// What happened when the attack was run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EquivocationOutcome {
    /// Whether the victim accepted the payment before learning of the conflicting
    /// branch (i.e. the double spend would have succeeded against this victim).
    pub victim_fooled: bool,
    /// Whether an observer was able to build a valid poison transaction.
    pub poison_available: bool,
    /// The economic effect of the poison, if accepted.
    pub poison_effect: Option<PoisonEffect>,
    /// The attacker's net gain in sats: the double-spent payment (if the victim was
    /// fooled) minus the revoked epoch revenue (if poisoned).
    pub attacker_net_sats: i128,
}

/// Runs one equivocation attack against freshly constructed nodes.
///
/// The attacker is the current leader. It sends microblock A (paying the victim) to
/// the victim and microblock B (paying itself) to the rest of the network. The victim
/// waits `victim_wait_ms` before accepting; the conflicting branch reaches it after
/// `propagation_delay_ms`. An observer that sees both branches builds the poison.
pub fn simulate_equivocation(config: EquivocationConfig) -> EquivocationOutcome {
    let mut rng = SimRng::seed_from_u64(config.seed);
    let params = config.params;
    let mut attacker = NgNode::new(1, params, config.seed);
    let mut victim = NgNode::new(2, params, config.seed);
    let mut observer = NgNode::new(3, params, config.seed);

    // The attacker wins the leader election.
    let kb = attacker.mine_and_adopt_key_block(1_000);
    victim.on_block(NgBlock::Key(kb.clone()), 1_010).expect("key block valid");
    observer.on_block(NgBlock::Key(kb.clone()), 1_010).expect("key block valid");

    // Microblock A pays the victim; microblock B re-spends the same coins.
    let paying = attacker
        .produce_microblock(
            2_000,
            Payload::Synthetic {
                bytes: 500,
                tx_count: 1,
                total_fees: Amount::from_sats(100),
                tag: rng.next_u64(),
            },
        )
        .expect("leader produces");
    let conflicting_payload = Payload::Synthetic {
        bytes: 500,
        tx_count: 1,
        total_fees: Amount::from_sats(100),
        tag: rng.next_u64(),
    };
    let conflicting_header = MicroHeader {
        prev: kb.id(),
        time_ms: 2_001,
        payload_digest: conflicting_payload.digest(),
        leader: 1,
    };
    let conflicting = MicroBlock {
        signature: SchnorrSigner::new(*attacker.keys()).sign(&conflicting_header.signing_hash()),
        header: conflicting_header,
        payload: conflicting_payload,
    };

    // The victim sees the paying branch immediately; the conflicting branch reaches it
    // after the propagation delay.
    let seen_paying_at = 2_050;
    victim
        .on_block(NgBlock::Micro(paying.clone()), seen_paying_at)
        .expect("victim accepts the paying microblock");
    let conflict_arrives_at = seen_paying_at + config.propagation_delay_ms;
    let decision_time = seen_paying_at + config.victim_wait_ms;
    // If the victim's wait outlasts the propagation delay, it learns of the conflict
    // before accepting and is not fooled.
    let victim_fooled = decision_time < conflict_arrives_at;
    victim
        .on_block(NgBlock::Micro(conflicting.clone()), conflict_arrives_at)
        .expect("victim learns of the conflict");

    // The observer sees both branches (in whichever order) and builds the poison
    // from the pair: two signed headers under one parent are the proof of fraud.
    observer
        .on_block(NgBlock::Micro(conflicting.clone()), 2_100)
        .expect("observer accepts one branch");
    observer
        .on_block(NgBlock::Micro(paying.clone()), 2_150)
        .expect("observer buffers the other branch");
    let poison = observer.build_poison(&paying, &conflicting);
    let poison_available = poison.is_some();
    let poison_effect = poison.and_then(|p| {
        observer
            .accept_poison(&p, Amount::from_sats(config.epoch_revenue_sats))
            .ok()
    });

    let gained = if victim_fooled {
        config.payment_sats as i128
    } else {
        0
    };
    let lost = poison_effect
        .map(|e| e.revoked_amount.sats() as i128)
        .unwrap_or(0);

    EquivocationOutcome {
        victim_fooled,
        poison_available,
        poison_effect,
        attacker_net_sats: gained - lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patient_victim_is_not_fooled() {
        // Waiting longer than the propagation delay (§4.3) defeats the double spend.
        let outcome = simulate_equivocation(EquivocationConfig {
            propagation_delay_ms: 2_000,
            victim_wait_ms: 3_000,
            ..Default::default()
        });
        assert!(!outcome.victim_fooled);
        assert!(outcome.poison_available);
    }

    #[test]
    fn impatient_victim_is_fooled_but_attacker_still_loses() {
        let outcome = simulate_equivocation(EquivocationConfig {
            propagation_delay_ms: 5_000,
            victim_wait_ms: 500,
            payment_sats: 1_000_000,
            epoch_revenue_sats: 2_500_000,
            ..Default::default()
        });
        assert!(outcome.victim_fooled);
        // The poison revokes more than the attacker gained: equivocation is unprofitable
        // whenever the epoch revenue exceeds the double-spent amount.
        assert!(outcome.poison_available);
        assert!(outcome.attacker_net_sats < 0, "net {}", outcome.attacker_net_sats);
    }

    #[test]
    fn attack_profitable_only_for_payments_larger_than_epoch_revenue() {
        let outcome = simulate_equivocation(EquivocationConfig {
            propagation_delay_ms: 5_000,
            victim_wait_ms: 500,
            payment_sats: 10_000_000,
            epoch_revenue_sats: 2_500_000,
            ..Default::default()
        });
        assert!(outcome.victim_fooled);
        assert!(outcome.attacker_net_sats > 0);
        // ... which is exactly why high-value payments must wait for key-block
        // confirmations rather than microblock receipt.
    }

    #[test]
    fn poison_effect_matches_protocol_parameters() {
        let config = EquivocationConfig::default();
        let outcome = simulate_equivocation(config);
        let effect = outcome.poison_effect.expect("poison accepted");
        assert_eq!(effect.revoked_leader, 1);
        assert_eq!(
            effect.poisoner_reward,
            Amount::from_sats(config.epoch_revenue_sats)
                .mul_ratio(config.params.poison_reward_percent, 100)
        );
        assert_eq!(
            effect.poisoner_reward + effect.burned,
            Amount::from_sats(config.epoch_revenue_sats)
        );
    }
}
