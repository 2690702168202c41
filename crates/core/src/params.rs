//! Protocol parameters for Bitcoin-NG.
//!
//! The defaults follow the paper: 40%/60% fee split between the current and subsequent
//! leader (§4.4), a 100-block coinbase maturity (§4.4), a 5% poison-transaction bounty
//! (§4.5), and the evaluation's 100-second key-block / 10-second microblock intervals
//! (§8).

use ng_chain::amount::Amount;
use ng_crypto::pow::Target;
use serde::{Deserialize, Serialize};

/// Bitcoin-NG protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NgParams {
    /// Percentage of each transaction fee earned by the leader that serializes it
    /// (the paper fixes 40%, shown in §5.1 to lie in the incentive-compatible range).
    pub leader_fee_percent: u64,
    /// Reward minted by each key block for its miner.
    pub key_block_reward: Amount,
    /// Blocks a coinbase must wait before being spendable (§4.4: 100).
    pub coinbase_maturity: u64,
    /// Percentage of a revoked leader's compensation granted to the poisoner (§4.5: 5%).
    pub poison_reward_percent: u64,
    /// Minimum spacing between successive microblocks from one leader, in milliseconds.
    /// "if its difference with its predecessor's timestamp is smaller than the minimum,
    /// then the microblock is invalid" (§4.2).
    pub min_microblock_interval_ms: u64,
    /// Planned spacing between microblocks, in milliseconds (the leader's production
    /// rate; must be ≥ the minimum interval).
    pub microblock_interval_ms: u64,
    /// Maximum serialized microblock size in bytes (§4.2: "The size of microblocks is
    /// bounded by a predefined maximum").
    pub max_microblock_bytes: u64,
    /// Target average key-block interval in milliseconds (the evaluation uses 100 s).
    pub key_block_interval_ms: u64,
    /// Proof-of-work target for key blocks (simulations use an easy target and replace
    /// mining with a scheduler, as the paper does).
    pub key_block_target: Target,
    /// Whether *this node* verifies the leader signature of the microblocks it
    /// receives. The paper's testbed skips the check (§7) and so does `ng_sim`; the
    /// library enables it by default. Purely local: leaders sign either way, and
    /// nothing a peer sends can switch it off.
    pub verify_microblock_signatures: bool,
    /// Whether microblock transactions are fully validated against the live UTXO view
    /// when a block connects to the ledger (inputs exist and are unspent, coinbase
    /// maturity, input signatures, no value inflation). Enabled by default — a
    /// Byzantine leader must not be able to spend nonexistent outputs or mint value.
    /// The synthetic-workload harnesses disable it, mirroring the paper's testbed
    /// methodology (§7) of skipping per-transaction checks.
    pub validate_transactions: bool,
    /// How far in the future a block timestamp may lie (milliseconds) before the block
    /// is rejected.
    pub max_future_drift_ms: u64,
    /// Blocks below `tip_height − finality_depth` are final: a reorg that would
    /// disconnect one is rejected outright, and its undo record can be pruned. The
    /// default matches the two-week difficulty window used as `FINALITY_DEPTH` by
    /// deployed NG-style chains, which is deeper than any honest reorg.
    pub finality_depth: u64,
    /// How often (in key-block/microblock heights) the durable backend writes a full
    /// UTXO snapshot and finality checkpoint. Restart cost is bounded by replaying at
    /// most this many blocks past the newest snapshot.
    pub checkpoint_interval: u64,
}

impl Default for NgParams {
    fn default() -> Self {
        NgParams {
            leader_fee_percent: 40,
            key_block_reward: Amount::from_coins(25),
            coinbase_maturity: 100,
            poison_reward_percent: 5,
            min_microblock_interval_ms: 100,
            microblock_interval_ms: 10_000,
            max_microblock_bytes: 100_000,
            key_block_interval_ms: 100_000,
            key_block_target: Target::regtest(),
            verify_microblock_signatures: true,
            validate_transactions: true,
            max_future_drift_ms: 2 * 60 * 60 * 1000,
            finality_depth: 2016,
            checkpoint_interval: 256,
        }
    }
}

impl NgParams {
    /// The next-leader share of fees (100 − leader share).
    pub fn next_leader_fee_percent(&self) -> u64 {
        100 - self.leader_fee_percent
    }

    /// Serialized overhead of a microblock on top of its payload: the 88-byte header
    /// plus the 65-byte Schnorr signature.
    pub const MICROBLOCK_OVERHEAD_BYTES: u64 = 88 + 65;

    /// Largest payload that still fits in a valid microblock under
    /// [`max_microblock_bytes`](Self::max_microblock_bytes), accounting for the header
    /// and signature overhead. Workload generators must size payloads with this, not
    /// with the raw block-size limit.
    pub fn max_microblock_payload_bytes(&self) -> u64 {
        self.max_microblock_bytes
            .saturating_sub(Self::MICROBLOCK_OVERHEAD_BYTES)
    }

    /// Validates internal consistency of the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.leader_fee_percent > 100 {
            return Err("leader_fee_percent must be ≤ 100".into());
        }
        if self.poison_reward_percent > 100 {
            return Err("poison_reward_percent must be ≤ 100".into());
        }
        if self.microblock_interval_ms < self.min_microblock_interval_ms {
            return Err("microblock interval below the protocol minimum".into());
        }
        if self.key_block_interval_ms == 0 {
            return Err("key block interval must be positive".into());
        }
        if self.finality_depth == 0 {
            return Err("finality depth must be positive".into());
        }
        if self.checkpoint_interval == 0 {
            return Err("checkpoint interval must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = NgParams::default();
        assert_eq!(p.leader_fee_percent, 40);
        assert_eq!(p.next_leader_fee_percent(), 60);
        assert_eq!(p.coinbase_maturity, 100);
        assert_eq!(p.poison_reward_percent, 5);
        assert!(p.verify_microblock_signatures);
        assert!(p.validate_transactions, "full tx validation is the default");
        assert_eq!(p.finality_depth, 2016, "one difficulty window deep");
        assert_eq!(p.checkpoint_interval, 256);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn payload_budget_leaves_room_for_header_and_signature() {
        let p = NgParams {
            max_microblock_bytes: 10_000,
            ..NgParams::default()
        };
        assert_eq!(p.max_microblock_payload_bytes(), 10_000 - 153);
        // Degenerate limits never underflow.
        let tiny = NgParams {
            max_microblock_bytes: 10,
            ..NgParams::default()
        };
        assert_eq!(tiny.max_microblock_payload_bytes(), 0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let p = NgParams {
            leader_fee_percent: 150,
            ..NgParams::default()
        };
        assert!(p.validate().is_err());

        let p = NgParams {
            microblock_interval_ms: 1,
            min_microblock_interval_ms: 10,
            ..NgParams::default()
        };
        assert!(p.validate().is_err());

        let p = NgParams {
            key_block_interval_ms: 0,
            ..NgParams::default()
        };
        assert!(p.validate().is_err());

        let p = NgParams {
            finality_depth: 0,
            ..NgParams::default()
        };
        assert!(p.validate().is_err());

        let p = NgParams {
            checkpoint_interval: 0,
            ..NgParams::default()
        };
        assert!(p.validate().is_err());
    }
}
