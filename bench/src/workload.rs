//! The one seeded generator behind all four workloads.
//!
//! Everything a node receives is produced here from `--seed`: the fan-out that
//! splits a leader's coinbase into spendable outputs, the pre-signed spends,
//! the synthetic `test_tx` stream, and the open-loop schedule that says when
//! each submit is *due*. The node code never sees the seed itself.

use ng_chain::amount::Amount;
use ng_chain::transaction::{OutPoint, Transaction, TransactionBuilder};
use ng_core::params::NgParams;
use ng_crypto::keys::{Address, KeyPair};
use ng_crypto::rng::SimRng;
use ng_crypto::sha256::{sha256, Hash256};
use ng_crypto::signer::SchnorrSigner;

/// Fee every spend leaves to the leader, in satoshis.
pub const SPEND_FEE_SATS: u64 = 100;

/// Distinct wallet keys the fan-out outputs are spread over.
const WALLET_KEYS: u64 = 8;

/// Serialized bytes of one signed single-owner input and of one output
/// (`Transaction::serialized_size`), used to size fan-out transactions.
const INPUT_BYTES: u64 = 32 + 4 + 1 + 1 + 33 + 65;
const OUTPUT_BYTES: u64 = 8 + 32;
const TX_FRAME_BYTES: u64 = 4 + 4 + 4;

/// The signed-spend workload: a two-level fan-out of one coinbase plus one
/// pre-signed 1-in/1-out Schnorr spend per fan-out leaf.
pub struct SignedWorkload {
    /// Fan-out levels in dependency order; every transaction of a level must
    /// be confirmed before the next level (and the spends) can validate.
    pub fanout: Vec<Vec<Transaction>>,
    /// The spends, in seeded submission order.
    pub spends: Vec<Transaction>,
    /// `spends[i].txid()`, computed once.
    pub txids: Vec<Hash256>,
    /// A key that owns some of the spent outputs (the signing replay uses it).
    pub wallet: KeyPair,
}

/// Most outputs a single-input fan-out transaction can carry and still fit an
/// otherwise empty microblock.
pub fn fanout_outputs_per_tx(params: &NgParams) -> u64 {
    (params.max_microblock_payload_bytes() - TX_FRAME_BYTES - INPUT_BYTES) / OUTPUT_BYTES
}

/// Builds the signed workload: `count` spends over a two-level fan-out of the
/// coinbase output `coinbase` (worth `value`, owned by `owner`).
pub fn signed(
    seed: u64,
    coinbase: OutPoint,
    value: Amount,
    owner: &KeyPair,
    count: usize,
    params: &NgParams,
) -> SignedWorkload {
    assert!(count >= 1);
    let mut rng = SimRng::seed_from_u64(seed);
    let wallets: Vec<KeyPair> = (0..WALLET_KEYS)
        .map(|k| KeyPair::from_seed(&[&seed.to_le_bytes()[..], &k.to_le_bytes()[..]].concat()))
        .collect();
    let signers: Vec<SchnorrSigner> = wallets.iter().map(|w| SchnorrSigner::new(*w)).collect();
    let per_tx = fanout_outputs_per_tx(params) as usize;
    let branches = count.div_ceil(per_tx);
    assert!(
        branches <= per_tx,
        "a two-level fan-out cannot reach {count} leaves"
    );

    // Level 1: the coinbase into one output per level-2 transaction.
    let branch_value = value.sats() / branches as u64;
    let mut root = TransactionBuilder::new().input(coinbase);
    for b in 0..branches {
        root = root.output(
            Amount::from_sats(branch_value),
            wallets[b % wallets.len()].address(),
        );
    }
    let mut root = root.build();
    root.sign_all_inputs(&SchnorrSigner::new(*owner));
    let root_id = root.txid();

    // Level 2: each branch into up to `per_tx` leaves.
    let mut level2 = Vec::with_capacity(branches);
    // (outpoint, value, index of the owning wallet key)
    let mut leaves: Vec<(OutPoint, Amount, usize)> = Vec::with_capacity(count);
    for b in 0..branches {
        let fan = per_tx.min(count - b * per_tx);
        let leaf_value = Amount::from_sats(branch_value / fan as u64);
        assert!(
            leaf_value.sats() > SPEND_FEE_SATS,
            "coinbase too small for {count} spends"
        );
        let mut tx = TransactionBuilder::new().input(OutPoint::new(root_id, b as u32));
        for leaf in 0..fan {
            tx = tx.output(leaf_value, wallets[leaf % wallets.len()].address());
        }
        let mut tx = tx.build();
        tx.sign_all_inputs(&signers[b % signers.len()]);
        let txid = tx.txid();
        for leaf in 0..fan {
            leaves.push((
                OutPoint::new(txid, leaf as u32),
                leaf_value,
                leaf % wallets.len(),
            ));
        }
        level2.push(tx);
    }

    // Submission order is seeded, not UTXO-creation order.
    rng.shuffle(&mut leaves);
    let mut spends = Vec::with_capacity(count);
    let mut txids = Vec::with_capacity(count);
    for (outpoint, value, key) in leaves {
        let mut label = [0u8; 8];
        rng.fill_bytes(&mut label);
        let mut tx = TransactionBuilder::new()
            .input(outpoint)
            .output(
                Amount::from_sats(value.sats() - SPEND_FEE_SATS),
                Address(sha256(&label)),
            )
            .build();
        tx.sign_all_inputs(&signers[key]);
        txids.push(tx.txid());
        spends.push(tx);
    }
    SignedWorkload {
        fanout: vec![vec![root], level2],
        spends,
        txids,
        wallet: wallets[0],
    }
}

/// The synthetic stream of the paper's §7 testbed method: `count` independent
/// `test_tx` transactions whose inputs do not exist (validation must be off).
/// Distinct seeds draw from disjoint sequence ranges.
pub fn synthetic(seed: u64, count: usize) -> (Vec<Transaction>, Vec<Hash256>) {
    let base = (seed % (1 << 24)) << 32;
    let txs: Vec<Transaction> = (0..count as u64)
        .map(|i| ng_node::testnet::test_tx(base + i))
        .collect();
    let txids = txs.iter().map(Transaction::txid).collect();
    (txs, txids)
}

/// An open-loop schedule: submit `index` is due `index / rate` time units after
/// the loop starts, whatever the system under test is doing. Latency is timed
/// from the due time, so a stall is charged to every submit it delays.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Submits per time unit (per second on the wall clock, per millisecond on
    /// the simulated clock).
    pub rate: f64,
}

impl OpenLoop {
    /// When submit `index` is due, in the schedule's time unit.
    pub fn due(&self, index: usize) -> f64 {
        index as f64 / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::transaction::TxOutput;
    use ng_chain::utxo::{UtxoEntry, UtxoSet};

    fn params() -> NgParams {
        NgParams {
            coinbase_maturity: 0,
            ..NgParams::default()
        }
    }

    #[test]
    fn fanout_transactions_fit_a_microblock() {
        let params = params();
        let owner = KeyPair::from_id(1);
        let count = fanout_outputs_per_tx(&params) as usize + 7;
        let coinbase = OutPoint::new(sha256(b"kb"), 0);
        let w = signed(3, coinbase, Amount::from_coins(25), &owner, count, &params);
        assert_eq!(w.fanout[1].len(), 2, "one full branch and one partial");
        for tx in w.fanout.iter().flatten() {
            assert!(tx.serialized_size() as u64 <= params.max_microblock_payload_bytes());
        }
        assert_eq!(w.spends.len(), count);
    }

    #[test]
    fn every_spend_validates_against_the_fanned_out_ledger() {
        let params = params();
        let owner = KeyPair::from_id(1);
        let coinbase = OutPoint::new(sha256(b"kb"), 0);
        let value = Amount::from_coins(25);
        let w = signed(9, coinbase, value, &owner, 40, &params);
        let mut utxo = UtxoSet::with_maturity(0);
        utxo.insert_unchecked(
            coinbase,
            UtxoEntry {
                output: TxOutput::new(value, owner.address()),
                height: 1,
                coinbase: true,
            },
        );
        for tx in w.fanout.iter().flatten().chain(&w.spends) {
            utxo.validate(tx, 2)
                .expect("generated transaction is valid");
            utxo.apply(tx, 2);
        }
        for (i, tx) in w.spends.iter().enumerate() {
            assert_eq!(tx.txid(), w.txids[i]);
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let params = params();
        let owner = KeyPair::from_id(1);
        let coinbase = OutPoint::new(sha256(b"kb"), 0);
        let build =
            |seed| signed(seed, coinbase, Amount::from_coins(25), &owner, 16, &params).txids;
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));
        assert_eq!(synthetic(5, 8).1, synthetic(5, 8).1);
        assert_ne!(synthetic(5, 8).1, synthetic(6, 8).1);
    }

    #[test]
    fn open_loop_due_times_ignore_the_system() {
        let schedule = OpenLoop { rate: 1000.0 };
        assert_eq!(schedule.due(0), 0.0);
        assert_eq!(schedule.due(2500), 2.5);
    }
}
