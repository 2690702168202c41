//! The from-genesis ledger replay — the differential-testing **oracle** for the
//! incremental chainstate.
//!
//! The live node no longer replays the chain on tip changes: it maintains its ledger
//! incrementally via [`crate::chainstate::ChainView`], whose per-block cost is
//! independent of chain length. [`rebuild_utxo`] stays because a clean O(chain)
//! replay is trivially correct — whatever the fork choice picked, the result equals
//! the branch's effects from genesis — which makes it the perfect oracle: the
//! equivalence suite drives arbitrary fork/extend/reorg schedules and asserts the
//! incremental view matches a fresh replay (both the sorted-hash
//! [`UtxoSet::commitment`] and the rolling commitment) at every step.
//!
//! [`assert_supply_bounded`] is the second oracle here, and the first of the
//! per-node invariants the scenario suites check on validating networks.

use crate::engine::Engine;
use ng_chain::transaction::OutPoint;
use ng_chain::utxo::{UtxoEntry, UtxoSet};
use ng_core::block::NgBlock;
use ng_core::chain::NgChainState;

/// Panics unless every engine's UTXO supply is at most one key-block reward per
/// key block of its main chain. Nothing else may add value: fees move it, a poison
/// bounty is a share of what the poison revokes. Below a snapshot root the tree
/// holds no blocks, so every height at or below the root counts as a key block.
pub fn assert_supply_bounded<'a>(engines: impl IntoIterator<Item = &'a Engine>) {
    for engine in engines {
        let chain = engine.node().chain();
        let above_root = chain.key_blocks_on_main_chain().len() as u64 - 1;
        let key_blocks = engine.root_height() + above_root;
        let cap = chain.params().key_block_reward.mul_ratio(key_blocks, 1);
        let supply = engine.utxo().total_value();
        assert!(
            supply <= cap,
            "node {}: supply {supply} exceeds {cap}, the reward of {key_blocks} key blocks",
            engine.id()
        );
    }
}

/// Replays the main chain into a fresh UTXO set.
///
/// Key-block coinbase outputs enter the set keyed by the key block's id (they have no
/// carrying transaction). Microblock transactions are applied without signature
/// checking — the chain layer already verified the leader's signature over the payload
/// digest, and every node replays identical bytes, so the resulting commitment is a
/// pure function of the main chain.
pub fn rebuild_utxo(chain: &NgChainState) -> UtxoSet {
    let mut utxo = UtxoSet::with_maturity(chain.params().coinbase_maturity);
    let store = chain.store();
    for id in store.main_chain() {
        let Some(stored) = store.get(&id) else { continue };
        let height = stored.height;
        match &stored.block {
            NgBlock::Key(kb) => {
                for (vout, output) in kb.coinbase.iter().enumerate() {
                    utxo.insert_unchecked(
                        OutPoint::new(id, vout as u32),
                        UtxoEntry {
                            output: *output,
                            height,
                            coinbase: true,
                        },
                    );
                }
            }
            NgBlock::Micro(mb) => {
                let Some(txs) = mb.payload.transactions() else {
                    continue;
                };
                for tx in txs {
                    for input in &tx.inputs {
                        utxo.remove_unchecked(&input.outpoint);
                    }
                    let txid = tx.txid();
                    for (vout, output) in tx.outputs.iter().enumerate() {
                        utxo.insert_unchecked(
                            OutPoint::new(txid, vout as u32),
                            UtxoEntry {
                                output: *output,
                                height,
                                coinbase: tx.is_coinbase(),
                            },
                        );
                    }
                }
            }
        }
    }
    utxo
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::amount::Amount;
    use ng_chain::payload::Payload;
    use ng_chain::transaction::{OutPoint, TransactionBuilder};
    use ng_core::node::NgNode;
    use ng_core::params::NgParams;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;

    fn params() -> NgParams {
        NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 1,
            ..NgParams::default()
        }
    }

    #[test]
    fn replay_includes_coinbase_and_microblock_transactions() {
        let mut node = NgNode::new(1, params(), 7);
        let kb = node.mine_and_adopt_key_block(1_000);
        let tx = TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"funding"), 0))
            .output(Amount::from_sats(500), KeyPair::from_id(2).address())
            .build();
        let txid = tx.txid();
        node.produce_microblock(2_000, Payload::Transactions(vec![tx]))
            .expect("leader produces");

        let utxo = rebuild_utxo(node.chain());
        // Key-block coinbase outputs are present, keyed by the key block id.
        for vout in 0..kb.coinbase.len() as u32 {
            assert!(utxo.contains(&OutPoint::new(kb.id(), vout)));
        }
        // The microblock transaction's output is present.
        assert!(utxo.contains(&OutPoint::new(txid, 0)));
        assert_eq!(
            utxo.balance_of(&KeyPair::from_id(2).address()),
            Amount::from_sats(500)
        );
    }

    #[test]
    fn identical_chains_produce_identical_commitments() {
        let mut alice = NgNode::new(1, params(), 7);
        let mut bob = NgNode::new(2, params(), 7);
        let kb = alice.mine_and_adopt_key_block(1_000);
        bob.on_block(ng_core::block::NgBlock::Key(kb), 1_001).unwrap();
        let micro = alice
            .produce_microblock(
                2_000,
                Payload::Transactions(vec![TransactionBuilder::new()
                    .input(OutPoint::new(sha256(b"x"), 0))
                    .output(Amount::from_sats(9), KeyPair::from_id(3).address())
                    .build()]),
            )
            .unwrap();
        bob.on_block(ng_core::block::NgBlock::Micro(micro), 2_001)
            .unwrap();
        assert_eq!(alice.tip(), bob.tip());
        assert_eq!(
            rebuild_utxo(alice.chain()).commitment(),
            rebuild_utxo(bob.chain()).commitment()
        );
    }

    #[test]
    fn spending_removes_the_consumed_outpoint() {
        let mut node = NgNode::new(1, params(), 7);
        node.mine_and_adopt_key_block(1_000);
        let funding = TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"ext"), 0))
            .output(Amount::from_sats(100), KeyPair::from_id(5).address())
            .build();
        let funding_out = OutPoint::new(funding.txid(), 0);
        node.produce_microblock(2_000, Payload::Transactions(vec![funding]))
            .unwrap();
        let spend = TransactionBuilder::new()
            .input(funding_out)
            .output(Amount::from_sats(90), KeyPair::from_id(6).address())
            .build();
        node.produce_microblock(2_010, Payload::Transactions(vec![spend.clone()]))
            .unwrap();
        let utxo = rebuild_utxo(node.chain());
        assert!(!utxo.contains(&funding_out), "spent output removed");
        assert!(utxo.contains(&OutPoint::new(spend.txid(), 0)));
    }
}
