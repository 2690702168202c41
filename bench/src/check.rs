//! The correctness and durability gate every workload passes before any metric
//! is printed: convergence, the from-genesis replay oracle, exactly-once
//! confirmation, and datadir reopen. A failure is a line in the run's error
//! list; a run with errors prints its seed and exits non-zero.

use ng_core::block::NgBlock;
use ng_crypto::sha256::Hash256;
use ng_node::engine::{Engine, EngineConfig};
use ng_node::ledger::rebuild_utxo;
use ng_storage::{FileStorage, StorageConfig};
use std::collections::HashMap;
use std::path::Path;

/// The main chain of `engine` after genesis, oldest first.
pub fn main_chain_blocks(engine: &Engine) -> Vec<NgBlock> {
    let chain = engine.node().chain();
    chain
        .store()
        .main_chain()
        .iter()
        .skip(1)
        .filter_map(|id| chain.get(id).cloned())
        .collect()
}

/// Every engine shares the first one's tip and UTXO commitment.
pub fn converged(engines: &[&Engine], errors: &mut Vec<String>) {
    let (tip, commitment) = (engines[0].tip(), engines[0].utxo_commitment());
    for engine in &engines[1..] {
        if engine.tip() != tip {
            errors.push(format!(
                "node {} tip {} differs from node {} tip {tip}",
                engine.id(),
                engine.tip(),
                engines[0].id()
            ));
        } else if engine.utxo_commitment() != commitment {
            errors.push(format!(
                "node {} shares the tip but not the UTXO commitment",
                engine.id()
            ));
        }
    }
}

/// The engine's incrementally maintained ledger equals a from-genesis replay
/// of its main chain.
pub fn oracle(engine: &Engine, errors: &mut Vec<String>) {
    let replayed = rebuild_utxo(engine.node().chain());
    if replayed.commitment() != engine.utxo_commitment() {
        errors.push(format!(
            "node {}: incremental UTXO commitment differs from the from-genesis replay",
            engine.id()
        ));
    }
}

/// Every submitted txid sits on the main chain (as [`main_chain_blocks`] read
/// it) exactly once. Returns how many of them are confirmed (at least once).
pub fn exactly_once(chain: &[NgBlock], submitted: &[Hash256], errors: &mut Vec<String>) -> u64 {
    let mut seen: HashMap<Hash256, u32> = HashMap::with_capacity(submitted.len());
    for block in chain {
        let NgBlock::Micro(micro) = block else {
            continue;
        };
        for tx in micro.payload.transactions().unwrap_or(&[]) {
            *seen.entry(tx.txid()).or_insert(0) += 1;
        }
    }
    let mut confirmed = 0u64;
    let (mut missing, mut repeated) = (0u64, 0u64);
    for txid in submitted {
        match seen.get(txid) {
            None => missing += 1,
            Some(1) => confirmed += 1,
            Some(_) => {
                confirmed += 1;
                repeated += 1;
            }
        }
    }
    if missing > 0 {
        errors.push(format!(
            "{missing} of {} submitted transactions are not on the main chain",
            submitted.len()
        ));
    }
    if repeated > 0 {
        errors.push(format!(
            "{repeated} submitted transactions are confirmed more than once"
        ));
    }
    confirmed
}

/// Reopening the datadir recovers the tip and commitment the live node had.
/// Returns the wall milliseconds `FileStorage::open` took.
pub fn reopen(
    dir: &Path,
    config: &EngineConfig,
    tip: Hash256,
    commitment: Hash256,
    errors: &mut Vec<String>,
) -> f64 {
    let storage_config = StorageConfig {
        finality_depth: config.params.finality_depth,
        fsync: true,
    };
    let started = std::time::Instant::now();
    let opened = FileStorage::open(dir, storage_config);
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    match opened {
        Ok((_storage, recovery)) => {
            let restored = Engine::restore(config.clone(), recovery);
            if restored.tip() != tip {
                errors.push(format!(
                    "datadir {dir:?} reopened to tip {} (height {}), the live node had {tip}",
                    restored.tip(),
                    restored.height()
                ));
            } else if restored.utxo_commitment() != commitment {
                errors.push(format!(
                    "datadir {dir:?} reopened to the right tip but another UTXO commitment"
                ));
            }
        }
        Err(e) => errors.push(format!("datadir {dir:?} failed to reopen: {e}")),
    }
    open_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_core::params::NgParams;
    use ng_node::engine::Input;
    use ng_node::testnet::test_tx;

    fn engine_with_two_txs() -> (Engine, Vec<Hash256>) {
        let params = NgParams {
            min_microblock_interval_ms: 1,
            microblock_interval_ms: 1,
            validate_transactions: false,
            ..NgParams::default()
        };
        let mut engine = Engine::new(EngineConfig::new(1, params));
        engine.handle(1_000, Input::MineKeyBlock);
        let txs = [test_tx(1), test_tx(2)];
        for tx in &txs {
            engine.handle(1_001, Input::SubmitTx(Box::new(tx.clone())));
        }
        engine.handle(
            1_002,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
        (engine, txs.iter().map(|tx| tx.txid()).collect())
    }

    #[test]
    fn a_healthy_engine_passes_every_check() {
        let (engine, txids) = engine_with_two_txs();
        let mut errors = Vec::new();
        converged(&[&engine, &engine], &mut errors);
        oracle(&engine, &mut errors);
        let chain = main_chain_blocks(&engine);
        assert_eq!(exactly_once(&chain, &txids, &mut errors), 2);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn a_missing_transaction_and_a_diverged_node_are_reported() {
        let (engine, mut txids) = engine_with_two_txs();
        txids.push(test_tx(3).txid());
        let mut errors = Vec::new();
        assert_eq!(
            exactly_once(&main_chain_blocks(&engine), &txids, &mut errors),
            2
        );
        assert_eq!(errors.len(), 1, "{errors:?}");
        let other = Engine::new(engine.config().clone());
        converged(&[&engine, &other], &mut errors);
        assert_eq!(errors.len(), 2, "{errors:?}");
    }
}
