//! Micro-benchmarks of the incremental chainstate: the costs the undo-based
//! `ChainView` was built to flatten.
//!
//! The headline comparison is `ledger_connect_4tx_chain_16` vs
//! `ledger_connect_4tx_chain_1024`: one full leader cycle (submit 4 transactions,
//! serialize a microblock, roll the ledger) at two chain lengths 64× apart. Under
//! the old rebuild-from-genesis view the cycle cost grew linearly with chain length;
//! with the incremental view the two numbers must be indistinguishable.
//! `ledger_rebuild_1024` measures what a single from-genesis replay of the same
//! chain costs — the price the old engine paid on *every* tip change.

use criterion::{criterion_group, criterion_main, Criterion};
use ng_chain::amount::Amount;
use ng_chain::sigcache::SigCache;
use ng_chain::transaction::{OutPoint, Transaction, TransactionBuilder, TxOutput};
use ng_chain::utxo::{UtxoEntry, UtxoSet};
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::sha256;
use ng_crypto::signer::SchnorrSigner;
use ng_node::chainstate::ChainView;
use ng_node::engine::{Engine, EngineConfig, Input};
use ng_node::ledger::rebuild_utxo;
use std::hint::black_box;

fn unchecked_params() -> NgParams {
    NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 1,
        validate_transactions: false,
        ..NgParams::default()
    }
}

fn tx_pool(n: u64) -> Vec<Transaction> {
    let address = KeyPair::from_id(9).address();
    (0..n)
        .map(|seq| {
            TransactionBuilder::new()
                .input(OutPoint::new(sha256(&seq.to_le_bytes()), 0))
                .output(Amount::from_sats(1_000 + seq), address)
                .build()
        })
        .collect()
}

/// An engine whose chain already holds `microblocks` one-transaction microblocks
/// (so the ledger view sits on a chain of that length).
fn engine_with_chain(microblocks: u64) -> (Engine, u64) {
    let mut engine = Engine::new(EngineConfig::new(1, unchecked_params()));
    let mut now = 1_000u64;
    engine.handle(now, Input::MineKeyBlock);
    let pool = tx_pool(microblocks);
    for tx in pool {
        now += 10;
        engine.handle(now, Input::SubmitTx(Box::new(tx)));
        engine.handle(
            now,
            Input::ProduceMicroblock {
                require_transactions: true,
            },
        );
    }
    (engine, now)
}

/// One leader cycle (4 submits + produce + ledger roll) at a given chain length.
fn bench_connect_at_depth(c: &mut Criterion, label: &str, depth: u64) {
    let (mut engine, start) = engine_with_chain(depth);
    let pool = tx_pool(200_000);
    let mut seq = depth as usize;
    let mut now = start;
    c.bench_function(label, |b| {
        b.iter(|| {
            for _ in 0..4 {
                let tx = pool[seq % pool.len()].clone();
                seq += 1;
                engine.handle(now, Input::SubmitTx(Box::new(tx)));
            }
            now += 10;
            black_box(engine.handle(
                now,
                Input::ProduceMicroblock {
                    require_transactions: true,
                },
            ))
        })
    });
}

fn bench_connect_short_chain(c: &mut Criterion) {
    bench_connect_at_depth(c, "ledger_connect_4tx_chain_16", 16);
}

fn bench_connect_long_chain(c: &mut Criterion) {
    bench_connect_at_depth(c, "ledger_connect_4tx_chain_1024", 1024);
}

/// The old per-tip-change cost: one full from-genesis replay of a 1024-block chain.
fn bench_rebuild_long_chain(c: &mut Criterion) {
    let (engine, _) = engine_with_chain(1024);
    c.bench_function("ledger_rebuild_1024", |b| {
        b.iter(|| black_box(rebuild_utxo(engine.node().chain()).rolling_commitment()))
    });
}

/// A depth-8 reorg walked entirely through undo records: disconnect 8
/// transaction-bearing microblocks, reconnect the other branch, and back.
fn bench_reorg_depth_8(c: &mut Criterion) {
    let mut node = ng_core::node::NgNode::new(1, unchecked_params(), 7);
    let kb = node.mine_and_adopt_key_block(1_000);
    let pool = tx_pool(16);
    // Branch A: 8 microblocks on the main chain.
    let mut now = 2_000u64;
    for tx in &pool[..8] {
        node.produce_microblock(
            now,
            ng_chain::payload::Payload::Transactions(vec![tx.clone()]),
        )
        .expect("leader produces");
        now += 10;
    }
    let tip_a = node.tip();
    // Branch B: 8 competing microblocks parented at the key block, same leader.
    let signer = SchnorrSigner::new(*node.keys());
    let mut prev = kb.id();
    let mut time = 2_005u64;
    for tx in &pool[8..] {
        let payload = ng_chain::payload::Payload::Transactions(vec![tx.clone()]);
        let header = ng_core::block::MicroHeader {
            prev,
            time_ms: time,
            payload_digest: payload.digest(),
            leader: 1,
        };
        let micro = ng_core::block::MicroBlock {
            signature: signer.sign(&header.signing_hash()),
            header,
            payload,
        };
        prev = micro.id();
        time += 10;
        node.on_block(ng_core::block::NgBlock::Micro(micro), time).unwrap();
    }
    let tip_b = prev;

    let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
    view.sync_to(node.chain_mut(), tip_a).unwrap();
    let mut on_a = true;
    c.bench_function("ledger_reorg_depth_8", |b| {
        b.iter(|| {
            let target = if on_a { tip_b } else { tip_a };
            on_a = !on_a;
            view.sync_to(node.chain_mut(), target).unwrap();
            black_box(view.commitment())
        })
    });
}

/// Full validation of a signed single-input spend with a warm signature cache —
/// the cost reorg-reconnects and gossip-revalidations pay after the first look.
fn bench_validate_cached(c: &mut Criterion) {
    let owner = KeyPair::from_id(3);
    let mut utxo = UtxoSet::with_maturity(0);
    let funding = OutPoint::new(sha256(b"funding"), 0);
    utxo.insert_unchecked(
        funding,
        UtxoEntry {
            output: TxOutput::new(Amount::from_coins(50), owner.address()),
            height: 1,
            coinbase: false,
        },
    );
    let mut tx = TransactionBuilder::new()
        .input(funding)
        .output(Amount::from_coins(49), KeyPair::from_id(4).address())
        .build();
    tx.sign_all_inputs(&SchnorrSigner::new(owner));
    let mut cache = SigCache::default();
    utxo.validate_cached(&tx, 2, &mut cache).unwrap();
    c.bench_function("ledger_validate_tx_sigcache_hit", |b| {
        b.iter(|| black_box(utxo.validate_cached(&tx, 2, &mut cache).unwrap()))
    });
    c.bench_function("ledger_validate_tx_sigcache_miss", |b| {
        b.iter(|| {
            let mut cold = SigCache::new(1);
            black_box(utxo.validate_cached(&tx, 2, &mut cold).unwrap())
        })
    });
}

/// The headline batch-vs-sequential comparison: fully validating a 256-signature
/// microblock through the batched (worker-pool) connect vs one Schnorr
/// verification per signature. On a multi-core runner the batched figure divides
/// by the worker count on top of the algebraic batching gain.
fn bench_connect_256tx(c: &mut Criterion) {
    let mut group = c.benchmark_group("ledger_connect_256tx");
    group.sample_size(10);
    group.bench_function("sequential_per_sig", |b| {
        let (_, view, txs) = ng_bench::workload::block_256tx();
        b.iter_with_setup(
            || view.utxo().clone(),
            |mut scratch| {
                for tx in &txs {
                    scratch.validate(tx, 3).expect("valid spend");
                    scratch.apply(tx, 3);
                }
                black_box(scratch.rolling_commitment())
            },
        )
    });
    group.bench_function("batched_parallel", |b| {
        let pool = std::sync::Arc::new(ng_node::parallel::WorkerPool::with_default_size());
        b.iter_with_setup(
            || {
                let (mut node, mut view, txs) = ng_bench::workload::block_256tx();
                view.set_batch_executor(pool.clone());
                node.produce_microblock(
                    3_000,
                    ng_chain::payload::Payload::Transactions(txs),
                )
                .expect("256-tx microblock");
                (node, view)
            },
            |(mut node, mut view)| {
                view.sync(node.chain_mut()).expect("batched connect");
                black_box(view.commitment())
            },
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_connect_short_chain,
    bench_connect_long_chain,
    bench_rebuild_long_chain,
    bench_reorg_depth_8,
    bench_validate_cached,
    bench_connect_256tx
);
criterion_main!(benches);
