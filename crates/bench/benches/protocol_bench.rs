//! Micro-benchmarks of the protocol layers: Bitcoin-NG microblock production and
//! validation, key-block handling and the Bitcoin baseline's block handling.

use criterion::{criterion_group, criterion_main, Criterion};
use ng_baseline::bitcoin_node::{BitcoinNode, BtcConfig};
use ng_chain::amount::Amount;
use ng_chain::payload::Payload;
use ng_core::block::NgBlock;
use ng_core::node::NgNode;
use ng_core::params::NgParams;
use std::hint::black_box;

fn payload(tag: u64) -> Payload {
    Payload::Synthetic {
        bytes: 40_000,
        tx_count: 160,
        total_fees: Amount::from_sats(160_000),
        tag,
    }
}

fn ng_params() -> NgParams {
    NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 1,
        max_microblock_bytes: 1_000_000,
        ..NgParams::default()
    }
}

fn bench_ng_microblocks(c: &mut Criterion) {
    c.bench_function("ng_leader_produce_microblock_schnorr", |b| {
        let mut node = NgNode::new(1, ng_params(), 7);
        node.mine_and_adopt_key_block(0);
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            black_box(node.produce_microblock(t, payload(t)))
        })
    });

    c.bench_function("ng_follower_validate_microblock_schnorr", |b| {
        let mut leader = NgNode::new(1, ng_params(), 7);
        let kb = leader.mine_and_adopt_key_block(0);
        let mut follower = NgNode::new(2, ng_params(), 7);
        follower.on_block(NgBlock::Key(kb), 1).unwrap();
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            let micro = leader.produce_microblock(t, payload(t)).unwrap();
            black_box(follower.on_block(NgBlock::Micro(micro), t)).unwrap()
        })
    });

    c.bench_function("ng_follower_validate_microblock_check_skipped", |b| {
        let mut params = ng_params();
        params.verify_microblock_signatures = false;
        let mut leader = NgNode::new(1, params, 7);
        let kb = leader.mine_and_adopt_key_block(0);
        let mut follower = NgNode::new(2, params, 7);
        follower.on_block(NgBlock::Key(kb), 1).unwrap();
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            let micro = leader.produce_microblock(t, payload(t)).unwrap();
            black_box(follower.on_block(NgBlock::Micro(micro), t)).unwrap()
        })
    });
}

fn bench_bitcoin_baseline(c: &mut Criterion) {
    c.bench_function("bitcoin_mine_and_validate_block", |b| {
        let config = BtcConfig {
            check_pow: false,
            ..Default::default()
        };
        let mut miner = BitcoinNode::new(1, config, 7);
        let mut follower = BitcoinNode::new(2, config, 7);
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            let block = miner.mine_and_adopt(t, payload(t));
            black_box(follower.on_block(block, t)).unwrap()
        })
    });
}

criterion_group!(benches, bench_ng_microblocks, bench_bitcoin_baseline);
criterion_main!(benches);
