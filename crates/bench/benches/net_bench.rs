//! Micro-benchmarks of the wire stack: frame encoding/decoding (the per-message cost
//! a live node pays on every socket read/write) and the engine's announce fan-out.

use criterion::{criterion_group, criterion_main, Criterion};
use ng_chain::amount::Amount;
use ng_chain::payload::Payload;
use ng_core::params::NgParams;
use ng_core::NgNode;
use ng_net::codec::FrameCodec;
use ng_net::message::{Message, ProtocolKind};
use ng_net::sync::build_locator;
use ng_node::engine::{Engine, EngineConfig, Input};
use ng_crypto::sha256::sha256;
use std::hint::black_box;

fn microblock_message() -> Message {
    let mut node = NgNode::new(1, NgParams::default(), 1);
    node.mine_and_adopt_key_block(1_000);
    let micro = node
        .produce_microblock(
            20_000,
            Payload::Synthetic {
                bytes: 50_000,
                tx_count: 250,
                total_fees: Amount::from_sats(25_000),
                tag: 1,
            },
        )
        .expect("leader produces");
    Message::MicroBlock(Box::new(micro))
}

fn bench_codec(c: &mut Criterion) {
    let codec = FrameCodec::default();
    let message = microblock_message();
    let frame = codec.encode(&message).unwrap();

    c.bench_function("codec_encode_microblock_50k", |b| {
        b.iter(|| black_box(codec.encode(black_box(&message)).unwrap()))
    });
    c.bench_function("codec_decode_microblock_50k", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::from(&frame[..]);
            black_box(codec.decode(&mut buf).unwrap())
        })
    });
}

/// An engine with `peers` handshaken connections.
fn ready_engine(peers: u64) -> Engine {
    let mut engine = Engine::new(EngineConfig::new(1_000, NgParams::default()));
    for peer in 0..peers {
        engine.handle(0, Input::PeerConnected { peer, inbound: true });
        for message in [
            Message::Version {
                node_id: peer,
                protocol: ProtocolKind::BitcoinNg,
                best_height: 0,
                time_ms: 0,
            },
            Message::Verack,
            Message::Headers(vec![]),
        ] {
            engine.handle(0, Input::Message { peer, message });
        }
    }
    engine
}

fn bench_gossip_fanout(c: &mut Criterion) {
    c.bench_function("gossip_announce_to_32_peers", |b| {
        b.iter_with_setup(
            || ready_engine(32),
            |mut engine| black_box(engine.handle(1_000, Input::MineKeyBlock)),
        )
    });
}

fn bench_locator(c: &mut Criterion) {
    let chain: Vec<_> = (0u64..10_000).map(|i| sha256(&i.to_le_bytes())).collect();
    c.bench_function("sync_build_locator_10k_chain", |b| {
        b.iter(|| black_box(build_locator(black_box(&chain))))
    });
}

criterion_group!(benches, bench_codec, bench_gossip_fanout, bench_locator);
criterion_main!(benches);
