//! The per-layer table of a `--trace` run.
//!
//! Two sources. **In-situ spans**: the decorated storage and signature
//! executor, and the driver calls around them, folded per name over the timed
//! region of each traced round. **Layer replay**: after the run, a sample of
//! the run's own artefacts — the microblocks read back from node 0's chain and
//! the transactions in them — is pushed through each layer's public functions
//! in isolation, so every layer has a unit cost measured the same way on every
//! workload. Unit costs times the run's counts give the share of the measured
//! CPU time the table accounts for; the rest is printed, not hidden.

use crate::round::{Artefacts, Round};
use crate::stats;
use crate::trace::{self, Span};
use bytes::BytesMut;
use ng_chain::amount::Amount;
use ng_chain::mempool::Mempool;
use ng_chain::payload::Payload;
use ng_chain::sigcache::{BatchExecutor, SigCache};
use ng_chain::transaction::{OutPoint, Transaction};
use ng_chain::utxo::UtxoEntry;
use ng_core::block::NgBlock;
use ng_core::node::NgNode;
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::schnorr::{self, BatchEntry};
use ng_net::codec::FrameCodec;
use ng_net::message::{InvItem, InvKind, Message, ProtocolKind};
use ng_net::relay::{self, CompactRelay, ReconstructOutcome};
use ng_net::tcp::{TcpEndpoint, TcpEvent};
use ng_node::chainstate::ChainView;
use ng_node::engine::{Engine, EngineConfig, GossipConfig, Input};
use ng_node::simnet::{SimConfig, SimNet};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Most transactions the replay pushes through each layer.
const SAMPLE_TXS: usize = 4_096;

/// Signatures in the crypto micro-measurements.
const CRYPTO_SAMPLE: usize = 1_024;

/// Microblocks framed and unframed as full carriers.
const CODEC_BLOCKS: usize = 4;

/// Keepalive probes injected to price one simulated delivery.
const SIMNET_PROBES: usize = 50_000;

/// Messages in the raw TCP measurements.
const TCP_MESSAGES: usize = 2_000;

type Values = BTreeMap<&'static str, f64>;

/// Runs `f` and returns its result with the microseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// What the replay works on: the ledger-preparing prefix of the chain, the
/// blocks after it that hold the sample, and the sample's transactions.
struct Sample<'a> {
    params: NgParams,
    prefix: &'a [NgBlock],
    blocks: &'a [NgBlock],
    txs: Vec<Transaction>,
    wallet: KeyPair,
}

impl<'a> Sample<'a> {
    fn of(artefacts: &'a Artefacts) -> Option<Self> {
        let (prefix, rest) = artefacts
            .blocks
            .split_at(artefacts.prefix.min(artefacts.blocks.len()));
        let mut txs = 0usize;
        let mut take = 0usize;
        for block in rest {
            if txs >= SAMPLE_TXS {
                break;
            }
            txs += block.tx_count() as usize;
            take += 1;
        }
        let blocks = &rest[..take];
        let txs: Vec<Transaction> = blocks
            .iter()
            .filter_map(|block| block.as_micro()?.payload.transactions())
            .flatten()
            .cloned()
            .collect();
        (!txs.is_empty()).then(|| Sample {
            params: artefacts.params,
            prefix,
            blocks,
            txs,
            wallet: artefacts.wallet.unwrap_or_else(|| KeyPair::from_id(1)),
        })
    }

    fn per_tx(&self, total_us: f64) -> f64 {
        total_us / self.txs.len() as f64
    }

    fn micro_payloads(&self) -> impl Iterator<Item = &[Transaction]> {
        self.blocks
            .iter()
            .filter_map(|block| block.as_micro()?.payload.transactions())
    }
}

/// `crypto`: sign, verify, batch-verify, txid; `parallel`: the worker pool.
fn crypto(sample: &Sample, out: &mut Values) {
    let messages: Vec<_> = sample
        .txs
        .iter()
        .take(CRYPTO_SAMPLE)
        .map(Transaction::sighash)
        .collect();
    let n = messages.len() as f64;
    let (signatures, sign_us) = timed(|| {
        messages
            .iter()
            .map(|msg| schnorr::sign(&sample.wallet.secret, msg))
            .collect::<Vec<_>>()
    });
    let entries: Vec<BatchEntry> = messages
        .iter()
        .zip(signatures)
        .map(|(msg, sig)| (sample.wallet.public, *msg, sig))
        .collect();
    let ((), verify_us) = timed(|| {
        for (public, msg, sig) in &entries {
            schnorr::verify(public, msg, sig).expect("own signature verifies");
        }
    });
    let ((), batch_us) = timed(|| {
        for chunk in entries.chunks(512) {
            schnorr::verify_batch(black_box(chunk)).expect("own batch verifies");
        }
    });
    let ((), txid_us) = timed(|| {
        for tx in &sample.txs {
            black_box(tx.txid());
        }
    });
    // parallel: the same batch through the worker pool the daemons install,
    // one chunk per worker.
    let pool = ng_node::parallel::shared_pool();
    let workers = pool.workers();
    let chunks: Vec<Vec<BatchEntry>> = entries
        .chunks(entries.len().div_ceil(workers))
        .map(<[_]>::to_vec)
        .collect();
    let (verdicts, pool_us) = timed(|| pool.verify_chunks(chunks));
    assert!(
        verdicts.iter().all(|ok| *ok),
        "own batch verifies on the pool"
    );
    out.insert("parallel.verify_chunks_us_per_sig", pool_us / n);
    out.insert("parallel.sigs_per_batch", n / workers as f64);
    out.insert("parallel.workers", workers as f64);
    out.insert("crypto.sign_us_per_sig", sign_us / n);
    out.insert("crypto.verify_us_per_sig", verify_us / n);
    out.insert("crypto.batch_verify_us_per_sig", batch_us / n);
    out.insert("crypto.txid_us_per_tx", sample.per_tx(txid_us));
}

/// A node and view rolled to the state just before the sample's first block.
fn prepared_ledger(sample: &Sample) -> (NgNode, ChainView) {
    let mut node = NgNode::new(7, sample.params, 0);
    let mut view = ChainView::new(&sample.params, node.chain().genesis_id());
    for block in sample.prefix {
        node.on_block(block.clone(), block.time_ms())
            .expect("the run's own prefix blocks are valid");
    }
    view.sync(node.chain_mut())
        .expect("the run's own prefix connects");
    (node, view)
}

/// `chain` (UTXO set, mempool), `core` (block production and insertion) and
/// `chainstate` (admission, production filter, connect, disconnect).
fn ledger(sample: &Sample, out: &mut Values) {
    let (mut node, mut view) = prepared_ledger(sample);
    let cold_view = view.clone();
    let before = view.anchor();
    let height = node.chain().store().tip_height() + 1;
    let budget = sample.params.max_microblock_payload_bytes() as usize;

    // chain: UTXO validate (signatures already cached) + apply.
    let mut utxo = view.utxo().clone();
    let ((), utxo_us) = if sample.params.validate_transactions {
        let mut cache = SigCache::default();
        for tx in &sample.txs {
            cache.insert(tx.txid());
        }
        timed(|| {
            for tx in &sample.txs {
                utxo.validate_cached(tx, height, &mut cache)
                    .expect("the run's own spend is valid");
                black_box(utxo.apply(tx, height));
            }
        })
    } else {
        // What the non-validating connect does per transaction.
        timed(|| {
            for tx in &sample.txs {
                for input in &tx.inputs {
                    black_box(utxo.remove_unchecked(&input.outpoint));
                }
                let txid = tx.txid();
                for (vout, output) in tx.outputs.iter().enumerate() {
                    utxo.insert_unchecked(
                        OutPoint::new(txid, vout as u32),
                        UtxoEntry {
                            output: *output,
                            height,
                            coinbase: false,
                        },
                    );
                }
            }
        })
    };
    out.insert(
        "chain.utxo_validate_apply_us_per_tx",
        sample.per_tx(utxo_us),
    );

    // chain: mempool insert, then select + remove a microblock's worth at a time.
    let mut pool = Mempool::new();
    let owned = sample.txs.clone();
    let ((), insert_us) = timed(|| {
        for tx in owned {
            pool.insert_with_fee(tx, Amount::from_sats(100));
        }
    });
    let ((), select_us) = timed(|| {
        while !pool.is_empty() {
            let selected = pool.select_fifo(budget);
            let ids: Vec<_> = selected.iter().map(Transaction::txid).collect();
            pool.remove_all(ids.iter());
        }
    });
    out.insert("chain.mempool_insert_us_per_tx", sample.per_tx(insert_us));
    out.insert(
        "chain.mempool_select_remove_us_per_tx",
        sample.per_tx(select_us),
    );

    // chainstate: admission on a cold signature cache, then the production
    // filter on the cache admission warmed.
    let ((), admission_us) = timed(|| {
        for tx in &sample.txs {
            view.admission_fee(tx, height)
                .expect("the run's own spend is admissible");
        }
    });
    let candidates: Vec<Vec<Transaction>> = sample.micro_payloads().map(<[_]>::to_vec).collect();
    let ((), filter_us) = timed(|| {
        for payload in candidates {
            black_box(view.filter_valid(payload, height));
        }
    });
    out.insert(
        "chainstate.admission_us_per_tx",
        sample.per_tx(admission_us),
    );
    out.insert(
        "chainstate.filter_valid_us_per_tx",
        sample.per_tx(filter_us),
    );

    // core: a second node takes the run's blocks one by one.
    let incoming: Vec<NgBlock> = sample.blocks.to_vec();
    let mut ids = Vec::with_capacity(incoming.len());
    let ((), on_block_us) = timed(|| {
        for block in incoming {
            let (id, at) = (block.id(), block.time_ms());
            node.on_block(block, at)
                .expect("the run's own blocks are valid");
            ids.push(id);
        }
    });
    out.insert(
        "core.on_block_us_per_block",
        on_block_us / sample.blocks.len() as f64,
    );

    // chainstate: connect on the warm cache, rewind, connect on a cold cache.
    let ((), warm_us) = timed(|| {
        for id in &ids {
            view.sync_to(node.chain_mut(), *id)
                .expect("the run's own blocks connect");
        }
    });
    let ((), disconnect_us) = timed(|| {
        view.sync_to(node.chain_mut(), before)
            .expect("freshly connected blocks rewind");
    });
    let mut cold_view = cold_view;
    let ((), cold_us) = timed(|| {
        cold_view
            .sync(node.chain_mut())
            .expect("the run's own blocks connect");
    });
    out.insert("chainstate.connect_warm_us_per_tx", sample.per_tx(warm_us));
    out.insert(
        "chainstate.disconnect_us_per_tx",
        sample.per_tx(disconnect_us),
    );
    out.insert("chainstate.connect_cold_us_per_tx", sample.per_tx(cold_us));

    // core: a leader of its own signs and inserts the same payloads.
    let mut leader = NgNode::new(8, sample.params, 0);
    let mut now = 1_000u64;
    leader.mine_and_adopt_key_block(now);
    let payloads: Vec<Payload> = sample
        .micro_payloads()
        .map(|txs| Payload::Transactions(txs.to_vec()))
        .collect();
    let step = sample.params.microblock_interval_ms.max(1);
    let ((), produce_us) = timed(|| {
        for payload in payloads {
            now += step;
            black_box(leader.produce_microblock(now, payload));
        }
    });
    out.insert(
        "core.produce_microblock_us_per_tx",
        sample.per_tx(produce_us),
    );
}

/// A fresh engine with two handshaken peers (deliveries come from peer 1 and
/// relay towards peer 2) that has taken the sample's prefix blocks.
fn prepared_engine(sample: &Sample, id: u64) -> (Engine, u64) {
    let mut config = EngineConfig::new(id, sample.params);
    config.gossip = GossipConfig::scalable();
    let mut engine = Engine::new(config);
    for peer in [1u64, 2] {
        engine.handle(
            0,
            Input::PeerConnected {
                peer,
                inbound: true,
            },
        );
        for message in [
            Message::Version {
                node_id: 10_000 + peer,
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
    let mut now = 1_000;
    for block in sample.prefix {
        now = block.time_ms();
        engine.handle(now, carrier(block.clone()));
    }
    (engine, now)
}

/// A block as the message peer 1 would push it in.
fn carrier(block: NgBlock) -> Input {
    let message = match block {
        NgBlock::Key(key) => Message::KeyBlock(Box::new(key)),
        NgBlock::Micro(micro) => Message::MicroBlock(Box::new(micro)),
    };
    Input::Message { peer: 1, message }
}

/// `engine`: the receive side (`tx` and block messages from a peer) and the
/// leader side (local submits, microblock production) of `Engine::handle`.
fn engine(sample: &Sample, out: &mut Values) {
    let (mut receiver, _) = prepared_engine(sample, 22);
    // A transaction reaches a receiver as gossip does it: `inv` (answered
    // with `getdata`), then the `tx` itself.
    let incoming: Vec<[Input; 2]> = sample
        .txs
        .iter()
        .map(|tx| {
            let item = InvItem::new(InvKind::Transaction, tx.txid());
            [Message::Inv(vec![item]), Message::Tx(Box::new(tx.clone()))]
                .map(|message| Input::Message { peer: 1, message })
        })
        .collect();
    let ((), on_tx_us) = timed(|| {
        for input in incoming.into_iter().flatten() {
            black_box(receiver.handle(1, input));
        }
    });
    let blocks: Vec<(u64, Input)> = sample
        .blocks
        .iter()
        .map(|block| (block.time_ms(), carrier(block.clone())))
        .collect();
    let ((), on_block_us) = timed(|| {
        for (at, input) in blocks {
            black_box(receiver.handle(at, input));
        }
    });
    let received = sample
        .txs
        .iter()
        .filter(|tx| receiver.chainstate().is_confirmed(&tx.txid()))
        .count();
    if received != sample.txs.len() {
        eprintln!(
            "note: the receive-side replay confirmed {received} of {} sample transactions",
            sample.txs.len()
        );
    }
    out.insert("engine.on_tx_msg_us_per_tx", sample.per_tx(on_tx_us));
    out.insert("engine.on_block_msg_us_per_tx", sample.per_tx(on_block_us));

    let (mut leader, mut now) = prepared_engine(sample, 23);
    now += 10;
    leader.handle(now, Input::MineKeyBlock);
    let step = sample.params.microblock_interval_ms.max(1);
    let (mut submit_us, mut serve_us, mut produce_us) = (0.0, 0.0, 0.0);
    for batch in sample.txs.chunks(crate::solo::BATCH) {
        let owned: Vec<Input> = batch
            .iter()
            .map(|tx| Input::SubmitTx(Box::new(tx.clone())))
            .collect();
        submit_us += timed(|| {
            for input in owned {
                black_box(leader.handle(now, input));
            }
        })
        .1;
        // A peer that saw the `inv` asks for each transaction once.
        let requests: Vec<Input> = batch
            .iter()
            .map(|tx| Input::Message {
                peer: 2,
                message: Message::GetData(vec![InvItem::new(InvKind::Transaction, tx.txid())]),
            })
            .collect();
        serve_us += timed(|| {
            for input in requests {
                black_box(leader.handle(now, input));
            }
        })
        .1;
        now += step;
        produce_us += timed(|| {
            black_box(leader.handle(
                now,
                Input::ProduceMicroblock {
                    require_transactions: true,
                },
            ))
        })
        .1;
    }
    out.insert("engine.submit_tx_us_per_tx", sample.per_tx(submit_us));
    out.insert("engine.on_getdata_us_per_tx", sample.per_tx(serve_us));
    out.insert("engine.produce_us_per_tx", sample.per_tx(produce_us));
}

/// `net`: the frame codec on real bytes and the compact-relay pair.
fn net(sample: &Sample, out: &mut Values) {
    let codec = FrameCodec::default();
    let tx_messages: Vec<Message> = sample
        .txs
        .iter()
        .take(CRYPTO_SAMPLE)
        .map(|tx| Message::Tx(Box::new(tx.clone())))
        .collect();
    let n = tx_messages.len() as f64;
    let (frames, encode_us) = timed(|| {
        tx_messages
            .iter()
            .map(|message| codec.encode(message).expect("a transaction frames"))
            .collect::<Vec<_>>()
    });
    let mut buffers: Vec<BytesMut> = frames.iter().map(|f| BytesMut::from(&f[..])).collect();
    let ((), decode_us) = timed(|| {
        for buffer in &mut buffers {
            black_box(codec.decode(buffer).expect("own frame decodes"));
        }
    });
    out.insert("net.encode_tx_us", encode_us / n);
    out.insert("net.decode_tx_us", decode_us / n);

    let block_messages: Vec<Message> = sample
        .blocks
        .iter()
        .filter_map(|block| block.as_micro())
        .map(|micro| Message::MicroBlock(Box::new(micro.clone())))
        .collect();
    // Full carriers cross the wire only on fallbacks and sync, and the codec's
    // cost per byte grows with the frame: a few blocks are measurement enough.
    let framed = &block_messages[..block_messages.len().min(CODEC_BLOCKS)];
    let framed_txs: u64 = sample
        .micro_payloads()
        .take(CODEC_BLOCKS)
        .map(|p| p.len() as u64)
        .sum();
    let (frames, encode_us) = timed(|| {
        framed
            .iter()
            .map(|message| codec.encode(message).expect("a microblock frames"))
            .collect::<Vec<_>>()
    });
    let mut buffers: Vec<BytesMut> = frames.iter().map(|f| BytesMut::from(&f[..])).collect();
    let ((), decode_us) = timed(|| {
        for buffer in &mut buffers {
            black_box(codec.decode(buffer).expect("own frame decodes"));
        }
    });
    out.insert(
        "net.encode_block_us_per_tx",
        encode_us / framed_txs.max(1) as f64,
    );
    out.insert(
        "net.decode_block_us_per_tx",
        decode_us / framed_txs.max(1) as f64,
    );

    let (compacts, build_us) = timed(|| {
        block_messages
            .iter()
            .map(|message| relay::compact_announcement(1, message))
            .collect::<Vec<_>>()
    });
    out.insert("net.compact_build_us_per_tx", sample.per_tx(build_us));

    // Reconstruction against a pool holding this block's transactions and the
    // next block's — what a receiver's mempool holds in a steady stream.
    let payloads: Vec<&[Transaction]> = sample.micro_payloads().collect();
    let mut pool = Mempool::new();
    let mut reconstruct_us = 0.0;
    for (index, announcement) in compacts.into_iter().enumerate() {
        let Message::CmpctBlock(compact) = announcement else {
            continue;
        };
        for payload in payloads.iter().skip(index).take(2) {
            for tx in payload.iter() {
                pool.insert_with_fee(tx.clone(), Amount::from_sats(100));
            }
        }
        let mut relay = CompactRelay::new();
        let (outcome, us) = timed(|| relay.begin(*compact, &pool, 1));
        reconstruct_us += us;
        if !matches!(outcome, ReconstructOutcome::Complete(_)) {
            eprintln!("note: a compact block of the replay sample did not reconstruct");
        }
        let ids: Vec<_> = payloads[index].iter().map(Transaction::txid).collect();
        pool.remove_all(ids.iter());
    }
    out.insert(
        "net.compact_reconstruct_us_per_tx",
        sample.per_tx(reconstruct_us),
    );
}

/// `net::tcp`: two raw endpoints over loopback — one-way delivery time of a
/// lone message, and messages per second when streamed.
fn raw_tcp(sample: &Sample, out: &mut Values) -> std::io::Result<()> {
    let sender = TcpEndpoint::bind("127.0.0.1:0")?;
    let receiver = TcpEndpoint::bind("127.0.0.1:0")?;
    let connection = sender.connect(receiver.local_addr())?;
    let message = Message::Tx(Box::new(sample.txs[0].clone()));
    let limit = Duration::from_secs(10);
    let await_message = || loop {
        match receiver.events().recv_timeout(limit) {
            Ok(TcpEvent::Message { .. }) => return true,
            Ok(_) => continue,
            Err(_) => return false,
        }
    };
    let mut one_way_us = Vec::with_capacity(200);
    for _ in 0..200 {
        let (arrived, us) = timed(|| sender.send(connection, &message).is_ok() && await_message());
        if arrived {
            one_way_us.push(us);
        }
    }
    let (delivered, stream_us) = timed(|| {
        for _ in 0..TCP_MESSAGES {
            if sender.send(connection, &message).is_err() {
                return false;
            }
        }
        (0..TCP_MESSAGES).all(|_| await_message())
    });
    if delivered && !one_way_us.is_empty() {
        out.insert("net.tcp_send_recv_us", stats::median(&one_way_us));
        out.insert(
            "net.tcp_msgs_per_s",
            TCP_MESSAGES as f64 / (stream_us / 1e6),
        );
    }
    sender.shutdown();
    receiver.shutdown();
    Ok(())
}

/// `simnet`: what the simulator and an engine spend on one delivery that
/// carries no ledger work — keepalive probes through a mesh of idle engines.
fn simnet_delivery(nodes: usize, out: &mut Values) {
    let mut net = SimNet::new(SimConfig::new(nodes, 1));
    net.connect_mesh(&(0..nodes).collect::<Vec<_>>());
    net.run(1_000);
    let delivered = |net: &SimNet| -> u64 {
        (0..nodes)
            .map(|node| {
                net.wire_stats(node)
                    .iter()
                    .map(|(_, t)| t.msgs_in)
                    .sum::<u64>()
            })
            .sum()
    };
    let before = delivered(&net);
    let ((), us) = timed(|| {
        for probe in 0..SIMNET_PROBES {
            net.inject_message(
                probe % nodes,
                (probe + 1) % nodes,
                Message::Ping(probe as u64),
            );
            if probe % 64 == 63 {
                net.run(1);
            }
        }
        net.run(1_000);
    });
    let count = delivered(&net) - before;
    if count > 0 {
        out.insert("simnet.delivery_us", us / count as f64);
    }
}

/// The spans of a round's timed region. Parent indices point into the whole
/// list, so they are re-based: a fold over the window never reaches outside.
fn timed_region(round: &Round, spans: &[Span]) -> Vec<Span> {
    let (from, to) = round.span_window;
    spans[from.min(spans.len())..to.min(spans.len())]
        .iter()
        .map(|span| Span {
            parent: span
                .parent
                .filter(|&p| p as usize >= from)
                .map(|p| p - from as u32),
            ..span.clone()
        })
        .collect()
}

/// Per-layer figures read off the spans of one traced round's timed region.
fn in_situ(round: &Round, spans: &[Span]) -> Vec<(&'static str, f64)> {
    let window = timed_region(round, spans);
    let folds = trace::fold(&window);
    let mut out = Vec::new();
    let per_call = |name: &str| {
        folds
            .get(name)
            .map(|f| f.total_us() / f.count.max(1) as f64)
    };
    for (metric, span) in [
        ("storage.store_block_us_per_block", "storage.store_block"),
        ("storage.store_undo_us_per_block", "storage.store_undo"),
        ("storage.commit_roll_us_per_roll", "storage.commit_roll"),
    ] {
        if let Some(us) = per_call(span) {
            out.push((metric, us));
        }
    }
    let instrumented_txs = (round.confirmed * round.durable_nodes).max(1) as f64;
    if let Some(rolls) = folds.get("storage.commit_roll") {
        out.push((
            "storage.flushes_per_tx",
            rolls.count as f64 / instrumented_txs,
        ));
        out.push((
            "storage.bytes_per_tx",
            round.storage_bytes as f64 / instrumented_txs,
        ));
    }
    // Time inside the calls that drive engines (not the generator's own).
    let driving_us: f64 = window
        .iter()
        .filter(|span| span.parent.is_none())
        .filter(|span| span.name.starts_with("engine.") || span.name.starts_with("simnet."))
        .map(|span| span.duration_ns() as f64 / 1e3)
        .sum();
    if driving_us > 0.0 {
        out.push((
            "storage.busy_share",
            trace::layer_total_us(&folds, "storage.") / driving_us,
        ));
    }
    out
}

/// How much of the timed region's CPU time the unit costs explain:
/// `(accounted share, crypto share, rows of (what, count, unit µs))`.
fn budget(
    values: &Values,
    round: &Round,
    storage_us_per_tx: f64,
    over_tcp: bool,
) -> (f64, f64, Vec<(&'static str, f64, f64)>) {
    let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let txs = round.timed_txs.max(1) as f64;
    let others = (round.nodes.max(1) - 1) as f64;
    let signed = round
        .artefacts
        .as_ref()
        .is_some_and(|a| a.params.validate_transactions);
    let mut rows = vec![
        ("engine.submit_tx", txs, get("engine.submit_tx_us_per_tx")),
        (
            "engine.on_tx_msg",
            txs * others,
            get("engine.on_tx_msg_us_per_tx"),
        ),
        ("engine.produce", txs, get("engine.produce_us_per_tx")),
        (
            "engine.on_getdata",
            txs * others,
            get("engine.on_getdata_us_per_tx"),
        ),
        (
            "engine.on_block_msg",
            txs * others,
            get("engine.on_block_msg_us_per_tx"),
        ),
        (
            "storage (in situ)",
            txs * round.durable_nodes as f64,
            storage_us_per_tx,
        ),
    ];
    if others > 0.0 {
        rows.push(("net.compact_build", txs, get("net.compact_build_us_per_tx")));
        rows.push((
            "net.compact_reconstruct",
            txs * others,
            get("net.compact_reconstruct_us_per_tx"),
        ));
    }
    if round.deliveries > 0 {
        // Deliveries not priced above (`inv`, `tx` and `getdata` per receiver
        // and transaction, one carrier per receiver and block): redundant
        // `inv`s, `getblocktxn` round trips, overlay control.
        let priced = txs * others * 3.0 + round.blocks as f64 * others;
        rows.push((
            "simnet.delivery (other)",
            (round.deliveries as f64 - priced).max(0.0),
            get("simnet.delivery_us"),
        ));
    }
    if over_tcp {
        // Every transaction crosses each link once as a `tx` frame.
        rows.push(("net.encode_tx", txs * others, get("net.encode_tx_us")));
        rows.push(("net.decode_tx", txs * others, get("net.decode_tx_us")));
    }
    let cpu_us = round.timed_cpu_s * 1e6;
    let accounted: f64 = rows.iter().map(|(_, count, unit)| count * unit).sum();
    let block_sigs = round.blocks as f64
        * (get("crypto.sign_us_per_sig") + round.nodes as f64 * get("crypto.verify_us_per_sig"));
    let tx_sigs = if signed {
        txs * round.nodes as f64 * get("crypto.verify_us_per_sig")
    } else {
        0.0
    };
    let share = |us: f64| if cpu_us > 0.0 { us / cpu_us } else { 0.0 };
    (share(accounted), share(block_sigs + tx_sigs), rows)
}

/// Builds the whole per-layer table of a traced run.
pub fn per_layer(
    workload: &str,
    reference: &Round,
    traced: &[(Round, Vec<Span>)],
) -> BTreeMap<&'static str, f64> {
    let mut values = Values::new();

    // What the drivers measured themselves (reference round included: the
    // durability gate and its figures run in the first round only) and what
    // the spans of the traced rounds say, as medians.
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let measured = reference.layer.iter().copied();
    let measured = measured.chain(
        traced
            .iter()
            .flat_map(|(round, spans)| round.layer.iter().copied().chain(in_situ(round, spans))),
    );
    for (name, value) in measured {
        samples.entry(name).or_default().push(value);
    }
    for (name, values_of) in samples {
        values.insert(name, stats::median(&values_of));
    }
    let over_tcp = workload == "tcp_durable";

    let traced_rates: Vec<f64> = traced.iter().map(|(round, _)| round.tx_per_s).collect();
    if let (untraced, false) = (reference.tx_per_s, traced_rates.is_empty()) {
        values.insert(
            "trace.overhead_pct",
            (1.0 - stats::median(&traced_rates) / untraced) * 100.0,
        );
    }

    // The layer replay over the last traced round's artefacts.
    let Some((last, spans)) = traced.last() else {
        return values;
    };
    let Some(sample) = last.artefacts.as_ref().and_then(Sample::of) else {
        eprintln!("note: the run left nothing to replay");
        return values;
    };
    crypto(&sample, &mut values);
    ledger(&sample, &mut values);
    engine(&sample, &mut values);
    net(&sample, &mut values);
    if over_tcp {
        if let Err(e) = raw_tcp(&sample, &mut values) {
            eprintln!("note: raw TCP measurement skipped: {e}");
        }
    }
    if last.simulated_clock {
        simnet_delivery(last.nodes as usize, &mut values);
    }

    let get = |values: &Values, name: &str| values.get(name).copied().unwrap_or(0.0);
    let blocks_per_tx = sample.blocks.len() as f64 / sample.txs.len() as f64;
    let inner = get(&values, "chainstate.admission_us_per_tx")
        + get(&values, "chain.mempool_insert_us_per_tx")
        + get(&values, "core.on_block_us_per_block") * blocks_per_tx
        + get(&values, "chainstate.connect_warm_us_per_tx")
        + get(&values, "chain.mempool_select_remove_us_per_tx");
    let handle =
        get(&values, "engine.on_tx_msg_us_per_tx") + get(&values, "engine.on_block_msg_us_per_tx");
    if handle > 0.0 {
        values.insert("engine.overhead_share", 1.0 - inner / handle);
    }

    let storage_us = trace::layer_total_us(&trace::fold(&timed_region(last, spans)), "storage.");
    let storage_us_per_tx = storage_us / (last.confirmed * last.durable_nodes).max(1) as f64;
    let (accounted, crypto_share, rows) = budget(&values, last, storage_us_per_tx, over_tcp);
    values.insert("trace.accounted_share", accounted);
    values.insert("crypto.share", crypto_share);
    eprintln!(
        "cost budget of the last traced round: {:.3} CPU s over {} transactions on {} node(s)",
        last.timed_cpu_s, last.timed_txs, last.nodes
    );
    for (what, count, unit_us) in &rows {
        eprintln!(
            "  {what:<26} {count:>10.0} x {unit_us:>9.3} us = {:>8.3} s",
            count * unit_us / 1e6
        );
    }
    eprintln!(
        "  accounted {:.1} %, unaccounted {:.1} % (scheduling, message clones, relay fan-out, \
         generator, threads the replay does not model)",
        accounted * 100.0,
        (1.0 - accounted) * 100.0
    );
    values
}
