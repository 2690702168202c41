//! Emits a machine-readable snapshot of the hot-path latencies as JSON on stdout:
//! the incremental chainstate's microblock-cycle cost, the crypto backend's
//! sign/verify/batch-verify latencies, the 256-transaction connect comparison
//! (batched + worker-pool verification vs sequential per-signature verification),
//! admission of relayed signed `tx` frames through a validating engine, alone and
//! in queues of 8, 32 and 128 (`admission_batch`),
//! the durable-store restart comparison (`restart_to_tip_us` — reopen a
//! datadir from its newest UTXO snapshot — against `rebuild_from_genesis_1024_us`,
//! the same reopen with checkpoints disabled so recovery replays every block),
//! the cold-sync onboarding comparison (`cold_sync_to_tip_1024_us` — a fresh
//! node joining an established SimNet via serial download, parallel headers-first
//! download, or snapshot bootstrap, measured in deterministic simulated time),
//! the gossip propagation comparison (`propagation_100` / `propagation_1000`
//! — a leader microblock flooding a 100-node degree-8 SimNet with full carriers
//! vs the compact-relay + eager/lazy overlay stack, reporting coverage,
//! simulated p50/p99 propagation delay, per-node relay bytes, and the
//! flood-vs-overlay byte reduction, plus a 1000-node overlay row), the cost
//! of transaction relay through a 4-node mesh (`tx_relay_mesh4`), the overlay's
//! grafts, prunes and observer latency under leader hand-over
//! (`overlay_handover3`), the wire codec's cost per `tx` frame and per
//! 512-transaction microblock frame (`wire_codec`), and the latency of small
//! frames between two loopback `TcpEndpoint`s (`tcp_frames`).
//!
//! `scripts/bench_snapshot.sh` redirects this into `BENCH_ledger.json` (schema
//! `bench_ledger/v5`) so the repository tracks the perf trajectory; CI runs a
//! small-iteration smoke invocation with `--assert-fast`, which fails loudly if the
//! crypto path regresses towards the pre-comb double-and-add costs, the restart
//! path degrades towards a full replay, the fast-sync pipeline loses its
//! parallel-download and near-flat snapshot-onboarding properties, or the
//! scalable-gossip stack loses its ≥5× relay-byte reduction or 99% coverage.
//!
//! Usage: `ledger_snapshot [--iters N] [--assert-fast]` (default 200 iterations).

use bytes::BytesMut;
use ng_chain::amount::Amount;
use ng_chain::payload::Payload;
use ng_chain::transaction::{OutPoint, Transaction, TransactionBuilder};
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::schnorr::{self, BatchEntry};
use ng_crypto::sha256::sha256;
use ng_crypto::signer::SchnorrSigner;
use ng_net::codec::FrameCodec;
use ng_net::message::Message;
use ng_node::chainstate::ChainView;
use ng_node::engine::{Engine, EngineConfig, GossipConfig, Input};
use ng_node::ledger::rebuild_utxo;
use ng_node::parallel::WorkerPool;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn unchecked_params() -> NgParams {
    NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 1,
        validate_transactions: false,
        ..NgParams::default()
    }
}

/// Produce a microblock from whatever the leader has pooled.
const PRODUCE: Input = Input::ProduceMicroblock { require_transactions: true };

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

fn engine_with_chain(microblocks: u64) -> (Engine, u64) {
    let mut engine = Engine::new(EngineConfig::new(1, unchecked_params()));
    let mut now = 1_000u64;
    engine.handle(now, Input::MineKeyBlock);
    for tx in tx_pool(microblocks) {
        now += 10;
        engine.handle(now, Input::SubmitTx(Box::new(tx)));
        engine.handle(now, PRODUCE);
    }
    (engine, now)
}

/// Median of per-iteration microseconds for one leader cycle at a chain depth.
fn cycle_us(depth: u64, iters: usize) -> f64 {
    let (mut engine, start) = engine_with_chain(depth);
    let pool = tx_pool(50_000);
    let mut seq = depth as usize;
    let mut now = start;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        for _ in 0..4 {
            let tx = pool[seq % pool.len()].clone();
            seq += 1;
            engine.handle(now, Input::SubmitTx(Box::new(tx)));
        }
        now += 10;
        black_box(engine.handle(now, PRODUCE));
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(samples)
}

/// Median microseconds for one heal-style reorg of the given depth: a node that
/// built `depth` transaction-bearing microblocks adopts a heavier two-key-block
/// branch, rewinding its ledger through undo records and connecting the rival
/// epoch — chain insertion, fork choice and the incremental view roll included.
fn reorg_us(depth: u64, iters: usize) -> f64 {
    use ng_core::node::NgNode;

    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let params = unchecked_params();
        let mut node = NgNode::new(1, params, 0);
        let mut view = ChainView::new(node.chain().params(), node.chain().genesis_id());
        let kb = node.mine_and_adopt_key_block(1_000);
        let mut now = 2_000u64;
        for tx in tx_pool(depth) {
            node.produce_microblock(now, Payload::Transactions(vec![tx]))
                .expect("leader produces");
            now += 10;
        }
        view.sync(node.chain_mut()).expect("unchecked connect");
        // A competing miner who never saw the microblocks: two key blocks on the
        // epoch boundary outweigh the zero-work microblock run.
        let mut rival = NgNode::new(2, params, 0);
        rival
            .on_block(ng_core::block::NgBlock::Key(kb), 1_001)
            .expect("shared epoch");
        let rival_kb1 = rival.mine_and_adopt_key_block(now + 10);
        let rival_kb2 = rival.mine_and_adopt_key_block(now + 20);
        let t = Instant::now();
        node.on_block(ng_core::block::NgBlock::Key(rival_kb1), now + 30)
            .expect("rival branch accepted");
        node.on_block(ng_core::block::NgBlock::Key(rival_kb2.clone()), now + 40)
            .expect("rival branch wins");
        black_box(view.sync(node.chain_mut()).expect("reorg roll"));
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(node.tip(), rival_kb2.id(), "reorg applied");
        assert_eq!(view.anchor(), rival_kb2.id(), "view followed the reorg");
    }
    median(samples)
}

/// Median microseconds for one in-memory from-genesis ledger replay over an
/// already-indexed chain (the old per-tip-change cost that the incremental
/// chainstate removed). This is *not* a cold restart — the blocks are already
/// decoded and connected in memory; only the UTXO application is replayed.
fn ledger_replay_us(depth: u64, iters: usize) -> f64 {
    let (engine, _) = engine_with_chain(depth);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(rebuild_utxo(engine.node().chain()).rolling_commitment());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(samples)
}

/// Median microseconds per Schnorr signing (fixed-base comb path).
fn sign_us(iters: usize) -> f64 {
    let kp = KeyPair::from_id(1);
    // Warm the generator tables so the one-time precompute is not billed to a sample.
    black_box(schnorr::sign(&kp.secret, &sha256(b"warmup")));
    let mut samples = Vec::with_capacity(iters);
    for i in 0..iters {
        let msg = sha256(&(i as u64).to_le_bytes());
        let t = Instant::now();
        black_box(schnorr::sign(&kp.secret, &msg));
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(samples)
}

/// Median microseconds per single Schnorr verification (Strauss–Shamir path).
fn verify_us(iters: usize) -> f64 {
    let kp = KeyPair::from_id(1);
    let msg = sha256(b"verify me");
    let sig = schnorr::sign(&kp.secret, &msg);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(schnorr::verify(&kp.public, &msg, &sig)).expect("valid");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(samples)
}

fn batch_256() -> Vec<BatchEntry> {
    (0..256u64)
        .map(|i| {
            let kp = KeyPair::from_id(1000 + i);
            let msg = sha256(&i.to_le_bytes());
            (kp.public, msg, schnorr::sign(&kp.secret, &msg))
        })
        .collect()
}

/// Median microseconds for one 256-signature batch verification (one Pippenger
/// multi-scalar pass over 512 points).
fn verify_batch_256_us(iters: usize) -> f64 {
    let batch = batch_256();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        schnorr::verify_batch(black_box(&batch)).expect("valid batch");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(samples)
}

/// The 256-tx connect comparison: median microseconds to fully validate and apply
/// the block's transactions (a) sequentially, one Schnorr verification per
/// signature, exactly what connect did before the batch verifier, (b) through the
/// batched chainstate connect with inline (single-core) batch verification, and
/// (c) the same batched connect with a worker-pool executor. Also returns the
/// batched full-cycle cost (leader signing included) and the worker count — on a
/// single-core machine (c) degenerates to (b) and `workers` records 1, which is
/// why the `--assert-fast` parallel checks are conditional on `workers > 1`.
fn connect_256tx(iters: usize) -> (f64, f64, f64, f64, usize) {
    let pool = Arc::new(WorkerPool::with_default_size());
    let workers = pool.workers();
    let mut seq_samples = Vec::with_capacity(iters);
    let mut inline_samples = Vec::with_capacity(iters);
    let mut batch_samples = Vec::with_capacity(iters);
    let mut cycle_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (mut node, view, txs) = ng_bench::workload::block_256tx();

        // (a) sequential per-signature verification + application on a scratch set.
        let mut scratch = view.utxo().clone();
        let height = 3;
        let t = Instant::now();
        for tx in &txs {
            scratch.validate(tx, height).expect("valid spend");
            scratch.apply(tx, height);
        }
        black_box(scratch.rolling_commitment());
        seq_samples.push(t.elapsed().as_secs_f64() * 1e6);

        // One 256-tx microblock, connected by two fresh views (empty signature
        // caches: every signature is really verified each time).
        let mut inline_view = view.clone();
        let mut pooled_view = view.clone();
        pooled_view.set_batch_executor(pool.clone());
        let t = Instant::now();
        let micro = node
            .produce_microblock(3_000, Payload::Transactions(txs.clone()))
            .expect("256-tx microblock");
        let produced_at = t.elapsed().as_secs_f64() * 1e6;

        // (b) batched connect, single-core inline verification.
        let t = Instant::now();
        inline_view
            .sync(node.chain_mut())
            .expect("inline batched connect succeeds");
        inline_samples.push(t.elapsed().as_secs_f64() * 1e6);

        // (c) batched connect fanned across the worker pool.
        let t = Instant::now();
        pooled_view
            .sync(node.chain_mut())
            .expect("batched connect succeeds");
        let connect = t.elapsed().as_secs_f64() * 1e6;
        black_box(micro.id());
        batch_samples.push(connect);
        cycle_samples.push(produced_at + connect);
    }
    (
        median(seq_samples),
        median(inline_samples),
        median(batch_samples),
        median(cycle_samples),
        workers,
    )
}

/// A validating engine with handshaken peers 1 and 2, and `n` spends of outputs
/// it holds confirmed, signed and ready for peer 1 to relay.
fn funded_receiver(n: usize) -> (Engine, Vec<Transaction>) {
    let params = ng_bench::workload::validated_params();
    let mut engine = Engine::new(EngineConfig::new(1, params));
    for peer in [1u64, 2] {
        engine.handle(
            0,
            Input::PeerConnected {
                peer,
                inbound: true,
            },
        );
        let version = Message::Version {
            node_id: 10_000 + peer,
            protocol: ng_net::message::ProtocolKind::BitcoinNg,
            best_height: 0,
            time_ms: 0,
        };
        for message in [version, Message::Verack, Message::Headers(vec![])] {
            engine.handle(0, Input::Message { peer, message });
        }
    }
    engine.handle(1_000, Input::MineKeyBlock);
    let keys = *engine.node().keys();
    let signer = SchnorrSigner::new(keys);
    let share = Amount::from_coins(25).sats() / n as u64;
    let mut fanout = TransactionBuilder::new().input(OutPoint::new(engine.tip(), 0));
    for _ in 0..n {
        fanout = fanout.output(Amount::from_sats(share), keys.address());
    }
    let mut fanout = fanout.build();
    fanout.sign_all_inputs(&signer);
    let fanout_id = fanout.txid();
    engine.handle(1_001, Input::SubmitTx(Box::new(fanout)));
    engine.handle(1_002, PRODUCE);
    let spends = (0..n as u32)
        .map(|vout| {
            let mut tx = TransactionBuilder::new()
                .input(OutPoint::new(fanout_id, vout))
                .output(
                    Amount::from_sats(share - 100),
                    KeyPair::from_id(3000 + u64::from(vout)).address(),
                )
                .build();
            tx.sign_all_inputs(&signer);
            tx
        })
        .collect();
    (engine, spends)
}

/// Queue sizes of the `admission_batch` row: a lone frame, then 8, 32 and 128.
const ADMISSION_QUEUES: [usize; 4] = [1, 8, 32, 128];

/// Median µs per transaction to admit relayed signed `tx` frames through a
/// validating `Engine`: for each of [`ADMISSION_QUEUES`], that many frames from
/// peer 1, timed from the first frame until the last is pooled — the deadline
/// tick that flushes a short queue and the `inv`s to peer 2 included. A queue
/// of 128 fills the engine's admission batch and flushes it twice. Every
/// signature is new to the engine.
fn admission_batch(iters: usize) -> [f64; 4] {
    let mut samples = ADMISSION_QUEUES.map(|_| Vec::with_capacity(iters));
    for _ in 0..iters {
        let (mut engine, spends) = funded_receiver(ADMISSION_QUEUES.iter().sum());
        let mut spends = spends.into_iter();
        let mut now = 10_000;
        for (size, samples) in ADMISSION_QUEUES.iter().zip(&mut samples) {
            let pooled = engine.mempool_len();
            let frames: Vec<Input> = spends
                .by_ref()
                .take(*size)
                .map(|tx| Input::Message {
                    peer: 1,
                    message: Message::Tx(Box::new(tx)),
                })
                .collect();
            let t = Instant::now();
            for frame in frames {
                black_box(engine.handle(now, frame));
            }
            // Past any admission deadline: the tick flushes whatever waits.
            now += 1_000;
            black_box(engine.handle(now, Input::Tick));
            samples.push(t.elapsed().as_secs_f64() * 1e6 / *size as f64);
            assert_eq!(engine.mempool_len(), pooled + size, "every frame admitted");
        }
    }
    samples.map(median)
}

/// Median microseconds to reopen a durable datadir and restore a node to its
/// pre-shutdown tip at the given chain length — the restart path the snapshot
/// checkpoints exist for: recovery scans the block index, loads the newest
/// usable UTXO snapshot, and replays only the O(finality depth) blocks above it.
fn restart_to_tip_us(depth: u64, iters: usize) -> f64 {
    durable_reopen_us(depth, iters, 8)
}

/// Median microseconds for a cold from-genesis rebuild: the same durable datadir
/// and the same reopen path, but with the checkpoint cadence pushed past the
/// chain length so no snapshot is ever written. Recovery finds no root, decodes
/// every block frame, and replays the whole chain through the ledger — what
/// every restart cost before snapshots existed, and the baseline
/// `restart_to_tip_us` is measured against.
fn rebuild_from_genesis_us(depth: u64, iters: usize) -> f64 {
    durable_reopen_us(depth, iters, depth * 4)
}

fn durable_reopen_us(depth: u64, iters: usize, checkpoint_interval: u64) -> f64 {
    use ng_storage::{FileStorage, StorageConfig};

    let params = NgParams {
        finality_depth: 16,
        checkpoint_interval,
        ..unchecked_params()
    };
    let storage_config = StorageConfig {
        finality_depth: params.finality_depth,
        fsync: false,
    };
    let dir = std::env::temp_dir().join(format!(
        "ng-bench-restart-{}-ci{}",
        std::process::id(),
        checkpoint_interval
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch datadir");

    // Build the durable chain once: a key block every 8 heights (snapshots
    // anchor at key blocks, so the checkpoint cadence can be no finer than the
    // epoch length), single-tx microblocks in between.
    {
        let (storage, recovery) =
            FileStorage::open(&dir, storage_config).expect("open scratch datadir");
        let mut engine = Engine::restore(EngineConfig::new(1, params), recovery);
        engine.set_storage(Box::new(storage));
        let pool = tx_pool(depth);
        let mut now = 1_000u64;
        for height in 0..depth {
            now += 10;
            if height % 8 == 0 {
                engine.handle(now, Input::MineKeyBlock);
            } else {
                engine.handle(
                    now,
                    Input::SubmitTx(Box::new(pool[height as usize].clone())),
                );
                engine.handle(now, PRODUCE);
            }
        }
        assert_eq!(engine.height(), depth, "durable chain built to depth");
    }

    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        let (storage, recovery) =
            FileStorage::open(&dir, storage_config).expect("reopen scratch datadir");
        let mut engine = Engine::restore(EngineConfig::new(1, params), recovery);
        engine.set_storage(Box::new(storage));
        black_box((engine.tip(), engine.utxo().len()));
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(engine.height(), depth, "recovered to the pre-shutdown tip");
    }
    let _ = std::fs::remove_dir_all(&dir);
    median(samples)
}

/// How the fresh node in [`cold_sync_us`] is allowed to catch up.
#[derive(Clone, Copy, PartialEq)]
enum ColdSyncMode {
    /// One peer, one request in flight — the pre-scheduler sync behaviour.
    Serial,
    /// Headers-first download striped across every connected peer.
    Parallel,
    /// Assumeutxo-style bootstrap from a pinned checkpoint, then forward sync.
    Snapshot,
}

/// Simulated-clock microseconds for a fresh node to cold-sync to the tip of an
/// established SimNet — the onboarding-latency comparison behind the fast-sync
/// pipeline. The established chain extends 64 blocks past `depth` and the
/// snapshot pin anchors exactly at `depth`, so the bootstrap path still
/// exercises a real forward sync instead of rooting at the tip. Virtual time
/// (not wall clock) is what onboarding latency means here: it counts link
/// round-trips and request pipelining, is identical across machines, and is
/// deterministic per seed — samples vary only across the seeds iterated.
fn cold_sync_us(depth: u64, mode: ColdSyncMode, iters: usize) -> f64 {
    use ng_node::engine::SnapshotPin;
    use ng_node::simnet::{SimConfig, SimNet};

    let tip = depth + 64;
    let mut samples = Vec::with_capacity(iters);
    for iter in 0..iters {
        let mut config = SimConfig::new(3, 40 + iter as u64);
        config.serve_snapshots = mode == ColdSyncMode::Snapshot;
        // One checkpoint, exactly at `depth` (the chain then grows past it).
        config.params.checkpoint_interval = depth;
        if mode == ColdSyncMode::Serial {
            config.sync.window = 1;
        }
        let mut net = SimNet::new(config);
        net.connect_mesh(&[0, 1, 2]);
        net.run(2_000);
        for h in 0..tip {
            net.mine_key_block(0);
            if h % 64 == 63 {
                net.run(2_000);
            }
        }
        net.run(30_000);

        let pin = (mode == ColdSyncMode::Snapshot).then(|| {
            let snapshot = net
                .engine(0)
                .latest_snapshot()
                .expect("checkpoint cadence produced a snapshot")
                .clone();
            assert_eq!(snapshot.height, depth, "pin anchors at the requested depth");
            SnapshotPin {
                height: snapshot.height,
                root: snapshot.root.id(),
                sorted: snapshot.sorted,
            }
        });
        let fresh = net.add_node_with(|engine_config| engine_config.snapshot_pin = pin);
        match mode {
            ColdSyncMode::Serial => {
                net.connect(fresh, 0);
            }
            _ => {
                for peer in 0..3 {
                    net.connect(fresh, peer);
                }
            }
        }
        let mut virtual_ms = 0u64;
        while net.engine(fresh).height() < tip {
            assert!(
                virtual_ms < 3_600_000,
                "cold sync exceeded its virtual budget at height {}",
                net.engine(fresh).height()
            );
            net.run(10);
            virtual_ms += 10;
        }
        samples.push(virtual_ms as f64 * 1_000.0);
    }
    median(samples)
}

/// One propagation measurement: coverage, simulated delay percentiles, and the
/// block-relay bytes each node paid.
struct PropagationStats {
    coverage: f64,
    p50_us: f64,
    p99_us: f64,
    relay_bytes_per_node: f64,
}

/// Commands that carry block relay traffic, the unit the flood-vs-overlay
/// comparison is made in (transaction gossip is identical across stacks and the
/// nodes here share a preloaded pool, so it never appears on the wire).
const RELAY_COMMANDS: &[&str] = &[
    "inv",
    "getdata",
    "keyblock",
    "microblock",
    "cmpct",
    "getblocktxn",
    "blocktxn",
    "ihave",
    "graft",
    "prune",
];

/// Propagates one 32-tx leader microblock through a `nodes`-strong, degree-8
/// SimNet under the given gossip stack and measures how it spread. Everything is
/// simulated-clock and seed-deterministic, so one run per topology is a
/// measurement, not a sample: delays count link hops and pull timeouts, bytes
/// come from the per-command wire accounting, and none of it varies with the
/// host machine.
fn propagation(nodes: usize, seed: u64, gossip: GossipConfig) -> PropagationStats {
    use ng_node::simnet::{SimConfig, SimNet};

    let mut config = SimConfig::new(nodes, seed);
    config.gossip = gossip;
    config.record_arrivals = true;
    let mut net = SimNet::new(config);
    net.connect_degree(8);
    net.run(5_000);
    net.mine_key_block(0);
    net.run(2_000);

    let relay_bytes = |net: &SimNet| -> u64 {
        (0..nodes)
            .map(|n| {
                RELAY_COMMANDS
                    .iter()
                    .map(|c| net.wire_stats(n).command(c).bytes_out)
                    .sum::<u64>()
            })
            .sum()
    };
    let baseline = relay_bytes(&net);

    for node in 0..nodes {
        for tx in tx_pool(32) {
            net.engine_mut(node).preload_tx(tx);
        }
    }
    let id = net.produce_microblock(0).expect("leader with a full pool");
    let produced_at = net.now_ms();
    net.run(30_000);

    let mut first: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for &(node, at) in net.arrivals(&id) {
        let entry = first.entry(node).or_insert(at);
        *entry = (*entry).min(at);
    }
    let mut delays: Vec<u64> = first.values().map(|&at| at - produced_at).collect();
    delays.sort_unstable();
    PropagationStats {
        coverage: first.len() as f64 / nodes as f64,
        p50_us: percentile(&delays, 50) * 1_000.0,
        p99_us: percentile(&delays, 99) * 1_000.0,
        relay_bytes_per_node: (relay_bytes(&net) - baseline) as f64 / nodes as f64,
    }
}

/// Transaction relay through a 4-node full mesh (links 2–20 virtual ms): 200
/// transactions submitted round-robin, one per ms, no blocks. Returns, per
/// transaction and across all nodes, the `tx` bodies, the `inv` + `getdata` +
/// `tx` messages and their wire bytes — and the median virtual ms from submit to
/// "in every mempool", polled each ms. Seed-deterministic like [`propagation`].
fn tx_relay_mesh4() -> [f64; 4] {
    use ng_node::simnet::{SimConfig, SimNet};

    let mut net = SimNet::new(SimConfig::new(4, 5));
    net.connect_mesh(&[0, 1, 2, 3]);
    net.run(2_000);
    let txs = tx_pool(200);
    let mut submitted = txs.iter().enumerate();
    let (mut pending, mut delays) = (Vec::new(), Vec::new());
    while delays.len() < txs.len() {
        if let Some((seq, tx)) = submitted.next() {
            assert!(net.submit_tx(seq % 4, tx.clone()));
            pending.push((tx.txid(), net.now_ms()));
        }
        net.run(1);
        pending.retain(|(txid, at)| {
            let everywhere = (0..4).all(|node| net.engine(node).mempool_contains(txid));
            if everywhere {
                delays.push((net.now_ms() - at) as f64);
            }
            !everywhere
        });
    }
    net.run(1_000);
    let sent = |command: &str| {
        let stats = (0..4).map(|node| net.wire_stats(node).command(command));
        stats.fold((0, 0), |(msgs, bytes), c| (msgs + c.msgs_out, bytes + c.bytes_out))
    };
    let (inv, getdata, tx) = (sent("inv"), sent("getdata"), sent("tx"));
    let per_tx = |total: u64| total as f64 / txs.len() as f64;
    let (msgs, bytes) = (inv.0 + getdata.0 + tx.0, inv.1 + getdata.1 + tx.1);
    [per_tx(tx.0), per_tx(msgs), per_tx(bytes), median(delays)]
}

/// [`tx_relay_mesh4`] as PR 14 measured it, when every hop was announced (`inv` →
/// `getdata` → `tx`); recorded beside the current row.
const TX_RELAY_EVERY_HOP_ANNOUNCED: [f64; 4] = [3.04, 15.04, 922.2, 52.0];

/// The overlay under leader hand-over, seed-deterministic like [`propagation`]:
/// a 3-node mesh (links 2–20 virtual ms, 2 ms auto-microblocks, compact + overlay)
/// where nodes 0 and 1 swap leadership every 250 ms, node 2 only observes, and
/// 6 000 transactions reach the non-leader, one per ms. Returns the grafts and
/// prunes of all nodes per 1000 blocks the observer accepted, and the observer's
/// p50/p99 virtual ms from a main-chain block's production to its arrival there.
fn overlay_handover3() -> [f64; 4] {
    use ng_node::simnet::{SimConfig, SimNet};

    let mut config = SimConfig::new(3, 1);
    config.gossip = GossipConfig::scalable();
    config.auto_microblocks = true;
    config.record_arrivals = true;
    let mut net = SimNet::new(config);
    net.connect_mesh(&[0, 1, 2]);
    net.run(2_000);
    for ms in 0..6_000 {
        let leader = (ms / 250 % 2) as usize;
        if ms % 250 == 0 {
            net.mine_key_block(leader);
        }
        net.submit_tx(1 - leader, ng_node::testnet::test_tx(ms));
        net.run(1);
    }
    net.run(5_000);
    let main_chain = net.engine(2).node().chain().store().main_chain();
    let mut delays: Vec<u64> = main_chain
        .iter()
        .filter_map(|id| {
            let arrivals = net.arrivals(id);
            let observed = arrivals.iter().find(|&&(node, _)| node == 2)?.1;
            Some(observed - arrivals.first()?.1)
        })
        .collect();
    delays.sort_unstable();
    let counters: Vec<_> = net.snapshots().into_iter().map(|snap| snap.counters).collect();
    let per_1000 = |count: u64| count as f64 * 1_000.0 / counters[2].blocks_accepted as f64;
    [
        per_1000(counters.iter().map(|c| c.overlay_grafts).sum()),
        per_1000(counters.iter().map(|c| c.overlay_prunes).sum()),
        percentile(&delays, 50),
        percentile(&delays, 99),
    ]
}

/// [`overlay_handover3`] measured before a reply to this node's own request
/// stopped counting as a duplicate push; recorded beside the current row.
const OVERLAY_HANDOVER3_REPLIES_PRUNED: [f64; 4] = [541.1, 59.1, 142.0, 206.0];

/// The `p`-th percentile of ascending `samples`.
fn percentile(samples: &[u64], p: usize) -> f64 {
    samples[(samples.len() * p / 100).min(samples.len() - 1)] as f64
}

/// The wire codec on real bytes: median microseconds to encode and to decode one
/// `tx` frame (a signed 1-in/1-out spend) and one 512-transaction `microblock`
/// frame, plus the bytes of the `tx` frame.
fn wire_codec(iters: usize) -> [f64; 5] {
    let mut node = ng_core::node::NgNode::new(1, unchecked_params(), 0);
    node.mine_and_adopt_key_block(1_000);
    let signer = SchnorrSigner::new(*node.keys());
    let mut txs = tx_pool(512);
    txs.iter_mut().for_each(|tx| tx.sign_all_inputs(&signer));
    let tx = Message::Tx(Box::new(txs[0].clone()));
    let micro = node.produce_microblock(2_000, Payload::Transactions(txs)).expect("leader produces");
    let block = Message::MicroBlock(Box::new(micro));
    let codec = FrameCodec::default();
    let round_trip = |message: &Message, iters: usize| {
        let (mut encode, mut decode) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
        for _ in 0..iters {
            let t = Instant::now();
            let frame = black_box(codec.encode(black_box(message)).expect("frames"));
            encode.push(t.elapsed().as_secs_f64() * 1e6);
            let mut buffer = BytesMut::from(&frame[..]);
            let t = Instant::now();
            black_box(codec.decode(&mut buffer).expect("decodes"));
            decode.push(t.elapsed().as_secs_f64() * 1e6);
        }
        [median(encode), median(decode), codec.encode(message).expect("frames").len() as f64]
    };
    let [tx_encode, tx_decode, tx_bytes] = round_trip(&tx, iters * 5);
    let [block_encode, block_decode, _] = round_trip(&block, (iters / 20).clamp(3, 10));
    [tx_encode, tx_decode, block_encode, block_decode, tx_bytes]
}

/// [`wire_codec`] measured on the same host before the wire spoke the binary
/// codec, when every frame body was JSON; recorded beside the current row.
const WIRE_CODEC_JSON: [f64; 5] = [8.6, 21.4, 4776.9, 362039.9, 744.0];

/// Two `TcpEndpoint`s over loopback, `exchanges` rounds of: a lone `ping` from A
/// until B's owner has it (one-way delivery), then two `ping`s back to back and
/// B's `pong` once the second is in, until A's owner has the `pong` (the
/// write-write-answer exchange Nagle's algorithm stalls). Returns p50 and p99 µs
/// of the one-way delivery, then of the exchange.
fn tcp_frames(exchanges: usize) -> [f64; 4] {
    use ng_net::tcp::{TcpEndpoint, TcpEvent};

    let a = TcpEndpoint::bind("127.0.0.1:0").expect("bind A");
    let b = TcpEndpoint::bind("127.0.0.1:0").expect("bind B");
    let to_b = a.connect(b.local_addr()).expect("A dials B");
    // The connection a message arrived on, skipping `Connected`.
    let message_at = |endpoint: &TcpEndpoint| loop {
        match endpoint
            .events()
            .recv_timeout(std::time::Duration::from_secs(10))
        {
            Ok(TcpEvent::Message { connection, .. }) => return connection,
            Ok(TcpEvent::Connected { .. }) => continue,
            other => panic!("tcp_frames: {other:?}"),
        }
    };
    let (mut one_way, mut exchange) = (Vec::new(), Vec::new());
    for round in 0..exchanges as u64 {
        let t = Instant::now();
        a.send(to_b, &Message::Ping(round)).expect("ping");
        message_at(&b);
        one_way.push(t.elapsed().as_micros() as u64);
        let t = Instant::now();
        a.send(to_b, &Message::Ping(round)).expect("first ping");
        a.send(to_b, &Message::Ping(round)).expect("second ping");
        message_at(&b);
        let to_a = message_at(&b);
        b.send(to_a, &Message::Pong(round)).expect("pong");
        message_at(&a);
        exchange.push(t.elapsed().as_micros() as u64);
    }
    one_way.sort_unstable();
    exchange.sort_unstable();
    [
        percentile(&one_way, 50),
        percentile(&one_way, 99),
        percentile(&exchange, 50),
        percentile(&exchange, 99),
    ]
}

/// [`tcp_frames`] measured on the same host before streams set `TCP_NODELAY`
/// (per figure, the median of five runs); recorded beside the current row.
const TCP_FRAMES_NAGLE: [f64; 4] = [11.0, 25.0, 43987.0, 47931.0];

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn main() {
    let mut iters = 200usize;
    let mut assert_fast = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--iters" {
            iters = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .expect("--iters takes a positive integer");
            i += 2;
        } else if args[i] == "--assert-fast" {
            assert_fast = true;
            i += 1;
        } else {
            eprintln!("unknown argument {}", args[i]);
            std::process::exit(2);
        }
    }
    let iters = iters.max(3);

    let sign = sign_us(iters.max(20));
    let verify = verify_us(iters.max(20));
    let batch_256 = verify_batch_256_us((iters / 20).clamp(3, 20));
    let cycle_16 = cycle_us(16, iters);
    let cycle_1024 = cycle_us(1024, iters);
    let reorg_8 = reorg_us(8, (iters / 10).max(3));
    let replay_1024 = ledger_replay_us(1024, (iters / 10).max(3));
    let rebuild_1024 = rebuild_from_genesis_us(1024, (iters / 10).clamp(3, 20));
    let restart_1024 = restart_to_tip_us(1024, (iters / 10).clamp(3, 20));
    let restart_speedup = rebuild_1024 / restart_1024.max(f64::EPSILON);
    let (seq_256, inline_256, batched_256, cycle_256, workers) =
        connect_256tx((iters / 20).clamp(3, 10));
    let [admit_lone, admit_8, admit_32, admit_128] = admission_batch((iters / 10).clamp(3, 20));
    let speedup = seq_256 / batched_256.max(f64::EPSILON);
    // Virtual time is deterministic per seed, so a couple of seeds suffice.
    let cold_iters = (iters / 100).clamp(1, 3);
    let cold_serial = cold_sync_us(1024, ColdSyncMode::Serial, cold_iters);
    let cold_parallel = cold_sync_us(1024, ColdSyncMode::Parallel, cold_iters);
    let cold_snapshot = cold_sync_us(1024, ColdSyncMode::Snapshot, cold_iters);
    let cold_snapshot_128 = cold_sync_us(128, ColdSyncMode::Snapshot, cold_iters);
    let cold_parallel_speedup = cold_serial / cold_parallel.max(f64::EPSILON);
    let cold_snapshot_speedup = cold_serial / cold_snapshot.max(f64::EPSILON);
    let cold_depth_ratio = cold_snapshot / cold_snapshot_128.max(f64::EPSILON);
    // Propagation is deterministic per seed: one run per topology is the number.
    let flood_100 = propagation(100, 7, GossipConfig::default());
    let overlay_100 = propagation(100, 7, GossipConfig::scalable());
    let overlay_1000 = propagation(1000, 9, GossipConfig::scalable());
    let relay_reduction =
        flood_100.relay_bytes_per_node / overlay_100.relay_bytes_per_node.max(f64::EPSILON);

    println!("{{");
    println!("  \"schema\": \"bench_ledger/v5\",");
    println!("  \"iters\": {iters},");
    println!("  \"schnorr_sign_us\": {sign:.1},");
    println!("  \"schnorr_verify_us\": {verify:.1},");
    println!("  \"verify_batch_256_us\": {batch_256:.1},");
    println!("  \"microblock_cycle_4tx_us\": {{");
    println!("    \"chain_16\": {cycle_16:.1},");
    println!("    \"chain_1024\": {cycle_1024:.1},");
    println!(
        "    \"depth_ratio\": {:.3}",
        cycle_1024 / cycle_16.max(f64::EPSILON)
    );
    println!("  }},");
    println!("  \"microblock_cycle_256tx_us\": {cycle_256:.1},");
    println!("  \"connect_256tx\": {{");
    println!("    \"sequential_us\": {seq_256:.1},");
    println!("    \"batched_inline_us\": {inline_256:.1},");
    println!("    \"batched_parallel_us\": {batched_256:.1},");
    println!("    \"speedup\": {speedup:.2},");
    println!("    \"workers\": {workers}");
    println!("  }},");
    println!("  \"admission_batch\": {{");
    println!("    \"lone_us_per_tx\": {admit_lone:.1},");
    println!("    \"queue_8_us_per_tx\": {admit_8:.1},");
    println!("    \"queue_32_us_per_tx\": {admit_32:.1},");
    println!("    \"queue_128_us_per_tx\": {admit_128:.1}");
    println!("  }},");
    println!("  \"reorg_depth8_us\": {reorg_8:.1},");
    println!("  \"ledger_replay_from_genesis_1024_us\": {replay_1024:.1},");
    println!("  \"rebuild_from_genesis_1024_us\": {rebuild_1024:.1},");
    println!("  \"restart_to_tip_us\": {restart_1024:.1},");
    println!("  \"restart_speedup_vs_rebuild\": {restart_speedup:.1},");
    println!("  \"cold_sync_to_tip_1024_us\": {{");
    println!("    \"serial_us\": {cold_serial:.1},");
    println!("    \"parallel_us\": {cold_parallel:.1},");
    println!("    \"snapshot_us\": {cold_snapshot:.1},");
    println!("    \"parallel_speedup_vs_serial\": {cold_parallel_speedup:.2},");
    println!("    \"snapshot_speedup_vs_serial\": {cold_snapshot_speedup:.2},");
    println!("    \"snapshot_128_us\": {cold_snapshot_128:.1},");
    println!("    \"snapshot_depth_ratio\": {cold_depth_ratio:.3}");
    println!("  }},");
    let prop_row = |s: &PropagationStats| {
        format!(
            "{{ \"coverage\": {:.3}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"relay_bytes_per_node\": {:.1} }}",
            s.coverage, s.p50_us, s.p99_us, s.relay_bytes_per_node
        )
    };
    println!("  \"propagation_100\": {{");
    println!("    \"flood\": {},", prop_row(&flood_100));
    println!("    \"overlay\": {},", prop_row(&overlay_100));
    println!("    \"relay_byte_reduction\": {relay_reduction:.2}");
    println!("  }},");
    println!("  \"propagation_1000\": {{");
    println!("    \"overlay\": {}", prop_row(&overlay_1000));
    println!("  }},");
    let tx_relay_row = |[bodies, msgs, bytes, p50]: [f64; 4]| {
        format!(
            "{{ \"bodies_per_tx\": {bodies:.2}, \"msgs_per_tx\": {msgs:.2}, \
             \"wire_bytes_per_tx\": {bytes:.1}, \"everywhere_p50_ms\": {p50:.1} }}"
        )
    };
    println!("  \"tx_relay_mesh4\": {{");
    println!("    \"first_hop_pushed\": {},", tx_relay_row(tx_relay_mesh4()));
    println!("    \"every_hop_announced_pr14\": {}", tx_relay_row(TX_RELAY_EVERY_HOP_ANNOUNCED));
    println!("  }},");
    let codec_row = |[tx_encode, tx_decode, block_encode, block_decode, tx_bytes]: [f64; 5]| {
        format!(
            "{{ \"tx_encode_us\": {tx_encode:.2}, \"tx_decode_us\": {tx_decode:.2}, \
             \"microblock_512tx_encode_us\": {block_encode:.1}, \
             \"microblock_512tx_decode_us\": {block_decode:.1}, \"tx_frame_bytes\": {tx_bytes:.0} }}"
        )
    };
    let handover_row = |[grafts, prunes, p50, p99]: [f64; 4]| {
        format!(
            "{{ \"grafts_per_1000_blocks\": {grafts:.1}, \"prunes_per_1000_blocks\": {prunes:.1}, \
             \"observer_p50_ms\": {p50:.1}, \"observer_p99_ms\": {p99:.1} }}"
        )
    };
    println!("  \"overlay_handover3\": {{");
    println!("    \"replies_never_prune\": {},", handover_row(overlay_handover3()));
    println!("    \"replies_pruned\": {}", handover_row(OVERLAY_HANDOVER3_REPLIES_PRUNED));
    println!("  }},");
    println!("  \"wire_codec\": {{");
    println!("    \"binary\": {},", codec_row(wire_codec(iters)));
    println!("    \"json\": {}", codec_row(WIRE_CODEC_JSON));
    println!("  }},");
    let frames_row = |[one_p50, one_p99, wwa_p50, wwa_p99]: [f64; 4]| {
        format!(
            "{{ \"one_way_p50_us\": {one_p50:.0}, \"one_way_p99_us\": {one_p99:.0}, \
             \"write_write_answer_p50_us\": {wwa_p50:.0}, \
             \"write_write_answer_p99_us\": {wwa_p99:.0} }}"
        )
    };
    println!("  \"tcp_frames\": {{");
    println!("    \"nodelay\": {},", frames_row(tcp_frames(iters * 5)));
    println!("    \"nagle\": {}", frames_row(TCP_FRAMES_NAGLE));
    println!("  }}");
    println!("}}");

    if assert_fast {
        // Loose sanity bounds (~10× above the measured numbers, far below the old
        // double-and-add costs of 2.5 ms sign / 5 ms verify): a return to the slow
        // path fails CI loudly, machine jitter does not.
        let mut failures = Vec::new();
        if sign > 500.0 {
            failures.push(format!("schnorr_sign_us {sign:.1} > 500"));
        }
        if verify > 1000.0 {
            failures.push(format!("schnorr_verify_us {verify:.1} > 1000"));
        }
        if batch_256 > 256.0 * verify.max(50.0) {
            failures.push(format!(
                "verify_batch_256_us {batch_256:.1} is no better than sequential"
            ));
        }
        if admit_128 >= admit_lone {
            failures.push(format!(
                "admission_batch queue_128_us_per_tx {admit_128:.1} >= lone_us_per_tx \
                 {admit_lone:.1}: batched admission lost to one-by-one admission"
            ));
        }
        if speedup < 1.0 {
            failures.push(format!(
                "connect_256tx speedup {speedup:.2} < 1.0: batched connect lost to sequential"
            ));
        }
        // The parallel-path expectations only hold when a pool actually has more
        // than one worker — on a single-core machine `workers` records 1 and the
        // pooled connect legitimately equals the inline one.
        if workers > 1 {
            if speedup < 1.5 {
                failures.push(format!(
                    "connect_256tx speedup {speedup:.2} < 1.5 with {workers} workers"
                ));
            }
            if batched_256 > inline_256 {
                failures.push(format!(
                    "batched_parallel_us {batched_256:.1} > batched_inline_us {inline_256:.1} \
                     with {workers} workers: the pool must not lose to single-core batching"
                ));
            }
        }
        // The recorded BENCH_ledger.json numbers show >=10x; CI asserts at 5x so
        // a cold cache or a loaded machine does not flake the build while a real
        // regression (losing the snapshot root, decoding the full chain) still
        // fails loudly.
        if restart_1024 > rebuild_1024 / 5.0 {
            failures.push(format!(
                "restart_to_tip_us {restart_1024:.1} is not at least 5x faster than \
                 rebuild_from_genesis_1024_us {rebuild_1024:.1}"
            ));
        }
        // Cold-sync times are simulated-clock and therefore machine-independent:
        // a violation is a real pipeline regression, never jitter. The parallel
        // download must beat the one-request-at-a-time walk by a wide margin,
        // the snapshot bootstrap must beat the full download, and snapshot cold
        // start must stay near-flat in chain length (the ~2x acceptance bound).
        if cold_parallel_speedup < 4.0 {
            failures.push(format!(
                "cold_sync parallel_speedup_vs_serial {cold_parallel_speedup:.2} < 4.0"
            ));
        }
        if cold_snapshot > cold_parallel {
            failures.push(format!(
                "cold_sync snapshot_us {cold_snapshot:.1} is slower than the full \
                 parallel download {cold_parallel:.1}"
            ));
        }
        if cold_depth_ratio > 2.0 {
            failures.push(format!(
                "cold_sync snapshot_depth_ratio {cold_depth_ratio:.3} > 2.0: \
                 snapshot cold start is no longer near-flat in chain length"
            ));
        }
        // Propagation numbers are simulated-clock and seed-deterministic, so
        // these are exact regression gates, not jitter-tolerant bounds: the
        // compact + overlay stack must keep flood-level coverage at ≥5× fewer
        // relay bytes per node, and must still cover a 1000-node overlay.
        if overlay_100.coverage < 0.99 {
            failures.push(format!(
                "propagation_100 overlay coverage {:.3} < 0.99",
                overlay_100.coverage
            ));
        }
        if relay_reduction < 5.0 {
            failures.push(format!(
                "propagation_100 relay_byte_reduction {relay_reduction:.2} < 5.0: \
                 compact+overlay relay lost its byte advantage over the flood"
            ));
        }
        if overlay_1000.coverage < 0.99 {
            failures.push(format!(
                "propagation_1000 overlay coverage {:.3} < 0.99",
                overlay_1000.coverage
            ));
        }
        if !failures.is_empty() {
            eprintln!("--assert-fast violations:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
