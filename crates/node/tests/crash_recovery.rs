//! Crash-recovery suite for the durable chainstate.
//!
//! The contract under test: a node killed at an **arbitrary byte position** of its
//! durable files reopens to a consistent chain — the recovered tip is a tip the
//! node actually adopted before the crash, and the recovered ledger's sorted UTXO
//! commitment equals what the live node computed when that tip was adopted. No
//! half-applied reorg is ever observable after restart.
//!
//! The proptest drives a random fork/extend/reorg schedule against a durable
//! engine while a second, in-memory engine plays "the rest of the network",
//! records an oracle entry (tip → sorted commitment) after every single engine
//! step, then truncates the block/undo/WAL files at a random byte position
//! (including mid-frame, simulating a torn write) and recovers.

use ng_core::params::NgParams;
use ng_crypto::sha256::Hash256;
use ng_net::message::Message;
use ng_node::engine::{Effect, Engine, EngineConfig, Input};
use ng_node::testnet::{test_tx, testnet_params, Testnet};
use ng_storage::{crash_truncate, FileStorage, StorageConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A self-cleaning scratch directory (no external tempdir crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ng-crash-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn params(finality_depth: u64, checkpoint_interval: u64) -> NgParams {
    NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: 2,
        // The synthetic `test_tx` workload spends outpoints that do not exist;
        // this suite exercises durability, not the ledger rules.
        validate_transactions: false,
        finality_depth,
        checkpoint_interval,
        ..NgParams::default()
    }
}

/// Opens (or recovers) a durable engine over `dir`.
fn durable_engine(dir: &Path, p: NgParams) -> Engine {
    let storage_config = StorageConfig {
        finality_depth: p.finality_depth,
        fsync: false,
    };
    let (storage, recovery) = FileStorage::open(dir, storage_config).expect("open datadir");
    let mut engine = Engine::restore(EngineConfig::new(1, p), recovery);
    engine.set_storage(Box::new(storage));
    engine
}

/// On-disk byte positions of the three append-only files.
fn file_lengths(dir: &Path) -> (u64, u64, u64) {
    let len = |name: &str| {
        std::fs::metadata(dir.join(name))
            .map(|m| m.len())
            .unwrap_or(0)
    };
    (len("blocks.ng"), len("undo.ng"), len("wal.ng"))
}

/// Shuttles every message effect between two engines until both queues drain
/// (`a` talks to `b` over connection key 0 on both sides), invoking `track`
/// after every step `a` takes — the oracle must see every adopted tip, including
/// those that only exist transiently in the middle of a burst.
fn pump(
    now: u64,
    a: &mut Engine,
    b: &mut Engine,
    first: Vec<Effect>,
    from_a: bool,
    track: &mut impl FnMut(&Engine),
) {
    let mut queues: Vec<Vec<Message>> = vec![Vec::new(), Vec::new()]; // to a, to b
    let absorb = |effects: Vec<Effect>, sender_is_a: bool, queues: &mut Vec<Vec<Message>>| {
        for effect in effects {
            match effect {
                Effect::Send { message, .. } | Effect::Broadcast { message } => {
                    queues[if sender_is_a { 1 } else { 0 }].push(message);
                }
                _ => {}
            }
        }
    };
    absorb(first, from_a, &mut queues);
    loop {
        if let Some(message) = queues[1].first().cloned() {
            queues[1].remove(0);
            let effects = b.handle(now, Input::Message { peer: 0, message });
            absorb(effects, false, &mut queues);
        } else if let Some(message) = queues[0].first().cloned() {
            queues[0].remove(0);
            let effects = a.handle(now, Input::Message { peer: 0, message });
            absorb(effects, true, &mut queues);
            track(a);
        } else {
            break;
        }
    }
}

fn connect(now: u64, a: &mut Engine, b: &mut Engine, track: &mut impl FnMut(&Engine)) {
    let hello = a.handle(
        now,
        Input::PeerConnected {
            peer: 0,
            inbound: false,
        },
    );
    b.handle(
        now,
        Input::PeerConnected {
            peer: 0,
            inbound: true,
        },
    );
    pump(now, a, b, hello, true, track);
    assert_eq!(a.ready_peer_count(), 1);
    assert_eq!(b.ready_peer_count(), 1);
}

/// One step of the random schedule.
#[derive(Clone, Debug)]
enum Op {
    /// The durable node mines and announces a key block.
    Key,
    /// The durable node confirms this many transactions in a microblock.
    Micro(u8),
    /// The durable node mines a block the network never sees, then the network
    /// mines two — forcing the durable node through a real disconnect/connect
    /// reorg whose undo data must round-trip through the crash.
    Fork,
}

/// Decodes one drawn byte into a schedule step (the vendored proptest has no
/// `prop_oneof`; a weighted code table does the same job): 0–2 → `Key`,
/// 3–5 → `Micro(1..=3)`, 6–7 → `Fork`.
fn decode_op(code: u8) -> Op {
    match code {
        0..=2 => Op::Key,
        3..=5 => Op::Micro(code - 2),
        _ => Op::Fork,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill the store at an arbitrary write point; the reopened node must sit on
    /// a tip the live node adopted, with the exact sorted commitment the live
    /// node had at that moment.
    #[test]
    fn crash_at_any_write_point_recovers_an_adopted_state(
        op_codes in proptest::collection::vec(0u8..8, 4..14),
        deep_finality in any::<bool>(),
        crash_sel in any::<u64>(),
        frac_blocks in 0u64..=1000,
        frac_undo in 0u64..=1000,
        frac_wal in 0u64..=1000,
    ) {
        let ops: Vec<Op> = op_codes.iter().map(|&code| decode_op(code)).collect();
        // Deep finality keeps recovery on the replay-from-genesis path; shallow
        // finality (with a tight checkpoint cadence) exercises the snapshot-root
        // path on the same schedules.
        let p = if deep_finality { params(2016, 4) } else { params(8, 4) };
        let dir = TempDir::new("prop");
        let mut a = durable_engine(dir.path(), p);
        let mut b = Engine::new(EngineConfig::new(2, p));

        // tip → (sorted commitment, height) at every adoption, plus the byte
        // positions of the durable files after every step `a` took.
        let mut oracle: HashMap<Hash256, (Hash256, u64)> = HashMap::new();
        let mut lengths: Vec<(u64, u64, u64)> = Vec::new();
        {
            let dir = dir.path().to_path_buf();
            let mut track = |engine: &Engine| {
                oracle.insert(engine.tip(), (engine.utxo_commitment(), engine.height()));
                lengths.push(file_lengths(&dir));
            };
            track(&a);
            let mut now = 1_000;
            connect(now, &mut a, &mut b, &mut track);

            let mut seq = 0u64;
            for op in &ops {
                now += 10;
                match op {
                    Op::Key => {
                        let effects = a.handle(now, Input::MineKeyBlock);
                        track(&a);
                        pump(now, &mut a, &mut b, effects, true, &mut track);
                    }
                    Op::Micro(txs) => {
                        for _ in 0..*txs {
                            seq += 1;
                            let effects =
                                a.handle(now, Input::SubmitTx(Box::new(test_tx(seq))));
                            track(&a);
                            pump(now, &mut a, &mut b, effects, true, &mut track);
                        }
                        now += 2;
                        let effects = a.handle(
                            now,
                            Input::ProduceMicroblock {
                                require_transactions: false,
                            },
                        );
                        track(&a);
                        pump(now, &mut a, &mut b, effects, true, &mut track);
                    }
                    Op::Fork => {
                        // a's block stays private (effects dropped): the network
                        // outruns it and a must reorg onto b's branch.
                        a.handle(now, Input::MineKeyBlock);
                        track(&a);
                        for _ in 0..2 {
                            now += 10;
                            let effects = b.handle(now, Input::MineKeyBlock);
                            pump(now, &mut a, &mut b, effects, false, &mut track);
                        }
                    }
                }
            }
        }

        // Crash: truncate each file to a byte position somewhere between two
        // recorded write points — mid-frame positions model torn writes.
        let idx = (crash_sel % lengths.len() as u64) as usize;
        let base = lengths[idx];
        let next = *lengths.get(idx + 1).unwrap_or(&base);
        // A checkpoint between the two compacts the WAL and the undo file, so
        // `next` may be the shorter one.
        let lerp = |a: u64, b: u64, frac: u64| a.min(b) + a.abs_diff(b) * frac / 1000;
        drop(a);
        crash_truncate(
            dir.path(),
            lerp(base.0, next.0, frac_blocks),
            lerp(base.1, next.1, frac_undo),
            lerp(base.2, next.2, frac_wal),
        )
        .expect("truncate durable files");

        let mut recovered = durable_engine(dir.path(), p);
        let tip = recovered.tip();
        let (expected_commitment, expected_height) = *oracle
            .get(&tip)
            .unwrap_or_else(|| panic!("recovered tip {tip:?} was never adopted pre-crash"));
        prop_assert_eq!(recovered.height(), expected_height);
        prop_assert_eq!(recovered.utxo_commitment(), expected_commitment);

        // And the recovered node is live: it can keep extending the chain.
        recovered.handle(1_000_000, Input::MineKeyBlock);
        prop_assert_eq!(recovered.height(), expected_height + 1);
    }
}

/// A clean shutdown/restart resumes from the newest snapshot — O(finality depth)
/// replay, identical tip, height and sorted commitment, and the node keeps going.
#[test]
fn restart_resumes_from_snapshot_with_identical_state() {
    let dir = TempDir::new("restart");
    let p = params(8, 4);
    let mut a = durable_engine(dir.path(), p);
    let mut now = 1_000;
    let mut seq = 0u64;
    for _ in 0..20 {
        now += 10;
        a.handle(now, Input::MineKeyBlock);
        for _ in 0..2 {
            seq += 1;
            now += 1;
            a.handle(now, Input::SubmitTx(Box::new(test_tx(seq))));
        }
        now += 2;
        a.handle(
            now,
            Input::ProduceMicroblock {
                require_transactions: false,
            },
        );
    }
    let (tip, height, commitment) = (a.tip(), a.height(), a.utxo_commitment());
    let finalized = a.node().chain().finalized().map(|(h, _)| h).unwrap_or(0);
    assert!(finalized > 0, "finality advanced with the tip");
    drop(a);

    let storage_config = StorageConfig {
        finality_depth: p.finality_depth,
        fsync: false,
    };
    let (storage, recovery) =
        FileStorage::open(dir.path(), storage_config).expect("reopen datadir");
    assert!(
        recovery.root.is_some(),
        "a mature chain restarts from a snapshot root, not genesis"
    );
    let total_blocks = height as usize;
    assert!(
        recovery.blocks.len() < total_blocks,
        "replay is bounded by the snapshot ({} of {total_blocks} blocks)",
        recovery.blocks.len()
    );
    let mut recovered = Engine::restore(EngineConfig::new(1, p), recovery);
    recovered.set_storage(Box::new(storage));
    assert_eq!(recovered.tip(), tip);
    assert_eq!(recovered.height(), height);
    assert_eq!(recovered.utxo_commitment(), commitment);

    now += 10;
    recovered.handle(now, Input::MineKeyBlock);
    assert_eq!(recovered.height(), height + 1, "recovered node stays live");
}

/// Regression (undo-map bound): a 10k-block chain must hold O(finality depth)
/// undo records, not one per block — finality advances with the tip and prunes
/// everything below it.
#[test]
fn undo_map_stays_bounded_by_finality_depth() {
    let p = params(64, 10_000); // no checkpoints; this is about pruning alone
    let mut a = Engine::new(EngineConfig::new(1, p));
    let mut now = 1_000;
    for _ in 0..10_000 {
        now += 10;
        a.handle(now, Input::MineKeyBlock);
    }
    assert_eq!(a.height(), 10_000);
    let undos = a.node().chain().undo_count();
    assert!(
        undos as u64 <= p.finality_depth + 1,
        "undo map must be O(finality depth), found {undos} records"
    );
    let finalized = a.node().chain().finalized().map(|(h, _)| h).unwrap_or(0);
    assert_eq!(finalized, 10_000 - p.finality_depth);
}

/// The daemon end of the same contract: `--datadir` survives a full process-level
/// shutdown/relaunch cycle with the identical tip and commitment.
#[test]
fn daemon_restart_with_datadir_preserves_chain() {
    let dir = TempDir::new("daemon");
    let p = testnet_params();
    let net =
        Testnet::launch_durable(1, p, false, Some(dir.path())).expect("bind loopback socket");
    for _ in 0..3 {
        net.node(0).mine_key_block().expect("mine");
        net.node(0).submit_tx(test_tx(1_000));
        net.node(0).produce_microblock();
    }
    let before = net.node(0).snapshot().expect("snapshot");
    net.shutdown();

    let net =
        Testnet::launch_durable(1, p, false, Some(dir.path())).expect("relaunch same datadir");
    let after = net.node(0).snapshot().expect("snapshot");
    assert_eq!(after.tip, before.tip);
    assert_eq!(after.height, before.height);
    assert_eq!(after.utxo_commitment, before.utxo_commitment);
    net.shutdown();
}
