//! Satellite of the chaos layer: a **durable** node is killed mid-sync under
//! sustained load and relaunched from its `FileStorage` state.
//!
//! The crash goes through [`SimNet::crash`], which hands back the dead engine so
//! the storage handle flushes and closes before the same directory is reopened;
//! the relaunch goes through [`SimNet::restart_with`] with an engine rebuilt by
//! `FileStorage::open` → `Engine::restore`. The assertions pin down both halves
//! of the contract: the reopened engine resumes from its on-disk chain (not
//! genesis — this is a warm restart, not a resync), and after rejoining it
//! reaches the exact tip and UTXO commitment the surviving network converged on.

use ng_node::engine::{Engine, EngineConfig};
use ng_node::simnet::{SimConfig, SimNet};
use ng_node::testnet::{test_tx, testnet_params};
use ng_storage::{FileStorage, StorageConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A self-cleaning scratch directory (no external tempdir crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ng-chaos-{tag}-{}-{}",
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

/// Opens (or recovers) the datadir under `dir`.
fn open_datadir(dir: &Path) -> (FileStorage, ng_storage::Recovery) {
    let storage_config = StorageConfig {
        finality_depth: testnet_params().finality_depth,
        fsync: false,
    };
    FileStorage::open(dir, storage_config).expect("open datadir")
}

/// Opens (or recovers) the durable engine of node `id` over `dir`.
fn durable_engine(id: u64, dir: &Path) -> Engine {
    let (storage, recovery) = open_datadir(dir);
    let mut config = EngineConfig::new(id, testnet_params());
    config.auto_microblocks = true;
    let mut engine = Engine::restore(config, recovery);
    engine.set_storage(Box::new(storage));
    engine
}

#[test]
fn durable_node_crashes_under_load_and_restarts_to_the_network_commitment() {
    let dir = TempDir::new("restart");
    let mut config = SimConfig::new(3, 91);
    config.auto_microblocks = true;
    let mut net = SimNet::new(config);
    net.connect_mesh(&[0, 1, 2]);
    net.run(1_000);

    // Node 2 becomes the durable node: same engine, now writing a datadir.
    net.engine_mut(2).set_storage(Box::new(open_datadir(dir.path()).0));

    // Sustained load: the leader streams autonomously while transactions keep
    // entering at node 1; node 2 follows along, persisting as it accepts.
    net.mine_key_block(0);
    net.run(1_000);
    for batch in 0u64..6 {
        assert!(net.submit_tx(1, test_tx(100 + batch)));
        net.run(1_000);
    }
    let pre_crash_height = net.engine(2).height();
    assert!(pre_crash_height > 1, "the durable node was mid-stream");

    // Kill it abruptly. Taking the corpse back drops the engine here, which
    // flushes and closes the storage handle before the directory reopens.
    let corpse = net.crash(2);
    drop(corpse);

    // The network keeps moving while the node is dark.
    for batch in 0u64..6 {
        assert!(net.submit_tx(1, test_tx(200 + batch)));
        net.run(1_000);
    }
    assert!(net.converged(), "survivors agree while node 2 is down");
    assert!(
        net.engine(0).height() > pre_crash_height,
        "progress happened during the outage"
    );

    // Relaunch from disk: the restored engine resumes from its persisted chain,
    // proving this is a warm restart and not a fresh resync …
    let restored = durable_engine(2, dir.path());
    assert!(
        restored.height() >= pre_crash_height.saturating_sub(1) && restored.height() > 1,
        "restore resumed from the on-disk chain (height {} vs pre-crash {})",
        restored.height(),
        pre_crash_height
    );
    net.restart_with(2, restored);

    // … and after rejoining, it must land on the surviving network's exact
    // commitment.
    assert!(net.run(60_000), "rejoined network goes quiescent");
    assert!(net.converged(), "{}", net.report());
    assert_eq!(net.engine(2).tip(), net.engine(0).tip());
    assert_eq!(
        net.engine(2).utxo_commitment(),
        net.engine(0).utxo_commitment()
    );
    let snaps = net.snapshots();
    assert!(snaps.iter().all(|s| s.mempool_len == 0), "pool drained");
}

/// A restarted node holds its pre-crash chain in its block tree and must serve it:
/// the restore path replays stored blocks into the tree, and the wire is answered
/// from the tree. (The engine used to answer `getdata` from a separate object map
/// that a restore left empty — every request for a pre-crash block went
/// unanswered and the syncing peer struck the node out again and again.)
#[test]
fn restored_node_serves_its_precrash_chain() {
    let dir = TempDir::new("serve");
    let mut config = SimConfig::new(2, 17);
    config.auto_microblocks = true;
    let mut net = SimNet::new(config);
    // Node 0 starts durable and builds a chain alone; node 1 is not connected yet.
    net.engine_mut(0).set_storage(Box::new(open_datadir(dir.path()).0));
    net.mine_key_block(0);
    for batch in 0u64..6 {
        assert!(net.submit_tx(0, test_tx(300 + batch)));
        net.run(1_000);
    }
    net.mine_key_block(0);
    net.run(1_000);
    let height = net.engine(0).height();
    assert!(height >= 5, "built {height} blocks alone");
    let (tip, commitment) = (net.engine(0).tip(), net.engine(0).utxo_commitment());

    drop(net.crash(0));
    let restored = durable_engine(0, dir.path());
    assert_eq!(restored.tip(), tip, "restore re-derived the pre-crash tip");
    net.restart_with(0, restored);

    // A fresh peer whose only connection is the restarted node.
    net.connect(0, 1);
    assert!(net.run(60_000), "sync goes quiescent");
    assert_eq!(net.engine(1).tip(), tip, "{}", net.report());
    assert_eq!(net.engine(1).utxo_commitment(), commitment);
    assert_eq!(
        net.engine(1).sync_evictions(),
        0,
        "every block request to the restarted node was answered"
    );
}
