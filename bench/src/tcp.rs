//! `tcp_durable`: two `daemon::spawn` nodes with fsynced datadirs plus the
//! bench-owned observer node, over loopback TCP. The only workload through
//! `net::tcp` framing, the codec on real bytes, reader threads, the daemon
//! loop and the worker-pool executor — wall-clock and multi-threaded.
//!
//! Phase A, open loop: a fixed rate into the non-leader; confirmation latency
//! is timed from when each submit was *due* to when the observer accepted the
//! block holding it. Phase B, closed loop: transactions back to back, then
//! drain; throughput and CPU cost. Phase C: kill one daemon, truncate its
//! files to lengths sampled mid-run, respawn it from the datadir and time how
//! long it takes to be back at the network's tip and commitment.

use crate::check;
use crate::host;
use crate::observer::Observer;
use crate::round::{datadir_bytes, Artefacts, Ctx, Round};
use crate::stats;
use crate::trace;
use crate::workload::{self, OpenLoop};
use ng_chain::transaction::{OutPoint, Transaction};
use ng_core::block::NgBlock;
use ng_core::params::NgParams;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::Hash256;
use ng_node::daemon::{spawn, NodeConfig, NodeHandle};
use ng_node::engine::{EngineConfig, GossipConfig};
use ng_storage::{crash_truncate, FileStorage};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Phase A: submits per wall second, and how many.
pub const OPEN_LOOP_PER_S: f64 = 1_000.0;
pub const OPEN_LOOP_TXS: usize = 2_000;

/// Phase B: transactions submitted back to back.
pub const CLOSED_LOOP_TXS: usize = 3_000;

/// The other daemon mines a key block this often (leader hand-over).
pub const HANDOVER_S: f64 = 1.0;

/// `auto_microblocks` production interval: small blocks, frequent commits.
pub const MICROBLOCK_INTERVAL_MS: u64 = 2;

/// Engine id of the observer (daemons are 0 and 1).
const OBSERVER_ID: u64 = 9;

/// Longest any wait for the network (handshakes, drain, restart) may take
/// before the round reports a failure instead of hanging.
const WAIT_LIMIT: Duration = Duration::from_secs(60);

/// Polls `done` every millisecond until it holds or the limit passes.
fn wait_until(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + WAIT_LIMIT;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Tip and UTXO commitment of a daemon, if it answers.
fn tip_of(node: &NodeHandle) -> Option<(Hash256, Hash256)> {
    node.snapshot().map(|s| (s.tip, s.utxo_commitment))
}

/// `(blocks, undo, wal)` lengths of a live datadir, read WAL first: a roll's
/// blocks and undos are flushed before its commit record, so these lengths
/// never hold a commit whose data lies beyond them — a state a real crash
/// could leave.
fn sample_lengths(dir: &Path) -> (u64, u64, u64) {
    let len = |path| std::fs::metadata(path).map_or(0, |meta| meta.len());
    let wal = len(FileStorage::wal_path(dir));
    let undo = len(FileStorage::undo_path(dir));
    let blocks = len(FileStorage::blocks_path(dir));
    (blocks, undo, wal)
}

/// The generator: one thread submitting through `NodeHandle::submit_tx`,
/// mining the hand-over key blocks when they fall due.
struct Generator<'a> {
    daemons: &'a [NodeHandle],
    epoch: Instant,
    tracer: &'a trace::Tracer,
    leader: usize,
    next_handover_s: f64,
    roundtrips_us: Vec<f64>,
    /// When each accepted transaction's latency clock started, seconds since
    /// the epoch.
    clock_started: HashMap<Hash256, f64>,
    refused: u64,
}

impl Generator<'_> {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Starts a phase: hand-overs fall at the same offsets into every phase of
    /// every round, so rounds do the same work.
    fn begin_phase(&mut self) -> f64 {
        let now = self.now();
        self.next_handover_s = now + HANDOVER_S / 2.0;
        now
    }

    /// Submits to the current non-leader; the latency clock starts at `from`.
    fn submit(&mut self, tx: Transaction, txid: Hash256, from: f64) {
        if self.now() >= self.next_handover_s {
            self.leader = 1 - self.leader;
            self.daemons[self.leader].mine_key_block();
            self.next_handover_s += HANDOVER_S;
        }
        let target = &self.daemons[1 - self.leader];
        let sent = self.now();
        let taken = trace::span(self.tracer, "daemon.submit_tx", Some(txid), || {
            target.submit_tx(tx)
        });
        self.roundtrips_us.push((self.now() - sent) * 1e6);
        if taken {
            self.clock_started.insert(txid, from);
        } else {
            self.refused += 1;
        }
    }
}

/// One round of the workload.
pub fn round(ctx: &Ctx) -> Round {
    let open = ctx.scaled(OPEN_LOOP_TXS);
    let closed = ctx.scaled(CLOSED_LOOP_TXS);
    let count = open + closed;
    let mut out = Round {
        nodes: 3,
        durable_nodes: 1, // only the observer's datadir is instrumented
        attempted: count as u64,
        ..Round::default()
    };
    let params = NgParams {
        min_microblock_interval_ms: 1,
        microblock_interval_ms: MICROBLOCK_INTERVAL_MS,
        coinbase_maturity: 0,
        ..NgParams::default()
    };
    let scratch = ctx.scratch_dir();
    let node_config = |id: u64| {
        let mut config = NodeConfig::loopback(id, params);
        config.auto_microblocks = true;
        config.datadir = Some(scratch.join(format!("node-{id}")));
        config.fsync = true;
        config.gossip = GossipConfig::scalable();
        config
    };
    let observer_dir = scratch.join("observer");
    let mut observer_config = EngineConfig::new(OBSERVER_ID, params);
    observer_config.gossip = GossipConfig::scalable();

    // ---- set-up: launch, connect, mine, fan the coinbase out, pre-sign ----
    let setup_started = Instant::now();
    let epoch = Instant::now();
    let launched = (|| -> std::io::Result<(Vec<NodeHandle>, Observer)> {
        let daemons = vec![spawn(node_config(0))?, spawn(node_config(1))?];
        let observer = Observer::spawn(
            observer_config.clone(),
            &observer_dir,
            epoch,
            ctx.tracer.clone(),
        )?;
        Ok((daemons, observer))
    })();
    let (mut daemons, observer) = match launched {
        Ok(pair) => pair,
        Err(e) => {
            out.errors
                .push(format!("could not launch the network: {e}"));
            out.failed = out.attempted;
            return out;
        }
    };
    let linked = daemons[0].connect(daemons[1].addr()).is_ok()
        && daemons[0].connect(observer.addr()).is_ok()
        && daemons[1].connect(observer.addr()).is_ok()
        && wait_until(|| {
            observer.ready_peers() >= 2
                && daemons
                    .iter()
                    .all(|d| d.snapshot().is_some_and(|s| s.ready_peers >= 2))
        });
    if !linked {
        out.errors.push("handshakes did not complete".to_string());
    }
    let key_block = daemons[0].mine_key_block().unwrap_or(Hash256::ZERO);
    let mut work = workload::signed(
        ctx.seed,
        OutPoint::new(key_block, 0),
        params.key_block_reward,
        &KeyPair::from_id(0),
        count,
        &params,
    );
    let mut fanout_txs = 0u64;
    for level in work.fanout.drain(..) {
        fanout_txs += level.len() as u64;
        for tx in level {
            if !daemons[0].submit_tx(tx) {
                out.errors
                    .push("a fan-out transaction was refused".to_string());
            }
        }
        let settled = wait_until(|| observer.confirmed() >= fanout_txs)
            && wait_until(|| tip_of(&daemons[0]).is_some_and(|t| Some(t) == tip_of(&daemons[1])));
        if !settled {
            out.errors
                .push("the fan-out was not confirmed on every node".to_string());
        }
    }
    let prefix = daemons[0].snapshot().map_or(0, |s| s.height) as usize;
    out.setup_s = setup_started.elapsed().as_secs_f64();

    // ---- phase A: open loop ----
    let mut spends = work.spends.drain(..).zip(work.txids.iter().copied());
    let mut generator = Generator {
        daemons: &daemons,
        epoch,
        tracer: &ctx.tracer,
        leader: 0,
        next_handover_s: f64::INFINITY,
        roundtrips_us: Vec::with_capacity(count),
        clock_started: HashMap::with_capacity(count),
        refused: 0,
    };
    let schedule = OpenLoop {
        rate: OPEN_LOOP_PER_S,
    };
    let spans_from = trace::mark(&ctx.tracer);
    let bytes_before = datadir_bytes(&observer_dir);
    let open_started = generator.begin_phase();
    let mut late_ms = Vec::with_capacity(open);
    for (index, (tx, txid)) in spends.by_ref().take(open).enumerate() {
        let due = open_started + schedule.due(index);
        let ahead = due - generator.now();
        if ahead > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(ahead));
        }
        late_ms.push(stats::lateness(due, generator.now()) * 1e3);
        generator.submit(tx, txid, due);
    }
    let open_accepted = generator.clock_started.len() as u64;
    if !wait_until(|| observer.confirmed() >= fanout_txs + open_accepted) {
        out.errors
            .push("phase A did not drain within the limit".to_string());
    }

    // ---- phase B: closed loop, then drain ----
    let cpu_started = host::cpu_seconds();
    let closed_started = generator.begin_phase();
    let mut sampled = (0, 0, 0);
    for (index, (tx, txid)) in spends.by_ref().enumerate() {
        if index == closed / 2 {
            sampled = sample_lengths(&scratch.join("node-1"));
        }
        let sent = generator.now();
        generator.submit(tx, txid, sent);
    }
    drop(spends);
    let last_submit = generator.now();
    let accepted = generator.clock_started.len() as u64;
    if !wait_until(|| observer.confirmed() >= fanout_txs + accepted) {
        out.errors
            .push("phase B did not drain within the limit".to_string());
    }
    let drained = generator.now();
    out.timed_wall_s = drained - closed_started;
    out.timed_cpu_s = host::cpu_seconds() - cpu_started;
    out.span_window = (spans_from, trace::mark(&ctx.tracer));
    out.storage_bytes = datadir_bytes(&observer_dir) - bytes_before;
    let Generator {
        roundtrips_us,
        clock_started,
        refused,
        ..
    } = generator;

    // Every node agrees before anything is killed.
    let agreed = wait_until(|| {
        let first = tip_of(&daemons[0]);
        first.is_some() && first == tip_of(&daemons[1])
    });
    let network = tip_of(&daemons[0]);
    if !agreed {
        out.errors
            .push("the daemons did not converge after the drain".to_string());
    }

    // ---- phase C: kill, truncate to the mid-run lengths, respawn ----
    let victim_dir = scratch.join("node-1");
    let mut restart_s = None;
    let truncated = ctx.durability_gate().then(|| {
        daemons.pop().expect("two daemons").shutdown();
        crash_truncate(&victim_dir, sampled.0, sampled.1, sampled.2)
    });
    match truncated {
        None => {}
        Some(Err(e)) => out
            .errors
            .push(format!("could not truncate the datadir: {e}")),
        Some(Ok(())) => {
            let restarted = Instant::now();
            match spawn(node_config(1)) {
                Err(e) => out.errors.push(format!("the daemon did not respawn: {e}")),
                Ok(node) => {
                    let back = node.connect(daemons[0].addr()).is_ok()
                        && wait_until(|| {
                            // Poll gently: every snapshot costs the catching-up
                            // daemon a full UTXO commitment.
                            std::thread::sleep(Duration::from_millis(4));
                            network.is_some() && tip_of(&node) == network
                        });
                    restart_s = Some(restarted.elapsed().as_secs_f64());
                    if !back {
                        out.errors.push(
                            "the restarted daemon did not return to the network's tip \
                             and commitment: confirmed transactions were lost"
                                .to_string(),
                        );
                    }
                    daemons.push(node);
                }
            }
        }
    }

    // ---- stop everything, then the correctness gate ----
    let configs: Vec<NodeConfig> = (0..daemons.len() as u64).map(node_config).collect();
    for daemon in daemons.drain(..) {
        daemon.shutdown();
    }
    let (engine, log) = observer.finish();
    if network != Some((engine.tip(), engine.utxo_commitment())) {
        out.errors
            .push("the observer and the daemons disagree on tip or commitment".to_string());
    }
    check::oracle(&engine, &mut out.errors);
    let blocks = check::main_chain_blocks(&engine);
    out.confirmed = check::exactly_once(&blocks, &work.txids, &mut out.errors);
    out.failed = refused.max(out.attempted - out.confirmed.min(out.attempted));
    let mut open_ms = None;
    if ctx.durability_gate() {
        open_ms = Some(check::reopen(
            &observer_dir,
            &observer_config,
            engine.tip(),
            engine.utxo_commitment(),
            &mut out.errors,
        ));
        if let Some((tip, commitment)) = network {
            for config in &configs {
                let dir = config.datadir.as_deref().expect("daemons are durable");
                check::reopen(dir, &config.engine(), tip, commitment, &mut out.errors);
            }
        }
    }

    // ---- figures ----
    let mut first_accept: HashMap<Hash256, f64> = HashMap::with_capacity(log.accepted.len());
    for &(id, at) in &log.accepted {
        first_accept.entry(id).or_insert(at);
    }
    out.blocks = (blocks.len() - prefix.min(blocks.len())) as u64;
    let connected_at = stats::connect_times(
        blocks
            .iter()
            .map(|block| first_accept.get(&block.id()).copied()),
    );
    let mut latencies_ms = Vec::with_capacity(open);
    let mut completions = Vec::with_capacity(closed);
    for (block, connected_at) in blocks.iter().zip(connected_at) {
        let NgBlock::Micro(micro) = block else {
            continue;
        };
        for tx in micro.payload.transactions().unwrap_or(&[]) {
            let Some(&from) = clock_started.get(&tx.txid()) else {
                continue;
            };
            if from < closed_started {
                latencies_ms.push((connected_at - from) * 1e3);
            } else {
                completions.push(connected_at - closed_started);
            }
        }
    }
    completions.sort_by(f64::total_cmp);
    out.timed_txs = completions.len() as u64;
    let depth_ratio = out.record_timed_region(&completions, latencies_ms);
    if !roundtrips_us.is_empty() && !late_ms.is_empty() {
        let (roundtrip_p50, roundtrip_p99) = stats::p50_p99(roundtrips_us);
        let (_, late_p99) = stats::p50_p99(late_ms);
        let (hits, misses) = engine.chainstate().sig_cache_stats();
        let confirmed = out.confirmed.max(1) as f64;
        out.layer = vec![
            ("engine.depth_ratio", depth_ratio),
            (
                "chain.sigcache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            (
                "net.wire_bytes_per_tx",
                (log.bytes_in + log.bytes_out) as f64 / confirmed,
            ),
            ("net.msgs_per_tx", log.messages as f64 / confirmed),
            (
                "net.tx_relay_bytes_share",
                log.tx_bytes as f64 / (log.bytes_in + log.bytes_out).max(1) as f64,
            ),
            (
                "net.compact_hit_ratio",
                log.compact_reconstructed as f64
                    / (log.compact_reconstructed + log.compact_fallbacks).max(1) as f64,
            ),
            (
                "net.compact_txs_fetched_per_block",
                log.compact_txs_fetched as f64 / log.compact_reconstructed.max(1) as f64,
            ),
            (
                "net.overlay_grafts_per_block",
                log.overlay_grafts as f64 / out.blocks.max(1) as f64,
            ),
            ("daemon.submit_roundtrip_p50_us", roundtrip_p50),
            ("daemon.submit_roundtrip_p99_us", roundtrip_p99),
            ("daemon.generator_late_p99_ms", late_p99),
            ("daemon.drain_ms", (drained - last_submit) * 1e3),
        ];
        out.layer.extend(restart_s.map(|s| ("daemon.restart_s", s)));
        out.layer
            .extend(open_ms.map(|ms| ("storage.open_recover_ms", ms)));
    }
    out.artefacts = Some(Artefacts {
        params,
        blocks,
        prefix,
        wallet: Some(work.wallet),
    });
    drop(engine);
    let _ = std::fs::remove_dir_all(scratch);
    out
}
