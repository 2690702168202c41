//! The live-node driver: real TCP sockets and wall-clock time around the pure
//! [`Engine`].
//!
//! All protocol logic lives in [`crate::engine`]; this module only moves bytes and
//! clocks. The daemon runs on its own thread. A forwarder moves [`TcpEvent`]s from
//! the transport into the same channel that carries control [`Command`]s, so the
//! loop is a single `recv_timeout` whose timeout is the deadline of the engine's
//! last [`Effect::SetTimer`] — an idle daemon sleeps until the next protocol
//! deadline instead of polling on a fixed tick. Effects map one-to-one onto I/O:
//! `Send`/`Broadcast` write frames, `Disconnect` closes sockets, `Report` bumps the
//! shared [`NodeCounters`]. The deterministic in-process counterpart of this driver
//! is [`crate::simnet::SimNet`].

use crate::engine::{Effect, Engine, EngineConfig, Input as EngineInput, ReportEvent};
use crate::report::{record, NodeSnapshot};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use ng_chain::transaction::Transaction;
use ng_core::params::NgParams;
use ng_crypto::sha256::Hash256;
use ng_metrics::counters::NodeCounters;
use ng_net::tcp::{TcpEndpoint, TcpEvent};
use ng_storage::{FileStorage, StorageConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Wall-anchored monotonic milliseconds (the daemon's notion of `now_ms`): the
/// Unix-epoch offset is sampled once per process and advanced by a monotonic
/// `Instant`, so a system clock step can never move this backwards — a backward
/// step would otherwise stall every armed `SetTimer` deadline until wall-clock
/// time re-reached it.
pub fn now_ms() -> u64 {
    static ORIGIN: OnceLock<(Instant, u64)> = OnceLock::new();
    let (start, epoch_ms) = ORIGIN.get_or_init(|| {
        let epoch_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        (Instant::now(), epoch_ms)
    });
    epoch_ms + start.elapsed().as_millis() as u64
}

/// Configuration of one daemon.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Stable node id; also seeds the deterministic key pair.
    pub id: u64,
    /// Protocol parameters (shared by every node of a network).
    pub params: NgParams,
    /// Listen address; use port 0 for an ephemeral loopback port.
    pub listen_addr: String,
    /// When true the engine streams microblocks from its mempool on its own while it
    /// is the leader; when false microblocks are produced only on command (the
    /// deterministic mode the test harness uses).
    pub auto_microblocks: bool,
    /// Directory for durable chain state (blocks, undo data, WAL, snapshots). When
    /// set, the daemon recovers its chain from the directory on startup and
    /// persists every roll; when `None` the node is purely in-memory.
    pub datadir: Option<PathBuf>,
    /// Issue `fsync` after every durable commit (survives power loss, not just
    /// process death). Only meaningful with `datadir`.
    pub fsync: bool,
    /// Download-scheduler knobs: per-peer in-flight window, request timeout,
    /// strikes before a stalling peer is evicted from download duty.
    pub sync: ng_net::sync::SyncConfig,
    /// Trusted snapshot pin. When set on a fresh node, bootstrap by fetching the
    /// pinned checkpoint from a peer instead of replaying the whole chain.
    pub snapshot_pin: Option<crate::engine::SnapshotPin>,
    /// Keep the latest checkpoint in memory and answer `getsnapshot` even without
    /// a datadir (nodes with a datadir always serve from storage).
    pub serve_snapshots: bool,
    /// Block-propagation knobs: compact microblock relay + broadcast overlay.
    pub gossip: crate::engine::GossipConfig,
}

impl NodeConfig {
    /// A loopback daemon config with the given id and parameters.
    pub fn loopback(id: u64, params: NgParams) -> Self {
        NodeConfig {
            id,
            params,
            listen_addr: "127.0.0.1:0".to_string(),
            auto_microblocks: false,
            datadir: None,
            fsync: false,
            sync: ng_net::sync::SyncConfig::default(),
            snapshot_pin: None,
            serve_snapshots: false,
            gossip: crate::engine::GossipConfig::default(),
        }
    }

    /// The engine half of this configuration.
    pub fn engine(&self) -> EngineConfig {
        EngineConfig {
            id: self.id,
            params: self.params,
            auto_microblocks: self.auto_microblocks,
            sync: self.sync,
            snapshot_pin: self.snapshot_pin,
            serve_snapshots: self.serve_snapshots,
            gossip: self.gossip,
        }
    }
}

/// Control messages accepted by the daemon.
enum Command {
    Connect(SocketAddr, Sender<Result<u64, String>>),
    MineKeyBlock(Sender<Hash256>),
    ProduceMicroblock(Sender<Option<Hash256>>),
    SubmitTx(Box<Transaction>, Sender<bool>),
    Snapshot(Sender<NodeSnapshot>),
    DisconnectAll(Sender<()>),
    Shutdown,
}

/// What the event loop receives: transport events and control commands, merged.
enum DriverInput {
    Tcp(TcpEvent),
    Cmd(Command),
}

/// Handle to a running daemon. Dropping the handle shuts the daemon down.
pub struct NodeHandle {
    id: u64,
    addr: SocketAddr,
    input_tx: Sender<DriverInput>,
    counters: Arc<NodeCounters>,
    thread: Option<JoinHandle<()>>,
}

/// How long handle calls wait for the daemon before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Liveness backstop for the event loop when the engine armed no timer: wake up
/// occasionally even if no input and no deadline arrives.
const IDLE_BACKSTOP: Duration = Duration::from_secs(60);

impl NodeHandle {
    /// The node id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The daemon's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters (shared with the daemon thread).
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    fn request<T>(&self, make: impl FnOnce(Sender<T>) -> Command) -> Option<T> {
        let (tx, rx) = unbounded();
        self.input_tx.send(DriverInput::Cmd(make(tx))).ok()?;
        rx.recv_timeout(REPLY_TIMEOUT).ok()
    }

    /// Connects to another node; returns the connection id.
    pub fn connect(&self, addr: SocketAddr) -> Result<u64, String> {
        self.request(|tx| Command::Connect(addr, tx))
            .unwrap_or_else(|| Err("daemon unavailable".to_string()))
    }

    /// Mines (and adopts and announces) a key block; returns its id.
    pub fn mine_key_block(&self) -> Option<Hash256> {
        self.request(Command::MineKeyBlock)
    }

    /// Produces one microblock from the mempool if this node is the leader.
    pub fn produce_microblock(&self) -> Option<Hash256> {
        self.request(Command::ProduceMicroblock).flatten()
    }

    /// Submits a transaction to the node's mempool (and gossip).
    pub fn submit_tx(&self, tx: Transaction) -> bool {
        self.request(|reply| Command::SubmitTx(Box::new(tx), reply))
            .unwrap_or(false)
    }

    /// A consistent snapshot taken inside the event loop.
    pub fn snapshot(&self) -> Option<NodeSnapshot> {
        self.request(Command::Snapshot)
    }

    /// Drops every connection (used by the harness to create partitions).
    pub fn disconnect_all(&self) {
        let _ = self.request(Command::DisconnectAll);
    }

    /// Stops the daemon and joins its thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.input_tx.send(DriverInput::Cmd(Command::Shutdown));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Spawns a daemon and returns its handle.
pub fn spawn(config: NodeConfig) -> std::io::Result<NodeHandle> {
    let endpoint = TcpEndpoint::bind(&config.listen_addr)?;
    let addr = endpoint.local_addr();
    let counters = Arc::new(NodeCounters::new());
    let (input_tx, input_rx) = unbounded();

    // Forward transport events into the unified input channel.
    let events = endpoint.events().clone();
    let forward_tx = input_tx.clone();
    std::thread::spawn(move || {
        while let Ok(event) = events.recv() {
            if forward_tx.send(DriverInput::Tcp(event)).is_err() {
                break;
            }
        }
    });

    let id = config.id;
    // Real-thread driver: fan connect-time signature batches across the shared
    // worker pool. The engine stays pure — the pool only changes wall-clock time.
    let mut engine = match &config.datadir {
        Some(dir) => {
            let storage_config = StorageConfig {
                finality_depth: config.params.finality_depth,
                fsync: config.fsync,
            };
            let (storage, recovery) = FileStorage::open(dir, storage_config)
                .map_err(|e| std::io::Error::other(format!("open datadir {dir:?}: {e}")))?;
            let mut engine = Engine::restore(config.engine(), recovery);
            engine.set_storage(Box::new(storage));
            engine
        }
        None => Engine::new(config.engine()),
    };
    engine.set_batch_executor(crate::parallel::shared_pool());
    let daemon = Daemon {
        engine,
        endpoint,
        counters: Arc::clone(&counters),
        deadline_ms: None,
    };
    let thread = std::thread::Builder::new()
        .name(format!("ng-node-{id}"))
        .spawn(move || daemon.run(input_rx))?;

    Ok(NodeHandle {
        id,
        addr,
        input_tx,
        counters,
        thread: Some(thread),
    })
}

/// The thin I/O driver around the engine.
struct Daemon {
    engine: Engine,
    endpoint: TcpEndpoint,
    counters: Arc<NodeCounters>,
    /// Deadline of the engine's last `SetTimer` effect, if still pending.
    deadline_ms: Option<u64>,
}

impl Daemon {
    fn run(mut self, input_rx: Receiver<DriverInput>) {
        loop {
            let timeout = match self.deadline_ms {
                Some(deadline) => Duration::from_millis(deadline.saturating_sub(now_ms()).max(1)),
                None => IDLE_BACKSTOP,
            };
            match input_rx.recv_timeout(timeout) {
                Ok(DriverInput::Tcp(event)) => self.on_tcp(event),
                Ok(DriverInput::Cmd(Command::Shutdown)) => break,
                Ok(DriverInput::Cmd(command)) => self.on_command(command),
                Err(RecvTimeoutError::Timeout) => self.on_timeout(),
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Feeds one input to the engine and executes the returned effects; returns the
    /// reported events so command handlers can resolve replies from them.
    fn dispatch(&mut self, input: EngineInput) -> Vec<ReportEvent> {
        let effects = self.engine.handle(now_ms(), input);
        let mut reports = Vec::new();
        for effect in effects {
            match effect {
                Effect::Send { peer, message } => self.send(peer, &message),
                Effect::Broadcast { message } => {
                    self.counters.broadcasts.incr();
                    for peer in self.engine.ready_peers() {
                        self.send(peer, &message);
                    }
                }
                Effect::SetTimer { deadline_ms } => self.deadline_ms = Some(deadline_ms),
                Effect::ClearTimer => self.deadline_ms = None,
                Effect::Disconnect { peer } => {
                    // No disconnect counter bump here: closing the socket makes the
                    // reader thread emit `TcpEvent::Disconnected`, which counts it.
                    self.endpoint.close(peer);
                }
                Effect::Report(event) => {
                    record(&self.counters, &event);
                    reports.push(event);
                }
            }
        }
        reports
    }

    fn send(&self, peer: u64, message: &ng_net::message::Message) {
        if self.endpoint.send(peer, message).is_ok() {
            self.counters.messages_out.incr();
        }
    }

    fn on_tcp(&mut self, event: TcpEvent) {
        match event {
            TcpEvent::Connected {
                connection,
                inbound,
                ..
            } => {
                self.counters.connections.incr();
                // Outbound connections were registered (and greeted) by the connect
                // command; the engine ignores the duplicate registration.
                self.dispatch(EngineInput::PeerConnected {
                    peer: connection,
                    inbound,
                });
            }
            TcpEvent::Message {
                connection,
                message,
            } => {
                self.counters.messages_in.incr();
                self.dispatch(EngineInput::Message {
                    peer: connection,
                    message,
                });
            }
            TcpEvent::Disconnected { connection, .. } => {
                self.counters.disconnects.incr();
                self.dispatch(EngineInput::PeerDisconnected { peer: connection });
            }
        }
    }

    fn on_timeout(&mut self) {
        if self.deadline_ms.is_some_and(|deadline| now_ms() >= deadline) {
            self.deadline_ms = None;
            self.counters.timer_wakeups.incr();
            self.dispatch(EngineInput::Tick);
        }
    }

    fn on_command(&mut self, command: Command) {
        match command {
            Command::Connect(addr, reply) => {
                let result = match self.endpoint.connect(addr) {
                    Ok(connection) => {
                        self.dispatch(EngineInput::PeerConnected {
                            peer: connection,
                            inbound: false,
                        });
                        Ok(connection)
                    }
                    Err(e) => Err(e.to_string()),
                };
                let _ = reply.send(result);
            }
            Command::MineKeyBlock(reply) => {
                let mined = self
                    .dispatch(EngineInput::MineKeyBlock)
                    .iter()
                    .find_map(|event| match event {
                        ReportEvent::KeyBlockMined { id } => Some(*id),
                        _ => None,
                    })
                    .expect("mining always succeeds on the regtest target");
                let _ = reply.send(mined);
            }
            Command::ProduceMicroblock(reply) => {
                let produced = self
                    .dispatch(EngineInput::ProduceMicroblock {
                        require_transactions: false,
                    })
                    .iter()
                    .find_map(|event| match event {
                        ReportEvent::MicroblockProduced { id } => Some(*id),
                        _ => None,
                    });
                let _ = reply.send(produced);
            }
            Command::SubmitTx(tx, reply) => {
                let accepted = self
                    .dispatch(EngineInput::SubmitTx(tx))
                    .iter()
                    .any(|event| matches!(event, ReportEvent::TxAccepted { .. }));
                let _ = reply.send(accepted);
            }
            Command::Snapshot(reply) => {
                let snapshot = NodeSnapshot::collect(&self.engine, self.counters.snapshot());
                let _ = reply.send(snapshot);
            }
            Command::DisconnectAll(reply) => {
                for peer in self.engine.connected_peers() {
                    self.endpoint.close(peer);
                    self.dispatch(EngineInput::PeerDisconnected { peer });
                }
                let _ = reply.send(());
            }
            Command::Shutdown => unreachable!("handled by the run loop"),
        }
    }
}
