//! The observer node of `tcp_durable`: a plain non-mining [`Engine`] on a
//! [`TcpEndpoint`], driven by this file instead of `daemon::spawn`, so the
//! benchmark can timestamp every block acceptance, count wire bytes both ways
//! and (under `--trace`) wrap the engine's storage and signature executor —
//! which `daemon::spawn` builds internally and nothing outside can reach.

use crate::round::install_storage;
use crate::trace::{self, TimedExecutor, Tracer};
use crossbeam::channel::RecvTimeoutError;
use ng_crypto::sha256::Hash256;
use ng_net::message::Message;
use ng_net::tcp::{TcpEndpoint, TcpEvent};
use ng_node::daemon::now_ms;
use ng_node::engine::{Effect, Engine, EngineConfig, Input, ReportEvent};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the loop sleeps before looking at the stop flag again.
const POLL_MS: u64 = 10;

/// What the generator thread may read while the observer runs. Plain
/// statistics: each publishes no other data, so `Relaxed` suffices.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    confirmed: AtomicU64,
    ready_peers: AtomicU64,
}

/// What the observer saw, handed back (with its engine) when it stops.
#[derive(Default)]
pub struct ObserverLog {
    /// `(block id, seconds since the epoch instant)` of every block acceptance,
    /// in order. A block is reported accepted after its roll was committed to
    /// the observer's fsynced datadir.
    pub accepted: Vec<(Hash256, f64)>,
    /// Σ `Message::wire_size()` received.
    pub bytes_in: u64,
    /// Σ `Message::wire_size()` sent.
    pub bytes_out: u64,
    /// Messages received and sent.
    pub messages: u64,
    /// Σ `Message::wire_size()` of `tx` messages, both ways.
    pub tx_bytes: u64,
    /// Compact announcements reconstructed into full microblocks.
    pub compact_reconstructed: u64,
    /// Transactions those reconstructions fetched with `getblocktxn`.
    pub compact_txs_fetched: u64,
    /// Compact reconstructions that fell back to a full-block fetch.
    pub compact_fallbacks: u64,
    /// Lazy pulls that timed out and grafted their advertiser.
    pub overlay_grafts: u64,
}

impl ObserverLog {
    fn count(&mut self, message: &Message) {
        let bytes = message.wire_size();
        self.messages += 1;
        if matches!(message, Message::Tx(_)) {
            self.tx_bytes += bytes;
        }
    }
}

/// A running observer.
pub struct Observer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<(Engine, ObserverLog)>,
}

fn span_name(input: &Input) -> &'static str {
    match input {
        Input::Message { message, .. } => match message.command() {
            "tx" => "engine.handle.msg.tx",
            "cmpct" => "engine.handle.msg.cmpct",
            "microblock" => "engine.handle.msg.microblock",
            "keyblock" => "engine.handle.msg.keyblock",
            "blocktxn" => "engine.handle.msg.blocktxn",
            _ => "engine.handle.msg.other",
        },
        Input::Tick => "engine.handle.tick",
        _ => "engine.handle.peer",
    }
}

struct Driver {
    engine: Engine,
    endpoint: TcpEndpoint,
    shared: Arc<Shared>,
    epoch: Instant,
    tracer: Tracer,
    deadline_ms: Option<u64>,
    log: ObserverLog,
}

impl Driver {
    fn send(&mut self, peer: u64, message: &Message) {
        if self.endpoint.send(peer, message).is_ok() {
            self.log.bytes_out += message.wire_size();
            self.log.count(message);
        }
    }

    fn dispatch(&mut self, input: Input) {
        let name = span_name(&input);
        let engine = &mut self.engine;
        let effects = trace::span(&self.tracer, name, None, || engine.handle(now_ms(), input));
        for effect in effects {
            match effect {
                Effect::Send { peer, message } => self.send(peer, &message),
                Effect::Broadcast { message } => {
                    for peer in self.engine.ready_peers() {
                        self.send(peer, &message);
                    }
                }
                Effect::SetTimer { deadline_ms } => self.deadline_ms = Some(deadline_ms),
                Effect::ClearTimer => self.deadline_ms = None,
                Effect::Disconnect { peer } => self.endpoint.close(peer),
                Effect::Report(ReportEvent::BlockAccepted { id, .. }) => {
                    self.log
                        .accepted
                        .push((id, self.epoch.elapsed().as_secs_f64()));
                }
                Effect::Report(ReportEvent::PeerReady { .. }) => {
                    self.shared.ready_peers.fetch_add(1, Ordering::Relaxed);
                }
                Effect::Report(ReportEvent::CompactReconstructed { fetched, .. }) => {
                    self.log.compact_reconstructed += 1;
                    self.log.compact_txs_fetched += fetched as u64;
                }
                Effect::Report(ReportEvent::CompactFallback { .. }) => {
                    self.log.compact_fallbacks += 1;
                }
                Effect::Report(ReportEvent::OverlayGraft { .. }) => self.log.overlay_grafts += 1,
                Effect::Report(_) => {}
            }
        }
        self.shared.confirmed.store(
            self.engine.chainstate().confirmed_len() as u64,
            Ordering::Relaxed,
        );
    }

    fn run(mut self) -> (Engine, ObserverLog) {
        while !self.shared.stop.load(Ordering::Relaxed) {
            let wait = self
                .deadline_ms
                .map_or(POLL_MS, |at| at.saturating_sub(now_ms()).clamp(1, POLL_MS));
            match self
                .endpoint
                .events()
                .recv_timeout(Duration::from_millis(wait))
            {
                Ok(TcpEvent::Connected {
                    connection,
                    inbound,
                    ..
                }) => self.dispatch(Input::PeerConnected {
                    peer: connection,
                    inbound,
                }),
                Ok(TcpEvent::Message {
                    connection,
                    message,
                }) => {
                    self.log.bytes_in += message.wire_size();
                    self.log.count(&message);
                    self.dispatch(Input::Message {
                        peer: connection,
                        message,
                    });
                }
                Ok(TcpEvent::Disconnected { connection, .. }) => {
                    self.dispatch(Input::PeerDisconnected { peer: connection })
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.deadline_ms.is_some_and(|at| now_ms() >= at) {
                        self.deadline_ms = None;
                        self.dispatch(Input::Tick);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.endpoint.shutdown();
        (self.engine, self.log)
    }
}

impl Observer {
    /// Binds a loopback endpoint and starts the observer on its own thread.
    /// `epoch` is the instant every logged acceptance time is measured from.
    pub fn spawn(
        config: EngineConfig,
        datadir: &Path,
        epoch: Instant,
        tracer: Tracer,
    ) -> std::io::Result<Observer> {
        let endpoint = TcpEndpoint::bind("127.0.0.1:0")?;
        let addr = endpoint.local_addr();
        let mut engine = Engine::new(config);
        install_storage(&mut engine, datadir, &tracer);
        // The same worker pool a daemon installs, timed when tracing.
        let pool = ng_node::parallel::shared_pool();
        match &tracer {
            Some(recorder) => engine.set_batch_executor(TimedExecutor::new(pool, recorder.clone())),
            None => engine.set_batch_executor(pool),
        }
        let shared = Arc::new(Shared::default());
        let driver = Driver {
            engine,
            endpoint,
            shared: shared.clone(),
            epoch,
            tracer,
            deadline_ms: None,
            log: ObserverLog::default(),
        };
        let thread = std::thread::Builder::new()
            .name("bench-observer".to_string())
            .spawn(move || driver.run())?;
        Ok(Observer {
            addr,
            shared,
            thread,
        })
    }

    /// The address daemons dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Transactions confirmed on the observer's main chain right now.
    pub fn confirmed(&self) -> u64 {
        self.shared.confirmed.load(Ordering::Relaxed)
    }

    /// Handshakes completed so far.
    pub fn ready_peers(&self) -> u64 {
        self.shared.ready_peers.load(Ordering::Relaxed)
    }

    /// Stops the loop, joins the thread and returns the engine (for chain
    /// inspection and the correctness gate) and what it saw.
    pub fn finish(self) -> (Engine, ObserverLog) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .expect("the observer thread does not panic")
    }
}
