//! The deterministic in-process network driver: N pure [`Engine`]s wired through a
//! seeded message scheduler.
//!
//! No sockets, no threads, no wall clock. Every `Send`/`Broadcast` effect becomes a
//! delivery event in a priority queue, with per-message latency drawn from a seeded
//! [`SimRng`], optional message loss, and FIFO ordering per directed link (the
//! guarantee TCP gives the live daemon). `SetTimer` effects become timer events;
//! partitions sever links exactly like the loopback harness does — connections
//! drop, in-flight messages are lost, and healing reconnects and resyncs. A 5-node
//! partition/heal/reorg scenario that takes seconds over loopback TCP runs here in
//! milliseconds, and the same schedule under the same seed replays byte-identically:
//! the [`SimNet::trace_bytes`] of two runs are equal, which the determinism suite
//! asserts across seeds.

use crate::chaos::{Fault, FaultPlan};
use crate::engine::{Effect, Engine, EngineConfig, GossipConfig, Input, ReportEvent};
use crate::report::{record, NodeSnapshot};
use crate::testnet::ConvergenceReport;
use ng_chain::transaction::Transaction;
use ng_core::params::NgParams;
use ng_crypto::rng::SimRng;
use ng_crypto::sha256::Hash256;
use ng_metrics::counters::{NodeCounters, WireStats};
use ng_net::message::Message;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};

/// Configuration of a simulated network.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of nodes (engines), ids `0..nodes`.
    pub nodes: usize,
    /// Protocol parameters shared by every node.
    pub params: NgParams,
    /// Master seed: latencies and loss decisions are a pure function of it.
    pub seed: u64,
    /// Minimum one-way message latency in virtual milliseconds.
    pub min_latency_ms: u64,
    /// Maximum one-way message latency in virtual milliseconds (inclusive).
    pub max_latency_ms: u64,
    /// Probability that a non-handshake message is dropped in flight. Handshake
    /// messages are never dropped: over TCP, losing one means the connection was
    /// never established in the first place.
    pub loss: f64,
    /// When true every engine streams microblocks autonomously while leader,
    /// driven by its own `SetTimer` deadlines.
    pub auto_microblocks: bool,
    /// When true every emitted effect is cloned into the in-memory trace that
    /// [`SimNet::trace_bytes`] serializes. Off by default: long scenarios would
    /// otherwise retain every block and transaction carrier for the run's lifetime.
    pub record_trace: bool,
    /// Download-scheduler knobs shared by every node (window, request timeout,
    /// eviction strikes). Fast-sync scenarios shrink the timeout so stalls expire
    /// within the simulated budget.
    pub sync: ng_net::sync::SyncConfig,
    /// When true every node keeps its latest checkpoint in memory and answers
    /// `getsnapshot` — SimNet nodes have no durable storage, so this is the only
    /// way a simulated network can serve snapshot bootstraps.
    pub serve_snapshots: bool,
    /// Block-propagation knobs shared by every node (compact relay, broadcast
    /// overlay). Defaults to the classic flood.
    pub gossip: GossipConfig,
    /// When true every block acceptance is recorded as `(node, virtual time)`
    /// under its block id — the raw material of propagation-delay CDFs. Off by
    /// default (long scenarios would accumulate entries forever).
    pub record_arrivals: bool,
}

impl SimConfig {
    /// A config with testnet-style parameters, LAN-ish latencies and no loss.
    pub fn new(nodes: usize, seed: u64) -> Self {
        SimConfig {
            nodes,
            params: crate::testnet::testnet_params(),
            seed,
            min_latency_ms: 2,
            max_latency_ms: 20,
            loss: 0.0,
            auto_microblocks: false,
            record_trace: false,
            sync: ng_net::sync::SyncConfig::default(),
            serve_snapshots: false,
            gossip: GossipConfig::default(),
            record_arrivals: false,
        }
    }

    /// The engine configuration of node `id` on this network.
    pub fn engine(&self, id: u64) -> EngineConfig {
        EngineConfig {
            id,
            params: self.params,
            auto_microblocks: self.auto_microblocks,
            sync: self.sync,
            snapshot_pin: None,
            serve_snapshots: self.serve_snapshots,
            gossip: self.gossip,
        }
    }
}

/// One recorded effect: what node emitted what, when. The serialized trace is the
/// determinism suite's comparison unit.
#[derive(Clone, Debug, Serialize)]
pub struct TraceEntry {
    /// Virtual time of emission.
    pub at_ms: u64,
    /// Emitting node.
    pub node: u64,
    /// The effect.
    pub effect: Effect,
}

/// What sits in the scheduler's queue.
#[derive(Clone, Debug)]
enum SimEvent {
    /// A message in flight on the directed link `from → to`.
    Deliver {
        from: usize,
        to: usize,
        /// Link epoch at send time; a mismatch at delivery time means the link was
        /// severed while the message was in flight (TCP would have lost it too).
        epoch: u64,
        message: Message,
    },
    /// A `SetTimer` deadline for one node.
    Timer { node: usize },
}

#[derive(Clone, Debug)]
struct Scheduled {
    at: u64,
    /// Monotonic tiebreak: same-time events run in scheduling order.
    seq: u64,
    event: SimEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic in-process network of [`Engine`]s.
pub struct SimNet {
    config: SimConfig,
    engines: Vec<Engine>,
    counters: Vec<NodeCounters>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    now: u64,
    rng: SimRng,
    /// Live undirected links, keyed `(min, max)`.
    links: BTreeSet<(usize, usize)>,
    /// Per directed link: epoch (bumped on sever, stales in-flight messages).
    epochs: HashMap<(usize, usize), u64>,
    /// Per directed link: earliest time the next message may arrive (FIFO).
    link_clock: HashMap<(usize, usize), u64>,
    /// Per node: the deadline of its currently armed timer. A later `SetTimer`
    /// replaces any earlier one (the effect's contract), so a popped timer event
    /// whose time no longer matches is stale and must not fire a `Tick`.
    timers: Vec<Option<u64>>,
    /// Nodes whose outgoing non-handshake traffic is silently dropped — the
    /// deterministic model of a stalling peer: it completes handshakes and hears
    /// every request, but its replies never make it onto the wire.
    muted: HashSet<usize>,
    trace: Vec<TraceEntry>,
    /// Per node: per-command wire traffic (messages and modelled bytes both ways).
    wire: Vec<WireStats>,
    /// Per block id: every `(node, virtual ms)` acceptance, in arrival order.
    /// Filled only under [`SimConfig::record_arrivals`].
    arrivals: HashMap<Hash256, Vec<(usize, u64)>>,
    /// Per node: constant offset added to the clock its engine observes. The
    /// scheduler itself always runs on real virtual time; only the `now`
    /// handed to `Engine::handle` (and timer deadlines mapped back) shift.
    skews: Vec<i64>,
    /// Per node: true while crashed — no dispatch, no transmit, dark.
    down: Vec<bool>,
    /// Per directed link: latency-range override (min, max inclusive).
    /// Lookup-only (never iterated), so hash order cannot leak into schedules.
    link_latency: HashMap<(usize, usize), (u64, u64)>,
    /// Per directed link: throughput cap in bytes per virtual millisecond.
    /// Lookup-only (never iterated).
    link_bandwidth: HashMap<(usize, usize), u64>,
    /// Per crashed/eclipsed node: the sorted neighbor set it had, re-dialed on
    /// restart/release. Lookup-only (never iterated).
    remembered: HashMap<usize, Vec<usize>>,
    /// Pending fault schedule, time-sorted; `run` interleaves it with the
    /// event queue (faults first at equal times).
    plan: VecDeque<(u64, Fault)>,
}

fn canon(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl SimNet {
    /// Builds the network; no links exist yet (see [`Self::connect_mesh`]).
    pub fn new(config: SimConfig) -> Self {
        assert!(config.nodes >= 1, "a network needs at least one node");
        assert!(
            config.min_latency_ms <= config.max_latency_ms,
            "latency range is empty"
        );
        let engines = (0..config.nodes)
            .map(|id| Engine::new(config.engine(id as u64)))
            .collect();
        let counters = (0..config.nodes).map(|_| NodeCounters::new()).collect();
        let wire = (0..config.nodes).map(|_| WireStats::new()).collect();
        let timers = vec![None; config.nodes];
        let skews = vec![0i64; config.nodes];
        let down = vec![false; config.nodes];
        let rng = SimRng::seed_from_u64(config.seed);
        SimNet {
            config,
            engines,
            counters,
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            rng,
            links: BTreeSet::new(),
            epochs: HashMap::new(),
            link_clock: HashMap::new(),
            timers,
            muted: HashSet::new(),
            trace: Vec::new(),
            wire,
            arrivals: HashMap::new(),
            skews,
            down,
            link_latency: HashMap::new(),
            link_bandwidth: HashMap::new(),
            remembered: HashMap::new(),
            plan: VecDeque::new(),
        }
    }

    /// Adds one node to a running network — a late joiner — and returns its index.
    /// `configure` can override the fresh node's engine config before it boots,
    /// e.g. pin a snapshot for fast bootstrap. No links are created; follow up
    /// with [`Self::connect`].
    pub fn add_node_with(&mut self, configure: impl FnOnce(&mut EngineConfig)) -> usize {
        let id = self.engines.len();
        let mut engine_config = self.config.engine(id as u64);
        configure(&mut engine_config);
        self.engines.push(Engine::new(engine_config));
        self.counters.push(NodeCounters::new());
        self.wire.push(WireStats::new());
        self.timers.push(None);
        self.skews.push(0);
        self.down.push(false);
        self.config.nodes += 1;
        id
    }

    /// Silences a node: from now on its outgoing non-handshake messages are
    /// dropped on the wire. The deterministic stalling peer — it still answers
    /// handshakes (the connection looks healthy) but never serves a request.
    pub fn mute(&mut self, node: usize) {
        self.muted.insert(node);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True if the network has no nodes (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now
    }

    /// Read access to one engine (assertions in tests).
    pub fn engine(&self, node: usize) -> &Engine {
        &self.engines[node]
    }

    /// Mutable access to one engine, for out-of-band setup such as
    /// [`Engine::preload_tx`] — bench harnesses pre-fill hundreds of mempools
    /// without paying for a transaction flood. Effects are not captured here; use
    /// the command wrappers for anything that gossips.
    pub fn engine_mut(&mut self, node: usize) -> &mut Engine {
        &mut self.engines[node]
    }

    /// Per-command wire traffic of one node (messages and modelled bytes, both
    /// directions).
    pub fn wire_stats(&self, node: usize) -> &WireStats {
        &self.wire[node]
    }

    /// Every `(node, virtual ms)` acceptance of a block, in arrival order. Empty
    /// unless [`SimConfig::record_arrivals`] was set.
    pub fn arrivals(&self, id: &Hash256) -> &[(usize, u64)] {
        self.arrivals.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Overrides the message-loss probability mid-scenario (e.g. "the healed
    /// network is reliable").
    pub fn set_loss(&mut self, loss: f64) {
        self.config.loss = loss;
    }

    // ---- topology -------------------------------------------------------------

    /// Connects two nodes (`a` dials). A no-op if the link already exists.
    pub fn connect(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "a node cannot dial itself");
        if !self.links.insert(canon(a, b)) {
            return;
        }
        self.counters[a].connections.incr();
        self.counters[b].connections.incr();
        self.dispatch(
            b,
            Input::PeerConnected {
                peer: a as u64,
                inbound: true,
            },
        );
        self.dispatch(
            a,
            Input::PeerConnected {
                peer: b as u64,
                inbound: false,
            },
        );
    }

    /// Connects every pair within `group` (lower index dials higher).
    pub fn connect_mesh(&mut self, group: &[usize]) {
        for (pos, &a) in group.iter().enumerate() {
            for &b in &group[pos + 1..] {
                self.connect(a, b);
            }
        }
    }

    /// Wires a sparse random topology of roughly the given average degree: a ring
    /// over all nodes (guaranteed connectivity) plus seeded random extra links
    /// until the link count reaches `nodes × degree / 2`. This is the topology the
    /// 100–1000-node propagation experiments run — a full mesh at that scale would
    /// be O(n²) links and nothing like a real overlay.
    pub fn connect_degree(&mut self, degree: usize) {
        let n = self.engines.len();
        assert!(n >= 3, "a ring needs at least three nodes");
        assert!(degree >= 2, "the ring alone already gives degree 2");
        for i in 0..n {
            self.connect(i, (i + 1) % n);
        }
        let target_links = (n * degree) / 2;
        // Seeded rejection sampling; the attempt cap makes degenerate requests
        // (degree close to n) terminate rather than spin.
        let mut attempts = 0usize;
        let cap = target_links.saturating_mul(30).max(1_000);
        while self.links.len() < target_links && attempts < cap {
            attempts += 1;
            let a = self.rng.range_u64(0, n as u64) as usize;
            let b = self.rng.range_u64(0, n as u64) as usize;
            if a != b {
                self.connect(a, b);
            }
        }
    }

    /// Severs the link between two nodes: both engines see the peer disappear and
    /// everything in flight between them is lost.
    pub fn disconnect(&mut self, a: usize, b: usize) {
        if !self.links.remove(&canon(a, b)) {
            return;
        }
        *self.epochs.entry((a, b)).or_insert(0) += 1;
        *self.epochs.entry((b, a)).or_insert(0) += 1;
        // A reconnect is a fresh TCP stream with no FIFO ordering against the dead
        // connection's in-flight (now epoch-staled) traffic.
        self.link_clock.remove(&(a, b));
        self.link_clock.remove(&(b, a));
        self.counters[a].disconnects.incr();
        self.counters[b].disconnects.incr();
        self.dispatch(a, Input::PeerDisconnected { peer: b as u64 });
        self.dispatch(b, Input::PeerDisconnected { peer: a as u64 });
    }

    /// Splits the network: every link is severed, then each group is reconnected as
    /// its own full mesh. Indices not listed in any group end up isolated.
    pub fn partition(&mut self, groups: &[&[usize]]) {
        // BTreeSet: links sever in deterministic (sorted) order.
        let existing: Vec<(usize, usize)> = self.links.iter().copied().collect();
        for (a, b) in existing {
            self.disconnect(a, b);
        }
        for group in groups {
            self.connect_mesh(group);
        }
    }

    /// Heals any partition by re-establishing the full mesh.
    pub fn heal(&mut self) {
        let all: Vec<usize> = (0..self.engines.len()).collect();
        self.partition(&[&all]);
    }

    // ---- chaos ----------------------------------------------------------------

    /// Merges a [`FaultPlan`] into the pending schedule. `run` fires each fault
    /// at its virtual time, before any message or timer event of that time.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        let mut merged: Vec<(u64, Fault)> = self.plan.drain(..).collect();
        merged.extend(plan.into_events());
        merged.sort_by_key(|&(at, _)| at);
        self.plan = merged.into();
    }

    /// True while the node is crashed.
    pub fn is_down(&self, node: usize) -> bool {
        self.down[node]
    }

    /// Kills a node abruptly: the dying engine observes nothing, every peer
    /// sees its connection drop, the armed timer dies, and the engine itself is
    /// replaced by an inert placeholder and returned. Returning (rather than
    /// dropping) the corpse lets durable scenarios take back ownership so
    /// attached storage flushes and closes before a
    /// [`Self::restart_with`] reopens the same directory.
    pub fn crash(&mut self, node: usize) -> Engine {
        assert!(!self.down[node], "node is already down");
        self.down[node] = true;
        self.timers[node] = None;
        // BTreeSet iteration: neighbors come out sorted, so the sever order —
        // and every PeerDisconnected dispatched to survivors — is deterministic.
        let neighbors: Vec<usize> = self
            .links
            .iter()
            .filter_map(|&(a, b)| {
                if a == node {
                    Some(b)
                } else if b == node {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        for &peer in &neighbors {
            self.disconnect(node, peer);
        }
        self.remembered.insert(node, neighbors);
        let placeholder = Engine::new(self.engines[node].config().clone());
        std::mem::replace(&mut self.engines[node], placeholder)
    }

    /// Cold-restarts a crashed node: fresh engine, empty state, resync from the
    /// peers it had at crash time.
    pub fn restart_fresh(&mut self, node: usize) {
        let engine = Engine::new(self.engines[node].config().clone());
        self.restart_with(node, engine);
    }

    /// Restarts a crashed node with a caller-built engine — e.g. one restored
    /// from the `FileStorage` the crashed instance was writing — and re-dials
    /// the neighbors remembered at crash time (skipping any that are
    /// themselves down).
    pub fn restart_with(&mut self, node: usize, engine: Engine) {
        assert!(self.down[node], "only a crashed node can restart");
        self.engines[node] = engine;
        self.down[node] = false;
        self.timers[node] = None;
        for peer in self.remembered.remove(&node).unwrap_or_default() {
            if !self.down[peer] {
                self.connect(node, peer);
            }
        }
    }

    /// Sets the constant clock skew a node observes (see [`Fault::ClockSkew`]).
    /// Set skews before the node arms timers in the new frame; changing skew
    /// under an armed timer leaves that deadline in the old frame.
    pub fn set_clock_skew(&mut self, node: usize, skew_ms: i64) {
        self.skews[node] = skew_ms;
    }

    /// Overrides the latency range of the directed link `from → to`.
    pub fn set_link_latency(&mut self, from: usize, to: usize, min_ms: u64, max_ms: u64) {
        assert!(min_ms <= max_ms, "latency range is empty");
        self.link_latency.insert((from, to), (min_ms, max_ms));
    }

    /// Caps the throughput of the directed link `from → to` at `bytes_per_ms`.
    pub fn set_link_bandwidth(&mut self, from: usize, to: usize, bytes_per_ms: u64) {
        assert!(bytes_per_ms >= 1, "a zero-rate link never delivers");
        self.link_bandwidth.insert((from, to), bytes_per_ms);
    }

    /// Eclipses a victim: severs every current link and connects only the
    /// attackers. The pre-eclipse neighbor set is remembered for
    /// [`Self::release`].
    pub fn eclipse(&mut self, victim: usize, attackers: &[usize]) {
        let neighbors: Vec<usize> = self
            .links
            .iter()
            .filter_map(|&(a, b)| {
                if a == victim {
                    Some(b)
                } else if b == victim {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        for &peer in &neighbors {
            self.disconnect(victim, peer);
        }
        self.remembered.insert(victim, neighbors);
        for &attacker in attackers {
            self.connect(victim, attacker);
        }
    }

    /// Undoes an [`Self::eclipse`]: re-dials the remembered neighbors.
    /// Attacker links stay up — a healed victim cannot tell who was malicious.
    pub fn release(&mut self, node: usize) {
        for peer in self.remembered.remove(&node).unwrap_or_default() {
            if !self.down[peer] {
                self.connect(node, peer);
            }
        }
    }

    /// The clock node `node` observes at real virtual time `real_ms`.
    fn local_clock(&self, node: usize, real_ms: u64) -> u64 {
        let skew = self.skews[node];
        if skew >= 0 {
            real_ms.saturating_add(skew as u64)
        } else {
            real_ms.saturating_sub(skew.unsigned_abs())
        }
    }

    /// Maps a deadline the node expressed in its own (skewed) frame back onto
    /// the scheduler's real clock.
    fn real_deadline(&self, node: usize, local_ms: u64) -> u64 {
        let skew = self.skews[node];
        if skew >= 0 {
            local_ms.saturating_sub(skew as u64)
        } else {
            local_ms.saturating_add(skew.unsigned_abs())
        }
    }

    /// Applies one scheduled fault (see [`Fault`] for semantics).
    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Crash { node } => {
                // The corpse drops here; planned crashes model stateless nodes.
                self.crash(node);
            }
            Fault::Restart { node } => self.restart_fresh(node),
            Fault::ClockSkew { node, skew_ms } => self.set_clock_skew(node, skew_ms),
            Fault::LinkLatency {
                from,
                to,
                min_ms,
                max_ms,
            } => self.set_link_latency(from, to, min_ms, max_ms),
            Fault::LinkBandwidth {
                from,
                to,
                bytes_per_ms,
            } => self.set_link_bandwidth(from, to, bytes_per_ms),
            Fault::Eclipse { victim, attackers } => self.eclipse(victim, &attackers),
            Fault::Release { node } => self.release(node),
            Fault::Sever { a, b } => self.disconnect(a, b),
            Fault::Link { a, b } => self.connect(a, b),
            Fault::SetLoss { loss } => self.set_loss(loss),
        }
    }

    // ---- commands -------------------------------------------------------------

    /// Node `node` mines (and adopts and announces) a key block; returns its id.
    pub fn mine_key_block(&mut self, node: usize) -> Hash256 {
        self.dispatch(node, Input::MineKeyBlock)
            .iter()
            .find_map(|event| match event {
                ReportEvent::KeyBlockMined { id } => Some(*id),
                _ => None,
            })
            .expect("mining always succeeds on the regtest target")
    }

    /// Node `node` produces one microblock from its mempool if leader and due.
    pub fn produce_microblock(&mut self, node: usize) -> Option<Hash256> {
        self.dispatch(
            node,
            Input::ProduceMicroblock {
                require_transactions: false,
            },
        )
        .iter()
        .find_map(|event| match event {
            ReportEvent::MicroblockProduced { id } => Some(*id),
            _ => None,
        })
    }

    /// Submits a transaction to node `node`'s mempool (and gossip); true if it
    /// was pooled. (The same call may admit queued relayed transactions too.)
    pub fn submit_tx(&mut self, node: usize, tx: Transaction) -> bool {
        let submitted = tx.txid();
        self.dispatch(node, Input::SubmitTx(Box::new(tx)))
            .iter()
            .any(|event| matches!(event, ReportEvent::TxAccepted { txid } if *txid == submitted))
    }

    /// Byzantine injection: puts an arbitrary crafted message on the wire from
    /// `from` to `to`, exactly as if `from`'s engine had emitted it — same link,
    /// FIFO ordering, latency and loss rules. Attack scenarios use this to make a
    /// leader send protocol-valid-looking but semantically malicious carriers
    /// (e.g. a correctly signed microblock spending nonexistent outputs) without
    /// teaching the honest engine how to misbehave.
    pub fn inject_message(&mut self, from: usize, to: usize, message: Message) {
        self.transmit(from, to, message);
    }

    // ---- the scheduler --------------------------------------------------------

    /// Runs the network for `budget_ms` of virtual time, processing every queued
    /// event and scheduled fault that falls inside the window; the clock ends at
    /// `now + budget_ms`. Returns true if both the queue and the fault plan
    /// fully drained (the network went quiescent with no chaos left to come).
    pub fn run(&mut self, budget_ms: u64) -> bool {
        let deadline = self.now.saturating_add(budget_ms);
        loop {
            // A timer the engine superseded or cleared is dead weight: drop it
            // instead of letting it count against quiescence or shadow a fault.
            while let Some(Reverse(head)) = self.queue.peek() {
                match head.event {
                    SimEvent::Timer { node } if self.timers[node] != Some(head.at) => {
                        self.queue.pop();
                    }
                    _ => break,
                }
            }
            let next_fault = self.plan.front().map(|&(at, _)| at);
            let next_event = self.queue.peek().map(|Reverse(s)| s.at);
            match (next_fault, next_event) {
                // Faults fire first at equal times: a crash at `t` must kill
                // the deliveries of `t`.
                (Some(fault_at), event_at)
                    if fault_at <= deadline && event_at.is_none_or(|at| fault_at <= at) =>
                {
                    self.now = self.now.max(fault_at);
                    let (_, fault) = self.plan.pop_front().expect("peeked above");
                    self.apply_fault(fault);
                }
                (_, Some(event_at)) if event_at <= deadline => {
                    self.step();
                }
                (None, None) => {
                    self.now = deadline;
                    return true;
                }
                _ => {
                    // Whatever remains lies beyond the window.
                    self.now = deadline;
                    return false;
                }
            }
        }
    }

    /// Processes the single next event; returns false when the queue is empty.
    fn step(&mut self) -> bool {
        let Some(Reverse(scheduled)) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(scheduled.at);
        match scheduled.event {
            SimEvent::Deliver {
                from,
                to,
                epoch,
                message,
            } => {
                let live = self.links.contains(&canon(from, to))
                    && self.epochs.get(&(from, to)).copied().unwrap_or(0) == epoch;
                if live {
                    self.counters[to].messages_in.incr();
                    self.wire[to].record_in(message.command(), message.wire_size());
                    self.dispatch(
                        to,
                        Input::Message {
                            peer: from as u64,
                            message,
                        },
                    );
                }
            }
            SimEvent::Timer { node } => {
                if self.timers[node] != Some(scheduled.at) {
                    return true; // superseded by a later SetTimer
                }
                self.timers[node] = None;
                self.counters[node].timer_wakeups.incr();
                self.dispatch(node, Input::Tick);
            }
        }
        true
    }

    /// Feeds one input to an engine and schedules/records its effects; returns the
    /// reported events so command wrappers can resolve results from them.
    fn dispatch(&mut self, node: usize, input: Input) -> Vec<ReportEvent> {
        if self.down[node] {
            return Vec::new(); // a crashed process observes nothing
        }
        let local_now = self.local_clock(node, self.now);
        let effects = self.engines[node].handle(local_now, input);
        let mut reports = Vec::new();
        for effect in effects {
            if self.config.record_trace {
                self.trace.push(TraceEntry {
                    at_ms: self.now,
                    node: node as u64,
                    effect: effect.clone(),
                });
            }
            match effect {
                Effect::Send { peer, message } => self.transmit(node, peer as usize, message),
                Effect::Broadcast { message } => {
                    self.counters[node].broadcasts.incr();
                    for peer in self.engines[node].ready_peers() {
                        self.transmit(node, peer as usize, message.clone());
                    }
                }
                Effect::SetTimer { deadline_ms } => {
                    // The engine expressed the deadline in its own (possibly
                    // skewed) frame; map it back onto the scheduler's clock.
                    // Never schedule in the past; 1 ms is the granularity.
                    let at = self.real_deadline(node, deadline_ms).max(self.now + 1);
                    self.timers[node] = Some(at);
                    self.push(at, SimEvent::Timer { node });
                }
                Effect::ClearTimer => {
                    // The queued timer event (if any) goes stale: `run` discards
                    // it instead of letting it hold the queue open.
                    self.timers[node] = None;
                }
                Effect::Disconnect { peer } => {
                    // The engine already forgot the peer; sever the link so the
                    // remote side sees the connection die too.
                    self.disconnect(node, peer as usize);
                }
                Effect::Report(event) => {
                    record(&self.counters[node], &event);
                    if self.config.record_arrivals {
                        // A block "arrives" at a node when it joins its chain —
                        // whether pushed, reconstructed, pulled, or produced.
                        if let ReportEvent::BlockAccepted { id, .. }
                        | ReportEvent::KeyBlockMined { id }
                        | ReportEvent::MicroblockProduced { id } = &event
                        {
                            self.arrivals.entry(*id).or_default().push((node, self.now));
                        }
                    }
                    reports.push(event);
                }
            }
        }
        reports
    }

    /// Puts a message on the wire from `from` to `to`.
    fn transmit(&mut self, from: usize, to: usize, message: Message) {
        if !self.links.contains(&canon(from, to)) {
            return; // link died in the same effect batch
        }
        if self.down[from] || self.down[to] {
            return; // one endpoint is crashed; the wire is dead
        }
        if self.muted.contains(&from) && !message.is_handshake() {
            return; // a stalling peer: the reply never leaves the node
        }
        self.counters[from].messages_out.incr();
        self.wire[from].record_out(message.command(), message.wire_size());
        if self.config.loss > 0.0 && !message.is_handshake() && self.rng.chance(self.config.loss) {
            return; // lost in flight
        }
        let (min_latency, max_latency) = self
            .link_latency
            .get(&(from, to))
            .copied()
            .unwrap_or((self.config.min_latency_ms, self.config.max_latency_ms));
        let latency = if min_latency == max_latency {
            min_latency
        } else {
            self.rng.range_u64(min_latency, max_latency + 1)
        };
        // A bandwidth-capped link adds serialization delay and spaces
        // consecutive arrivals by at least it, bounding throughput at the cap.
        let serialization = self
            .link_bandwidth
            .get(&(from, to))
            .map(|rate| message.wire_size().div_ceil(*rate))
            .unwrap_or(0);
        // FIFO per directed link, as TCP guarantees: a message never overtakes an
        // earlier one on the same link.
        let clock = self.link_clock.entry((from, to)).or_insert(0);
        let at = (self.now + latency).max(*clock) + serialization;
        *clock = at;
        let epoch = self.epochs.get(&(from, to)).copied().unwrap_or(0);
        self.push(
            at,
            SimEvent::Deliver {
                from,
                to,
                epoch,
                message,
            },
        );
    }

    fn push(&mut self, at: u64, event: SimEvent) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
    }

    // ---- observation ----------------------------------------------------------

    /// Snapshots of every node, in id order.
    pub fn snapshots(&self) -> Vec<NodeSnapshot> {
        self.engines
            .iter()
            .zip(&self.counters)
            .map(|(engine, counters)| NodeSnapshot::collect(engine, counters.snapshot()))
            .collect()
    }

    /// The engines of the nodes that are up, in id order.
    pub fn live_engines(&self) -> impl Iterator<Item = &Engine> {
        let nodes = self.engines.iter().zip(&self.down);
        nodes.filter_map(|(engine, down)| (!down).then_some(engine))
    }

    /// True when every live node agrees on tip and UTXO commitment. Crashed
    /// nodes don't count: a dark process has no view to disagree with.
    pub fn converged(&self) -> bool {
        let up: Vec<&Engine> = self.live_engines().collect();
        up.windows(2).all(|w| {
            w[0].tip() == w[1].tip() && w[0].utxo_commitment() == w[1].utxo_commitment()
        })
    }

    /// A convergence report in the same shape the loopback harness produces;
    /// `elapsed` is virtual time.
    pub fn report(&self) -> ConvergenceReport {
        let snapshots = self.snapshots();
        let (tip, utxo_commitment) = snapshots
            .first()
            .map(|s| (s.tip, s.utxo_commitment))
            .unwrap_or((Hash256::ZERO, Hash256::ZERO));
        ConvergenceReport {
            converged: self.converged(),
            tip,
            utxo_commitment,
            elapsed: std::time::Duration::from_millis(self.now),
            snapshots,
        }
    }

    /// The full effect trace, serialized — the unit of byte-identical comparison in
    /// the determinism suite. Empty unless [`SimConfig::record_trace`] is set.
    pub fn trace_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(&self.trace).expect("effects serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::test_tx;

    #[test]
    fn every_node_is_configured_from_the_shared_knobs() {
        let mut config = SimConfig::new(2, 9);
        config.auto_microblocks = true;
        config.sync.window = 3;
        config.serve_snapshots = true;
        config.gossip = GossipConfig::scalable();
        let mut net = SimNet::new(config.clone());
        let late = net.add_node_with(|engine| engine.sync.window = 4);
        for node in 0..3 {
            let engine = net.engine(node).config();
            assert_eq!(engine.id, node as u64);
            assert_eq!(engine.params, config.params);
            assert!(engine.auto_microblocks && engine.serve_snapshots);
            assert_eq!(engine.sync.window, if node == late { 4 } else { 3 });
            assert_eq!(engine.gossip, GossipConfig::scalable());
            assert_eq!(engine.snapshot_pin, None);
        }
    }

    #[test]
    fn three_nodes_converge_on_a_mined_epoch() {
        let mut net = SimNet::new(SimConfig::new(3, 7));
        net.connect_mesh(&[0, 1, 2]);
        assert!(net.run(1_000), "handshakes settle");
        for engine in &net.engines {
            assert_eq!(engine.ready_peer_count(), 2);
        }
        net.mine_key_block(0);
        assert!(net.submit_tx(0, test_tx(1)));
        net.run(1_000);
        net.produce_microblock(0).expect("leader with a mempool");
        assert!(net.run(1_000));
        assert!(net.converged(), "{}", net.report());
        let snaps = net.snapshots();
        assert!(snaps.iter().all(|s| s.height == 2));
        assert!(snaps.iter().all(|s| s.mempool_len == 0));
    }

    #[test]
    fn partition_diverges_and_heal_reorgs() {
        let mut net = SimNet::new(SimConfig::new(4, 11));
        net.connect_mesh(&[0, 1, 2, 3]);
        net.run(1_000);
        net.mine_key_block(0);
        net.run(1_000);
        assert!(net.converged());

        net.partition(&[&[0, 1], &[2, 3]]);
        net.mine_key_block(2); // minority work
        net.run(500);
        net.mine_key_block(0); // majority: strictly more work
        net.run(500);
        net.mine_key_block(1);
        net.run(1_000);
        assert!(!net.converged(), "partition had no effect");
        let majority_tip = net.engine(0).tip();

        net.heal();
        assert!(net.run(5_000), "healed network goes quiescent");
        assert!(net.converged(), "{}", net.report());
        assert_eq!(net.engine(3).tip(), majority_tip, "heavier branch wins");
        let snaps = net.snapshots();
        assert!(
            snaps[2..].iter().any(|s| s.counters.reorgs >= 1),
            "minority reorged"
        );
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let mut config = SimConfig::new(3, seed);
            config.record_trace = true;
            let mut net = SimNet::new(config);
            net.connect_mesh(&[0, 1, 2]);
            net.run(500);
            net.mine_key_block(1);
            net.submit_tx(1, test_tx(9));
            net.run(500);
            net.produce_microblock(1);
            net.run(2_000);
            (net.trace_bytes(), net.report())
        };
        let (trace_a, report_a) = run(42);
        let (trace_b, report_b) = run(42);
        assert_eq!(trace_a, trace_b, "identical seed, identical effect trace");
        assert!(report_a.converged && report_b.converged);
        let (trace_c, _) = run(43);
        assert_ne!(trace_a, trace_c, "different seed, different latencies");
    }

    #[test]
    fn auto_mode_streams_via_timers() {
        let mut config = SimConfig::new(2, 5);
        config.auto_microblocks = true;
        let mut net = SimNet::new(config);
        net.connect_mesh(&[0, 1]);
        net.run(1_000);
        net.mine_key_block(0);
        net.run(1_000);
        // Submit to the non-leader; gossip carries it to the leader, whose timers
        // stream it out with no explicit produce command.
        assert!(net.submit_tx(1, test_tx(1)));
        assert!(net.run(5_000));
        assert!(net.converged(), "{}", net.report());
        let snaps = net.snapshots();
        assert!(snaps.iter().all(|s| s.mempool_len == 0), "pool drained");
        assert!(snaps[0].counters.microblocks_produced >= 1);
        assert!(
            snaps[0].counters.timer_wakeups >= 1 || snaps[0].counters.microblocks_produced >= 1,
            "either a timer fired or production happened inline"
        );
    }

    #[test]
    fn crash_and_cold_restart_resyncs() {
        let mut net = SimNet::new(SimConfig::new(3, 21));
        net.connect_mesh(&[0, 1, 2]);
        net.run(1_000);
        net.mine_key_block(0);
        net.run(1_000);
        net.crash(2);
        assert!(net.is_down(2));
        net.mine_key_block(0); // progress while node 2 is dark
        net.run(1_000);
        assert!(net.converged(), "live nodes agree while 2 is down");
        net.restart_fresh(2);
        assert!(net.run(30_000), "restarted node resyncs and goes quiescent");
        assert!(net.converged(), "{}", net.report());
        assert_eq!(net.engine(2).height(), 2, "cold restart caught up");
    }

    #[test]
    fn fault_plan_interleaves_with_traffic() {
        let mut net = SimNet::new(SimConfig::new(3, 33));
        net.connect_mesh(&[0, 1, 2]);
        net.run(1_000);
        net.mine_key_block(0);
        net.run(1_000);
        let now = net.now_ms();
        net.apply_fault_plan(
            FaultPlan::new()
                .at(now + 100, Fault::Crash { node: 1 })
                .at(now + 2_000, Fault::Restart { node: 1 }),
        );
        net.mine_key_block(0);
        net.run(500);
        assert!(net.is_down(1), "planned crash fired inside the window");
        assert!(net.run(30_000), "plan and queue both drain");
        assert!(!net.is_down(1), "planned restart fired");
        assert!(net.converged(), "{}", net.report());
        assert_eq!(net.engine(1).height(), 2);
    }

    #[test]
    fn skewed_clocks_and_a_slow_link_still_converge() {
        let mut config = SimConfig::new(3, 55);
        config.auto_microblocks = true;
        let mut net = SimNet::new(config);
        net.set_clock_skew(1, 250);
        net.set_clock_skew(2, -150);
        net.set_link_bandwidth(0, 1, 1); // 1 byte per ms: a crawling link
        net.connect_mesh(&[0, 1, 2]);
        net.run(2_000);
        net.mine_key_block(0);
        net.run(2_000);
        assert!(net.submit_tx(1, test_tx(1)));
        net.run(60_000);
        assert!(net.converged(), "{}", net.report());
        let snaps = net.snapshots();
        assert!(snaps.iter().all(|s| s.mempool_len == 0), "pool drained");
    }

    #[test]
    fn eclipse_isolates_until_release() {
        let mut net = SimNet::new(SimConfig::new(5, 77));
        net.connect_mesh(&[0, 1, 2, 3]); // node 4 is the future attacker, linkless
        net.run(1_000);
        net.mine_key_block(0);
        net.run(1_000);
        net.eclipse(3, &[4]);
        net.mine_key_block(0); // honest progress the victim cannot see
        net.run(2_000);
        assert!(net.engine(3).height() < net.engine(0).height());
        net.release(3);
        assert!(net.run(30_000));
        assert_eq!(net.engine(3).tip(), net.engine(0).tip(), "healed victim");
    }

    #[test]
    fn lossy_links_still_converge_after_reliable_heal() {
        let mut config = SimConfig::new(3, 77);
        config.loss = 0.2;
        let mut net = SimNet::new(config);
        net.connect_mesh(&[0, 1, 2]);
        net.run(1_000);
        net.mine_key_block(0);
        net.submit_tx(0, test_tx(3));
        net.run(1_000);
        net.produce_microblock(0);
        net.run(2_000);
        // Losses may have stranded some node; a reliable reconnect must catch
        // everyone up through header sync.
        net.set_loss(0.0);
        net.heal();
        assert!(net.run(10_000));
        assert!(net.converged(), "{}", net.report());
    }
}
