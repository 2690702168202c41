//! # ng-node
//!
//! The live Bitcoin-NG node, built sans-I/O: the entire peer protocol — version
//! handshake, locator-based header/block sync, `inv`/`getdata` gossip, leader
//! microblock streaming, fork-choice reorg handling, poison construction hooks — is
//! one pure state machine, [`engine::Engine`], consuming `(now_ms, Input)` and
//! returning `Effect`s. Two drivers execute those effects:
//!
//! * [`daemon`] — real TCP sockets and wall-clock time, the way the paper's
//!   operational client serves its testbed (§7); the event loop sleeps until the
//!   engine's next `SetTimer` deadline.
//! * [`simnet`] — N engines wired through a seeded in-process message scheduler
//!   with configurable latency, loss, and partitions: no sockets, no threads, fully
//!   deterministic, and fast enough to sweep thousands of seeds.
//!
//! Supporting modules:
//!
//! * [`engine`] — the pure protocol engine (`Input` → `Vec<Effect>`).
//! * [`chainstate`] — the incremental ledger view ([`chainstate::ChainView`]):
//!   UTXO set, confirmed-transaction set and rolling commitment maintained by
//!   connecting/disconnecting blocks with per-block undo records, validating every
//!   microblock transaction on connect (per-block cost is O(transactions), never
//!   O(chain length)).
//! * [`report`] — the `ReportEvent` → [`ng_metrics::counters::NodeCounters`] bridge
//!   and the [`report::NodeSnapshot`] convergence view.
//! * [`ledger`] — the from-genesis UTXO replay, kept as the differential-testing
//!   oracle the incremental chainstate is pinned against.
//! * [`parallel`] — a crossbeam-channel worker pool; the TCP drivers install it as
//!   the chainstate's signature [`ng_chain::sigcache::BatchExecutor`], fanning a
//!   connecting block's signature batch across cores (SimNet stays inline and
//!   deterministic).
//! * [`testnet`] — an in-process loopback network harness over real daemons (N
//!   sockets on ephemeral ports), also available as the `ng-testnet` binary —
//!   which can drive either the TCP or the SimNet backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chainstate;
pub mod chaos;
pub mod daemon;
pub mod engine;
pub mod ledger;
pub mod parallel;
pub mod report;
pub mod simnet;
pub mod testnet;

pub use chainstate::{ChainView, ConnectError, SyncDelta, SyncError};
pub use daemon::{now_ms, spawn, NodeConfig, NodeHandle};
pub use engine::{Effect, Engine, EngineConfig, GossipConfig, Input, ReportEvent};
pub use ledger::{assert_supply_bounded, rebuild_utxo};
pub use parallel::WorkerPool;
pub use report::NodeSnapshot;
pub use simnet::{SimConfig, SimNet};
pub use testnet::{testnet_params, ConvergenceReport, Testnet};
