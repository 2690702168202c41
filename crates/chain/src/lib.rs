//! # ng-chain
//!
//! Ledger substrate shared by Bitcoin, GHOST and Bitcoin-NG in this reproduction:
//!
//! * [`amount`] — coin amounts with checked arithmetic.
//! * [`transaction`] — UTXO transactions, outpoints, coinbase construction, fees and
//!   serialized-size accounting.
//! * [`codec`] — the binary object codec and frame construction the wire and the
//!   datadir share (transactions, outputs, UTXO entries, signatures).
//! * [`utxo`] — the unspent-transaction-output set and double-spend prevention.
//! * [`mempool`] — pending transactions ordered by fee rate (the paper's experiments
//!   pre-fill mempools with independent transactions, §7).
//! * [`chainstore`] — a generic block tree with work accounting, reorg computation,
//!   bounded orphan handling and per-block undo storage, reused by every protocol in
//!   the workspace.
//! * [`undo`] — per-block undo records for incremental (connect/disconnect)
//!   chainstate maintenance.
//! * [`sigcache`] — a bounded signature-verification cache keyed by txid.
//! * [`fifo`] — [`BoundedFifoMap`], the one bounded-buffer type (oldest-first
//!   eviction) behind every peer-growable collection in the workspace.
//! * [`forkchoice`] — heaviest-chain, longest-chain and GHOST tip selection.
//! * [`error`] — validation error types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amount;
pub mod chainstore;
pub mod codec;
pub mod error;
pub mod fifo;
pub mod forkchoice;
pub mod mempool;
pub mod payload;
pub mod sigcache;
pub mod transaction;
pub mod undo;
pub mod utxo;

pub use amount::Amount;
pub use chainstore::{BlockLike, ChainStore, InsertOutcome, Reorg, StoredBlock};
pub use error::{BlockError, TxError};
pub use fifo::BoundedFifoMap;
pub use forkchoice::{ForkChoice, ForkRule, TieBreak};
pub use mempool::Mempool;
pub use payload::Payload;
pub use sigcache::SigCache;
pub use transaction::{OutPoint, Transaction, TxInput, TxOutput};
pub use undo::BlockUndo;
pub use utxo::UtxoSet;
