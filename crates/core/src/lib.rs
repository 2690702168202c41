//! # ng-core
//!
//! The Bitcoin-NG protocol (Eyal, Gencer, Sirer, van Renesse — NSDI 2016): key blocks,
//! microblocks, leader election, fee distribution, poison transactions and the full
//! node state machine.
//!
//! * [`params`] — protocol parameters (fee split, intervals, limits).
//! * [`block`] — key blocks and microblocks.
//! * [`chain`] — validation, epoch/leader tracking and fee accounting over the generic
//!   chain store.
//! * [`node`] — the event-driven full node (leader election, microblock production,
//!   poison handling).
//! * [`fees`] — the 40%/60% remuneration engine.
//! * [`poison`] — fraud proofs against equivocating leaders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chain;
pub mod fees;
pub mod node;
pub mod params;
pub mod poison;

pub use block::{KeyBlock, MicroBlock, MicroHeader, NgBlock};
pub use chain::{genesis_key_block, ClosingEpoch, NgChainState};
pub use fees::{build_coinbase, split_fee, CoinbasePlan, FeeSplit};
pub use node::NgNode;
pub use params::NgParams;
pub use poison::{PoisonEffect, PoisonError, PoisonTransaction};
