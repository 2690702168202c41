//! # ng-net
//!
//! The peer-to-peer overlay substrate of the reproduction. The paper runs unchanged
//! Bitcoin clients over a real overlay network (§7); this crate provides the pieces a
//! deployable Bitcoin-NG node needs to do the same: a wire format, length-delimited
//! framing with checksums, a per-peer protocol state machine with the Bitcoin-style
//! `inv`/`getdata` exchange, compact block relay, a structured broadcast overlay, and a
//! minimal threaded TCP transport for running real sockets in examples and tests. The
//! crate holds no objects: the engine (`ng_node::engine`) owns the peer table and
//! serves blocks and transactions from its block tree and mempool.
//!
//! * [`message`] — the wire messages (version handshake, inventory, block and
//!   transaction carriers, keepalives).
//! * [`codec`] — frame encoding/decoding over [`bytes::BytesMut`] with checksums and
//!   size limits: a command byte plus a binary body in the object codec the
//!   datadir shares (`ng_chain::codec`, `ng_core::codec`).
//! * [`peer`] — the per-connection state machine (handshake, bounded inventory
//!   bookkeeping: what the remote is known to hold, what was requested from it).
//! * [`relay`] — BIP152-style compact microblock relay: salted short tx ids,
//!   mempool reconstruction, `getblocktxn`/`blocktxn` hole-filling with a
//!   full-block fallback.
//! * [`overlay`] — the episub/Plumtree-style broadcast overlay: eager-push tree +
//!   lazy `ihave` gossip with graft/prune moves and pull-timeout self-healing.
//! * [`sync`] — block locators, batched header serving, and the multi-peer download
//!   scheduler (headers-first walks, windowed parallel block download with request
//!   timeouts and stalling-peer eviction) for catching up with peers that are ahead
//!   (fresh nodes, partition healing).
//! * [`tcp`] — a small blocking TCP transport (std::net + threads) used by the
//!   examples and the `ng_node` daemon; the discrete-event simulator in `ng-sim` is
//!   used for large-scale runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod message;
pub mod overlay;
pub mod peer;
pub mod relay;
pub mod sync;
pub mod tcp;

pub use codec::{CodecError, FrameCodec};
pub use message::{InvItem, InvKind, Message, ProtocolKind};
pub use overlay::Overlay;
pub use relay::{CompactMicroBlock, CompactRelay, ReconstructOutcome};
pub use peer::{Peer, PeerAction, PeerError, PeerState};
pub use message::WireSnapshot;
pub use sync::{
    build_locator, ids_after_locator, locate_fork_index, HeaderRecord, SyncCommand, SyncConfig,
    SyncScheduler,
};
pub use tcp::{TcpEndpoint, TcpEvent};
