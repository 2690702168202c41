//! Durable crash-safe chainstate.
//!
//! The node's in-memory state — block tree, undo records, the incremental UTXO
//! view — dies with the process. This crate persists it behind the [`ChainStorage`]
//! trait so a killed node reopens to the tip it had, instead of replaying the chain
//! from genesis (or losing it entirely). The layout follows Bitcoin Core's shape,
//! scaled down:
//!
//! * **`blocks.ng`** — append-only file of every accepted block, written when the
//!   block enters the tree. Each frame carries an index header (id, parent, height,
//!   kind) so recovery can rebuild the block index without decoding payloads.
//! * **`undo.ng`** — append-only per-block undo records (`id ‖ height ‖ undo`),
//!   written when a block connects to the ledger view (that is the only moment
//!   the undo exists). Records at or below the finality root are compacted away
//!   whenever a snapshot is written — a final block can never be disconnected.
//! * **`wal.ng`** — the write-ahead log of view transitions: one *roll commit* per
//!   completed [`ChainView::sync`], plus invalidation records. A roll commit is
//!   appended only **after** the rolled blocks and undos are flushed durable, so a
//!   crash at any byte leaves either a fully acknowledged roll or a torn tail that
//!   recovery truncates — never a half-applied reorg.
//! * **`snapshots/`** — periodic full UTXO snapshots (entries, confirmed-tx
//!   refcounts, anchor key block, chain position), each written atomically via
//!   temp-file + rename and named by height and sorted commitment. The newest
//!   snapshot at or below finality doubles as the *finality checkpoint*: recovery
//!   roots the restored block tree there, and the chain layer refuses reorgs past
//!   it ([`ng_chain::error::BlockError::FinalityViolation`]).
//!
//! Recovery ([`FileStorage::open`]) scans the valid prefix of each file, truncates
//! torn tails, picks the newest snapshot deeper than `finality_depth` as the root,
//! and hands the engine typed blocks/undos/snapshots to replay — O(finality depth)
//! work, not O(chain length).
//!
//! [`ChainView::sync`]: ../ng_node/struct.ChainView.html#method.sync

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod files;

pub use codec::WalRecord;
pub use ng_chain::codec::CodecError;
pub use files::{crash_truncate, FileStorage, Recovery, StorageConfig};

use ng_chain::transaction::OutPoint;
use ng_chain::undo::BlockUndo;
use ng_chain::utxo::UtxoEntry;
use ng_core::block::{KeyBlock, NgBlock};
use ng_crypto::pow::Work;
use ng_crypto::sha256::Hash256;

/// Errors surfaced by a storage backend.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file system failed.
    Io(std::io::Error),
    /// A stored record failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "storage corruption: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// One completed ledger roll, as logged to the WAL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RollCommit {
    /// The view's anchor after the roll (the new tip it reflects).
    pub anchor: Hash256,
    /// The anchor's height.
    pub anchor_height: u64,
    /// The view's rolling UTXO commitment after the roll.
    pub rolling: Hash256,
    /// Blocks disconnected, in disconnect order (old tip first).
    pub disconnected: Vec<Hash256>,
    /// Blocks connected, in connect order.
    pub connected: Vec<Hash256>,
}

/// A full UTXO snapshot anchored at a connected key block — the unit of both fast
/// restart and finality checkpointing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The key block the snapshot is anchored at. Always a **key** block: rooting a
    /// restored chain mid-epoch would leave microblock validation without a
    /// resolvable leader.
    pub root: KeyBlock,
    /// The anchor's height.
    pub height: u64,
    /// Total chain work from genesis to the anchor inclusive.
    pub total_work: Work,
    /// The rolling (XOR) UTXO commitment at the anchor — restored verbatim so
    /// reopening skips O(set size) re-hashing.
    pub rolling: Hash256,
    /// The sorted (order-sensitive) strong commitment at the anchor; keys the
    /// snapshot file name and is what crash tests compare against the oracle.
    pub sorted: Hash256,
    /// Every live UTXO entry at the anchor.
    pub entries: Vec<(OutPoint, UtxoEntry)>,
    /// Confirmed-transaction refcounts at the anchor.
    pub confirmed: Vec<(Hash256, u32)>,
}

/// The persistence interface the engine drives. The engine stays sans-I/O in
/// spirit: it calls these hooks at well-defined points (block stored, block
/// connected, roll completed, checkpoint due) and never touches the file system
/// itself — `MemoryStorage` keeps SimNet scenarios pure, `FileStorage` gives the
/// TCP daemon durability.
pub trait ChainStorage: Send + std::fmt::Debug {
    /// Records a block accepted into the tree, with its height.
    fn store_block(&mut self, block: &NgBlock, height: u64) -> Result<(), StoreError>;
    /// Records the undo record produced when `id` (at `height`) connected to the
    /// view. The height lets the backend drop undo records that fall below
    /// finality — a final block can never be disconnected, so its undo is dead
    /// weight on disk and in the recovery scan.
    fn store_undo(&mut self, id: &Hash256, height: u64, undo: &BlockUndo) -> Result<(), StoreError>;
    /// Durably acknowledges one completed roll. Implementations must flush every
    /// block and undo referenced by the commit **before** the commit record itself.
    fn commit_roll(&mut self, roll: &RollCommit) -> Result<(), StoreError>;
    /// Records that a block was invalidated and must not be re-adopted at restart.
    fn note_invalidated(&mut self, id: &Hash256) -> Result<(), StoreError>;
    /// Writes a full snapshot / finality checkpoint.
    fn store_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), StoreError>;
    /// The newest stored snapshot, if the backend retains one — what the engine
    /// serves to peers bootstrapping via `getsnapshot`. The default (`None`) keeps
    /// exotic backends honest: a node that cannot produce snapshots simply answers
    /// bootstrap requests with "don't have it".
    fn latest_snapshot(&mut self) -> Result<Option<Snapshot>, StoreError> {
        Ok(None)
    }
}

/// The no-op backend: keeps the engine's persistence hooks exercised (and counted)
/// without touching disk. SimNet and the differential suites run on this.
#[derive(Debug, Default)]
pub struct MemoryStorage {
    /// Number of blocks stored.
    pub blocks: u64,
    /// Number of undo records stored.
    pub undos: u64,
    /// Number of roll commits.
    pub rolls: u64,
    /// Number of invalidation records.
    pub invalidated: u64,
    /// Number of snapshots written.
    pub snapshots: u64,
    /// The last roll commit, for assertions.
    pub last_roll: Option<RollCommit>,
    /// The last snapshot, for assertions.
    pub last_snapshot: Option<Snapshot>,
}

impl ChainStorage for MemoryStorage {
    fn store_block(&mut self, _block: &NgBlock, _height: u64) -> Result<(), StoreError> {
        self.blocks += 1;
        Ok(())
    }

    fn store_undo(&mut self, _id: &Hash256, _height: u64, _undo: &BlockUndo) -> Result<(), StoreError> {
        self.undos += 1;
        Ok(())
    }

    fn commit_roll(&mut self, roll: &RollCommit) -> Result<(), StoreError> {
        self.rolls += 1;
        self.last_roll = Some(roll.clone());
        Ok(())
    }

    fn note_invalidated(&mut self, _id: &Hash256) -> Result<(), StoreError> {
        self.invalidated += 1;
        Ok(())
    }

    fn store_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), StoreError> {
        self.snapshots += 1;
        self.last_snapshot = Some(snapshot.clone());
        Ok(())
    }

    fn latest_snapshot(&mut self) -> Result<Option<Snapshot>, StoreError> {
        Ok(self.last_snapshot.clone())
    }
}
