//! The file-backed storage backend and its recovery scan.

use crate::codec::{
    self, put_snapshot, put_undo, put_wal_record, read_snapshot, read_undo, read_wal_record,
    scan_frames, verify_frame, WalRecord, MAGIC_BLOCKS, MAGIC_SNAP, MAGIC_UNDO, MAGIC_WAL,
};
use crate::{ChainStorage, RollCommit, Snapshot, StoreError};
use ng_chain::codec::{frame, Reader, FRAME_HEADER};
use ng_chain::undo::BlockUndo;
use ng_core::block::NgBlock;
use ng_core::codec::{put_block, read_block};
use ng_crypto::hex;
use ng_crypto::sha256::Hash256;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Tuning knobs for a [`FileStorage`].
#[derive(Clone, Copy, Debug)]
pub struct StorageConfig {
    /// Reorgs deeper than this below the best height are impossible (enforced at
    /// insert time by the chain layer); recovery roots the restored tree at the
    /// newest snapshot at least this deep.
    pub finality_depth: u64,
    /// Issue `fsync` after every commit (true durability against power loss) rather
    /// than only flushing to the OS. Off by default: the crash model the tests
    /// exercise is process death, where flushed bytes survive.
    pub fsync: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            finality_depth: ng_core::params::NgParams::default().finality_depth,
            fsync: false,
        }
    }
}

/// What a recovery scan found on disk, in the typed form the engine replays.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The snapshot to root the restored block tree at: the newest one at least
    /// `finality_depth` below the best stored height. `None` on a young chain (or
    /// an empty datadir) — the engine then restores from genesis. May carry an
    /// empty UTXO payload when the view is guaranteed to restore from a newer
    /// snapshot (rooting the chain needs only the header); it then also does not
    /// appear in `snapshots`.
    pub root: Option<Snapshot>,
    /// The decoded snapshots recovery can use, newest first: the newest on disk
    /// (the view restores from the first one whose anchor survives the replay)
    /// and the root candidate. Files between and below them are left unread.
    pub snapshots: Vec<Snapshot>,
    /// Blocks above the root, in their original append (= acceptance) order, as
    /// `(height, id, block)`. Parents precede children on every branch; the id
    /// comes from the file's index header so replay never recomputes it.
    pub blocks: Vec<(u64, Hash256, NgBlock)>,
    /// Per-block undo records for blocks above the root.
    pub undos: Vec<(Hash256, BlockUndo)>,
    /// Blocks the WAL says were invalidated; recovery must not re-adopt them.
    pub invalidated: HashSet<Hash256>,
    /// The last durable roll commit, if any — the tip the node had acknowledged.
    pub last_roll: Option<RollCommit>,
}

/// The durable backend: three append-only frame files plus a snapshot directory,
/// all under one `datadir`. See the crate docs for the layout and the write
/// discipline; see [`FileStorage::open`] for recovery.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    blocks: File,
    undos: File,
    wal: File,
    config: StorageConfig,
}

fn open_append(path: &Path) -> Result<File, StoreError> {
    Ok(OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?)
}

/// Reads a whole file, returning its bytes. A missing file reads as empty —
/// recovery treats an absent log the same as a zero-length one, and the
/// append handles opened afterwards create it.
fn read_all(path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    Ok(bytes)
}

/// Truncates `path` to `len` if it is currently longer (torn-tail rollback).
fn truncate_to(path: &Path, len: usize) -> Result<(), StoreError> {
    let file = OpenOptions::new().write(true).open(path)?;
    if file.metadata()?.len() > len as u64 {
        file.set_len(len as u64)?;
    }
    Ok(())
}

impl FileStorage {
    /// Path of the block file.
    pub fn blocks_path(dir: &Path) -> PathBuf {
        dir.join("blocks.ng")
    }

    /// Path of the undo file.
    pub fn undo_path(dir: &Path) -> PathBuf {
        dir.join("undo.ng")
    }

    /// Path of the write-ahead log.
    pub fn wal_path(dir: &Path) -> PathBuf {
        dir.join("wal.ng")
    }

    /// Path of the snapshot directory.
    pub fn snapshot_dir(dir: &Path) -> PathBuf {
        dir.join("snapshots")
    }

    /// Opens (creating if absent) the datadir, runs recovery, and returns the
    /// backend positioned for appending plus everything the engine needs to
    /// rebuild its in-memory state.
    ///
    /// Recovery is pure scanning — no consensus logic lives here:
    /// 1. Scan each file's valid frame prefix; truncate torn tails (a crash mid
    ///    append rolls back to the last acknowledged record).
    /// 2. Index `blocks.ng` by its frame headers without decoding payloads.
    /// 3. Load the newest decodable snapshot plus the newest at least
    ///    `finality_depth` below the best stored height (the root), selected by
    ///    the heights in their file names; other snapshot files are not read.
    /// 4. Decode only the blocks and undos **above** the root — O(finality depth)
    ///    work however long the chain is.
    pub fn open(dir: &Path, config: StorageConfig) -> Result<(Self, Recovery), StoreError> {
        std::fs::create_dir_all(Self::snapshot_dir(dir))?;
        let blocks_path = Self::blocks_path(dir);
        let undo_path = Self::undo_path(dir);
        let wal_path = Self::wal_path(dir);

        // 1–2: scan the block file and index frames by their headers. Missing
        // files read as empty and are created by the append handles below;
        // truncation only happens when a torn tail was actually found.
        let block_bytes = read_all(&blocks_path)?;
        let (block_frames, valid) = scan_frames(&block_bytes, MAGIC_BLOCKS);
        if valid < block_bytes.len() {
            truncate_to(&blocks_path, valid)?;
        }
        // Index header: id (32) ‖ parent (32) ‖ height (8) ‖ kind (1).
        let mut indexed: Vec<(Hash256, u64, codec::FrameRef)> = Vec::new();
        let mut best_height = 0u64;
        for f in &block_frames {
            let mut r = Reader::new(f.body(&block_bytes));
            let Ok(id) = r.hash() else { continue };
            let Ok(_parent) = r.hash() else { continue };
            let Ok(height) = r.u64() else { continue };
            best_height = best_height.max(height);
            indexed.push((id, height, *f));
        }

        // Undo frames: id ‖ height ‖ undo body, last record for an id wins.
        let undo_bytes = read_all(&undo_path)?;
        let (undo_frames, valid) = scan_frames(&undo_bytes, MAGIC_UNDO);
        if valid < undo_bytes.len() {
            truncate_to(&undo_path, valid)?;
        }

        // WAL: collect invalidations and the last durable roll.
        let wal_bytes = read_all(&wal_path)?;
        let (wal_frames, valid) = scan_frames(&wal_bytes, MAGIC_WAL);
        if valid < wal_bytes.len() {
            truncate_to(&wal_path, valid)?;
        }
        let mut invalidated = HashSet::new();
        let mut last_roll = None;
        for f in &wal_frames {
            if !verify_frame(&wal_bytes, f) {
                continue;
            }
            match read_wal_record(&mut Reader::new(f.body(&wal_bytes))) {
                Ok(WalRecord::Invalidated(id)) => {
                    invalidated.insert(id);
                }
                Ok(WalRecord::Roll(roll)) => last_roll = Some(roll),
                Err(_) => {}
            }
        }

        // 3: load snapshots (corrupt ones are skipped — an interrupted rename
        // cannot happen, but a bit-rotted file must not block recovery). Snapshot
        // bodies are written atomically, so the structural scan suffices; instead
        // of re-hashing the (large) body we check the decoded height and sorted
        // commitment against the values baked into the file name at write time.
        //
        // Only two snapshots can matter to recovery: the newest one (the view
        // restores from it) and the newest one at least `finality_depth` below the
        // best indexed height (the root the block tree restarts from). Heights are
        // baked into the file names, so every other file is skipped without even
        // being read; a file that fails decode or the name cross-check falls
        // through to the next older candidate.
        let mut named: Vec<(u64, std::path::PathBuf)> =
            std::fs::read_dir(Self::snapshot_dir(dir))?
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let path = e.path();
                    let height = snapshot_height_from_name(&path)?;
                    Some((height, path))
                })
                .collect();
        named.sort_by_key(|e| std::cmp::Reverse(e.0));
        let mut snapshots: Vec<Snapshot> = Vec::new();
        let mut root: Option<Snapshot> = None;
        for (height, path) in &named {
            if root.is_some() {
                break;
            }
            let root_candidate = *height + config.finality_depth <= best_height;
            if !snapshots.is_empty() && !root_candidate {
                continue;
            }
            let Ok(bytes) = read_all(path) else { continue };
            let (frames, _) = codec::scan_frames_structural(&bytes, MAGIC_SNAP);
            let Some(f) = frames.first() else { continue };
            // The root snapshot's UTXO payload is only needed when the view
            // cannot restore from the newest snapshot — when the newest anchor
            // will not survive the replay because its block frame was truncated
            // away or the WAL invalidated a block. When the anchor is provably
            // intact, the root contributes only its header (the chain roots at
            // its key block, height and work) and the payload stays unread.
            let header_only = root_candidate
                && snapshots.first().is_some_and(|newest| {
                    let newest_id = newest.root.id();
                    invalidated.is_empty() && indexed.iter().any(|(id, _, _)| *id == newest_id)
                });
            let parsed = if header_only {
                codec::read_snapshot_header(&mut Reader::new(f.body(&bytes)))
            } else {
                read_snapshot(&mut Reader::new(f.body(&bytes)))
            };
            let Ok(snap) = parsed else { continue };
            let expected = snapshot_file_name(snap.height, &snap.sorted);
            if path.file_name().and_then(|n| n.to_str()) != Some(expected.as_str()) {
                continue;
            }
            if root_candidate {
                root = Some(snap.clone());
            }
            if !header_only {
                snapshots.push(snap);
            }
        }
        let root_height = root.as_ref().map(|s| s.height).unwrap_or(0);

        // 4: decode blocks and undos above the root.
        let mut blocks = Vec::new();
        let mut above_root: HashSet<Hash256> = HashSet::new();
        for (id, height, f) in &indexed {
            let in_scope = match &root {
                Some(_) => *height > root_height,
                None => true,
            };
            if !in_scope || !verify_frame(&block_bytes, f) {
                continue;
            }
            let mut r = Reader::new(f.body(&block_bytes));
            // Skip the index header (72 bytes) plus the kind byte.
            let _ = r.hash();
            let _ = r.hash();
            let _ = r.u64();
            let _ = r.u8();
            if let Ok(block) = read_block(&mut r) {
                above_root.insert(*id);
                blocks.push((*height, *id, block));
            }
        }
        let mut undo_map: HashMap<Hash256, BlockUndo> = HashMap::new();
        for f in &undo_frames {
            let mut r = Reader::new(f.body(&undo_bytes));
            let Ok(id) = r.hash() else { continue };
            let Ok(_height) = r.u64() else { continue };
            if !above_root.contains(&id) || !verify_frame(&undo_bytes, f) {
                continue;
            }
            if let Ok(undo) = read_undo(&mut r) {
                undo_map.insert(id, undo);
            }
        }

        let storage = FileStorage {
            dir: dir.to_path_buf(),
            blocks: open_append(&blocks_path)?,
            undos: open_append(&undo_path)?,
            wal: open_append(&wal_path)?,
            config,
        };
        Ok((
            storage,
            Recovery {
                root,
                snapshots,
                blocks,
                undos: undo_map.into_iter().collect(),
                invalidated,
                last_roll,
            },
        ))
    }

    /// The datadir this backend writes under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current byte lengths of `(blocks.ng, undo.ng, wal.ng)` — crash tests record
    /// these between operations and truncate to arbitrary intermediate points to
    /// simulate a kill mid-write.
    pub fn file_lengths(&self) -> Result<(u64, u64, u64), StoreError> {
        Ok((
            self.blocks.metadata()?.len(),
            self.undos.metadata()?.len(),
            self.wal.metadata()?.len(),
        ))
    }

    fn flush_data(&mut self) -> Result<(), StoreError> {
        self.blocks.flush()?;
        self.undos.flush()?;
        if self.config.fsync {
            self.blocks.sync_data()?;
            self.undos.sync_data()?;
        }
        Ok(())
    }
}

impl ChainStorage for FileStorage {
    fn store_block(&mut self, block: &NgBlock, height: u64) -> Result<(), StoreError> {
        let record = frame(MAGIC_BLOCKS, 128, |body| {
            body.extend_from_slice(&block.id().0);
            body.extend_from_slice(&block.prev().0);
            body.extend_from_slice(&height.to_le_bytes());
            body.push(block.is_key() as u8);
            put_block(body, block);
        });
        self.blocks.write_all(&record)?;
        Ok(())
    }

    fn store_undo(&mut self, id: &Hash256, height: u64, undo: &BlockUndo) -> Result<(), StoreError> {
        let record = frame(MAGIC_UNDO, 64, |body| {
            body.extend_from_slice(&id.0);
            body.extend_from_slice(&height.to_le_bytes());
            put_undo(body, undo);
        });
        self.undos.write_all(&record)?;
        Ok(())
    }

    fn commit_roll(&mut self, roll: &RollCommit) -> Result<(), StoreError> {
        // Write discipline: the blocks and undos this commit references must be
        // durable before the commit record — a torn block with an intact commit
        // would acknowledge a roll recovery cannot replay.
        self.flush_data()?;
        let record = frame(MAGIC_WAL, 128, |body| {
            put_wal_record(body, &WalRecord::Roll(roll.clone()))
        });
        self.wal.write_all(&record)?;
        self.wal.flush()?;
        if self.config.fsync {
            self.wal.sync_data()?;
        }
        Ok(())
    }

    fn note_invalidated(&mut self, id: &Hash256) -> Result<(), StoreError> {
        let record = frame(MAGIC_WAL, 33, |body| {
            put_wal_record(body, &WalRecord::Invalidated(*id))
        });
        self.wal.write_all(&record)?;
        self.wal.flush()?;
        Ok(())
    }

    fn store_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), StoreError> {
        // Snapshots are atomic: written to a temp file, flushed, then renamed into
        // place. A crash mid-write leaves only a `.tmp` that recovery ignores.
        let record = frame(MAGIC_SNAP, 4096, |body| put_snapshot(body, snapshot));
        let name = snapshot_file_name(snapshot.height, &snapshot.sorted);
        let dir = Self::snapshot_dir(&self.dir);
        let tmp = dir.join(format!("{name}.tmp"));
        let mut file = File::create(&tmp)?;
        file.write_all(&record)?;
        file.flush()?;
        if self.config.fsync {
            file.sync_data()?;
        }
        drop(file);
        std::fs::rename(&tmp, dir.join(&name))?;
        let root_floor = self.prune_snapshots(snapshot.height);
        self.compact_wal()?;
        if let Some(floor) = root_floor {
            self.compact_undos(floor)?;
        }
        Ok(())
    }

    /// Reads the highest-height snapshot back off disk — the serving side of
    /// snapshot bootstrap. Snapshots are only read on a bootstrap request, never
    /// cached: a long-lived node would otherwise pin an entire UTXO set in memory
    /// for a request that may never come.
    fn latest_snapshot(&mut self) -> Result<Option<Snapshot>, StoreError> {
        let dir = Self::snapshot_dir(&self.dir);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return Ok(None);
        };
        let newest = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let path = e.path();
                let height = snapshot_height_from_name(&path)?;
                Some((height, path))
            })
            .max_by_key(|(height, _)| *height);
        let Some((_, path)) = newest else {
            return Ok(None);
        };
        let bytes = read_all(&path)?;
        let (frames, _) = codec::scan_frames_structural(&bytes, MAGIC_SNAP);
        let Some(f) = frames.first() else {
            return Ok(None);
        };
        Ok(read_snapshot(&mut Reader::new(f.body(&bytes))).ok())
    }
}

impl FileStorage {
    /// Rewrites the WAL down to the records recovery still consults: every
    /// invalidation (a handful per misbehaving leader, never bulk) plus the most
    /// recent roll commit. Older roll records describe ledger states the snapshot
    /// just made reconstructible without them, so carrying — and checksumming —
    /// one WAL frame per historical roll would put reopen back at O(chain
    /// length). The rewrite is atomic (temp file + rename) and the append handle
    /// is reopened on the new file.
    fn compact_wal(&mut self) -> Result<(), StoreError> {
        let wal_path = Self::wal_path(&self.dir);
        self.wal.flush()?;
        let bytes = read_all(&wal_path)?;
        let (frames, _) = scan_frames(&bytes, MAGIC_WAL);
        let raw = |f: &codec::FrameRef| &bytes[f.body_start - FRAME_HEADER..f.body_start + f.body_len];
        let mut kept = Vec::with_capacity(256);
        let mut last_roll = None;
        for f in &frames {
            match read_wal_record(&mut Reader::new(f.body(&bytes))) {
                Ok(WalRecord::Invalidated(_)) => kept.extend_from_slice(raw(f)),
                Ok(WalRecord::Roll(_)) => last_roll = Some(f),
                Err(_) => {}
            }
        }
        if let Some(f) = last_roll {
            kept.extend_from_slice(raw(f));
        }
        if kept.len() == bytes.len() {
            return Ok(());
        }
        let tmp = self.dir.join("wal.ng.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(&kept)?;
        file.flush()?;
        if self.config.fsync {
            file.sync_data()?;
        }
        drop(file);
        std::fs::rename(&tmp, &wal_path)?;
        self.wal = open_append(&wal_path)?;
        Ok(())
    }

    /// Deletes snapshot files strictly older than the current root candidate: the
    /// newest snapshot at least `finality_depth` below `best_height`. Everything
    /// below it can never again be chosen as root or view anchor, and keeping the
    /// directory small is what keeps reopen O(finality depth). Heights are parsed
    /// from the `snap_{height:010}_…` names, so pruning never reads file
    /// contents. Best-effort: an unremovable file only costs reopen time.
    /// Returns the height of the retained root candidate, if one exists.
    fn prune_snapshots(&self, best_height: u64) -> Option<u64> {
        let threshold = best_height.saturating_sub(self.config.finality_depth);
        let dir = Self::snapshot_dir(&self.dir);
        let entries = std::fs::read_dir(&dir).ok()?;
        let mut named: Vec<(u64, PathBuf)> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let path = e.path();
                let height = snapshot_height_from_name(&path)?;
                Some((height, path))
            })
            .collect();
        named.sort_by_key(|e| std::cmp::Reverse(e.0));
        // Keep every snapshot above the threshold plus the newest one at or below
        // it (the root candidate); drop the rest.
        let mut root_candidate = None;
        for (height, path) in named {
            if height > threshold {
                continue;
            }
            if root_candidate.is_none() {
                root_candidate = Some(height);
                continue;
            }
            let _ = std::fs::remove_file(path);
        }
        root_candidate
    }

    /// Rewrites the undo file down to the records above the current root
    /// candidate. Recovery never decodes an undo at or below the root, and a
    /// block that deep is final — it can never be disconnected — so those
    /// records would only grow the file and the reopen scan without bound. Same
    /// atomic rewrite discipline as [`Self::compact_wal`].
    fn compact_undos(&mut self, root_height: u64) -> Result<(), StoreError> {
        let undo_path = Self::undo_path(&self.dir);
        self.undos.flush()?;
        let bytes = read_all(&undo_path)?;
        let (frames, _) = scan_frames(&bytes, MAGIC_UNDO);
        let mut kept = Vec::with_capacity(bytes.len());
        for f in &frames {
            let mut r = Reader::new(f.body(&bytes));
            let Ok(_id) = r.hash() else { continue };
            let Ok(height) = r.u64() else { continue };
            if height > root_height {
                kept.extend_from_slice(
                    &bytes[f.body_start - FRAME_HEADER..f.body_start + f.body_len],
                );
            }
        }
        if kept.len() == bytes.len() {
            return Ok(());
        }
        let tmp = self.dir.join("undo.ng.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(&kept)?;
        file.flush()?;
        if self.config.fsync {
            file.sync_data()?;
        }
        drop(file);
        std::fs::rename(&tmp, &undo_path)?;
        self.undos = open_append(&undo_path)?;
        Ok(())
    }
}

/// The canonical snapshot file name: zero-padded height (so lexicographic order
/// is height order) plus a prefix of the sorted UTXO commitment. Recovery checks
/// decoded snapshots against this name in lieu of hashing the whole body.
fn snapshot_file_name(height: u64, sorted: &Hash256) -> String {
    format!("snap_{:010}_{}.ng", height, &hex::encode(&sorted.0)[..16])
}

/// Parses the height out of a `snap_{height:010}_{commitment}.ng` file name.
fn snapshot_height_from_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("snap_")?;
    rest.get(..10)?.parse().ok()
}

/// Truncates the three append-only files to the given lengths — the crash
/// injector used by the recovery tests ("kill the node mid-write"). Lengths
/// longer than the current file are left unchanged.
pub fn crash_truncate(
    dir: &Path,
    blocks_len: u64,
    undo_len: u64,
    wal_len: u64,
) -> Result<(), StoreError> {
    for (path, len) in [
        (FileStorage::blocks_path(dir), blocks_len),
        (FileStorage::undo_path(dir), undo_len),
        (FileStorage::wal_path(dir), wal_len),
    ] {
        let file = OpenOptions::new().write(true).open(&path)?;
        if file.metadata()?.len() > len {
            file.set_len(len)?;
        }
    }
    Ok(())
}

// Keep the frame-header size referenced so the doc invariant ("index without
// decoding payloads") has a compile-time witness nearby.
const _: () = assert!(FRAME_HEADER == 12);

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::amount::Amount;
    use ng_chain::transaction::TxOutput;
    use ng_core::block::KeyBlock;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::pow::{Target, Work};
    use ng_crypto::sha256::sha256;
    use ng_crypto::u256::U256;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ng_storage_test_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key_block(seq: u64, prev: Hash256) -> NgBlock {
        let kp = KeyPair::from_id(seq);
        NgBlock::Key(KeyBlock {
            prev,
            time_ms: seq * 1_000,
            target: Target::regtest(),
            nonce: seq,
            miner: seq,
            leader_pubkey: kp.public,
            coinbase: vec![TxOutput::new(Amount::from_coins(25), kp.address())],
        })
    }

    fn snapshot_at(root: &NgBlock, height: u64) -> Snapshot {
        Snapshot {
            root: root.as_key().unwrap().clone(),
            height,
            total_work: Work(U256::from_u64(height)),
            rolling: sha256(&height.to_le_bytes()),
            sorted: sha256(&height.to_be_bytes()),
            entries: Vec::new(),
            confirmed: Vec::new(),
        }
    }

    #[test]
    fn empty_datadir_recovers_to_nothing() {
        let dir = tmpdir("empty");
        let (_storage, recovery) = FileStorage::open(&dir, StorageConfig::default()).unwrap();
        assert!(recovery.root.is_none());
        assert!(recovery.blocks.is_empty());
        assert!(recovery.snapshots.is_empty());
        assert!(recovery.last_roll.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blocks_undos_and_wal_round_trip_through_reopen() {
        let dir = tmpdir("roundtrip");
        let config = StorageConfig {
            finality_depth: 2,
            fsync: false,
        };
        let mut chain = Vec::new();
        let mut prev = Hash256::ZERO;
        for seq in 1..=6u64 {
            let block = key_block(seq, prev);
            prev = block.id();
            chain.push(block);
        }
        {
            let (mut storage, _) = FileStorage::open(&dir, config).unwrap();
            for (i, block) in chain.iter().enumerate() {
                storage.store_block(block, (i + 1) as u64).unwrap();
                storage.store_undo(&block.id(), (i + 1) as u64, &BlockUndo::default()).unwrap();
            }
            storage
                .commit_roll(&RollCommit {
                    anchor: chain[5].id(),
                    anchor_height: 6,
                    rolling: sha256(b"state"),
                    disconnected: vec![],
                    connected: chain.iter().map(|b| b.id()).collect(),
                })
                .unwrap();
            storage.store_snapshot(&snapshot_at(&chain[2], 3)).unwrap();
            storage.note_invalidated(&sha256(b"bad")).unwrap();
        }
        let (_storage, recovery) = FileStorage::open(&dir, config).unwrap();
        // Root: snapshot at height 3, best height 6, finality 2 → 3 + 2 ≤ 6 ✓.
        assert_eq!(recovery.root.as_ref().unwrap().height, 3);
        // Blocks above the root only.
        let heights: Vec<u64> = recovery.blocks.iter().map(|(h, _, _)| *h).collect();
        assert_eq!(heights, vec![4, 5, 6]);
        assert_eq!(recovery.undos.len(), 3);
        assert!(recovery.invalidated.contains(&sha256(b"bad")));
        assert_eq!(recovery.last_roll.unwrap().anchor_height, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn young_chain_has_no_root_and_decodes_everything() {
        let dir = tmpdir("young");
        let config = StorageConfig {
            finality_depth: 100,
            fsync: false,
        };
        {
            let (mut storage, _) = FileStorage::open(&dir, config).unwrap();
            let a = key_block(1, Hash256::ZERO);
            let b = key_block(2, a.id());
            storage.store_block(&a, 1).unwrap();
            storage.store_block(&b, 2).unwrap();
            storage.store_snapshot(&snapshot_at(&a, 1)).unwrap();
            storage.commit_roll(&RollCommit {
                anchor: b.id(),
                anchor_height: 2,
                rolling: Hash256::ZERO,
                disconnected: vec![],
                connected: vec![a.id(), b.id()],
            }).unwrap();
        }
        let (_storage, recovery) = FileStorage::open(&dir, config).unwrap();
        assert!(recovery.root.is_none(), "snapshot too shallow to be final");
        assert_eq!(recovery.blocks.len(), 2, "full replay set");
        assert_eq!(recovery.snapshots.len(), 1, "still usable for the view");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_rolls_back_to_last_acknowledged_record() {
        let dir = tmpdir("torn");
        let config = StorageConfig {
            finality_depth: 1,
            fsync: false,
        };
        let a = key_block(1, Hash256::ZERO);
        let b = key_block(2, a.id());
        {
            let (mut storage, _) = FileStorage::open(&dir, config).unwrap();
            storage.store_block(&a, 1).unwrap();
            storage.commit_roll(&RollCommit {
                anchor: a.id(),
                anchor_height: 1,
                rolling: Hash256::ZERO,
                disconnected: vec![],
                connected: vec![a.id()],
            }).unwrap();
            storage.store_block(&b, 2).unwrap();
            let (blocks_len, _, wal_len) = storage.file_lengths().unwrap();
            drop(storage);
            // Kill mid-append of block b: cut 5 bytes into its frame.
            crash_truncate(&dir, blocks_len - 5, u64::MAX, wal_len).unwrap();
        }
        let (_storage, recovery) = FileStorage::open(&dir, config).unwrap();
        assert_eq!(recovery.blocks.len(), 1, "torn block b never happened");
        assert_eq!(recovery.blocks[0].1, a.id());
        assert_eq!(recovery.last_roll.unwrap().anchor, a.id());
        // The reopened file was truncated: appending works cleanly after.
        let (mut storage, _) = FileStorage::open(&dir, config).unwrap();
        storage.store_block(&b, 2).unwrap();
        storage.flush_data().unwrap();
        let (_s, recovery) = FileStorage::open(&dir, config).unwrap();
        assert_eq!(recovery.blocks.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_commit_flushes_referenced_data_first() {
        // After commit_roll returns, a reopen must see the committed blocks even
        // if nothing else was flushed — the write-discipline invariant.
        let dir = tmpdir("discipline");
        let config = StorageConfig {
            finality_depth: 1,
            fsync: false,
        };
        let a = key_block(1, Hash256::ZERO);
        {
            let (mut storage, _) = FileStorage::open(&dir, config).unwrap();
            storage.store_block(&a, 1).unwrap();
            storage.store_undo(&a.id(), 1, &BlockUndo::default()).unwrap();
            storage.commit_roll(&RollCommit {
                anchor: a.id(),
                anchor_height: 1,
                rolling: Hash256::ZERO,
                disconnected: vec![],
                connected: vec![a.id()],
            }).unwrap();
            std::mem::forget(storage); // simulate a kill: no Drop flushes
        }
        let (_storage, recovery) = FileStorage::open(&dir, config).unwrap();
        assert_eq!(recovery.blocks.len(), 1);
        assert_eq!(recovery.undos.len(), 1);
        assert!(recovery.last_roll.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_are_atomic_and_named_by_height_and_commitment() {
        let dir = tmpdir("snap");
        let config = StorageConfig::default();
        let a = key_block(1, Hash256::ZERO);
        let (mut storage, _) = FileStorage::open(&dir, config).unwrap();
        storage.store_snapshot(&snapshot_at(&a, 7)).unwrap();
        let names: Vec<String> = std::fs::read_dir(FileStorage::snapshot_dir(&dir))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 1);
        assert!(names[0].starts_with("snap_0000000007_"));
        assert!(names[0].ends_with(".ng"));
        assert!(!names[0].contains("tmp"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
