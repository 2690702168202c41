//! Binary codecs for the durable chainstate files.
//!
//! Every record in every file is one self-contained *frame*:
//!
//! ```text
//! magic (4) ‖ length (4, LE) ‖ checksum (4) ‖ body (length bytes)
//! ```
//!
//! — the same construction as the wire protocol's `FrameCodec` (and Bitcoin's
//! message framing), with a per-file magic so a block file can never be mistaken
//! for an undo file. The checksum is the first four bytes of the double-SHA-256 of
//! the body. A crash mid-append leaves a *torn tail*: a frame whose header, body
//! or checksum is incomplete. Recovery scans the valid prefix and truncates the
//! tail — an unacknowledged append simply never happened.
//!
//! Bodies are hand-rolled little-endian binary, not JSON: the restart path decodes
//! hundreds of blocks inside a ~200 µs budget (the 10× bar against a from-genesis
//! replay), which text parsing would not meet.

use ng_chain::amount::Amount;
use ng_chain::payload::Payload;
use ng_chain::transaction::{OutPoint, Transaction, TxInput, TxOutput};
use ng_chain::undo::BlockUndo;
use ng_chain::utxo::{TxUndo, UtxoEntry};
use ng_core::block::{KeyBlock, MicroBlock, MicroHeader, NgBlock};
use ng_crypto::keys::{Address, PublicKey};
use ng_crypto::pow::{Target, Work};
use ng_crypto::sha256::{double_sha256, Hash256};
use ng_crypto::signer::SignatureBytes;
use ng_crypto::u256::U256;

/// Why a stored record could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before the record did.
    Truncated,
    /// The bytes decoded to something structurally impossible.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Per-file frame magics.
pub const MAGIC_BLOCKS: [u8; 4] = *b"NGBK";
/// Undo-file magic.
pub const MAGIC_UNDO: [u8; 4] = *b"NGUD";
/// Write-ahead-log magic.
pub const MAGIC_WAL: [u8; 4] = *b"NGWL";
/// Snapshot-file magic.
pub const MAGIC_SNAP: [u8; 4] = *b"NGSS";

/// Frame header size: magic, length, checksum.
pub const FRAME_HEADER: usize = 12;

/// Wraps a body into a checksummed frame.
pub fn frame(magic: [u8; 4], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&double_sha256(body).0[..4]);
    out.extend_from_slice(body);
    out
}

/// One frame located in a file scan: the body's byte range, checksum-unverified.
#[derive(Clone, Copy, Debug)]
pub struct FrameRef {
    /// Offset of the body within the file.
    pub body_start: usize,
    /// Body length.
    pub body_len: usize,
    /// The declared checksum (verify lazily with [`verify_frame`]).
    pub checksum: [u8; 4],
}

impl FrameRef {
    /// The body slice within the scanned file bytes.
    pub fn body<'a>(&self, file: &'a [u8]) -> &'a [u8] {
        &file[self.body_start..self.body_start + self.body_len]
    }
}

/// True if the frame's body matches its declared checksum.
pub fn verify_frame(file: &[u8], frame: &FrameRef) -> bool {
    double_sha256(frame.body(file)).0[..4] == frame.checksum
}

/// Walks the valid frame prefix of a file: stops at the first incomplete header,
/// wrong magic, or body extending past the end. Returns the located frames and the
/// byte length of the valid prefix (everything past it is a torn tail to truncate).
///
/// Only the **last** frame's checksum is verified eagerly — a torn write can only
/// corrupt the tail of an append-only file, and hashing every historical frame on
/// every reopen would put the restart back at O(chain length). Interior frames are
/// verified when their payload is actually decoded.
pub fn scan_frames(file: &[u8], magic: [u8; 4]) -> (Vec<FrameRef>, usize) {
    let (mut frames, mut pos) = scan_frames_structural(file, magic);
    while let Some(last) = frames.last() {
        if verify_frame(file, last) {
            break;
        }
        // A complete-looking final frame with a bad checksum is still a torn write
        // (the length field landed but the body did not); drop it too.
        pos = last.body_start - FRAME_HEADER;
        frames.pop();
    }
    (frames, pos)
}

/// The structural half of [`scan_frames`]: locates frames without hashing any
/// body. For files written atomically (temp file + rename, e.g. snapshots) a
/// torn tail cannot exist, so the caller can skip the trailing-checksum pass and
/// validate the payload by other means after decoding.
pub fn scan_frames_structural(file: &[u8], magic: [u8; 4]) -> (Vec<FrameRef>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while file.len() - pos >= FRAME_HEADER {
        if file[pos..pos + 4] != magic {
            break;
        }
        let len = u32::from_le_bytes(file[pos + 4..pos + 8].try_into().unwrap()) as usize;
        if file.len() - pos - FRAME_HEADER < len {
            break;
        }
        let mut checksum = [0u8; 4];
        checksum.copy_from_slice(&file[pos + 8..pos + 12]);
        frames.push(FrameRef {
            body_start: pos + FRAME_HEADER,
            body_len: len,
            checksum,
        });
        pos += FRAME_HEADER + len;
    }
    (frames, pos)
}

/// A cursor over record bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// True if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() - self.pos < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a 32-byte hash.
    pub fn hash(&mut self) -> Result<Hash256, CodecError> {
        let mut out = [0u8; 32];
        out.copy_from_slice(self.take(32)?);
        Ok(Hash256(out))
    }

    /// Reads a length-prefixed collection, bounding the declared count by the bytes
    /// actually remaining (so a corrupt length cannot trigger a huge allocation).
    fn counted<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.u32()? as usize;
        if count * min_item_bytes > self.bytes.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_hash(out: &mut Vec<u8>, h: &Hash256) {
    out.extend_from_slice(&h.0);
}

fn put_outpoint(out: &mut Vec<u8>, op: &OutPoint) {
    put_hash(out, &op.txid);
    put_u32(out, op.vout);
}

fn read_outpoint(r: &mut Reader<'_>) -> Result<OutPoint, CodecError> {
    Ok(OutPoint::new(r.hash()?, r.u32()?))
}

fn put_output(out: &mut Vec<u8>, o: &TxOutput) {
    put_u64(out, o.amount.sats());
    put_hash(out, &o.address.0);
}

fn read_output(r: &mut Reader<'_>) -> Result<TxOutput, CodecError> {
    Ok(TxOutput::new(Amount::from_sats(r.u64()?), Address(r.hash()?)))
}

fn put_signature(out: &mut Vec<u8>, sig: &SignatureBytes) {
    let SignatureBytes::Schnorr(bytes) = sig;
    out.push(1);
    out.extend_from_slice(bytes);
}

fn read_signature(r: &mut Reader<'_>) -> Result<SignatureBytes, CodecError> {
    if r.u8()? != 1 {
        return Err(CodecError::Malformed("signature tag"));
    }
    let mut bytes = [0u8; 65];
    bytes.copy_from_slice(r.take(65)?);
    Ok(SignatureBytes::Schnorr(bytes))
}

fn put_entry(out: &mut Vec<u8>, entry: &UtxoEntry) {
    put_output(out, &entry.output);
    put_u64(out, entry.height);
    out.push(entry.coinbase as u8);
}

fn read_entry(r: &mut Reader<'_>) -> Result<UtxoEntry, CodecError> {
    Ok(UtxoEntry {
        output: read_output(r)?,
        height: r.u64()?,
        coinbase: match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Malformed("coinbase flag")),
        },
    })
}

/// Encodes one transaction (the analogue of `Transaction::serialize`, but with a
/// matching decoder — the canonical hashing form has no need for one).
pub fn put_transaction(out: &mut Vec<u8>, tx: &Transaction) {
    put_u32(out, tx.inputs.len() as u32);
    for input in &tx.inputs {
        put_outpoint(out, &input.outpoint);
        match &input.pubkey {
            Some(pk) => {
                out.push(1);
                out.extend_from_slice(&pk.to_compressed());
            }
            None => out.push(0),
        }
        match &input.signature {
            Some(sig) => {
                out.push(1);
                put_signature(out, sig);
            }
            None => out.push(0),
        }
    }
    put_u32(out, tx.outputs.len() as u32);
    for output in &tx.outputs {
        put_output(out, output);
    }
    put_u32(out, tx.payload.len() as u32);
    out.extend_from_slice(&tx.payload);
}

/// Decodes one transaction.
pub fn read_transaction(r: &mut Reader<'_>) -> Result<Transaction, CodecError> {
    let inputs = r.counted(37, |r| {
        let outpoint = read_outpoint(r)?;
        let pubkey = match r.u8()? {
            0 => None,
            1 => {
                let mut bytes = [0u8; 33];
                bytes.copy_from_slice(r.take(33)?);
                Some(
                    PublicKey::from_compressed(bytes)
                        .ok_or(CodecError::Malformed("public key"))?,
                )
            }
            _ => return Err(CodecError::Malformed("pubkey tag")),
        };
        let signature = match r.u8()? {
            0 => None,
            1 => Some(read_signature(r)?),
            _ => return Err(CodecError::Malformed("signature presence tag")),
        };
        Ok(TxInput {
            outpoint,
            pubkey,
            signature,
        })
    })?;
    let outputs = r.counted(40, read_output)?;
    let payload_len = r.u32()? as usize;
    let payload = r.take(payload_len)?.to_vec();
    Ok(Transaction {
        inputs,
        outputs,
        payload,
    })
}

/// Encodes a block body (no frame, no index header).
pub fn put_block(out: &mut Vec<u8>, block: &NgBlock) {
    match block {
        NgBlock::Key(kb) => {
            out.push(0);
            put_hash(out, &kb.prev);
            put_u64(out, kb.time_ms);
            out.extend_from_slice(&kb.target.0.to_be_bytes());
            put_u64(out, kb.nonce);
            put_u64(out, kb.miner);
            out.extend_from_slice(&kb.leader_pubkey.to_compressed());
            put_u32(out, kb.coinbase.len() as u32);
            for output in &kb.coinbase {
                put_output(out, output);
            }
        }
        NgBlock::Micro(mb) => {
            out.push(1);
            put_hash(out, &mb.header.prev);
            put_u64(out, mb.header.time_ms);
            put_hash(out, &mb.header.payload_digest);
            put_u64(out, mb.header.leader);
            put_signature(out, &mb.signature);
            match &mb.payload {
                Payload::Transactions(txs) => {
                    out.push(0);
                    put_u32(out, txs.len() as u32);
                    for tx in txs {
                        put_transaction(out, tx);
                    }
                }
                Payload::Synthetic {
                    bytes,
                    tx_count,
                    total_fees,
                    tag,
                } => {
                    out.push(1);
                    put_u64(out, *bytes);
                    put_u64(out, *tx_count);
                    put_u64(out, total_fees.sats());
                    put_u64(out, *tag);
                }
            }
        }
    }
}

/// Decodes a block body.
pub fn read_block(r: &mut Reader<'_>) -> Result<NgBlock, CodecError> {
    match r.u8()? {
        0 => {
            let prev = r.hash()?;
            let time_ms = r.u64()?;
            let mut target = [0u8; 32];
            target.copy_from_slice(r.take(32)?);
            let nonce = r.u64()?;
            let miner = r.u64()?;
            let mut pk = [0u8; 33];
            pk.copy_from_slice(r.take(33)?);
            let leader_pubkey =
                PublicKey::from_compressed(pk).ok_or(CodecError::Malformed("leader key"))?;
            let coinbase = r.counted(40, read_output)?;
            Ok(NgBlock::Key(KeyBlock {
                prev,
                time_ms,
                target: Target(U256::from_be_bytes(&target)),
                nonce,
                miner,
                leader_pubkey,
                coinbase,
            }))
        }
        1 => {
            let header = MicroHeader {
                prev: r.hash()?,
                time_ms: r.u64()?,
                payload_digest: r.hash()?,
                leader: r.u64()?,
            };
            let signature = read_signature(r)?;
            let payload = match r.u8()? {
                0 => Payload::Transactions(r.counted(12, read_transaction)?),
                1 => Payload::Synthetic {
                    bytes: r.u64()?,
                    tx_count: r.u64()?,
                    total_fees: Amount::from_sats(r.u64()?),
                    tag: r.u64()?,
                },
                _ => return Err(CodecError::Malformed("payload tag")),
            };
            Ok(NgBlock::Micro(MicroBlock {
                header,
                payload,
                signature,
            }))
        }
        _ => Err(CodecError::Malformed("block kind")),
    }
}

/// Encodes a block undo record body.
pub fn put_undo(out: &mut Vec<u8>, undo: &BlockUndo) {
    put_u32(out, undo.txs.len() as u32);
    for tx_undo in &undo.txs {
        put_hash(out, &tx_undo.txid);
        put_u32(out, tx_undo.output_count);
        put_u32(out, tx_undo.spent.len() as u32);
        for (outpoint, entry) in &tx_undo.spent {
            put_outpoint(out, outpoint);
            put_entry(out, entry);
        }
    }
    put_u32(out, undo.coinbase.len() as u32);
    for outpoint in &undo.coinbase {
        put_outpoint(out, outpoint);
    }
    put_u32(out, undo.replaced.len() as u32);
    for (tx_index, outpoint, entry) in &undo.replaced {
        put_u32(out, *tx_index);
        put_outpoint(out, outpoint);
        put_entry(out, entry);
    }
}

/// Decodes a block undo record body.
pub fn read_undo(r: &mut Reader<'_>) -> Result<BlockUndo, CodecError> {
    let txs = r.counted(12, |r| {
        let txid = r.hash()?;
        let output_count = r.u32()?;
        let spent = r.counted(85, |r| Ok((read_outpoint(r)?, read_entry(r)?)))?;
        Ok(TxUndo {
            txid,
            output_count,
            spent,
        })
    })?;
    let coinbase = r.counted(36, read_outpoint)?;
    let replaced = r.counted(89, |r| {
        Ok((r.u32()?, read_outpoint(r)?, read_entry(r)?))
    })?;
    Ok(BlockUndo {
        txs,
        coinbase,
        replaced,
    })
}

/// One record in the write-ahead log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A completed ledger roll: the view moved from its previous anchor to `anchor`
    /// by disconnecting then connecting the listed blocks. Written *after* the
    /// rolled blocks and their undo records are durable — a WAL tail torn before
    /// this record means the roll never happened, which is consistent because the
    /// view is reconstructed from the newest snapshot plus a fresh sync anyway.
    Roll(crate::RollCommit),
    /// A block was invalidated out of the tree (failed full validation on connect);
    /// recovery must not re-adopt it.
    Invalidated(Hash256),
}

/// Encodes one WAL record body.
pub fn put_wal_record(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Roll(roll) => {
            out.push(0);
            put_hash(out, &roll.anchor);
            put_u64(out, roll.anchor_height);
            put_hash(out, &roll.rolling);
            put_u32(out, roll.disconnected.len() as u32);
            for id in &roll.disconnected {
                put_hash(out, id);
            }
            put_u32(out, roll.connected.len() as u32);
            for id in &roll.connected {
                put_hash(out, id);
            }
        }
        WalRecord::Invalidated(id) => {
            out.push(1);
            put_hash(out, id);
        }
    }
}

/// Decodes one WAL record body.
pub fn read_wal_record(r: &mut Reader<'_>) -> Result<WalRecord, CodecError> {
    match r.u8()? {
        0 => {
            let anchor = r.hash()?;
            let anchor_height = r.u64()?;
            let rolling = r.hash()?;
            let disconnected = r.counted(32, Reader::hash)?;
            let connected = r.counted(32, Reader::hash)?;
            Ok(WalRecord::Roll(crate::RollCommit {
                anchor,
                anchor_height,
                rolling,
                disconnected,
                connected,
            }))
        }
        1 => Ok(WalRecord::Invalidated(r.hash()?)),
        _ => Err(CodecError::Malformed("wal record tag")),
    }
}

/// Encodes a snapshot body.
pub fn put_snapshot(out: &mut Vec<u8>, snap: &crate::Snapshot) {
    put_block(out, &NgBlock::Key(snap.root.clone()));
    put_u64(out, snap.height);
    out.extend_from_slice(&snap.total_work.0.to_be_bytes());
    put_hash(out, &snap.rolling);
    put_hash(out, &snap.sorted);
    put_u32(out, snap.entries.len() as u32);
    for (outpoint, entry) in &snap.entries {
        put_outpoint(out, outpoint);
        put_entry(out, entry);
    }
    put_u32(out, snap.confirmed.len() as u32);
    for (txid, count) in &snap.confirmed {
        put_hash(out, txid);
        put_u32(out, *count);
    }
}

/// Decodes only a snapshot's header — root block, height, work and the two
/// commitments — leaving `entries`/`confirmed` empty and unread. Recovery uses
/// this for the root snapshot when the view is guaranteed to restore from a
/// newer one: rooting the chain needs the header, not the UTXO payload.
pub fn read_snapshot_header(r: &mut Reader<'_>) -> Result<crate::Snapshot, CodecError> {
    let root = match read_block(r)? {
        NgBlock::Key(kb) => kb,
        NgBlock::Micro(_) => return Err(CodecError::Malformed("snapshot root is not a key block")),
    };
    let height = r.u64()?;
    let mut work = [0u8; 32];
    work.copy_from_slice(r.take(32)?);
    let total_work = Work(U256::from_be_bytes(&work));
    let rolling = r.hash()?;
    let sorted = r.hash()?;
    Ok(crate::Snapshot {
        root,
        height,
        total_work,
        rolling,
        sorted,
        entries: Vec::new(),
        confirmed: Vec::new(),
    })
}

/// Decodes a snapshot body.
pub fn read_snapshot(r: &mut Reader<'_>) -> Result<crate::Snapshot, CodecError> {
    let root = match read_block(r)? {
        NgBlock::Key(kb) => kb,
        NgBlock::Micro(_) => return Err(CodecError::Malformed("snapshot root is not a key block")),
    };
    let height = r.u64()?;
    let mut work = [0u8; 32];
    work.copy_from_slice(r.take(32)?);
    let total_work = Work(U256::from_be_bytes(&work));
    let rolling = r.hash()?;
    let sorted = r.hash()?;
    let entries = r.counted(85, |r| Ok((read_outpoint(r)?, read_entry(r)?)))?;
    let confirmed = r.counted(36, |r| Ok((r.hash()?, r.u32()?)))?;
    Ok(crate::Snapshot {
        root,
        height,
        total_work,
        rolling,
        sorted,
        entries,
        confirmed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::transaction::TransactionBuilder;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::SchnorrSigner;
    use proptest::prelude::*;

    fn sample_tx(seq: u64) -> Transaction {
        let mut tx = TransactionBuilder::new()
            .input(OutPoint::new(sha256(&seq.to_le_bytes()), seq as u32))
            .output(Amount::from_sats(1_000 + seq), KeyPair::from_id(seq).address())
            .build();
        tx.sign_all_inputs(&SchnorrSigner::new(KeyPair::from_id(seq)));
        tx
    }

    fn sample_key(seq: u64) -> NgBlock {
        let kp = KeyPair::from_id(seq);
        NgBlock::Key(KeyBlock {
            prev: sha256(&seq.to_le_bytes()),
            time_ms: 1_000 * seq,
            target: Target::regtest(),
            nonce: seq,
            miner: seq,
            leader_pubkey: kp.public,
            coinbase: vec![TxOutput::new(Amount::from_coins(25), kp.address())],
        })
    }

    fn sample_micro(seq: u64, payload: Payload) -> NgBlock {
        let kp = KeyPair::from_id(seq);
        let header = MicroHeader {
            prev: sha256(&seq.to_le_bytes()),
            time_ms: seq,
            payload_digest: payload.digest(),
            leader: seq,
        };
        let signature = SchnorrSigner::new(kp).sign(&header.signing_hash());
        NgBlock::Micro(MicroBlock {
            header,
            payload,
            signature,
        })
    }

    #[test]
    fn blocks_round_trip() {
        let blocks = vec![
            sample_key(1),
            sample_micro(2, Payload::Transactions(vec![sample_tx(3), sample_tx(4)])),
            sample_micro(5, Payload::empty()),
            sample_micro(
                6,
                Payload::Synthetic {
                    bytes: 5_000,
                    tx_count: 20,
                    total_fees: Amount::from_sats(777),
                    tag: 9,
                },
            ),
        ];
        for block in blocks {
            let mut bytes = Vec::new();
            put_block(&mut bytes, &block);
            let mut r = Reader::new(&bytes);
            let decoded = read_block(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(decoded, block);
            assert_eq!(decoded.id(), block.id());
        }
    }

    /// `bytes` with the tag-1 Schnorr signature `sig` re-encoded the way older
    /// datadirs could hold it: tag 2 and a 32-byte keyed hash.
    fn retagged(bytes: &[u8], sig: &SignatureBytes) -> Vec<u8> {
        let SignatureBytes::Schnorr(sig) = sig;
        let at = bytes.windows(65).position(|w| w == sig).expect("signature is encoded");
        assert_eq!(bytes[at - 1], 1, "the Schnorr tag");
        [&bytes[..at - 1], &[2u8], &[7u8; 32], &bytes[at + 65..]].concat()
    }

    #[test]
    fn a_second_signature_tag_is_a_codec_error() {
        let tx = sample_tx(3);
        let mut bytes = Vec::new();
        put_transaction(&mut bytes, &tx);
        let forged = retagged(&bytes, tx.inputs[0].signature.as_ref().unwrap());
        assert_eq!(
            read_transaction(&mut Reader::new(&forged)),
            Err(CodecError::Malformed("signature tag"))
        );

        let block = sample_micro(5, Payload::empty());
        let NgBlock::Micro(micro) = &block else { unreachable!() };
        let mut bytes = Vec::new();
        put_block(&mut bytes, &block);
        let forged = retagged(&bytes, &micro.signature);
        assert_eq!(
            read_block(&mut Reader::new(&forged)),
            Err(CodecError::Malformed("signature tag"))
        );
    }

    #[test]
    fn undo_round_trip() {
        let entry = UtxoEntry {
            output: TxOutput::new(Amount::from_sats(5), KeyPair::from_id(1).address()),
            height: 42,
            coinbase: true,
        };
        let undo = BlockUndo {
            txs: vec![TxUndo {
                txid: sha256(b"t"),
                output_count: 2,
                spent: vec![(OutPoint::new(sha256(b"s"), 1), entry)],
            }],
            coinbase: vec![OutPoint::new(sha256(b"c"), 0)],
            replaced: vec![(7, OutPoint::new(sha256(b"r"), 3), entry)],
        };
        let mut bytes = Vec::new();
        put_undo(&mut bytes, &undo);
        let decoded = read_undo(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded, undo);
    }

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::Roll(crate::RollCommit {
                anchor: sha256(b"a"),
                anchor_height: 9,
                rolling: sha256(b"r"),
                disconnected: vec![sha256(b"d1"), sha256(b"d2")],
                connected: vec![sha256(b"c1")],
            }),
            WalRecord::Invalidated(sha256(b"bad")),
        ];
        for record in records {
            let mut bytes = Vec::new();
            put_wal_record(&mut bytes, &record);
            assert_eq!(read_wal_record(&mut Reader::new(&bytes)).unwrap(), record);
        }
    }

    #[test]
    fn truncated_records_error_rather_than_panic() {
        let mut bytes = Vec::new();
        put_block(&mut bytes, &sample_key(1));
        for cut in 0..bytes.len() {
            assert!(read_block(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn frame_scan_stops_at_torn_tail() {
        let mut file = Vec::new();
        for seq in 0..4u64 {
            let mut body = Vec::new();
            put_block(&mut body, &sample_key(seq + 1));
            file.extend_from_slice(&frame(MAGIC_BLOCKS, &body));
        }
        let whole = file.len();
        let (frames, valid) = scan_frames(&file, MAGIC_BLOCKS);
        assert_eq!(frames.len(), 4);
        assert_eq!(valid, whole);
        // Any truncation point drops only frames at or after the cut.
        for cut in 0..whole {
            let (frames, valid) = scan_frames(&file[..cut], MAGIC_BLOCKS);
            assert!(valid <= cut);
            assert!(frames.len() <= 4);
            for f in &frames {
                assert!(verify_frame(&file[..cut], f));
            }
        }
    }

    #[test]
    fn corrupt_final_body_is_dropped_as_torn() {
        let mut body = Vec::new();
        put_block(&mut body, &sample_key(1));
        let mut file = frame(MAGIC_BLOCKS, &body);
        let mut body2 = Vec::new();
        put_block(&mut body2, &sample_key(2));
        file.extend_from_slice(&frame(MAGIC_BLOCKS, &body2));
        let last = file.len() - 1;
        file[last] ^= 0xFF;
        let (frames, valid) = scan_frames(&file, MAGIC_BLOCKS);
        assert_eq!(frames.len(), 1, "corrupted tail frame dropped");
        assert_eq!(valid, FRAME_HEADER + body.len());
    }

    proptest! {
        /// Random transactions survive the round trip byte-for-byte.
        #[test]
        fn prop_tx_round_trip(seed in 0u64..1_000, n_out in 1usize..4, payload_len in 0usize..20) {
            let mut builder = TransactionBuilder::new()
                .input(OutPoint::new(sha256(&seed.to_le_bytes()), 0));
            for i in 0..n_out {
                builder = builder.output(
                    Amount::from_sats(seed + i as u64),
                    KeyPair::from_id(seed + i as u64).address(),
                );
            }
            let mut tx = builder.build();
            tx.payload = vec![0xAB; payload_len];
            tx.sign_all_inputs(&SchnorrSigner::new(KeyPair::from_id(seed)));
            let mut bytes = Vec::new();
            put_transaction(&mut bytes, &tx);
            let decoded = read_transaction(&mut Reader::new(&bytes)).unwrap();
            prop_assert_eq!(decoded, tx);
        }
    }
}
