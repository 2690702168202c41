//! The datadir's record layouts.
//!
//! Every record in every file is one self-contained frame built by
//! [`ng_chain::codec::frame`] — the construction the wire protocol's `FrameCodec`
//! uses too — with a per-file magic so a block file can never be mistaken for an
//! undo file. A crash mid-append leaves a *torn tail*: a frame whose header, body
//! or checksum is incomplete. Recovery scans the valid prefix and truncates the
//! tail — an unacknowledged append simply never happened.
//!
//! Blocks and transactions are encoded by the object codec the wire shares
//! ([`ng_core::codec`] over [`ng_chain::codec`]); this module adds only what is
//! the datadir's own: undo records, WAL records and snapshots. Bodies are binary,
//! not JSON: the restart path decodes hundreds of blocks inside a ~200 µs budget
//! (the 10× bar against a from-genesis replay), which text parsing would not meet.

use ng_chain::codec::{
    checksum, put_coin, put_hash, put_list, put_outpoint, put_u256, put_u32, put_u64, read_coin,
    read_outpoint, tagged, CodecError, FrameHeader, Reader, COIN_BYTES, FRAME_HEADER,
};
use ng_chain::undo::BlockUndo;
use ng_chain::utxo::TxUndo;
use ng_core::codec::{put_key_block, read_key_block};
use ng_crypto::pow::Work;
use ng_crypto::sha256::Hash256;

/// Per-file frame magics.
pub const MAGIC_BLOCKS: [u8; 4] = *b"NGBK";
/// Undo-file magic.
pub const MAGIC_UNDO: [u8; 4] = *b"NGUD";
/// Write-ahead-log magic.
pub const MAGIC_WAL: [u8; 4] = *b"NGWL";
/// Snapshot-file magic.
pub const MAGIC_SNAP: [u8; 4] = *b"NGSS";

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
    checksum(frame.body(file)) == frame.checksum
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
    while let Some(header) = FrameHeader::parse(&file[pos..]) {
        if header.magic != magic || file.len() - pos - FRAME_HEADER < header.len {
            break;
        }
        frames.push(FrameRef {
            body_start: pos + FRAME_HEADER,
            body_len: header.len,
            checksum: header.checksum,
        });
        pos += FRAME_HEADER + header.len;
    }
    (frames, pos)
}

/// Encodes a block undo record body.
pub fn put_undo(out: &mut Vec<u8>, undo: &BlockUndo) {
    put_list(out, &undo.txs, |out, tx_undo| {
        put_hash(out, &tx_undo.txid);
        put_u32(out, tx_undo.output_count);
        put_list(out, &tx_undo.spent, put_coin);
    });
    put_list(out, &undo.coinbase, put_outpoint);
    put_list(out, &undo.replaced, |out, (tx_index, outpoint, entry)| {
        put_u32(out, *tx_index);
        put_coin(out, &(*outpoint, *entry));
    });
}

/// Decodes a block undo record body.
pub fn read_undo(r: &mut Reader<'_>) -> Result<BlockUndo, CodecError> {
    Ok(BlockUndo {
        txs: r.counted(40, |r| {
            Ok(TxUndo {
                txid: r.hash()?,
                output_count: r.u32()?,
                spent: r.counted(COIN_BYTES, read_coin)?,
            })
        })?,
        coinbase: r.counted(36, read_outpoint)?,
        replaced: r.counted(4 + COIN_BYTES, |r| {
            let (tx_index, (outpoint, entry)) = (r.u32()?, read_coin(r)?);
            Ok((tx_index, outpoint, entry))
        })?,
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
            put_hash(tagged(out, 0), &roll.anchor);
            put_u64(out, roll.anchor_height);
            put_hash(out, &roll.rolling);
            put_list(out, &roll.disconnected, put_hash);
            put_list(out, &roll.connected, put_hash);
        }
        WalRecord::Invalidated(id) => put_hash(tagged(out, 1), id),
    }
}

/// Decodes one WAL record body.
pub fn read_wal_record(r: &mut Reader<'_>) -> Result<WalRecord, CodecError> {
    match r.u8()? {
        0 => Ok(WalRecord::Roll(crate::RollCommit {
            anchor: r.hash()?,
            anchor_height: r.u64()?,
            rolling: r.hash()?,
            disconnected: r.counted(32, Reader::hash)?,
            connected: r.counted(32, Reader::hash)?,
        })),
        1 => Ok(WalRecord::Invalidated(r.hash()?)),
        _ => Err(CodecError::Malformed("wal record tag")),
    }
}

/// Encodes a snapshot body.
pub fn put_snapshot(out: &mut Vec<u8>, snap: &crate::Snapshot) {
    put_key_block(tagged(out, 0), &snap.root); // under the key-block kind byte
    put_u64(out, snap.height);
    put_u256(out, &snap.total_work.0);
    put_hash(out, &snap.rolling);
    put_hash(out, &snap.sorted);
    put_list(out, &snap.entries, put_coin);
    put_list(out, &snap.confirmed, |out, (txid, count)| {
        put_hash(out, txid);
        put_u32(out, *count);
    });
}

/// Decodes only a snapshot's header — root block, height, work and the two
/// commitments — leaving `entries`/`confirmed` empty and unread. Recovery uses
/// this for the root snapshot when the view is guaranteed to restore from a
/// newer one: rooting the chain needs the header, not the UTXO payload.
pub fn read_snapshot_header(r: &mut Reader<'_>) -> Result<crate::Snapshot, CodecError> {
    if r.u8()? != 0 {
        return Err(CodecError::Malformed("snapshot root is not a key block"));
    }
    Ok(crate::Snapshot {
        root: read_key_block(r)?,
        height: r.u64()?,
        total_work: Work(r.u256()?),
        rolling: r.hash()?,
        sorted: r.hash()?,
        entries: Vec::new(),
        confirmed: Vec::new(),
    })
}

/// Decodes a snapshot body.
pub fn read_snapshot(r: &mut Reader<'_>) -> Result<crate::Snapshot, CodecError> {
    let header = read_snapshot_header(r)?;
    Ok(crate::Snapshot {
        entries: r.counted(COIN_BYTES, read_coin)?,
        confirmed: r.counted(36, |r| Ok((r.hash()?, r.u32()?)))?,
        ..header
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::amount::Amount;
    use ng_chain::codec::{frame, put_transaction, read_transaction};
    use ng_chain::payload::Payload;
    use ng_chain::transaction::{OutPoint, Transaction, TransactionBuilder, TxOutput};
    use ng_chain::utxo::UtxoEntry;
    use ng_core::block::{KeyBlock, MicroBlock, MicroHeader, NgBlock};
    use ng_core::codec::{put_block, read_block};
    use ng_crypto::keys::KeyPair;
    use ng_crypto::pow::Target;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::{SchnorrSigner, SignatureBytes};
    use ng_crypto::u256::U256;
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
            assert_eq!(r.finish(), Ok(()));
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
            let block = sample_key(seq + 1);
            file.extend_from_slice(&frame(MAGIC_BLOCKS, 0, |body| put_block(body, &block)));
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
        let mut file = frame(MAGIC_BLOCKS, 0, |body| put_block(body, &sample_key(1)));
        let first = file.len();
        file.extend_from_slice(&frame(MAGIC_BLOCKS, 0, |body| put_block(body, &sample_key(2))));
        let last = file.len() - 1;
        file[last] ^= 0xFF;
        let (frames, valid) = scan_frames(&file, MAGIC_BLOCKS);
        assert_eq!(frames.len(), 1, "corrupted tail frame dropped");
        assert_eq!(valid, first);
    }

    /// Fixed inputs through every datadir encoder, framed as the files hold them.
    fn layout_bytes() -> Vec<u8> {
        let entry = UtxoEntry {
            output: TxOutput::new(Amount::from_sats(5), KeyPair::from_id(1).address()),
            height: 42,
            coinbase: true,
        };
        let synthetic = Payload::Synthetic {
            bytes: 5_000,
            tx_count: 20,
            total_fees: Amount::from_sats(777),
            tag: 9,
        };
        let mut out = Vec::new();
        for block in [
            sample_key(1),
            sample_micro(2, Payload::Transactions(vec![sample_tx(3), sample_tx(4)])),
            sample_micro(5, Payload::empty()),
            sample_micro(6, synthetic),
        ] {
            out.extend_from_slice(&frame(MAGIC_BLOCKS, 0, |body| put_block(body, &block)));
        }
        let undo = BlockUndo {
            txs: vec![TxUndo {
                txid: sha256(b"t"),
                output_count: 2,
                spent: vec![(OutPoint::new(sha256(b"s"), 1), entry)],
            }],
            coinbase: vec![OutPoint::new(sha256(b"c"), 0)],
            replaced: vec![(7, OutPoint::new(sha256(b"r"), 3), entry)],
        };
        out.extend_from_slice(&frame(MAGIC_UNDO, 0, |body| put_undo(body, &undo)));
        for record in [
            WalRecord::Roll(crate::RollCommit {
                anchor: sha256(b"a"),
                anchor_height: 9,
                rolling: sha256(b"r"),
                disconnected: vec![sha256(b"d1"), sha256(b"d2")],
                connected: vec![sha256(b"c1")],
            }),
            WalRecord::Invalidated(sha256(b"bad")),
        ] {
            out.extend_from_slice(&frame(MAGIC_WAL, 0, |body| put_wal_record(body, &record)));
        }
        let NgBlock::Key(root) = sample_key(8) else { unreachable!() };
        let snapshot = crate::Snapshot {
            root,
            height: 64,
            total_work: Work(U256::from_u64(640)),
            rolling: sha256(b"rolling"),
            sorted: sha256(b"sorted"),
            entries: vec![(OutPoint::new(sha256(b"e"), 2), entry)],
            confirmed: vec![(sha256(b"t"), 1)],
        };
        out.extend_from_slice(&frame(MAGIC_SNAP, 0, |body| put_snapshot(body, &snapshot)));
        out
    }

    /// The datadir byte layout is pinned: these bytes hash to what the
    /// encoders produced before the object codec moved below storage, so a
    /// datadir written then still reopens. A hash that moves is a format change.
    #[test]
    fn the_datadir_layout_is_pinned() {
        assert_eq!(
            sha256(&layout_bytes()).to_hex(),
            "ee9acf7ac6527810ef4976eccb136650c0be3b2ae9a9430716a063ee47d690fc"
        );
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
