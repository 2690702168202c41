//! Wire framing and the binary message codec.
//!
//! Each frame is `magic (4) ‖ length (4, LE) ‖ checksum (4) ‖ body`, built by
//! [`ng_chain::codec::frame`] — the construction the datadir's records use too —
//! where the checksum is the first four bytes of the double-SHA-256 of the body,
//! as in the Bitcoin wire protocol. The body is one command byte (the variant's
//! position in [`Message`]) followed by its fields in the object codec the
//! datadir shares: [`ng_chain::codec`] for transactions, outputs, UTXO entries and
//! signatures, [`ng_core::codec`] for blocks and poisons; this module adds
//! `ng_net`'s own types (inventory items, header records, compact blocks, wire
//! snapshots). Decoding never panics, bounds every count by the bytes that
//! remain, takes no square root for a public key, and refuses trailing bytes.
//!
//! The decoder is incremental: feed it arbitrary chunks of bytes (as read from a
//! socket) and it yields complete messages as they become available, leaving
//! partial frames buffered.

use crate::message::{InvItem, InvKind, Message, ProtocolKind, WireSnapshot};
use crate::relay::CompactMicroBlock;
use crate::sync::HeaderRecord;
use bytes::{Buf, Bytes, BytesMut};
use ng_chain::codec::{
    checksum, frame, put_coin, put_hash, put_list, put_signature, put_transaction, put_u256,
    put_u32, put_u64, read_coin, read_signature, read_transaction, tagged, CodecError as BodyError,
    FrameHeader, Reader, COIN_BYTES, FRAME_HEADER, MIN_TX_BYTES,
};
use ng_core::codec::{
    put_key_block, put_micro_header, put_microblock, put_poison, read_key_block, read_micro_header,
    read_microblock, read_poison,
};
use ng_crypto::pow::Work;
use std::fmt;

/// Frame magic identifying this network ("NGRP" — NG reproduction).
pub const MAGIC: [u8; 4] = *b"NGRP";

/// Frame header size: magic, length, checksum.
pub const HEADER_LEN: usize = FRAME_HEADER;

/// Default maximum body size: generous enough for a 1 MB block plus encoding overhead.
pub const DEFAULT_MAX_BODY: usize = 8 * 1024 * 1024;

/// Errors surfaced by the codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The frame did not start with the expected magic (peer speaks something else).
    BadMagic([u8; 4]),
    /// The declared body length exceeds the configured maximum.
    OversizedFrame {
        /// Declared length.
        declared: usize,
        /// Allowed maximum.
        max: usize,
    },
    /// The body checksum did not match (corruption in transit).
    BadChecksum,
    /// The body could not be decoded into a [`Message`].
    BadBody(BodyError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            CodecError::OversizedFrame { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max} byte limit")
            }
            CodecError::BadChecksum => write!(f, "frame checksum mismatch"),
            CodecError::BadBody(e) => write!(f, "undecodable frame body: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encoder/decoder for framed [`Message`]s.
#[derive(Clone, Debug)]
pub struct FrameCodec {
    /// Maximum accepted body size in bytes.
    pub max_body: usize,
}

impl Default for FrameCodec {
    fn default() -> Self {
        FrameCodec {
            max_body: DEFAULT_MAX_BODY,
        }
    }
}

impl FrameCodec {
    /// Encodes one message into a self-contained frame.
    pub fn encode(&self, message: &Message) -> Result<Bytes, CodecError> {
        let size_hint = (message.wire_size() as usize).min(self.max_body);
        let framed = frame(MAGIC, size_hint, |out| put_message(out, message));
        let declared = framed.len() - HEADER_LEN;
        if declared > self.max_body {
            return Err(CodecError::OversizedFrame { declared, max: self.max_body });
        }
        Ok(Bytes::from(framed))
    }

    /// Attempts to decode one message from the front of `buffer`.
    ///
    /// Returns `Ok(None)` if the buffer does not yet hold a complete frame (read more
    /// bytes and call again). Once a frame is complete its bytes are removed from the
    /// buffer — also when its body fails to decode — so the next call sees the next
    /// frame.
    pub fn decode(&self, buffer: &mut BytesMut) -> Result<Option<Message>, CodecError> {
        let Some(header) = FrameHeader::parse(buffer) else {
            return Ok(None);
        };
        if header.magic != MAGIC {
            return Err(CodecError::BadMagic(header.magic));
        }
        if header.len > self.max_body {
            return Err(CodecError::OversizedFrame { declared: header.len, max: self.max_body });
        }
        let end = HEADER_LEN + header.len;
        let Some(body) = buffer.get(HEADER_LEN..end) else {
            return Ok(None);
        };
        let message = match checksum(body) == header.checksum {
            true => decode_body(body),
            false => Err(CodecError::BadChecksum),
        };
        buffer.advance(end);
        message.map(Some)
    }

    /// Decodes every complete frame currently in the buffer.
    pub fn decode_all(&self, buffer: &mut BytesMut) -> Result<Vec<Message>, CodecError> {
        let mut out = Vec::new();
        while let Some(message) = self.decode(buffer)? {
            out.push(message);
        }
        Ok(out)
    }
}

/// Decodes one frame body: a message and nothing after it.
fn decode_body(body: &[u8]) -> Result<Message, CodecError> {
    let mut r = Reader::new(body);
    read_message(&mut r)
        .and_then(|message| r.finish().map(|()| message))
        .map_err(CodecError::BadBody)
}

/// Appends a message body: its command byte, then its fields.
fn put_message(out: &mut Vec<u8>, message: &Message) {
    match message {
        Message::Version { node_id, protocol, best_height, time_ms } => {
            put_u64(tagged(out, 0), *node_id);
            out.push(*protocol as u8);
            put_u64(out, *best_height);
            put_u64(out, *time_ms);
        }
        Message::Verack => out.push(1),
        Message::Inv(items) => put_list(tagged(out, 2), items, put_item),
        Message::GetData(items) => put_list(tagged(out, 3), items, put_item),
        Message::KeyBlock(kb) => put_key_block(tagged(out, 4), kb),
        Message::MicroBlock(mb) => put_microblock(tagged(out, 5), mb),
        Message::Tx(tx) => put_transaction(tagged(out, 6), tx),
        Message::GetHeaders { locator, limit } => {
            put_list(tagged(out, 7), locator, put_hash);
            put_u32(out, *limit);
        }
        Message::Headers(records) => {
            put_list(tagged(out, 8), records, |out, record| {
                put_hash(out, &record.id);
                put_hash(out, &record.prev);
                out.push(record.kind as u8);
                put_u64(out, record.height);
            });
        }
        Message::GetSnapshot { height } => put_u64(tagged(out, 9), *height),
        Message::Snapshot(None) => out.extend_from_slice(&[10, 0]),
        Message::Snapshot(Some(snapshot)) => {
            out.extend_from_slice(&[10, 1]);
            put_key_block(out, &snapshot.root);
            put_u64(out, snapshot.height);
            put_u256(out, &snapshot.total_work.0);
            put_list(out, &snapshot.entries, put_coin);
            put_list(out, &snapshot.confirmed, |out, (txid, count)| {
                put_hash(out, txid);
                put_u32(out, *count);
            });
        }
        Message::CmpctBlock(compact) => {
            put_micro_header(tagged(out, 11), &compact.header);
            put_signature(out, &compact.signature);
            put_u64(out, compact.salt);
            // Short ids are 48-bit (`relay::short_tx_id`): six bytes each.
            put_list(out, &compact.short_ids, |out, id| out.extend_from_slice(&id.to_le_bytes()[..6]));
        }
        Message::GetBlockTxn { block, indexes } => {
            put_hash(tagged(out, 12), block);
            put_list(out, indexes, |out, &i| put_u32(out, i));
        }
        Message::BlockTxn { block, txs } => {
            put_hash(tagged(out, 13), block);
            put_list(out, txs, put_transaction);
        }
        Message::IHave(items) => put_list(tagged(out, 14), items, put_item),
        Message::Graft(item) => put_item(tagged(out, 15), item),
        Message::Prune => out.push(16),
        Message::Poison(poison) => put_poison(tagged(out, 17), poison),
        Message::Ping(nonce) => put_u64(tagged(out, 18), *nonce),
        Message::Pong(nonce) => put_u64(tagged(out, 19), *nonce),
    }
}

/// Reads a message body written by [`put_message`].
fn read_message(r: &mut Reader<'_>) -> Result<Message, BodyError> {
    Ok(match r.u8()? {
        0 => Message::Version {
            node_id: r.u64()?,
            protocol: by_index(r, &[ProtocolKind::Bitcoin, ProtocolKind::BitcoinNg], "protocol kind")?,
            best_height: r.u64()?,
            time_ms: r.u64()?,
        },
        1 => Message::Verack,
        2 => Message::Inv(r.counted(33, read_item)?),
        3 => Message::GetData(r.counted(33, read_item)?),
        4 => Message::KeyBlock(Box::new(read_key_block(r)?)),
        5 => Message::MicroBlock(Box::new(read_microblock(r)?)),
        6 => Message::Tx(Box::new(read_transaction(r)?)),
        7 => Message::GetHeaders {
            locator: r.counted(32, Reader::hash)?,
            limit: r.u32()?,
        },
        8 => Message::Headers(r.counted(73, |r| {
            Ok(HeaderRecord {
                id: r.hash()?,
                prev: r.hash()?,
                kind: read_kind(r)?,
                height: r.u64()?,
            })
        })?),
        9 => Message::GetSnapshot { height: r.u64()? },
        10 => Message::Snapshot(match r.flag("snapshot presence tag")? {
            false => None,
            true => Some(Box::new(WireSnapshot {
                root: read_key_block(r)?,
                height: r.u64()?,
                total_work: Work(r.u256()?),
                entries: r.counted(COIN_BYTES, read_coin)?,
                confirmed: r.counted(36, |r| Ok((r.hash()?, r.u32()?)))?,
            })),
        }),
        11 => Message::CmpctBlock(Box::new(CompactMicroBlock {
            header: read_micro_header(r)?,
            signature: read_signature(r)?,
            salt: r.u64()?,
            short_ids: r.counted(6, |r| {
                let [a, b, c, d, e, f] = r.array()?;
                Ok(u64::from_le_bytes([a, b, c, d, e, f, 0, 0]))
            })?,
        })),
        12 => Message::GetBlockTxn {
            block: r.hash()?,
            indexes: r.counted(4, Reader::u32)?,
        },
        13 => Message::BlockTxn {
            block: r.hash()?,
            txs: r.counted(MIN_TX_BYTES, read_transaction)?,
        },
        14 => Message::IHave(r.counted(33, read_item)?),
        15 => Message::Graft(read_item(r)?),
        16 => Message::Prune,
        17 => Message::Poison(Box::new(read_poison(r)?)),
        18 => Message::Ping(r.u64()?),
        19 => Message::Pong(r.u64()?),
        _ => return Err(BodyError::Malformed("command")),
    })
}

fn put_item(out: &mut Vec<u8>, item: &InvItem) {
    out.push(item.kind as u8);
    put_hash(out, &item.id);
}

/// Reads a fieldless enum written as `variant as u8`: the byte indexes `variants`,
/// which lists them in declaration order.
fn by_index<T: Copy>(r: &mut Reader<'_>, variants: &[T], what: &'static str) -> Result<T, BodyError> {
    let index = r.u8()? as usize;
    variants.get(index).copied().ok_or(BodyError::Malformed(what))
}

fn read_kind(r: &mut Reader<'_>) -> Result<InvKind, BodyError> {
    let kinds = [InvKind::KeyBlock, InvKind::MicroBlock, InvKind::Transaction];
    by_index(r, &kinds, "inventory kind")
}

fn read_item(r: &mut Reader<'_>) -> Result<InvItem, BodyError> {
    Ok(InvItem::new(read_kind(r)?, r.hash()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use ng_crypto::sha256::sha256;
    use proptest::prelude::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Version {
                node_id: 3,
                protocol: ProtocolKind::BitcoinNg,
                best_height: 10,
                time_ms: 99,
            },
            Message::Verack,
            Message::Inv(vec![
                InvItem::new(InvKind::KeyBlock, sha256(b"k")),
                InvItem::new(InvKind::MicroBlock, sha256(b"m")),
            ]),
            Message::GetHeaders {
                locator: vec![sha256(b"tip"), sha256(b"genesis")],
                limit: 128,
            },
            Message::Headers(vec![HeaderRecord {
                id: sha256(b"h1"),
                prev: sha256(b"h0"),
                kind: InvKind::MicroBlock,
                height: 12,
            }]),
            Message::Ping(7),
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let codec = FrameCodec::default();
        for msg in sample_messages() {
            let frame = codec.encode(&msg).unwrap();
            let mut buf = BytesMut::from(&frame[..]);
            let decoded = codec.decode(&mut buf).unwrap().expect("complete frame");
            assert_eq!(decoded, msg);
            assert!(buf.is_empty(), "frame fully consumed");
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let codec = FrameCodec::default();
        let frame = codec.encode(&Message::Ping(1)).unwrap();
        let mut buf = BytesMut::new();
        // Feed the frame one byte at a time; only the last byte completes it.
        for (i, byte) in frame.iter().enumerate() {
            buf.put_u8(*byte);
            let result = codec.decode(&mut buf).unwrap();
            if i + 1 < frame.len() {
                assert!(result.is_none(), "premature decode at byte {i}");
            } else {
                assert_eq!(result, Some(Message::Ping(1)));
            }
        }
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let codec = FrameCodec::default();
        let mut buf = BytesMut::new();
        for msg in sample_messages() {
            buf.put_slice(&codec.encode(&msg).unwrap());
        }
        let decoded = codec.decode_all(&mut buf).unwrap();
        assert_eq!(decoded, sample_messages());
        assert!(buf.is_empty());
    }

    #[test]
    fn corrupted_body_detected() {
        let codec = FrameCodec::default();
        let frame = codec.encode(&Message::Ping(42)).unwrap();
        let mut bytes = frame.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut buf = BytesMut::from(&bytes[..]);
        assert_eq!(codec.decode(&mut buf), Err(CodecError::BadChecksum));
    }

    #[test]
    fn wrong_magic_rejected() {
        let codec = FrameCodec::default();
        let frame = codec.encode(&Message::Verack).unwrap();
        let mut bytes = frame.to_vec();
        bytes[0] = b'X';
        let mut buf = BytesMut::from(&bytes[..]);
        assert!(matches!(
            codec.decode(&mut buf),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn oversized_frames_rejected_on_both_sides() {
        let codec = FrameCodec { max_body: 64 };
        let big = Message::Inv(
            (0..100)
                .map(|i: u64| InvItem::new(InvKind::Transaction, sha256(&i.to_le_bytes())))
                .collect(),
        );
        assert!(matches!(
            codec.encode(&big),
            Err(CodecError::OversizedFrame { .. })
        ));
        // A peer that declares an oversized body is also rejected by the decoder.
        let generous = FrameCodec::default();
        let frame = generous.encode(&big).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        assert!(matches!(
            codec.decode(&mut buf),
            Err(CodecError::OversizedFrame { .. })
        ));
    }

    proptest! {
        /// Frames survive arbitrary chunking of the byte stream.
        #[test]
        fn prop_round_trip_survives_chunking(split in 1usize..200, nonce in any::<u64>()) {
            let codec = FrameCodec::default();
            let messages = vec![
                Message::Ping(nonce),
                Message::Inv(vec![InvItem::new(InvKind::KeyBlock, sha256(&nonce.to_le_bytes()))]),
                Message::Pong(nonce),
            ];
            let mut stream = Vec::new();
            for msg in &messages {
                stream.extend_from_slice(&codec.encode(msg).unwrap());
            }
            let mut buf = BytesMut::new();
            let mut decoded = Vec::new();
            for chunk in stream.chunks(split) {
                buf.put_slice(chunk);
                decoded.extend(codec.decode_all(&mut buf).unwrap());
            }
            prop_assert_eq!(decoded, messages);
        }
    }
}
