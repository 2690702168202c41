//! Length-delimited framing with checksums.
//!
//! Each frame is `magic (4) ‖ length (4, LE) ‖ checksum (4) ‖ body (length bytes)`,
//! where the checksum is the first four bytes of the double-SHA-256 of the body — the
//! same construction the Bitcoin wire protocol uses. The decoder is incremental: feed
//! it arbitrary chunks of bytes (as read from a socket) and it yields complete messages
//! as they become available, leaving partial frames buffered.

use crate::message::Message;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ng_crypto::sha256::double_sha256;
use std::fmt;

/// Frame magic identifying this network ("NGRP" — NG reproduction).
pub const MAGIC: [u8; 4] = *b"NGRP";

/// Frame header size: magic, length, checksum.
pub const HEADER_LEN: usize = 12;

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
    BadBody(String),
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
    /// A codec with a custom body-size limit.
    pub fn with_max_body(max_body: usize) -> Self {
        FrameCodec { max_body }
    }

    /// Encodes one message into a self-contained frame.
    pub fn encode(&self, message: &Message) -> Result<Bytes, CodecError> {
        let body = serde_json::to_vec(message).map_err(|e| CodecError::BadBody(e.to_string()))?;
        if body.len() > self.max_body {
            return Err(CodecError::OversizedFrame {
                declared: body.len(),
                max: self.max_body,
            });
        }
        let checksum = &double_sha256(&body).0[..4];
        let mut out = BytesMut::with_capacity(HEADER_LEN + body.len());
        out.put_slice(&MAGIC);
        out.put_u32_le(body.len() as u32);
        out.put_slice(checksum);
        out.put_slice(&body);
        Ok(out.freeze())
    }

    /// Attempts to decode one message from the front of `buffer`.
    ///
    /// Returns `Ok(None)` if the buffer does not yet hold a complete frame (read more
    /// bytes and call again). On success the consumed bytes are removed from the
    /// buffer, so the next call sees the next frame.
    pub fn decode(&self, buffer: &mut BytesMut) -> Result<Option<Message>, CodecError> {
        if buffer.len() < HEADER_LEN {
            return Ok(None);
        }
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&buffer[0..4]);
        if magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let length = u32::from_le_bytes([buffer[4], buffer[5], buffer[6], buffer[7]]) as usize;
        if length > self.max_body {
            return Err(CodecError::OversizedFrame {
                declared: length,
                max: self.max_body,
            });
        }
        if buffer.len() < HEADER_LEN + length {
            return Ok(None);
        }
        let mut checksum = [0u8; 4];
        checksum.copy_from_slice(&buffer[8..12]);
        // Frame complete: consume it.
        buffer.advance(HEADER_LEN);
        let body = buffer.split_to(length);
        if double_sha256(&body).0[..4] != checksum {
            return Err(CodecError::BadChecksum);
        }
        let message =
            serde_json::from_slice(&body).map_err(|e| CodecError::BadBody(e.to_string()))?;
        Ok(Some(message))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{InvItem, InvKind, ProtocolKind};
    use crate::sync::HeaderRecord;
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
        let codec = FrameCodec::with_max_body(64);
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
