//! Property tests for the wire format: every [`Message`] variant must survive an
//! encode→decode round trip (also under arbitrary stream chunking), and malformed
//! frames — truncated, corrupted, mislabelled, padded or lying about a count — must
//! surface a [`CodecError`] instead of panicking or yielding a bogus message.

use bytes::{BufMut, BytesMut};
use ng_chain::amount::Amount;
use ng_chain::payload::Payload;
use ng_chain::transaction::{OutPoint, TransactionBuilder};
use ng_core::block::{MicroBlock, MicroHeader};
use ng_core::params::NgParams;
use ng_core::poison::PoisonTransaction;
use ng_core::NgNode;
use ng_crypto::keys::KeyPair;
use ng_crypto::sha256::sha256;
use ng_crypto::signer::{SchnorrSigner, SignatureBytes};
use ng_chain::transaction::TxOutput;
use ng_chain::utxo::UtxoEntry;
use ng_crypto::pow::Work;
use ng_chain::codec::CodecError as BodyError;
use ng_net::codec::{CodecError, FrameCodec, HEADER_LEN};
use ng_net::message::{InvItem, InvKind, Message, ProtocolKind, WireSnapshot};
use ng_net::relay::{short_tx_id, CompactMicroBlock};
use ng_net::sync::HeaderRecord;
use proptest::prelude::*;

/// One instance of every `Message` variant, parameterised by a seed so the property
/// tests exercise varying payload contents.
fn every_variant(seed: u64) -> Vec<Message> {
    let mut node = NgNode::new(seed % 7 + 1, NgParams::default(), seed);
    let key_block = node.mine_and_adopt_key_block(1_000 + seed);
    let mut tx = TransactionBuilder::new()
        .input(OutPoint::new(sha256(&seed.to_le_bytes()), (seed % 4) as u32))
        .output(Amount::from_sats(1 + seed), KeyPair::from_id(seed + 1).address())
        .payload(seed.to_le_bytes().to_vec())
        .build();
    if seed.is_multiple_of(2) {
        tx.sign_all_inputs(&SchnorrSigner::new(*node.keys()));
    }
    let payload = Payload::Transactions(vec![tx.clone(); 1 + (seed % 3) as usize]);
    let micro_header = MicroHeader {
        prev: key_block.id(),
        time_ms: 2_000 + seed,
        payload_digest: payload.digest(),
        leader: node.id,
    };
    let micro = MicroBlock {
        signature: SchnorrSigner::new(*node.keys()).sign(&micro_header.signing_hash()),
        header: micro_header,
        payload,
    };
    let compact = CompactMicroBlock {
        header: micro.header.clone(),
        signature: micro.signature.clone(),
        salt: seed,
        short_ids: (0..seed % 10)
            .map(|i| short_tx_id(seed, &sha256(&i.to_le_bytes())))
            .collect(),
    };
    // A conflicting sibling of `micro`: same parent and leader, different payload.
    let sibling_payload = Payload::Synthetic {
        bytes: 100 + seed % 500,
        tx_count: 1 + seed % 5,
        total_fees: Amount::from_sats(seed % 7_000),
        tag: seed.wrapping_add(1),
    };
    let sibling_header = MicroHeader {
        prev: key_block.id(),
        time_ms: 2_001 + seed,
        payload_digest: sibling_payload.digest(),
        leader: node.id,
    };
    let sibling = MicroBlock {
        signature: SchnorrSigner::new(*node.keys()).sign(&sibling_header.signing_hash()),
        header: sibling_header,
        payload: sibling_payload,
    };
    let poison = PoisonTransaction::from_conflict(&micro, &sibling, seed % 11)
        .expect("two signed siblings under one parent form a conflict");
    vec![
        Message::Version {
            node_id: seed,
            protocol: if seed.is_multiple_of(2) {
                ProtocolKind::BitcoinNg
            } else {
                ProtocolKind::Bitcoin
            },
            best_height: seed % 1_000,
            time_ms: seed,
        },
        Message::Verack,
        Message::Inv(vec![
            InvItem::new(InvKind::KeyBlock, sha256(&seed.to_le_bytes())),
            InvItem::new(InvKind::MicroBlock, sha256(b"m")),
            InvItem::new(InvKind::Transaction, sha256(b"t")),
        ]),
        Message::GetData(vec![InvItem::new(InvKind::KeyBlock, sha256(&seed.to_le_bytes()))]),
        Message::KeyBlock(Box::new(key_block.clone())),
        Message::MicroBlock(Box::new(micro)),
        Message::Tx(Box::new(tx.clone())),
        Message::GetHeaders {
            locator: (0..seed % 12)
                .map(|i| sha256(&(seed + i).to_le_bytes()))
                .collect(),
            limit: 1 + (seed % 512) as u32,
        },
        Message::Headers(
            (0..seed % 8)
                .map(|i| HeaderRecord {
                    id: sha256(&(seed + i).to_le_bytes()),
                    prev: sha256(&(seed + i + 1).to_le_bytes()),
                    kind: if i % 2 == 0 {
                        InvKind::KeyBlock
                    } else {
                        InvKind::MicroBlock
                    },
                    height: i,
                })
                .collect(),
        ),
        Message::GetSnapshot {
            height: seed % 2_048,
        },
        Message::Snapshot(if seed.is_multiple_of(3) {
            None
        } else {
            Some(Box::new(WireSnapshot {
                root: key_block,
                height: seed % 2_048,
                total_work: Work::ZERO,
                entries: (0..seed % 5)
                    .map(|i| {
                        (
                            OutPoint::new(sha256(&(seed + i).to_le_bytes()), i as u32),
                            UtxoEntry {
                                output: TxOutput {
                                    amount: Amount::from_sats(1 + seed + i),
                                    address: KeyPair::from_id(seed + i).address(),
                                },
                                height: i,
                                coinbase: i.is_multiple_of(2),
                            },
                        )
                    })
                    .collect(),
                confirmed: (0..seed % 4)
                    .map(|i| (sha256(&(seed ^ i).to_le_bytes()), 1 + i as u32))
                    .collect(),
            }))
        }),
        Message::CmpctBlock(Box::new(compact)),
        Message::GetBlockTxn {
            block: sha256(&seed.to_le_bytes()),
            indexes: (0..seed % 6).map(|i| i as u32).collect(),
        },
        Message::BlockTxn {
            block: sha256(&seed.to_le_bytes()),
            txs: vec![tx.clone()],
        },
        Message::IHave(vec![InvItem::new(InvKind::MicroBlock, sha256(&seed.to_le_bytes()))]),
        Message::Graft(InvItem::new(InvKind::MicroBlock, sha256(b"graft"))),
        Message::Prune,
        Message::Poison(Box::new(poison)),
        Message::Ping(seed),
        Message::Pong(seed.wrapping_mul(31)),
    ]
}

#[test]
fn every_message_variant_is_covered() {
    // If a new variant is added, `every_variant` (and these tests) must learn it.
    let commands: Vec<&str> = every_variant(1).iter().map(|m| m.command()).collect();
    assert_eq!(
        commands,
        vec![
            "version", "verack", "inv", "getdata", "keyblock", "microblock", "tx",
            "getheaders", "headers", "getsnapshot", "snapshot", "cmpct", "getblocktxn",
            "blocktxn", "ihave", "graft", "prune", "poison", "ping", "pong"
        ]
    );
}

proptest! {
    // Each case builds real blocks and Schnorr signatures; 16 cases keeps the suite
    // fast while still varying every payload.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every variant round-trips through a frame, for varying contents.
    #[test]
    fn prop_all_variants_round_trip(seed in 0u64..10_000) {
        let codec = FrameCodec::default();
        for message in every_variant(seed) {
            let frame = codec.encode(&message).unwrap();
            let mut buf = BytesMut::from(&frame[..]);
            let decoded = codec.decode(&mut buf).unwrap().expect("complete frame");
            prop_assert_eq!(&decoded, &message, "variant {}", message.command());
            prop_assert!(buf.is_empty());
        }
    }

    /// Concatenated variant frames survive arbitrary stream chunking.
    #[test]
    fn prop_round_trip_survives_chunking(seed in 0u64..5_000, split in 1usize..700) {
        let codec = FrameCodec::default();
        let messages = every_variant(seed);
        let mut stream = Vec::new();
        for message in &messages {
            stream.extend_from_slice(&codec.encode(message).unwrap());
        }
        let mut buf = BytesMut::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(split) {
            buf.put_slice(chunk);
            decoded.extend(codec.decode_all(&mut buf).unwrap());
        }
        prop_assert_eq!(decoded, messages);
    }

    /// A truncated frame never yields a message and never errors (the decoder waits
    /// for more bytes), no matter where the cut lands.
    #[test]
    fn prop_truncated_frames_wait_instead_of_panicking(seed in 0u64..5_000, frac in 0usize..1_000) {
        let codec = FrameCodec::default();
        for message in every_variant(seed) {
            let frame = codec.encode(&message).unwrap();
            let cut = frac * (frame.len() - 1) / 1_000; // 0 ≤ cut < len
            let mut buf = BytesMut::from(&frame[..cut]);
            prop_assert_eq!(codec.decode(&mut buf), Ok(None), "cut at {} of {}", cut, frame.len());
        }
    }

    /// Flipping any single byte of a frame makes the decoder error (bad magic, bad
    /// length, bad checksum or undecodable body) — never panic, never silently
    /// accept, with one principled exception: a corrupted *length* field may merely
    /// make the frame incomplete, which reads as `Ok(None)` (waiting for bytes).
    #[test]
    fn prop_corrupted_frames_error_instead_of_panicking(seed in 0u64..2_000, pos_sel in 0usize..10_000, flip in 1u8..=255) {
        let codec = FrameCodec::default();
        for message in every_variant(seed) {
            let frame = codec.encode(&message).unwrap();
            let pos = pos_sel % frame.len();
            let mut bytes = frame.to_vec();
            bytes[pos] ^= flip;
            let mut buf = BytesMut::from(&bytes[..]);
            match codec.decode(&mut buf) {
                Err(_) => {}
                Ok(None) => {
                    // Only a corrupted length field may leave the frame "incomplete".
                    prop_assert!((4..8).contains(&pos), "silent wait from flip at {pos}");
                }
                Ok(Some(decoded)) => {
                    prop_assert!(false, "corrupt frame decoded as {}", decoded.command());
                }
            }
        }
    }
}

#[test]
fn garbage_streams_are_rejected_without_panic() {
    let codec = FrameCodec::default();
    // Pure noise: bad magic.
    let mut buf = BytesMut::from(&[0xAAu8; 64][..]);
    assert!(matches!(codec.decode(&mut buf), Err(CodecError::BadMagic(_))));

    // Valid magic, absurd length: rejected before allocating.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"NGRP");
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 4]);
    let mut buf = BytesMut::from(&bytes[..]);
    assert!(matches!(
        codec.decode(&mut buf),
        Err(CodecError::OversizedFrame { .. })
    ));

    // Valid magic and plausible length, garbage body: checksum catches it.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"NGRP");
    bytes.extend_from_slice(&8u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 4]); // checksum
    bytes.extend_from_slice(&[0x55u8; 8]); // body
    let mut buf = BytesMut::from(&bytes[..]);
    assert_eq!(codec.decode(&mut buf), Err(CodecError::BadChecksum));

    // A frame whose body passes the checksum but names no command.
    let mut buf = framed(b"not a message");
    assert!(matches!(codec.decode(&mut buf), Err(CodecError::BadBody(_))));
    assert_eq!(buf.len(), 0, "the bad frame was consumed");
}

/// A well-formed frame (magic, length, matching checksum) around an arbitrary body.
fn framed(body: &[u8]) -> BytesMut {
    let mut bytes = BytesMut::new();
    bytes.put_slice(b"NGRP");
    bytes.put_u32_le(body.len() as u32);
    bytes.put_slice(&ng_crypto::sha256::double_sha256(body).0[..4]);
    bytes.put_slice(body);
    bytes
}

/// The body of `message`'s frame.
fn body_of(message: &Message) -> Vec<u8> {
    FrameCodec::default().encode(message).unwrap()[HEADER_LEN..].to_vec()
}

/// Where `bytes` first occur in `body`.
fn position(body: &[u8], bytes: &[u8]) -> usize {
    body.windows(bytes.len()).position(|w| w == bytes).expect("the bytes are encoded")
}

/// The wire is where bytes become types, and the signature type holds Schnorr
/// only: a body naming another signature scheme (tag 2 — the keyed hash older
/// builds accepted, which anyone could compute from the *public* key) in any
/// signature position is not a message. This is the datadir codec's rule too:
/// both decode signatures through `ng_chain::codec::read_signature`.
#[test]
fn a_body_naming_another_signature_scheme_is_not_a_message() {
    let codec = FrameCodec::default();
    let variants = every_variant(2);
    let carrier = |command: &str| variants.iter().find(|m| m.command() == command).unwrap().clone();
    let mut signatures = Vec::new();
    for message in [carrier("tx"), carrier("microblock"), carrier("cmpct"), carrier("poison")] {
        match &message {
            Message::Tx(tx) => signatures.extend(tx.inputs.iter().filter_map(|i| i.signature.clone())),
            Message::MicroBlock(m) => signatures.push(m.signature.clone()),
            Message::CmpctBlock(c) => signatures.push(c.signature.clone()),
            Message::Poison(p) => signatures.extend([p.signature_a.clone(), p.signature_b.clone()]),
            _ => unreachable!(),
        }
        let honest = body_of(&message);
        assert_eq!(codec.decode(&mut framed(&honest)), Ok(Some(message.clone())));
        for SignatureBytes::Schnorr(sig) in signatures.drain(..) {
            let mut forged = honest.clone();
            let tag = position(&honest, &sig) - 1;
            assert_eq!(forged[tag], 1, "the Schnorr tag");
            forged[tag] = 2;
            let verdict = codec.decode(&mut framed(&forged));
            assert_eq!(
                verdict,
                Err(CodecError::BadBody(BodyError::Malformed("signature tag"))),
                "{}",
                message.command()
            );
        }
    }
}

/// A public key crosses the wire as 33 unchecked bytes (decoding must not pay a
/// square root per key), so a frame may carry one that is no curve point. It
/// decodes; every check made under it fails closed instead of panicking.
#[test]
fn a_frame_carrying_an_off_curve_key_decodes_and_never_verifies() {
    let codec = FrameCodec::default();
    // x = 5: 5³ + 7 = 132 has no square root mod p.
    let mut off_curve = [0u8; 33];
    (off_curve[0], off_curve[32]) = (2, 5);
    assert!(ng_crypto::keys::PublicKey::from_compressed(off_curve).is_none());
    let signer = SchnorrSigner::new(KeyPair::from_id(1));
    let mut spend = TransactionBuilder::new()
        .input(OutPoint::new(sha256(b"coin"), 0))
        .output(Amount::from_sats(1), KeyPair::from_id(2).address())
        .build();
    spend.sign_all_inputs(&signer);
    let key_block = every_variant(3).into_iter().find(|m| m.command() == "keyblock").unwrap();
    let forge = |honest: &Message, key: [u8; 33]| {
        let mut forged = body_of(honest);
        let at = position(&forged, &key);
        forged[at..at + 33].copy_from_slice(&off_curve);
        codec.decode(&mut framed(&forged)).expect("a well-formed body").expect("one frame")
    };
    let Message::Tx(forged) = forge(&Message::Tx(Box::new(spend)), signer.public_key().to_compressed()) else {
        panic!("a tx frame decodes to a tx");
    };
    let key = forged.inputs[0].pubkey.expect("signed");
    assert!(key.point().is_none());
    let paid_to_its_hash = TxOutput { amount: Amount::from_sats(2), address: key.address() };
    assert!(!forged.verify_input(0, &paid_to_its_hash));
    let Message::KeyBlock(honest) = &key_block else { unreachable!() };
    let Message::KeyBlock(forged) = forge(&key_block, honest.leader_pubkey.to_compressed()) else {
        panic!("a keyblock frame decodes to a key block");
    };
    assert!(forged.leader_pubkey.point().is_none());
    let digest = sha256(b"a microblock header");
    let verdict = ng_crypto::signer::verify_signature(&forged.leader_pubkey, &digest, &signer.sign(&digest));
    assert_eq!(verdict, Err(ng_crypto::SchnorrError::InvalidPublicKey));
}

/// A body must end where its message does: one trailing byte after any variant
/// is refused.
#[test]
fn trailing_bytes_are_not_a_message() {
    let codec = FrameCodec::default();
    for message in every_variant(4) {
        let padded = [body_of(&message), vec![0]].concat();
        let verdict = codec.decode(&mut framed(&padded));
        assert_eq!(
            verdict,
            Err(CodecError::BadBody(BodyError::Malformed("trailing bytes"))),
            "{}",
            message.command()
        );
    }
}

/// A count is checked against the bytes that remain before anything is
/// allocated: 0xFFFF_FFFF written over any four bytes of any body decodes to an
/// error or to some message, never a panic — and never a reservation for four
/// billion items, which would abort the process. Every list-bearing variant is
/// refused as truncated when the lie lands on one of its counts.
#[test]
fn a_count_beyond_the_body_is_refused_without_allocating() {
    let codec = FrameCodec::default();
    let list_bearing = [
        "inv", "getdata", "keyblock", "microblock", "tx", "getheaders", "headers", "snapshot",
        "cmpct", "getblocktxn", "blocktxn", "ihave",
    ];
    for seed in [1u64, 5] {
        for message in every_variant(seed) {
            let body = body_of(&message);
            let mut refused = 0;
            for at in 1..body.len().saturating_sub(3) {
                let mut lying = body.clone();
                lying[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                let verdict = codec.decode(&mut framed(&lying));
                refused += (verdict == Err(CodecError::BadBody(BodyError::Truncated))) as usize;
            }
            let command = message.command();
            let snapshot_absent = matches!(message, Message::Snapshot(None));
            if list_bearing.contains(&command) && !snapshot_absent {
                assert!(refused > 0, "{command}: no count was refused");
            }
        }
    }
}

/// `Message::wire_size` — what SimNet charges for bandwidth without encoding a
/// frame — tracks the real frame length of every variant. The widest gap is a
/// snapshot's (its 32-byte chain work is modelled as 8 bytes); a synthetic
/// microblock, charged the byte count it declares, is not among the variants.
#[test]
fn the_cost_model_tracks_real_frame_lengths() {
    let codec = FrameCodec::default();
    for seed in [1u64, 2, 9] {
        for message in every_variant(seed) {
            let real = codec.encode(&message).unwrap().len() as i64;
            let modelled = message.wire_size() as i64;
            assert!(
                (real - modelled).abs() <= 28,
                "{}: frame {real} B, wire_size {modelled} B",
                message.command()
            );
        }
    }
}

#[test]
fn header_shorter_than_minimum_waits() {
    let codec = FrameCodec::default();
    for n in 0..HEADER_LEN {
        let mut buf = BytesMut::from(&b"NGRP\x01\x00\x00\x00\x00\x00\x00\x00"[..n.min(12)]);
        assert_eq!(codec.decode(&mut buf), Ok(None), "short header of {n} bytes");
    }
}
