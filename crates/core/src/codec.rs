//! Binary encoders for Bitcoin-NG's own objects — both block kinds and
//! [`PoisonTransaction`] — over the primitives of [`ng_chain::codec`], whose
//! guarantees (no panics, counts bounded by the remaining bytes, unchecked public
//! keys) they inherit. The wire (`ng_net`) and the datadir (`ng_storage`) use
//! these same functions.

use crate::block::{KeyBlock, MicroBlock, MicroHeader, NgBlock};
use crate::poison::PoisonTransaction;
use ng_chain::amount::Amount;
use ng_chain::codec::{
    put_hash, put_list, put_output, put_pubkey, put_signature, put_transaction, put_u256, put_u64,
    read_output, read_pubkey, read_signature, read_transaction, tagged, CodecError, Reader,
    MIN_TX_BYTES,
};
use ng_chain::payload::Payload;
use ng_crypto::pow::Target;

/// Appends a key block's fields before its coinbase (the proof-of-work preimage
/// shares them, see [`KeyBlock::header_bytes`]).
pub fn put_key_fields(out: &mut Vec<u8>, kb: &KeyBlock) {
    put_hash(out, &kb.prev);
    put_u64(out, kb.time_ms);
    put_u256(out, &kb.target.0);
    put_u64(out, kb.nonce);
    put_u64(out, kb.miner);
    put_pubkey(out, &kb.leader_pubkey);
}

/// Appends a key block.
pub fn put_key_block(out: &mut Vec<u8>, kb: &KeyBlock) {
    put_key_fields(out, kb);
    put_list(out, &kb.coinbase, put_output);
}

/// Reads a key block.
pub fn read_key_block(r: &mut Reader<'_>) -> Result<KeyBlock, CodecError> {
    Ok(KeyBlock {
        prev: r.hash()?,
        time_ms: r.u64()?,
        target: Target(r.u256()?),
        nonce: r.u64()?,
        miner: r.u64()?,
        leader_pubkey: read_pubkey(r)?,
        coinbase: r.counted(40, read_output)?,
    })
}

/// Appends a microblock header (80 bytes).
pub fn put_micro_header(out: &mut Vec<u8>, header: &MicroHeader) {
    put_hash(out, &header.prev);
    put_u64(out, header.time_ms);
    put_hash(out, &header.payload_digest);
    put_u64(out, header.leader);
}

/// Reads a microblock header.
pub fn read_micro_header(r: &mut Reader<'_>) -> Result<MicroHeader, CodecError> {
    Ok(MicroHeader {
        prev: r.hash()?,
        time_ms: r.u64()?,
        payload_digest: r.hash()?,
        leader: r.u64()?,
    })
}

/// Appends a microblock: header, signature, then the payload under its tag.
pub fn put_microblock(out: &mut Vec<u8>, mb: &MicroBlock) {
    put_micro_header(out, &mb.header);
    put_signature(out, &mb.signature);
    match &mb.payload {
        Payload::Transactions(txs) => put_list(tagged(out, 0), txs, put_transaction),
        Payload::Synthetic { bytes, tx_count, total_fees, tag } => {
            out.push(1);
            for v in [*bytes, *tx_count, total_fees.sats(), *tag] {
                put_u64(out, v);
            }
        }
    }
}

/// Reads a microblock.
pub fn read_microblock(r: &mut Reader<'_>) -> Result<MicroBlock, CodecError> {
    let (header, signature) = (read_micro_header(r)?, read_signature(r)?);
    let payload = match r.u8()? {
        0 => Payload::Transactions(r.counted(MIN_TX_BYTES, read_transaction)?),
        1 => Payload::Synthetic {
            bytes: r.u64()?,
            tx_count: r.u64()?,
            total_fees: Amount::from_sats(r.u64()?),
            tag: r.u64()?,
        },
        _ => return Err(CodecError::Malformed("payload tag")),
    };
    Ok(MicroBlock { header, payload, signature })
}

/// Appends either block kind under a kind byte (0 key, 1 micro).
pub fn put_block(out: &mut Vec<u8>, block: &NgBlock) {
    match block {
        NgBlock::Key(kb) => put_key_block(tagged(out, 0), kb),
        NgBlock::Micro(mb) => put_microblock(tagged(out, 1), mb),
    }
}

/// Reads either block kind.
pub fn read_block(r: &mut Reader<'_>) -> Result<NgBlock, CodecError> {
    match r.u8()? {
        0 => read_key_block(r).map(NgBlock::Key),
        1 => read_microblock(r).map(NgBlock::Micro),
        _ => Err(CodecError::Malformed("block kind")),
    }
}

/// Appends a poison transaction: both signed headers, then the two identities.
pub fn put_poison(out: &mut Vec<u8>, poison: &PoisonTransaction) {
    put_micro_header(out, &poison.header_a);
    put_signature(out, &poison.signature_a);
    put_micro_header(out, &poison.header_b);
    put_signature(out, &poison.signature_b);
    put_u64(out, poison.accused_leader);
    put_u64(out, poison.poisoner);
}

/// Reads a poison transaction.
pub fn read_poison(r: &mut Reader<'_>) -> Result<PoisonTransaction, CodecError> {
    Ok(PoisonTransaction {
        header_a: read_micro_header(r)?,
        signature_a: read_signature(r)?,
        header_b: read_micro_header(r)?,
        signature_b: read_signature(r)?,
        accused_leader: r.u64()?,
        poisoner: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ng_chain::transaction::{OutPoint, TransactionBuilder, TxOutput};
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::SchnorrSigner;

    fn micro(seq: u64, payload: Payload) -> MicroBlock {
        let header = MicroHeader {
            prev: sha256(b"parent"),
            time_ms: seq,
            payload_digest: payload.digest(),
            leader: 1,
        };
        MicroBlock {
            signature: SchnorrSigner::new(KeyPair::from_id(1)).sign(&header.signing_hash()),
            header,
            payload,
        }
    }

    fn round_trip<T: PartialEq + std::fmt::Debug>(
        value: &T,
        put: fn(&mut Vec<u8>, &T),
        read: fn(&mut Reader<'_>) -> Result<T, CodecError>,
    ) {
        let mut bytes = Vec::new();
        put(&mut bytes, value);
        let mut r = Reader::new(&bytes);
        assert_eq!(read(&mut r).as_ref(), Ok(value));
        assert_eq!(r.finish(), Ok(()));
        for cut in 0..bytes.len() {
            assert!(read(&mut Reader::new(&bytes[..cut])).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn blocks_and_poisons_round_trip_and_every_cut_errors() {
        let kp = KeyPair::from_id(3);
        let key = NgBlock::Key(KeyBlock {
            prev: sha256(b"k"),
            time_ms: 9,
            target: Target::regtest(),
            nonce: 4,
            miner: 3,
            leader_pubkey: kp.public,
            coinbase: vec![TxOutput::new(Amount::from_coins(25), kp.address())],
        });
        let tx = TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"coin"), 0))
            .output(Amount::from_sats(5), kp.address())
            .build();
        let real = micro(1, Payload::Transactions(vec![tx]));
        let synthetic = micro(
            2,
            Payload::Synthetic {
                bytes: 100,
                tx_count: 1,
                total_fees: Amount::from_sats(3),
                tag: 7,
            },
        );
        let poison = PoisonTransaction::from_conflict(&real, &synthetic, 5).expect("a conflict");
        for block in [key, NgBlock::Micro(real), NgBlock::Micro(synthetic)] {
            round_trip(&block, put_block, read_block);
        }
        round_trip(&poison, put_poison, read_poison);
    }

    #[test]
    fn unknown_tags_are_malformed() {
        let mut bytes = vec![2];
        assert_eq!(read_block(&mut Reader::new(&bytes)), Err(CodecError::Malformed("block kind")));
        bytes = Vec::new();
        put_block(&mut bytes, &NgBlock::Micro(micro(1, Payload::empty())));
        let payload_tag = 1 + 80 + 66;
        bytes[payload_tag] = 9;
        assert_eq!(read_block(&mut Reader::new(&bytes)), Err(CodecError::Malformed("payload tag")));
    }
}
