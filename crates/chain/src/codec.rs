//! The binary object codec shared by the wire and the datadir.
//!
//! One byte format: `ng_net`'s frames and `ng_storage`'s records carry the same
//! little-endian encodings of transactions, outputs, UTXO entries and signatures
//! (block and poison encoders build on these in `ng_core::codec`), and both wrap
//! their bodies in the same [`frame`]:
//!
//! ```text
//! magic (4) ‖ length (4, LE) ‖ checksum (4) ‖ body (length bytes)
//! ```
//!
//! where the checksum is the first four bytes of the body's double-SHA-256 — the
//! Bitcoin wire construction, with a magic per stream so a block file can never be
//! mistaken for an undo file or a socket.
//!
//! Decoding is reachable from peer input, so it never panics: every read is bounds
//! checked, every declared count is bounded by the bytes that remain before
//! anything is allocated, tags outside their range are [`CodecError::Malformed`],
//! and [`Reader::finish`] refuses trailing bytes. A public key is read as 33 raw
//! bytes ([`PublicKey::from_compressed_unchecked`]): decoding takes no square
//! root, and verification under an off-curve key fails closed.

use crate::amount::Amount;
use crate::transaction::{OutPoint, Transaction, TxInput, TxOutput};
use crate::utxo::UtxoEntry;
use ng_crypto::keys::{Address, PublicKey};
use ng_crypto::sha256::{double_sha256, Hash256};
use ng_crypto::signer::SignatureBytes;
use ng_crypto::u256::U256;

/// Why bytes could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before the record did (or a count claims more items than
    /// the remaining bytes can hold).
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

/// Frame header size: magic, length, checksum.
pub const FRAME_HEADER: usize = 12;

/// The frame checksum of a body.
pub fn checksum(body: &[u8]) -> [u8; 4] {
    let digest = double_sha256(body).0;
    [digest[0], digest[1], digest[2], digest[3]]
}

/// Builds one frame: `write_body` appends the body after a reserved header, which
/// is then filled in. `size_hint` is the expected body length.
pub fn frame(magic: [u8; 4], size_hint: usize, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + size_hint);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&[0; 8]);
    write_body(&mut out);
    let len = (out.len() - FRAME_HEADER) as u32;
    let sum = checksum(&out[FRAME_HEADER..]);
    out[4..8].copy_from_slice(&len.to_le_bytes());
    out[8..FRAME_HEADER].copy_from_slice(&sum);
    out
}

/// A parsed frame header; nothing about the body is checked yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// The stream magic.
    pub magic: [u8; 4],
    /// Declared body length.
    pub len: usize,
    /// Declared body checksum.
    pub checksum: [u8; 4],
}

impl FrameHeader {
    /// Parses the header at the front of `bytes`; `None` if fewer than
    /// [`FRAME_HEADER`] bytes are there.
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes.get(..FRAME_HEADER)?);
        Some(FrameHeader {
            magic: r.array().ok()?,
            len: r.u32().ok()? as usize,
            checksum: r.array().ok()?,
        })
    }
}

/// A cursor over encoded bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Ends a record: bytes left over are an error, not ignored.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CodecError::Malformed("trailing bytes")),
        }
    }

    /// Reads the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a fixed-size byte array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a 32-byte hash.
    pub fn hash(&mut self) -> Result<Hash256, CodecError> {
        self.array().map(Hash256)
    }

    /// Reads a big-endian 256-bit integer.
    pub fn u256(&mut self) -> Result<U256, CodecError> {
        Ok(U256::from_be_bytes(&self.array()?))
    }

    /// Reads a 0/1 flag.
    pub fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed(what)),
        }
    }

    /// Reads a u32-count-prefixed collection. The declared count is bounded by the
    /// bytes actually remaining (each item takes at least `min_item_bytes`) before
    /// anything is allocated, so a corrupt or hostile count cannot reserve memory.
    pub fn counted<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

/// Appends a tag byte (a command, a kind, a presence flag) and returns the buffer
/// for the fields it introduces.
pub fn tagged(out: &mut Vec<u8>, tag: u8) -> &mut Vec<u8> {
    out.push(tag);
    out
}

/// Appends a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a collection: the u32 count [`Reader::counted`] reads, then each item.
pub fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    items.iter().for_each(|item| put(out, item));
}

/// Appends a 32-byte hash.
pub fn put_hash(out: &mut Vec<u8>, h: &Hash256) {
    out.extend_from_slice(&h.0);
}

/// Appends a big-endian 256-bit integer.
pub fn put_u256(out: &mut Vec<u8>, v: &U256) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends an outpoint (36 bytes).
pub fn put_outpoint(out: &mut Vec<u8>, op: &OutPoint) {
    put_hash(out, &op.txid);
    put_u32(out, op.vout);
}

/// Reads an outpoint.
pub fn read_outpoint(r: &mut Reader<'_>) -> Result<OutPoint, CodecError> {
    Ok(OutPoint::new(r.hash()?, r.u32()?))
}

/// Appends an output (40 bytes).
pub fn put_output(out: &mut Vec<u8>, o: &TxOutput) {
    put_u64(out, o.amount.sats());
    put_hash(out, &o.address.0);
}

/// Reads an output.
pub fn read_output(r: &mut Reader<'_>) -> Result<TxOutput, CodecError> {
    Ok(TxOutput::new(Amount::from_sats(r.u64()?), Address(r.hash()?)))
}

/// Appends a public key's 33 compressed bytes.
pub fn put_pubkey(out: &mut Vec<u8>, pk: &PublicKey) {
    out.extend_from_slice(&pk.to_compressed());
}

/// Reads a public key as 33 unchecked bytes (no square root; see the module docs).
pub fn read_pubkey(r: &mut Reader<'_>) -> Result<PublicKey, CodecError> {
    r.array().map(PublicKey::from_compressed_unchecked)
}

/// Appends a signature: scheme tag 1 (Schnorr, the only scheme) and 65 bytes.
pub fn put_signature(out: &mut Vec<u8>, sig: &SignatureBytes) {
    let SignatureBytes::Schnorr(bytes) = sig;
    out.push(1);
    out.extend_from_slice(bytes);
}

/// Reads a signature; any scheme tag but Schnorr's is malformed.
pub fn read_signature(r: &mut Reader<'_>) -> Result<SignatureBytes, CodecError> {
    if r.u8()? != 1 {
        return Err(CodecError::Malformed("signature tag"));
    }
    r.array().map(SignatureBytes::Schnorr)
}

/// Encoded size of a coin: an outpoint (36 bytes) plus its UTXO entry (49).
pub const COIN_BYTES: usize = 36 + 49;

/// Appends a coin: an outpoint and the UTXO entry it holds.
pub fn put_coin(out: &mut Vec<u8>, (outpoint, entry): &(OutPoint, UtxoEntry)) {
    put_outpoint(out, outpoint);
    put_output(out, &entry.output);
    put_u64(out, entry.height);
    out.push(entry.coinbase as u8);
}

/// Reads a coin.
pub fn read_coin(r: &mut Reader<'_>) -> Result<(OutPoint, UtxoEntry), CodecError> {
    let outpoint = read_outpoint(r)?;
    let (output, height, coinbase) = (read_output(r)?, r.u64()?, r.flag("coinbase flag")?);
    Ok((outpoint, UtxoEntry { output, height, coinbase }))
}

/// Appends a transaction: [`Transaction::serialize`]'s layout plus a scheme tag
/// per signature. Unlike the hashing form it has a decoder.
pub fn put_transaction(out: &mut Vec<u8>, tx: &Transaction) {
    put_transaction_as(out, tx, true);
}

/// The one transaction layout, with or without signature scheme tags (the
/// hashing form that txids commit to has none).
pub(crate) fn put_transaction_as(out: &mut Vec<u8>, tx: &Transaction, scheme_tags: bool) {
    put_list(out, &tx.inputs, |out, input| {
        put_outpoint(out, &input.outpoint);
        out.push(input.pubkey.is_some() as u8);
        if let Some(pk) = &input.pubkey {
            put_pubkey(out, pk);
        }
        out.push(input.signature.is_some() as u8);
        if let Some(SignatureBytes::Schnorr(sig)) = &input.signature {
            if scheme_tags {
                out.push(1);
            }
            out.extend_from_slice(sig);
        }
    });
    put_list(out, &tx.outputs, put_output);
    put_u32(out, tx.payload.len() as u32);
    out.extend_from_slice(&tx.payload);
}

/// Smallest encoded transaction: three empty counts.
pub const MIN_TX_BYTES: usize = 12;

/// Reads a transaction.
pub fn read_transaction(r: &mut Reader<'_>) -> Result<Transaction, CodecError> {
    let inputs = r.counted(38, |r| {
        Ok(TxInput {
            outpoint: read_outpoint(r)?,
            pubkey: r.flag("pubkey tag")?.then(|| read_pubkey(r)).transpose()?,
            signature: r.flag("signature presence tag")?.then(|| read_signature(r)).transpose()?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TransactionBuilder;
    use ng_crypto::keys::KeyPair;
    use ng_crypto::sha256::sha256;
    use ng_crypto::signer::SchnorrSigner;

    fn signed_tx() -> Transaction {
        let mut tx = TransactionBuilder::new()
            .input(OutPoint::new(sha256(b"coin"), 1))
            .output(Amount::from_sats(7), KeyPair::from_id(2).address())
            .payload(vec![1, 2, 3])
            .build();
        tx.sign_all_inputs(&SchnorrSigner::new(KeyPair::from_id(1)));
        tx
    }

    #[test]
    fn a_transaction_round_trips_and_every_cut_errors() {
        let tx = signed_tx();
        let mut bytes = Vec::new();
        put_transaction(&mut bytes, &tx);
        let mut r = Reader::new(&bytes);
        assert_eq!(read_transaction(&mut r), Ok(tx));
        assert_eq!(r.finish(), Ok(()));
        for cut in 0..bytes.len() {
            assert!(read_transaction(&mut Reader::new(&bytes[..cut])).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn counts_beyond_the_remaining_bytes_are_refused_before_allocating() {
        // Four billion inputs declared in a 4-byte body.
        let bytes = u32::MAX.to_le_bytes();
        assert_eq!(read_transaction(&mut Reader::new(&bytes)), Err(CodecError::Truncated));
        let mut r = Reader::new(&bytes);
        assert_eq!(r.counted(1, Reader::u8), Err(CodecError::Truncated));
    }

    #[test]
    fn trailing_bytes_and_bad_flags_are_malformed() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(CodecError::Malformed("trailing bytes")));
        assert_eq!(r.flag("flag"), Err(CodecError::Malformed("flag")));
        assert_eq!(r.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn frames_carry_length_and_checksum() {
        let framed = frame(*b"TEST", 0, |out| out.extend_from_slice(b"body"));
        let header = FrameHeader::parse(&framed).unwrap();
        assert_eq!(header.magic, *b"TEST");
        assert_eq!(header.len, 4);
        assert_eq!(header.checksum, checksum(b"body"));
        assert_eq!(&framed[FRAME_HEADER..], b"body");
        assert_eq!(FrameHeader::parse(&framed[..FRAME_HEADER - 1]), None);
    }
}
