//! Purpose-built binary codec for on-"disk" formats (WAL records, store
//! files, threshold payloads).
//!
//! A hand-rolled codec rather than serde: reproducing a storage system
//! includes its serialization layer, and the format must be stable and
//! self-delimiting so WAL-split can decode records written by a crashed
//! server.

use crate::types::{Mutation, MutationKind, RegionId, Timestamp};
use bytes::{BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

/// Decoding failure: the input was truncated or structurally invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    what: &'static str,
    offset: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {} at byte {}", self.what, self.offset)
    }
}

impl Error for DecodeError {}

/// Append-style encoder over a growable buffer.
#[derive(Default, Debug)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Creates an empty encoder whose buffer already holds `capacity`
    /// bytes — a caller that knows its output size never regrows it.
    pub fn with_capacity(capacity: usize) -> Encoder {
        Encoder {
            buf: BytesMut::with_capacity(capacity),
        }
    }

    /// Appends a fixed-width `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a fixed-width big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Appends a fixed-width big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Overwrites the four bytes at `at` (already written, e.g. a count
    /// left blank until it was known) with a big-endian `u32`.
    ///
    /// # Panics
    ///
    /// If fewer than `at + 4` bytes have been encoded.
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes with no length prefix (an already-encoded run).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Finishes encoding, returning the immutable buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// The bytes encoded so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-style decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes consumed so far (the cursor's offset into the input).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// A decoding failure at the cursor.
    pub fn error(&self, what: &'static str) -> DecodeError {
        DecodeError {
            what,
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.error(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_be_bytes(s.try_into().expect("length checked")))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_be_bytes(s.try_into().expect("length checked")))
    }

    /// Reads a length-prefixed byte string, borrowed from the input.
    pub fn get_slice(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_u32()? as usize;
        self.take(len, "bytes body")
    }

    /// Reads a length-prefixed byte string (copied out).
    pub fn get_bytes(&mut self) -> Result<Bytes, DecodeError> {
        self.get_slice().map(Bytes::copy_from_slice)
    }

    /// Whether the cursor consumed the entire input.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

pub(crate) const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// Encodes one cell write — row, column, and a value or (`None`) a
/// delete. WAL mutations and store-file entries share this wire form.
pub fn encode_cell(enc: &mut Encoder, row: &[u8], column: &[u8], value: Option<&[u8]>) {
    enc.put_bytes(row);
    enc.put_bytes(column);
    match value {
        Some(v) => {
            enc.put_u8(TAG_PUT);
            enc.put_bytes(v);
        }
        None => enc.put_u8(TAG_DELETE),
    }
}

/// Decodes one cell write encoded by [`encode_cell`] as `(row, column,
/// value)` borrowed from the input.
pub fn decode_cell<'a>(
    dec: &mut Decoder<'a>,
) -> Result<(&'a [u8], &'a [u8], Option<&'a [u8]>), DecodeError> {
    let row = dec.get_slice()?;
    let column = dec.get_slice()?;
    let value = match dec.get_u8()? {
        TAG_PUT => Some(dec.get_slice()?),
        TAG_DELETE => None,
        _ => return Err(dec.error("mutation tag")),
    };
    Ok((row, column, value))
}

/// Encodes one mutation.
pub fn encode_mutation(enc: &mut Encoder, m: &Mutation) {
    let value = match &m.kind {
        MutationKind::Put(v) => Some(&v[..]),
        MutationKind::Delete => None,
    };
    encode_cell(enc, &m.row, &m.column, value);
}

/// Decodes one mutation.
pub fn decode_mutation(dec: &mut Decoder<'_>) -> Result<Mutation, DecodeError> {
    let (row, column, value) = decode_cell(dec)?;
    Ok(Mutation {
        row: Bytes::copy_from_slice(row),
        column: Bytes::copy_from_slice(column),
        kind: match value {
            Some(v) => MutationKind::Put(Bytes::copy_from_slice(v)),
            None => MutationKind::Delete,
        },
    })
}

/// One durable write-ahead-log record: a transaction's mutations for one
/// region, stamped with the commit timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The region the mutations belong to.
    pub region: RegionId,
    /// The writing transaction's commit timestamp (also the version).
    pub ts: Timestamp,
    /// The mutations for this region.
    pub mutations: Vec<Mutation>,
}

impl WalRecord {
    /// Approximate wire size (an upper bound on the encoded size: the
    /// per-mutation and per-record allowances exceed the codec's framing).
    pub fn wire_size(&self) -> usize {
        24 + self
            .mutations
            .iter()
            .map(Mutation::wire_size)
            .sum::<usize>()
    }
}

/// Encodes a batch of WAL records into one DFS record.
pub fn encode_wal_batch(records: &[WalRecord]) -> Bytes {
    let size = 4 + records.iter().map(WalRecord::wire_size).sum::<usize>();
    let mut enc = Encoder::with_capacity(size);
    enc.put_u32(records.len() as u32);
    for r in records {
        enc.put_u32(r.region.0);
        enc.put_u64(r.ts.0);
        enc.put_u32(r.mutations.len() as u32);
        for m in &r.mutations {
            encode_mutation(&mut enc, m);
        }
    }
    enc.finish()
}

/// Decodes a batch previously encoded by [`encode_wal_batch`].
pub fn decode_wal_batch(buf: &[u8]) -> Result<Vec<WalRecord>, DecodeError> {
    let mut dec = Decoder::new(buf);
    let n = dec.get_u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let region = RegionId(dec.get_u32()?);
        let ts = Timestamp(dec.get_u64()?);
        let m = dec.get_u32()? as usize;
        let mut mutations = Vec::with_capacity(m);
        for _ in 0..m {
            mutations.push(decode_mutation(&mut dec)?);
        }
        out.push(WalRecord {
            region,
            ts,
            mutations,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                region: RegionId(1),
                ts: Timestamp(42),
                mutations: vec![
                    Mutation::put("row1", "f0", "hello"),
                    Mutation::delete("row2", "f1"),
                ],
            },
            WalRecord {
                region: RegionId(2),
                ts: Timestamp(43),
                mutations: vec![],
            },
        ]
    }

    #[test]
    fn wal_batch_roundtrip() {
        let records = sample_records();
        let encoded = encode_wal_batch(&records);
        let decoded = decode_wal_batch(&encoded).expect("decode");
        assert_eq!(decoded, records);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let encoded = encode_wal_batch(&[]);
        assert_eq!(decode_wal_batch(&encoded).unwrap(), vec![]);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let encoded = encode_wal_batch(&sample_records());
        for cut in [0, 1, 5, encoded.len() / 2, encoded.len() - 1] {
            let r = decode_wal_batch(&encoded[..cut]);
            if cut < encoded.len() {
                assert!(r.is_err(), "cut at {cut} must fail");
            }
        }
    }

    #[test]
    fn bad_tag_is_an_error() {
        let mut enc = Encoder::new();
        enc.put_u32(1); // one record
        enc.put_u32(0); // region
        enc.put_u64(0); // ts
        enc.put_u32(1); // one mutation
        enc.put_bytes(b"r");
        enc.put_bytes(b"c");
        enc.put_u8(99); // invalid tag
        assert!(decode_wal_batch(&enc.finish()).is_err());
    }

    #[test]
    fn primitive_roundtrips() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(123_456);
        enc.put_u64(u64::MAX - 3);
        enc.put_bytes(b"");
        enc.put_bytes(b"abc");
        let buf = enc.finish();
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 123_456);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.get_bytes().unwrap(), Bytes::new());
        assert_eq!(dec.get_bytes().unwrap(), Bytes::from_static(b"abc"));
        assert!(dec.is_at_end());
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn decode_error_displays() {
        let err = decode_wal_batch(&[1]).unwrap_err();
        assert!(err.to_string().contains("decode error"));
    }
}
