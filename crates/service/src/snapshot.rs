//! Compact, versioned byte format for engine-state snapshots.
//!
//! The incremental-session service (this crate) evicts cold
//! sessions under a memory budget by serializing them to bytes and
//! rebuilding them on the next request (DESIGN.md §15). This module is
//! the *codec* layer of that feature: a length-checked little-endian
//! writer/reader pair with LEB128 varints, a [`Value`] codec, and a
//! framed container — magic, format version, body, trailing checksum —
//! so that a snapshot taken by one build can be refused (not
//! misinterpreted) by an incompatible one.
//!
//! What goes *into* the body is the embedder's business: the v1
//! service snapshot stores the session's input state and edit history
//! and re-runs the program on restore (the paper's from-scratch run is
//! always a correct fallback), rather than attempting to serialize the
//! trace, order-maintenance structure, and memo tables bit-for-bit.
//! The container does not know or care.
//!
//! Every decode path returns a typed [`SnapshotError`] — corrupted or
//! truncated input must never panic, because snapshot bytes cross
//! process and version boundaries (warm restart from disk).
//!
//! # Examples
//!
//! ```
//! use ceal_service::snapshot::{SnapshotReader, SnapshotWriter};
//! use ceal_runtime::Value;
//!
//! let mut w = SnapshotWriter::new();
//! w.varint(3);
//! w.value(Value::Int(-7));
//! w.str("sum");
//! let bytes = w.finish();
//!
//! let mut r = SnapshotReader::new(&bytes).unwrap();
//! assert_eq!(r.varint().unwrap(), 3);
//! assert_eq!(r.value().unwrap(), Value::Int(-7));
//! assert_eq!(r.str().unwrap(), "sum");
//! r.expect_end().unwrap();
//! ```

use std::fmt;

use ceal_runtime::value::{FuncId, Loc, ModRef, StrId, Value};

/// The 8-byte magic prefix of every snapshot.
pub const MAGIC: [u8; 8] = *b"CEALSNAP";

/// The current container format version. Bump when the *framing*
/// changes; embedders version their body payloads separately (the
/// service writes its own section tag, DESIGN.md §15).
pub const VERSION: u16 = 1;

/// Decode-side failures. Encoding is infallible (it only appends to a
/// `Vec<u8>`); decoding validates everything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The container was written by an unknown (usually newer) format
    /// version.
    UnsupportedVersion(u16),
    /// The input ended before a read completed: `need` more bytes at
    /// offset `at`.
    Truncated {
        /// Byte offset at which the short read happened.
        at: usize,
        /// Number of bytes the read still needed.
        need: usize,
    },
    /// The trailing checksum does not match the body — bytes were
    /// flipped in transit or at rest.
    BadChecksum {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the received body.
        computed: u64,
    },
    /// Structurally invalid content: an unknown tag, an over-long
    /// varint, a non-UTF-8 string, an out-of-range length.
    Corrupt(String),
    /// [`SnapshotReader::expect_end`] found unread bytes — the payload
    /// is longer than the decoder understands.
    TrailingBytes(usize),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a CEAL snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::Truncated { at, need } => {
                write!(
                    f,
                    "truncated snapshot: needed {need} more byte(s) at offset {at}"
                )
            }
            SnapshotError::BadChecksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Corrupt(d) => write!(f, "corrupt snapshot: {d}"),
            SnapshotError::TrailingBytes(n) => {
                write!(
                    f,
                    "snapshot has {n} trailing byte(s) after the decoded payload"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Order-sensitive checksum over the framed bytes (splitmix64-style
/// mixing folded over 8-byte chunks). Not cryptographic — it guards
/// against torn writes and bit rot, the same way the event-stream
/// digest guards trace equivalence.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let mut z = h ^ u64::from_le_bytes(word);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Value-codec tags (one byte each). Stable across versions: new tags
/// may be appended, existing ones never renumbered.
const TAG_NIL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_PTR: u8 = 3;
const TAG_MODREF: u8 = 4;
const TAG_FUNC: u8 = 5;
const TAG_STR: u8 = 6;

/// Appends framed snapshot bytes: header first, then whatever the
/// embedder writes, then a checksum trailer on [`SnapshotWriter::finish`].
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot: writes the magic and format version.
    pub fn new() -> Self {
        let mut w = SnapshotWriter {
            buf: Vec::with_capacity(64),
        };
        w.buf.extend_from_slice(&MAGIC);
        w.buf.extend_from_slice(&VERSION.to_le_bytes());
        w
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u64` (fixed 8 bytes; used where the
    /// value is uniformly distributed, e.g. seeds, so a varint would
    /// not help).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an unsigned LEB128 varint (1 byte for values < 128).
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Appends a signed integer, zigzag-encoded then varint-framed.
    pub fn ivarint(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a [`Value`] (tag byte + payload).
    ///
    /// Handle-carrying values (`Ptr`, `ModRef`, `Func`, `Str`) encode
    /// their raw ids; they are only meaningful to an embedder that
    /// deterministically re-creates the matching engine state on
    /// restore (the service replays the session's history, so ids
    /// regenerate identically).
    pub fn value(&mut self, v: Value) {
        match v {
            Value::Nil => self.u8(TAG_NIL),
            Value::Int(i) => {
                self.u8(TAG_INT);
                self.ivarint(i);
            }
            Value::Float(f) => {
                self.u8(TAG_FLOAT);
                self.u64(f.to_bits());
            }
            Value::Ptr(Loc(p)) => {
                self.u8(TAG_PTR);
                self.varint(p as u64);
            }
            Value::ModRef(ModRef(m)) => {
                self.u8(TAG_MODREF);
                self.varint(m as u64);
            }
            Value::Func(FuncId(f)) => {
                self.u8(TAG_FUNC);
                self.varint(f as u64);
            }
            Value::Str(StrId(s)) => {
                self.u8(TAG_STR);
                self.varint(s as u64);
            }
        }
    }

    /// Number of bytes written so far (header included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing beyond the header has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == MAGIC.len() + 2
    }

    /// Seals the snapshot: appends the checksum trailer and returns the
    /// finished bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Length-checked reader over framed snapshot bytes.
///
/// Construction validates the frame (magic, version, checksum); the
/// read methods then mirror [`SnapshotWriter`] one-to-one.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the frame and positions the reader at the first body
    /// byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::Truncated`] (shorter than header + trailer), or
    /// [`SnapshotError::BadChecksum`].
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let header = MAGIC.len() + 2;
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated {
                at: bytes.len(),
                need: MAGIC.len() - bytes.len(),
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < header + 8 {
            return Err(SnapshotError::Truncated {
                at: bytes.len(),
                need: header + 8 - bytes.len(),
            });
        }
        let version = u16::from_le_bytes([bytes[MAGIC.len()], bytes[MAGIC.len() + 1]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let (framed, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        let computed = checksum(framed);
        if stored != computed {
            return Err(SnapshotError::BadChecksum { stored, computed });
        }
        Ok(SnapshotReader {
            body: framed,
            pos: header,
        })
    }

    /// Bytes left before the checksum trailer.
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    /// Fails with [`SnapshotError::TrailingBytes`] unless the payload
    /// was consumed exactly.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapshotError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                at: self.pos,
                need: n - self.remaining(),
            });
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an unsigned LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let payload = (b & 0x7F) as u64;
            if shift == 63 && payload > 1 {
                return Err(SnapshotError::Corrupt("varint overflows u64".into()));
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(SnapshotError::Corrupt("varint longer than 10 bytes".into()))
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn ivarint(&mut self) -> Result<i64, SnapshotError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "byte-string length {len} exceeds {} remaining",
                self.remaining()
            )));
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8".into()))
    }

    fn id32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("{what} id {v} exceeds u32")))
    }

    /// Reads a [`Value`] written by [`SnapshotWriter::value`].
    pub fn value(&mut self) -> Result<Value, SnapshotError> {
        Ok(match self.u8()? {
            TAG_NIL => Value::Nil,
            TAG_INT => Value::Int(self.ivarint()?),
            TAG_FLOAT => Value::Float(f64::from_bits(self.u64()?)),
            TAG_PTR => Value::Ptr(Loc(self.id32("ptr")?)),
            TAG_MODREF => Value::ModRef(ModRef(self.id32("modref")?)),
            TAG_FUNC => Value::Func(FuncId(self.id32("func")?)),
            TAG_STR => Value::Str(StrId(self.id32("str")?)),
            t => return Err(SnapshotError::Corrupt(format!("unknown value tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let bytes = SnapshotWriter::new().finish();
        let r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(r.remaining(), 0);
        r.expect_end().unwrap();
    }

    #[test]
    fn varint_boundaries() {
        let cases = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut w = SnapshotWriter::new();
        for &c in &cases {
            w.varint(c);
        }
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        for &c in &cases {
            assert_eq!(r.varint().unwrap(), c);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn single_bit_flip_is_caught() {
        let mut w = SnapshotWriter::new();
        w.str("payload");
        let mut bytes = w.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        match SnapshotReader::new(&bytes) {
            Err(SnapshotError::BadChecksum { .. }) => {}
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }
}
