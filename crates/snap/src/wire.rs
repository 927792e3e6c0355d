//! The wire layer: little-endian primitives over a byte buffer, and the
//! structured errors a hostile buffer can produce.
//!
//! Everything here upholds two properties the snapshot format promises:
//!
//! * **Determinism.** Encoding is a pure function of the value — no
//!   maps are walked in hash order (the state types are canonically
//!   sorted before they reach this layer), no padding, no timestamps.
//!   Encoding the same value twice yields identical bytes.
//! * **Totality of decoding.** The decoder never panics and never
//!   allocates more than the buffer could possibly justify: every read
//!   is bounds-checked, and every length prefix is validated against
//!   the bytes actually remaining (with a per-element lower bound)
//!   before any allocation. Corrupted, truncated, or adversarial input
//!   produces a [`SnapError`], nothing else.

use std::fmt;

/// Decoding (and envelope-validation) failures. Every way a snapshot
/// blob can be rejected, as data — never a panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapError {
    /// The buffer ended before a read of `need` more bytes (`have`
    /// remained). Also produced for length prefixes that could not fit
    /// in the remaining bytes.
    Truncated { need: usize, have: usize },
    /// The leading magic bytes are not a snapshot's.
    BadMagic,
    /// The format version is not one this build reads.
    UnsupportedVersion(u32),
    /// An enum/option tag byte was out of range for `what`.
    BadTag { what: &'static str, tag: u8 },
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A length prefix for `what` exceeded the format's cap.
    TooLong { what: &'static str, len: u64 },
    /// The envelope parsed but `n` bytes followed it.
    TrailingBytes(usize),
    /// The trailing checksum does not match the bytes before it.
    ChecksumMismatch,
    /// The VM register mask names register `n`, whose value is zero —
    /// a zero register is encoded by leaving its bit clear, so every
    /// state has exactly one encoding.
    ZeroRegister(usize),
    /// The snapshot's program digest does not match the program it is
    /// being restored against.
    DigestMismatch,
    /// The engine byte and the state payload belong to different
    /// families.
    FamilyMismatch,
    /// The state decoded but the engine rejected it at restore time.
    Restore(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { need, have } => {
                write!(
                    f,
                    "truncated snapshot: needed {need} more bytes, had {have}"
                )
            }
            SnapError::BadMagic => write!(f, "not a cmm snapshot (bad magic)"),
            SnapError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads version {})",
                    crate::VERSION
                )
            }
            SnapError::BadTag { what, tag } => write!(f, "bad {what} tag byte {tag}"),
            SnapError::BadUtf8 => write!(f, "snapshot string is not valid UTF-8"),
            SnapError::TooLong { what, len } => {
                write!(f, "{what} length {len} exceeds the format cap")
            }
            SnapError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the snapshot"),
            SnapError::ChecksumMismatch => write!(f, "snapshot checksum mismatch (corrupted blob)"),
            SnapError::ZeroRegister(n) => {
                write!(f, "register mask names r{n}, whose value is zero")
            }
            SnapError::DigestMismatch => {
                write!(
                    f,
                    "snapshot was taken over a different program (digest mismatch)"
                )
            }
            SnapError::FamilyMismatch => {
                write!(
                    f,
                    "engine byte and state payload belong to different families"
                )
            }
            SnapError::Restore(e) => write!(f, "state rejected at restore: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Longest string the format will carry (names, procedure names).
pub(crate) const MAX_STR: u64 = 1 << 16;

/// The append-only encoder.
#[derive(Default)]
pub(crate) struct Enc {
    pub buf: Vec<u8>,
}

impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    /// A length prefix (counts, not byte sizes).
    pub fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }

    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// The bounds-checked reader.
pub(crate) struct Dec<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Dec<'b> {
    pub fn new(buf: &'b [u8]) -> Dec<'b> {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let bytes = self.take(16)?.try_into().expect("took 16 bytes");
        Ok(u128::from_le_bytes(bytes))
    }

    pub fn bool(&mut self, what: &'static str) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag { what, tag }),
        }
    }

    pub fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, SnapError> {
        if self.bool(what)? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// A length prefix, validated so that `n` elements of at least
    /// `min_elem_bytes` each could still fit in the remaining buffer —
    /// the guard that keeps a hostile prefix from forcing a huge
    /// allocation.
    pub fn len(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.u32()? as usize;
        let need = n.saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(SnapError::Truncated {
                need,
                have: self.remaining(),
            });
        }
        let _ = what;
        Ok(n)
    }

    /// A string, borrowed from the buffer: the caller makes the one
    /// owned copy it needs (a `Name`, a `String`).
    pub fn str(&mut self, what: &'static str) -> Result<&'b str, SnapError> {
        let n = self.len(what, 1)?;
        if n as u64 > MAX_STR {
            return Err(SnapError::TooLong {
                what,
                len: n as u64,
            });
        }
        std::str::from_utf8(self.take(n)?).map_err(|_| SnapError::BadUtf8)
    }

    /// Fails unless the whole buffer was consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// The odd multiplier of the checksum's word fold (2^64 / φ).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// One word of the checksum fold. For a fixed running sum the step is
/// a bijection of the word (xor, then a multiply by an odd constant
/// and a rotate, each invertible), and for a fixed word a bijection of
/// the sum — so changing any one word of the input changes the result.
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MIX).rotate_left(29)
}

/// The trailing integrity checksum, eight bytes at a time: each
/// little-endian word is folded in, then the zero-padded tail and the
/// length (so a tail that differs only in trailing zeros still
/// differs), then a final avalanche (MurmurHash3's `fmix64`, itself a
/// bijection) spreads every input bit over the whole sum.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = 0x243f_6a88_85a3_08d3;
    for w in &mut words {
        let word = w.try_into().expect("chunks_exact(8) yields 8 bytes");
        h = fold(h, u64::from_le_bytes(word));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = fold(h, u64::from_le_bytes(tail));
    h = fold(h, bytes.len() as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}
