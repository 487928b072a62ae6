//! The one byte codec: every format Rock stores or sends is written
//! with [`Writer`] and read back with [`Reader`].
//!
//! That covers the `.rkb` image container, every corpus entry and
//! content key, the sub-artifact frame header and snapshot pack, the
//! `rock serve` frames, and the config and result fingerprints. The
//! encoding is little-endian fixed-width integers, `f64`s as raw bits
//! (a result fingerprint must see distances *bit for bit*), `u128`s as
//! two `u64`s low word first, and strings and blobs prefixed with a
//! `u64` length. Decoding is fully bounds-checked: a truncated input
//! or a lying length yields a [`WireError`], never a panic, because
//! every input it reads is untrusted — an image from disk, a store
//! file after a crash, a frame from any client.

use std::fmt;

use crate::Addr;

/// A malformed input: truncated, or a field holds a value its reader
/// refuses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset the decoder had reached.
    pub offset: usize,
    /// What the decoder was trying to read.
    pub what: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed artifact: bad {} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for WireError {}

/// An append-only encoder.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends bytes as they are, with no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a `u128` as two little-endian `u64`s, low word first.
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Appends a `usize` as `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern.
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an address.
    pub fn addr(&mut self, a: Addr) {
        self.u64(a.value());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn blob(&mut self, b: &[u8]) {
        self.len(b.len());
        self.raw(b);
    }
}

/// A bounds-checked decoder over an untrusted byte slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts decoding at the front of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// The byte offset reached so far.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Returns `true` once every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Reads the next `n` bytes as they are.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.data.get(self.pos..end))
            .ok_or(WireError { offset: self.pos, what })?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let at = self.pos;
        self.bytes(N, what)?.try_into().map_err(|_| WireError { offset: at, what })
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads a `u128` written by [`Writer::u128`].
    pub fn u128(&mut self, what: &'static str) -> Result<u128, WireError> {
        let lo = self.u64(what)?;
        Ok(u128::from(lo) | (u128::from(self.u64(what)?) << 64))
    }

    /// Reads a `u64` length and sanity-checks it against the input
    /// (any element needs at least one byte, so a length beyond the
    /// input is a lie, not an allocation request).
    pub fn len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let at = self.pos;
        let v = self.u64(what)?;
        if v > self.data.len() as u64 {
            return Err(WireError { offset: at, what });
        }
        Ok(v as usize)
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self, what: &'static str) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.array(what)?))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64_bits(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads an address.
    pub fn addr(&mut self, what: &'static str) -> Result<Addr, WireError> {
        Ok(Addr::new(self.u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.len(what)?;
        let at = self.pos;
        let bytes = self.bytes(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError { offset: at, what })
    }

    /// Reads a length-prefixed byte blob.
    pub fn blob(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = self.len(what)?;
        Ok(self.bytes(n, what)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i32(-42);
        w.f64_bits(-0.0);
        w.addr(Addr::new(0x4000));
        w.string("héllo");
        w.len(3);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.i32("d").unwrap(), -42);
        assert_eq!(r.f64_bits("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.addr("f").unwrap(), Addr::new(0x4000));
        assert_eq!(r.string("g").unwrap(), "héllo");
        assert_eq!(r.len("h").unwrap(), 3);
        assert!(r.is_at_end());
    }

    #[test]
    fn u128_is_two_words_low_first() {
        let v = 0x0011_2233_4455_6677_8899_aabb_ccdd_eeffu128;
        let mut w = Writer::new();
        w.u128(v);
        w.raw(b"xy");
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..16], &v.to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u128("v").unwrap(), v);
        assert_eq!(r.offset(), 16);
        assert_eq!(r.bytes(2, "raw").unwrap(), b"xy");
        assert!(r.is_at_end());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u64(123);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        let err = r.u64("x").unwrap_err();
        assert_eq!(err, WireError { offset: 0, what: "x" });
        assert_eq!(err.to_string(), "malformed artifact: bad x at byte 0");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.bytes(usize::MAX, "huge").unwrap_err().offset, 0);
        assert!(r.bytes(9, "past the end").is_err());
        assert_eq!(r.offset(), 0, "a failed read consumes nothing");
    }

    #[test]
    fn lying_length_fields_are_rejected() {
        let mut w = Writer::new();
        w.len(1 << 40); // absurd element count over an 8-byte payload
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.len("count").is_err(), "length beyond payload must fail");
        // A string length that lies about remaining bytes also fails.
        let mut w = Writer::new();
        w.len(6);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(b"abc"); // promises 6, delivers 3
        let mut r = Reader::new(&bytes);
        assert!(r.string("s").is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut w = Writer::new();
        w.len(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Reader::new(&bytes).string("s").is_err());
    }
}
