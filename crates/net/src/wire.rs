//! Minimal byte-buffer primitives for the wire codecs.
//!
//! A self-contained replacement for the subset of the `bytes` crate the
//! header codecs use: a growable write buffer ([`BytesMut`]) with big-endian
//! `put_*` appenders, and a [`Buf`] reader trait implemented for `&[u8]`
//! that consumes from the front. Keeping this in-repo removes the external
//! dependency without changing any codec code shape.

use std::ops::{Deref, DerefMut};

/// Growable byte buffer with big-endian append operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { inner: Vec::new() }
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            inner: Vec::with_capacity(cap),
        }
    }

    /// Append raw bytes.
    #[inline]
    pub fn put_slice(&mut self, s: &[u8]) {
        self.inner.extend_from_slice(s);
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.inner.push(v);
    }

    /// Append a big-endian u16.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.inner.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.inner.extend_from_slice(&v.to_be_bytes());
    }

    /// Grow (zero-filling) or shrink to `len` bytes.
    pub fn resize(&mut self, len: usize, fill: u8) {
        self.inner.resize(len, fill);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut { inner: v }
    }
}

/// Front-consuming reader operations, implemented for `&[u8]`.
///
/// The decode idiom is `fn decode(buf: &mut &[u8])`: reads narrow the slice
/// in place, so the caller sees exactly the unconsumed remainder.
pub trait Buf {
    /// Drop `n` bytes from the front.
    fn advance(&mut self, n: usize);
    /// Copy `dst.len()` bytes from the front into `dst`, consuming them.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    /// Read one byte from the front.
    fn get_u8(&mut self) -> u8;
    /// Read a big-endian u16 from the front.
    fn get_u16(&mut self) -> u16;
    /// Read a big-endian u32 from the front.
    fn get_u32(&mut self) -> u32;
}

impl Buf for &[u8] {
    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        dst.copy_from_slice(&self[..n]);
        *self = &self[n..];
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }

    #[inline]
    fn get_u16(&mut self) -> u16 {
        let v = u16::from_be_bytes([self[0], self[1]]);
        *self = &self[2..];
        v
    }

    #[inline]
    fn get_u32(&mut self) -> u32 {
        let v = u32::from_be_bytes([self[0], self[1], self[2], self[3]]);
        *self = &self[4..];
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_get_roundtrip() {
        let mut b = BytesMut::new();
        b.put_u8(0xab);
        b.put_u16(0x0102);
        b.put_u32(0xdead_beef);
        b.put_slice(&[9, 8, 7]);
        assert_eq!(b.len(), 10);
        let mut r = &b[..];
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u32(), 0xdead_beef);
        let mut rest = [0u8; 3];
        r.copy_to_slice(&mut rest);
        assert_eq!(rest, [9, 8, 7]);
        assert!(r.is_empty());
    }

    #[test]
    fn advance_narrows_in_place() {
        let data = [1u8, 2, 3, 4];
        let mut r = &data[..];
        r.advance(2);
        assert_eq!(r, &[3, 4]);
    }

    #[test]
    fn buffer_is_indexable_and_mutable() {
        let mut b = BytesMut::with_capacity(4);
        b.put_u32(0);
        b[1] = 0x7f;
        assert_eq!(&b[..2], &[0, 0x7f]);
    }
}
