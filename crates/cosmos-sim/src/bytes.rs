//! One immutable, reference-counted byte range.
//!
//! A data block (or an index block, or the manifest) is programmed from
//! one zero-padded buffer and each of its flash pages is a page-sized
//! view of it
//! ([`FlashArray::program_shared`](crate::FlashArray::program_shared)).
//! A block read whose pages are still consecutive views of one buffer
//! returns a view of that buffer instead of a copy, the block cache keeps
//! the view, and every reader of the block shares it. Nothing writes
//! through a view: programming a page *replaces* its view, so a view
//! handed out earlier keeps the bytes it had.
//!
//! A buffer may carry the CRC its writer computed over its first bytes
//! when it sealed them ([`SharedBytes::sealed`]); a buffer made any other
//! way carries none. Only a view of exactly that range reports it
//! ([`SharedBytes::recorded_crc`]). Which reads may compare it instead of
//! recomputing the CRC is the integrity rule of `nkv::sst::read_block`.
//!
//! The shared allocation is one `Arc` of the bytes (a `Vec`, which moves
//! in without a copy of its bytes) and that record, so the handle is one
//! pointer and a view (and a flash page slot) is 16 bytes. It is an
//! `Arc`, not an `Rc`, so that a store holding views stays `Send`.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The allocation every view of one buffer shares.
struct Buffer {
    bytes: Vec<u8>,
    /// `(len, crc)`: the CRC the writer computed over `bytes[..len]`.
    sealed: Option<(u32, u32)>,
}

/// An immutable view of bytes `start..end` of a shared buffer.
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<Buffer>,
    start: u32,
    end: u32,
}

impl SharedBytes {
    /// A fresh buffer of `len` bytes: `data`, then zeros.
    pub(crate) fn zero_padded(data: &[u8], len: usize) -> Self {
        assert!(data.len() <= len, "data longer than its padded length");
        let mut v = Vec::with_capacity(len);
        v.extend_from_slice(data);
        v.resize(len, 0);
        Self::from(v)
    }

    /// A fresh buffer of `bytes` whose writer computed `crc` over its
    /// first `len` bytes. The view returned covers all of `bytes`.
    pub fn sealed(bytes: Vec<u8>, len: usize, crc: u32) -> Self {
        assert!(len <= bytes.len(), "sealed range longer than its buffer");
        Self::new(bytes, Some((len as u32, crc)))
    }

    fn new(bytes: Vec<u8>, sealed: Option<(u32, u32)>) -> Self {
        let end = u32::try_from(bytes.len()).expect("a shared buffer holds less than 4 GiB");
        Self { buf: Arc::new(Buffer { bytes, sealed }), start: 0, end }
    }

    /// The `(len, crc)` the writer of this view's buffer recorded, if
    /// any, whatever range the view covers.
    #[cfg(test)]
    pub(crate) fn record(&self) -> Option<(u32, u32)> {
        self.buf.sealed
    }

    /// The CRC the writer recorded, when this view is exactly the range
    /// it was computed over; `None` for any other view or buffer.
    pub fn recorded_crc(&self) -> Option<u32> {
        match self.buf.sealed {
            Some((len, crc)) if self.start == 0 && self.end == len => Some(crc),
            _ => None,
        }
    }

    /// Bytes `range` of this view, sharing its buffer.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len(), "slice out of range");
        Self {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start as u32,
            end: self.start + range.end as u32,
        }
    }

    /// This view followed by `next`, when `next` starts where this view
    /// ends in the same buffer; `None` otherwise.
    pub fn joined(&self, next: &Self) -> Option<Self> {
        (Arc::ptr_eq(&self.buf, &next.buf) && self.end == next.start).then(|| Self {
            buf: Arc::clone(&self.buf),
            start: self.start,
            end: next.end,
        })
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> Self {
        Self::new(v, None)
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf.bytes[self.start as usize..self.end as usize]
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_one_buffer_and_join_only_when_adjacent() {
        let buf = SharedBytes::zero_padded(b"abcdef", 8);
        assert_eq!(&*buf, b"abcdef\0\0");
        let (a, b, c) = (buf.slice(0..2), buf.slice(2..5), buf.slice(6..8));
        assert_eq!((&*a, &*b, &*c), (&b"ab"[..], &b"cde"[..], &b"\0\0"[..]));
        let ab = a.joined(&b).expect("adjacent views of one buffer join");
        assert_eq!(&*ab, b"abcde");
        assert_eq!(ab.as_ptr(), buf.as_ptr(), "a joined view is no copy");
        assert!(b.joined(&a).is_none(), "out of order");
        assert!(ab.joined(&c).is_none(), "a gap between them");
        let twin = SharedBytes::from(b"abcdef\0\0".to_vec());
        assert_eq!(twin, buf, "equality is by content");
        assert!(a.joined(&twin.slice(2..5)).is_none(), "another buffer");
    }

    #[test]
    fn only_the_sealed_range_reports_the_recorded_crc() {
        let buf = SharedBytes::sealed(b"abcdef\0\0".to_vec(), 6, 0xC2C);
        assert_eq!(buf.record(), Some((6, 0xC2C)));
        assert_eq!(buf.recorded_crc(), None, "the padded whole is not the sealed range");
        let (head, tail) = (buf.slice(0..4), buf.slice(4..6));
        assert_eq!(head.joined(&tail).and_then(|v| v.recorded_crc()), Some(0xC2C));
        assert_eq!(buf.slice(0..6).recorded_crc(), Some(0xC2C));
        for range in [0..5, 1..6, 1..7, 0..0] {
            assert_eq!(buf.slice(range.clone()).recorded_crc(), None, "{range:?}");
        }
        assert_eq!(tail.record(), Some((6, 0xC2C)), "every view shares the record");
        assert_eq!(SharedBytes::from(b"abcdef".to_vec()).recorded_crc(), None);
        assert_eq!(SharedBytes::zero_padded(b"abcdef", 6).record(), None);
    }

    #[test]
    fn a_view_and_a_page_slot_fit_in_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<SharedBytes>(), 16);
        assert_eq!(std::mem::size_of::<Option<SharedBytes>>(), 16);
    }
}
