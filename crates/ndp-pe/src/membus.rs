//! Memory bus abstraction.
//!
//! The PE's Load/Store units access PS-DRAM through an AXI4 Full port
//! (paper, Fig. 3b). This trait is the simulation-level equivalent: a
//! byte-addressable memory with bulk accessors. The platform simulator
//! (`cosmos-sim`) provides a DRAM implementation that additionally
//! accounts bandwidth and contention; [`VecMem`] is a plain in-process
//! memory for unit tests and examples.

/// A byte-addressable memory as seen by a PE's AXI master ports.
pub trait MemBus {
    /// Read `buf.len()` bytes starting at `addr`.
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]);

    /// Write `data` starting at `addr`.
    fn write_bytes(&mut self, addr: u64, data: &[u8]);
}

/// Bytes per page of [`VecMem`].
const PAGE: usize = 4096;

/// A simple in-process memory, materialised a 4 KiB page at a time on
/// first write: a page never written reads as zeros and costs one empty
/// slot, so a large memory of which a PE touches a few blocks is cheap
/// to create.
///
/// Out-of-range accesses panic: in this simulation they indicate a PE
/// configuration bug (the hardware equivalent would be an AXI SLVERR).
#[derive(Debug, Clone, Default)]
pub struct VecMem {
    len: usize,
    pages: Vec<Option<Box<[u8]>>>,
}

impl VecMem {
    /// Create a zeroed memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        Self { len: size, pages: vec![None; size.div_ceil(PAGE)] }
    }

    /// Create a memory initialized with `data`.
    #[cfg(test)]
    pub(crate) fn from_bytes(data: &[u8]) -> Self {
        let mut mem = Self::new(data.len());
        mem.write_bytes(0, data);
        mem
    }

    /// Memory size in bytes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True if the memory has zero size.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every byte of the memory, in order.
    #[cfg(test)]
    pub(crate) fn image(&self) -> Vec<u8> {
        let mut bytes = vec![0; self.len];
        self.copy_out(0, &mut bytes);
        bytes
    }

    /// Panic unless `[addr, addr + n)` lies inside the memory.
    fn check(&self, addr: u64, n: usize) -> usize {
        let start = addr as usize;
        assert!(
            start.checked_add(n).is_some_and(|end| end <= self.len),
            "access of {n} bytes at {addr:#x} outside a {}-byte memory",
            self.len
        );
        start
    }

    fn copy_out(&self, addr: u64, buf: &mut [u8]) {
        let (mut at, mut rest) = (self.check(addr, buf.len()), buf);
        while !rest.is_empty() {
            let (page, offset) = (at / PAGE, at % PAGE);
            let n = (PAGE - offset).min(rest.len());
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(n);
            match &self.pages[page] {
                Some(bytes) => dst.copy_from_slice(&bytes[offset..offset + n]),
                None => dst.fill(0),
            }
            (at, rest) = (at + n, tail);
        }
    }
}

impl MemBus for VecMem {
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.copy_out(addr, buf);
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let (mut at, mut rest) = (self.check(addr, data.len()), data);
        while !rest.is_empty() {
            let (page, offset) = (at / PAGE, at % PAGE);
            let n = (PAGE - offset).min(rest.len());
            let bytes = self.pages[page].get_or_insert_with(|| vec![0; PAGE].into_boxed_slice());
            bytes[offset..offset + n].copy_from_slice(&rest[..n]);
            (at, rest) = (at + n, &rest[n..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut m = VecMem::new(64);
        m.write_bytes(8, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read_bytes(8, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(m.len(), 64);
        assert!(!m.is_empty());
    }

    #[test]
    fn unwritten_regions_read_zero() {
        let mut m = VecMem::new(16);
        let mut buf = [0xAAu8; 16];
        m.read_bytes(0, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn a_read_across_a_page_boundary_sees_the_written_side_only() {
        let mut m = VecMem::new(3 * PAGE);
        m.write_bytes(PAGE as u64 - 4, &[1, 2, 3, 4]);
        let mut buf = [0xAAu8; 8];
        m.read_bytes(PAGE as u64 - 4, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 0, 0, 0, 0]);
        m.write_bytes(2 * PAGE as u64, &[9, 9]);
        m.read_bytes(2 * PAGE as u64 - 6, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0, 0, 0, 9, 9]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_access_panics() {
        let mut m = VecMem::new(8);
        let mut buf = [0u8; 4];
        m.read_bytes(6, &mut buf);
    }
}
