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

/// A simple `Vec<u8>`-backed memory.
///
/// Out-of-range accesses panic: in this simulation they indicate a PE
/// configuration bug (the hardware equivalent would be an AXI SLVERR).
#[derive(Debug, Clone, Default)]
pub struct VecMem {
    bytes: Vec<u8>,
}

impl VecMem {
    /// Create a zeroed memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        Self { bytes: vec![0; size] }
    }

    /// Create a memory initialized with `data`.
    #[cfg(test)]
    pub(crate) fn from_bytes(data: Vec<u8>) -> Self {
        Self { bytes: data }
    }

    /// Memory size in bytes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the memory has zero size.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Borrow the underlying bytes.
    #[cfg(test)]
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutably borrow the underlying bytes.
    #[cfg(test)]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

impl MemBus for VecMem {
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        let start = addr as usize;
        buf.copy_from_slice(&self.bytes[start..start + buf.len()]);
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let start = addr as usize;
        self.bytes[start..start + data.len()].copy_from_slice(data);
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
    #[should_panic]
    fn out_of_range_access_panics() {
        let mut m = VecMem::new(8);
        let mut buf = [0u8; 4];
        m.read_bytes(6, &mut buf);
    }
}
