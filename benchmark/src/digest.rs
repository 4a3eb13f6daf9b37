//! FNV-1a (64 bit) over everything a run computes on the simulated clock.
//!
//! One hash per workload: every simulated duration and counter the
//! `sim_*` values are computed from (as integers, so "equal" means
//! identical), every `SimReport` field and the result bytes. Two runs of the same code and seed must print
//! the same digest; so must a traced and an untraced run (the repo's
//! timing-invisibility invariant), and so must any change that claims
//! to touch only the host clock.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(OFFSET)
    }
}

impl Fnv {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Every field of a `SimReport`.
    pub fn report(&mut self, r: &crate::adapter::SimReport) -> &mut Self {
        for v in [
            r.sim_ns,
            r.blocks,
            r.bytes_scanned,
            r.result_bytes,
            r.tuples_in,
            r.tuples_out,
            r.reg_writes,
            r.reg_reads,
            r.shadow_confirm_reads,
        ] {
            self.u64(v);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot hash of a byte string.
pub fn fnv1a(data: &[u8]) -> u64 {
    Fnv::new().bytes(data).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot_and_order_matters() {
        let mut h = Fnv::new();
        h.bytes(b"foo").bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut a = Fnv::new();
        a.u64(1).u64(2);
        let mut b = Fnv::new();
        b.u64(2).u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
