//! Self-contained deterministic PRNG (SplitMix64).
//!
//! The repository builds in hermetic environments with no crates.io
//! access, so workload generation and the randomized test suites use
//! this small generator instead of an external `rand` dependency.
//! SplitMix64 passes BigCrush, is trivially seedable (every 64-bit seed
//! is valid and decorrelated), and — crucial for the streaming
//! generators — lets record `i` derive its own independent stream from
//! `(seed, stream, i)` without sequential state.

/// SplitMix64 generator (Steele, Lea & Flood; public-domain algorithm).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from any 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Independent stream for record `index` of stream `stream`: the
    /// three inputs are mixed so neighbouring indices are decorrelated.
    pub fn for_record(seed: u64, stream: u64, index: u64) -> Self {
        let z = seed
            ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        Self::new(mix(z))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Next raw 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `0..bound` (`bound > 0`). Uses 128-bit multiply-shift
    /// (Lemire); bias is < 2^-64, irrelevant for workloads and tests.
    pub fn gen_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `0..bound` as `u32`.
    pub fn gen_u32(&mut self, bound: u32) -> u32 {
        self.gen_u64(u64::from(bound)) as u32
    }

    /// Uniform in `0..bound` as `usize`.
    pub fn gen_usize(&mut self, bound: usize) -> usize {
        self.gen_u64(bound as u64) as usize
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.gen_u64(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 random bits.
    pub(crate) fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// Fill a byte slice with random data.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// The SplitMix64 finalizer: a bijective avalanche mix of one word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 1234567 from the published algorithm.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(r.gen_u64(17) < 17);
            let f = r.f64_unit();
            assert!((0.0..1.0).contains(&f));
            let v = r.gen_range_u64(5, 9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn record_streams_are_decorrelated() {
        let a = SplitMix64::for_record(1, 1, 10).next_u64();
        let b = SplitMix64::for_record(1, 1, 11).next_u64();
        let c = SplitMix64::for_record(1, 2, 10).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
