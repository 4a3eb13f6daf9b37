//! Seeded streaming generators for the publication graph.

use crate::rng::SplitMix64;

/// Full-size cardinalities from the paper's evaluation.
pub(crate) const FULL_PAPERS: u64 = 3_775_161;
/// Full-size reference (edge) count.
pub(crate) const FULL_REFS: u64 = 40_128_663;

/// Packed size of a [`Paper`] record.
pub const PAPER_BYTES: usize = 80;
/// Packed size of a [`Ref`] record.
pub const REF_BYTES: usize = 20;

/// The `N` bytes of a packed record at `off` (the decoders assert the
/// record's length first).
fn array_at<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    let mut field = [0u8; N];
    field.copy_from_slice(&bytes[off..off + N]);
    field
}

/// A publication-graph node (matches the `Paper` struct of
/// [`crate::spec::PAPER_REF_SPEC`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Paper {
    pub id: u64,
    pub year: u32,
    pub venue: u32,
    pub n_cits: u32,
    pub(crate) n_refs: u32,
    /// 56-byte title; the first 8 bytes are the filterable prefix.
    pub(crate) title: [u8; 56],
}

impl Paper {
    /// Encode to the packed wire layout, appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.year.to_le_bytes());
        out.extend_from_slice(&self.venue.to_le_bytes());
        out.extend_from_slice(&self.n_cits.to_le_bytes());
        out.extend_from_slice(&self.n_refs.to_le_bytes());
        out.extend_from_slice(&self.title);
    }

    /// Decode from packed bytes.
    pub fn decode(bytes: &[u8]) -> Self {
        assert!(bytes.len() >= PAPER_BYTES);
        Self {
            id: u64::from_le_bytes(array_at(bytes, 0)),
            year: u32::from_le_bytes(array_at(bytes, 8)),
            venue: u32::from_le_bytes(array_at(bytes, 12)),
            n_cits: u32::from_le_bytes(array_at(bytes, 16)),
            n_refs: u32::from_le_bytes(array_at(bytes, 20)),
            title: array_at(bytes, 24),
        }
    }
}

/// A reference edge (matches the `Ref` struct of the specification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref {
    pub src: u64,
    pub dst: u64,
    pub year: u32,
}

impl Ref {
    /// Encode to the packed wire layout, appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        out.extend_from_slice(&self.year.to_le_bytes());
    }

    /// Decode from packed bytes.
    pub fn decode(bytes: &[u8]) -> Self {
        assert!(bytes.len() >= REF_BYTES);
        Self {
            src: u64::from_le_bytes(array_at(bytes, 0)),
            dst: u64::from_le_bytes(array_at(bytes, 8)),
            year: u32::from_le_bytes(array_at(bytes, 16)),
        }
    }
}

/// Dataset scale and seed.
#[derive(Debug, Clone, Copy)]
pub struct PubGraphConfig {
    pub papers: u64,
    pub refs: u64,
    pub seed: u64,
}

impl PubGraphConfig {
    /// The paper's full-size dataset (≈1.10 GB of records).
    pub(crate) fn full() -> Self {
        Self { papers: FULL_PAPERS, refs: FULL_REFS, seed: 0x6e4b_5644 }
    }

    /// A dataset scaled by `factor` (e.g. `1.0/64.0` for unit tests),
    /// preserving the papers:refs ratio.
    pub fn scaled(factor: f64) -> Self {
        let full = Self::full();
        Self {
            papers: ((full.papers as f64 * factor) as u64).max(1),
            refs: ((full.refs as f64 * factor) as u64).max(1),
            seed: full.seed,
        }
    }

    /// Total payload bytes of the dataset.
    pub fn total_bytes(&self) -> u64 {
        self.papers * PAPER_BYTES as u64 + self.refs * REF_BYTES as u64
    }
}

/// Deterministic per-index RNG: record `i` depends only on `(seed, i)`.
fn rng_for(seed: u64, stream: u64, index: u64) -> SplitMix64 {
    SplitMix64::for_record(seed, stream, index)
}

/// Streaming paper generator: ids are sequential (1-based), so records
/// come out in key order, ready for sorted bulk loading.
pub struct PaperGen {
    cfg: PubGraphConfig,
    next: u64,
}

impl PaperGen {
    /// Generate all papers of `cfg`.
    pub fn new(cfg: PubGraphConfig) -> Self {
        Self { cfg, next: 0 }
    }

    /// The `i`-th paper (0-based), independent of iteration state.
    pub fn paper_at(cfg: &PubGraphConfig, i: u64) -> Paper {
        let mut rng = rng_for(cfg.seed, 1, i);
        let id = i + 1;
        let year = 1950 + (rng.f64_unit().powi(2) * 71.0) as u32; // skewed to recent
        let venue = rng.gen_u32(5000);
        let n_cits = rng.gen_u32(2000);
        let n_refs = (cfg.refs / cfg.papers.max(1)) as u32 + rng.gen_u32(8);
        let mut title = [0u8; 56];
        // Readable synthetic titles: "paperNNNNNNNN: <random words>".
        let head = format!("p{id:07}: study of topic {:04}", rng.gen_u32(10_000));
        let n = head.len().min(56);
        title[..n].copy_from_slice(&head.as_bytes()[..n]);
        Paper { id, year, venue, n_cits, n_refs, title }
    }
}

impl Iterator for PaperGen {
    type Item = Paper;

    fn next(&mut self) -> Option<Paper> {
        if self.next >= self.cfg.papers {
            return None;
        }
        let p = Self::paper_at(&self.cfg, self.next);
        self.next += 1;
        Some(p)
    }
}

/// Streaming reference generator, ordered by `(src, dst)` — sorted by
/// the composite key for bulk loading. Out-degrees are assigned
/// deterministically; destinations are skewed toward low ids (old,
/// highly-cited papers), giving the power-law flavour of citation graphs.
pub struct RefGen {
    cfg: PubGraphConfig,
    emitted: u64,
    src_index: u64,
    within: u64,
    degree: u64,
}

impl RefGen {
    /// Generate all references of `cfg`.
    pub fn new(cfg: PubGraphConfig) -> Self {
        let mut g = Self { cfg, emitted: 0, src_index: 0, within: 0, degree: 0 };
        g.degree = g.degree_of(0);
        g
    }

    /// Deterministic out-degree of source paper `i`, averaging refs/papers.
    fn degree_of(&self, i: u64) -> u64 {
        if i + 1 >= self.cfg.papers {
            // The last source absorbs the remainder so totals are exact.
            return self.cfg.refs.saturating_sub(self.average() * (self.cfg.papers - 1));
        }
        self.average()
    }

    fn average(&self) -> u64 {
        self.cfg.refs / self.cfg.papers.max(1)
    }
}

impl Iterator for RefGen {
    type Item = Ref;

    fn next(&mut self) -> Option<Ref> {
        if self.emitted >= self.cfg.refs {
            return None;
        }
        while self.within >= self.degree {
            self.src_index += 1;
            if self.src_index >= self.cfg.papers {
                return None;
            }
            self.within = 0;
            self.degree = self.degree_of(self.src_index);
        }
        let mut rng = rng_for(self.cfg.seed, 2, self.src_index * 1_000_003 + self.within);
        let src = self.src_index + 1;
        // Skew destinations toward low ids; sort within a source by
        // generating an increasing sequence.
        let dst_base = (rng.f64_unit().powi(3) * self.cfg.papers as f64) as u64 + 1;
        let dst = dst_base.min(self.cfg.papers);
        let year = 1950 + rng.gen_u32(71);
        self.within += 1;
        self.emitted += 1;
        Some(Ref { src, dst, year })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PubGraphConfig {
        PubGraphConfig { papers: 1000, refs: 10_500, seed: 42 }
    }

    #[test]
    fn full_config_matches_paper_cardinalities() {
        let f = PubGraphConfig::full();
        assert_eq!(f.papers, 3_775_161);
        assert_eq!(f.refs, 40_128_663);
        assert_eq!(f.total_bytes(), 1_104_586_140);
    }

    #[test]
    fn paper_encode_decode_round_trip() {
        let cfg = small();
        for i in [0, 1, 99, 999] {
            let p = PaperGen::paper_at(&cfg, i);
            let mut bytes = Vec::new();
            p.encode_into(&mut bytes);
            assert_eq!(bytes.len(), PAPER_BYTES);
            assert_eq!(Paper::decode(&bytes), p);
        }
    }

    #[test]
    fn ref_encode_decode_round_trip() {
        let r = Ref { src: 17, dst: 3, year: 1999 };
        let mut bytes = Vec::new();
        r.encode_into(&mut bytes);
        assert_eq!(bytes.len(), REF_BYTES);
        assert_eq!(Ref::decode(&bytes), r);
    }

    #[test]
    fn generation_is_deterministic_and_stateless() {
        let cfg = small();
        let a: Vec<Paper> = PaperGen::new(cfg).collect();
        let b: Vec<Paper> = PaperGen::new(cfg).collect();
        assert_eq!(a, b);
        assert_eq!(PaperGen::paper_at(&cfg, 500), a[500]);
    }

    #[test]
    fn papers_come_out_in_key_order() {
        let ids: Vec<u64> = PaperGen::new(small()).map(|p| p.id).collect();
        assert_eq!(ids.len(), 1000);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids[0], 1);
    }

    #[test]
    fn refs_total_is_exact_and_src_sorted() {
        let refs: Vec<Ref> = RefGen::new(small()).collect();
        assert_eq!(refs.len(), 10_500);
        assert!(refs.windows(2).all(|w| w[0].src <= w[1].src));
        // All sources and destinations are valid paper ids.
        assert!(refs.iter().all(|r| (1..=1000).contains(&r.src)));
        assert!(refs.iter().all(|r| (1..=1000).contains(&r.dst)));
    }

    #[test]
    fn scaled_preserves_ratio() {
        let s = PubGraphConfig::scaled(1.0 / 64.0);
        let ratio_full = FULL_REFS as f64 / FULL_PAPERS as f64;
        let ratio_scaled = s.refs as f64 / s.papers as f64;
        assert!((ratio_full - ratio_scaled).abs() < 0.01);
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = PaperGen::paper_at(&PubGraphConfig { seed: 1, ..small() }, 7);
        let b = PaperGen::paper_at(&PubGraphConfig { seed: 2, ..small() }, 7);
        assert_eq!(a.id, b.id, "ids are structural");
        assert_ne!((a.year, a.venue, a.n_cits), (b.year, b.venue, b.n_cits));
    }

    #[test]
    fn years_are_in_plausible_range() {
        for p in PaperGen::new(small()) {
            assert!((1950..=2021).contains(&p.year));
        }
    }

    #[test]
    fn titles_carry_readable_prefix() {
        let p = PaperGen::paper_at(&small(), 3);
        assert!(p.title.starts_with(b"p0000004"));
    }
}
