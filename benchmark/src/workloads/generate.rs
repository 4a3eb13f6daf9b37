//! `generate`: the paper's toolflow, no storage at all.
//!
//! A seeded family of specifications — the bundled evaluation spec, the
//! Fig. 8 full/half-prefix tuples (64…2048 bit) and the Fig. 9 filter
//! chains (1…8 stages) plus seeded mixes of the three knobs — goes
//! through parse → elaborate → design + Verilog + resource report →
//! C header. Every generated PE's cycle-level model then processes
//! seeded 32 KiB blocks through the generated software interface and
//! must match the byte-level oracle exactly.
//!
//! `ndp-spec`/`ndp-ir`/`ndp-hdl`/`ndp-swgen`/`ndp-pe` do all the work;
//! `nkv` and `cosmos-sim` do none, so the prediction for every
//! simulator or store optimisation is *no change* here.
//!
//! Simulated clock: PE cycles at the 100 MHz PL clock.

use crate::adapter::{self, FilterRule, PeConfig, SplitMix64};
use crate::digest::Fnv;
use crate::harness::{ChunkOut, Workload};
use crate::span::Tracer;
use std::time::Instant;

/// Blocks each generated PE is checked on.
const BLOCKS_PER_PE: usize = 8;

pub struct Generate {
    seed: u64,
    specs: usize,
}

impl Generate {
    pub fn new(seed: u64, quick: bool) -> Self {
        Self { seed, specs: if quick { 30 } else { 200 } }
    }
}

/// One PE's verification inputs.
struct PeInputs {
    blocks: Vec<Vec<u8>>,
    rules: Vec<Vec<FilterRule>>,
}

pub struct Case {
    source: String,
    pes: Vec<PeInputs>,
}

/// Specification text of a Fig. 8 "Full" PE (all-u32 struct).
fn full_spec(bits: u32, stages: u32) -> String {
    let fields: Vec<String> = (0..bits / 32).map(|i| format!("uint32_t f{i};")).collect();
    format!(
        "/* @autogen define parser F with stages = {stages}, input = T, output = T */
         typedef struct {{ {} }} T;",
        fields.join(" ")
    )
}

/// Specification text of a Fig. 8 "Half" PE: same tuple size, half the
/// data discarded through a string prefix. Needs `bits >= 128`.
fn half_spec(bits: u32, stages: u32) -> String {
    let fields: Vec<String> = (0..bits / 64 - 1).map(|i| format!("uint32_t f{i};")).collect();
    format!(
        "/* @autogen define parser F with stages = {stages}, input = T, output = T */
         typedef struct {{ {} /* @string(prefix = 4) */ uint8_t s[{}]; }} T;",
        fields.join(" "),
        bits / 16 + 4
    )
}

/// The spec family for `seed`: fixed paper anchors first, then every
/// tuple width x {full, half-prefix} with a chain length drawn from a
/// seeded shuffle. The multiset of widths, kinds and chain lengths is the
/// same for every seed — only their pairing (and the block contents)
/// changes — so a chunk is the same amount of work whatever the seed.
fn family(seed: u64, n: usize) -> Vec<String> {
    let mut specs = vec![adapter::evaluation_spec().to_string()];
    for bits in [64u32, 128, 256, 512, 1024, 2048] {
        specs.push(full_spec(bits, 1));
        if bits >= 128 {
            specs.push(half_spec(bits, 1));
        }
    }
    for stages in 1..=8 {
        specs.push(full_spec(256, stages));
        specs.push(half_spec(256, stages));
    }
    let mut rng = SplitMix64::new(seed ^ 0x67_656e);
    let mut stages: Vec<u32> = Vec::new();
    let mut i = 0u32;
    while specs.len() < n {
        if stages.is_empty() {
            // A fresh shuffled deck of chain lengths 1..=8, eight times over.
            stages = (0..64).map(|k| 1 + k % 8).collect();
            for k in (1..stages.len()).rev() {
                stages.swap(k, rng.gen_usize(k + 1));
            }
        }
        let bits = 64 * (1 + i / 2 % 32);
        let chain = stages.pop().unwrap_or(1);
        specs.push(if i % 2 == 1 && bits >= 128 {
            half_spec(bits, chain)
        } else {
            full_spec(bits, chain)
        });
        i += 1;
    }
    specs.truncate(n);
    specs
}

/// `len` bytes of whole random tuples for `cfg`'s input layout.
pub fn random_block(rng: &mut SplitMix64, cfg: &PeConfig, len: usize) -> Vec<u8> {
    let ts = (cfg.input.tuple_bytes() as usize).max(1);
    let mut block = vec![0u8; len / ts * ts];
    rng.fill_bytes(&mut block);
    block
}

/// A random predicate chain no longer than the PE's filter chain.
pub fn random_rules(rng: &mut SplitMix64, cfg: &PeConfig) -> Vec<FilterRule> {
    (0..1 + rng.gen_u32(cfg.stages.min(3)))
        .map(|_| FilterRule {
            lane: rng.gen_u32(cfg.input.lanes),
            op_code: rng.gen_u32(7),
            value: rng.next_u64(),
        })
        .collect()
}

impl Workload for Generate {
    type State = Vec<Case>;

    /// Build the inputs: the spec texts, and per generated PE the blocks
    /// and predicate chains it will be checked on (one untimed toolflow
    /// pass tells the tuple layouts).
    fn setup(&self) -> Result<Vec<Case>, String> {
        let mut off = Tracer::disabled();
        let mut rng = SplitMix64::new(self.seed ^ 0x626c_6f63_6b73);
        family(self.seed, self.specs)
            .into_iter()
            .map(|source| {
                let generated = adapter::generate_staged(&mut off, &source)?;
                let pes = generated
                    .pes
                    .iter()
                    .map(|cfg| PeInputs {
                        blocks: (0..BLOCKS_PER_PE)
                            .map(|_| random_block(&mut rng, cfg, adapter::BLOCK_BYTES as usize))
                            .collect(),
                        rules: (0..BLOCKS_PER_PE).map(|_| random_rules(&mut rng, cfg)).collect(),
                    })
                    .collect();
                Ok(Case { source, pes })
            })
            .collect()
    }

    fn chunk(&self, cases: &mut Vec<Case>, tr: &mut Tracer, detail: bool) -> ChunkOut {
        let mut out = ChunkOut::default();
        let mut digest = Fnv::new();
        let (mut verilog, mut header, mut tuples_in, mut tuples_out, mut cycles) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut expected = Vec::with_capacity(adapter::BLOCK_BYTES as usize);
        for case in cases.iter() {
            out.ops += 1;
            tr.next_request();
            let t = Instant::now();
            let request = tr.begin("generate.spec");
            let generated = adapter::generate_staged(tr, &case.source);
            let mut ok = true;
            match &generated {
                Err(_) => ok = false,
                Ok(g) => {
                    for (cfg, inputs) in g.pes.iter().zip(&case.pes) {
                        let s = tr.begin("ndp-pe.build");
                        let mut pe = adapter::CyclePe::new(cfg);
                        let oracle = adapter::Oracle::new(cfg);
                        tr.end(s);
                        for (block, rules) in inputs.blocks.iter().zip(&inputs.rules) {
                            let s = tr.begin("ndp-pe.cycle_block");
                            let got = pe.process(block, rules);
                            tr.end(s);
                            let s = tr.begin("ndp-pe.oracle_block");
                            expected.clear();
                            let (tin, tout) = oracle.process(block, rules, &mut expected);
                            tr.end(s);
                            ok &= got.result == expected
                                && got.tuples_in == tin
                                && got.tuples_out == tout;
                            cycles += got.cycles;
                            tuples_in += got.tuples_in;
                            tuples_out += got.tuples_out;
                            digest.u64(got.cycles).u64(tin).u64(tout).bytes(&got.result);
                        }
                    }
                }
            }
            tr.end(request);
            out.host_ns += t.elapsed().as_nanos() as u64;
            if let Ok(g) = &generated {
                verilog += g.verilog_bytes;
                header += g.header_bytes;
                digest.u64(g.verilog_bytes).u64(g.header_bytes);
                for &s in &g.slices {
                    digest.u64(u64::from(s));
                }
            }
            out.failed += u64::from(!ok);
        }
        out.sim_ns = cycles * adapter::PL_CLK_NS;
        digest.u64(out.sim_ns);
        out.digest = digest.finish();
        if detail {
            // Model accuracy against Table I: the only reference for the
            // resource model the repo holds.
            let pairs = adapter::table1_pairs();
            let err = pairs
                .iter()
                .map(|&(_, ours, paper)| (ours - paper).abs() / paper * 100.0)
                .fold(0.0, f64::max);
            out.values = vec![
                ("hdl.verilog_bytes", verilog as f64),
                ("swgen.header_bytes", header as f64),
                ("pe.tuples_in", tuples_in as f64),
                ("pe.tuples_out", tuples_out as f64),
                ("hdl.table1_err_pct", err),
                ("paper_err_pct", err),
            ];
            out.notes.push(format!(
                "{} specs, {} cycle-level blocks, {} PE cycles per chunk; Table I max error \
                 {err:.3} % over {} anchors (no other reference exists)",
                cases.len(),
                cases.iter().map(|c| c.pes.len() * BLOCKS_PER_PE).sum::<usize>(),
                cycles,
                pairs.len()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_seeded_and_starts_with_the_paper_anchors() {
        let a = family(42, 60);
        assert_eq!(a.len(), 60);
        assert_eq!(a, family(42, 60));
        assert_ne!(a, family(7, 60));
        assert_eq!(a[0], adapter::evaluation_spec());
        assert_eq!(a[..28], family(7, 60)[..28], "anchors do not depend on the seed");
    }
}
