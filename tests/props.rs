//! Property-based tests over the core invariants of the stack.
//!
//! Generators produce *specification sources* (random struct shapes),
//! random tuple bytes, random filter chains and random KV workloads from
//! a seeded [`SplitMix64`] stream (the workspace builds offline, so no
//! external proptest dependency); properties assert the invariants
//! DESIGN.md calls out: layout well-formedness, codec round-trips,
//! filter/transform semantics against naive models, LSM linearizability
//! against a `BTreeMap`, and storage integrity primitives. Every case is
//! deterministic in its loop index, so a failure message's case number
//! reproduces it exactly.

use ndp_ir::{elaborate, CmpOp, PeConfig};
use ndp_pe::oracle::{BlockProcessor, FilterRule, OpTable};
use ndp_pe::tuple::{apply_transform, LayoutCodec, Tuple};
use ndp_spec::PrimTy;
use ndp_workload::SplitMix64;

// ---------------------------------------------------------------- helpers

/// A randomly shaped field for spec-source generation.
#[derive(Debug, Clone)]
enum FieldShape {
    Prim(&'static str),
    Array(&'static str, usize),
    Str { prefix: u32, total: usize },
}

const PRIMS: &[&str] = &[
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "float", "double",
];

fn gen_field_shape(rng: &mut SplitMix64) -> FieldShape {
    // Weighted 4:2:1 like the original strategy.
    match rng.gen_u32(7) {
        0..=3 => FieldShape::Prim(PRIMS[rng.gen_usize(PRIMS.len())]),
        4 | 5 => FieldShape::Array(PRIMS[rng.gen_usize(PRIMS.len())], 1 + rng.gen_usize(4)),
        _ => {
            let prefix = [1u32, 2, 4, 8][rng.gen_usize(4)];
            FieldShape::Str { prefix, total: prefix as usize + rng.gen_usize(24) }
        }
    }
}

fn gen_fields(rng: &mut SplitMix64) -> Vec<FieldShape> {
    (0..1 + rng.gen_usize(7)).map(|_| gen_field_shape(rng)).collect()
}

/// Render a random struct spec with an identity parser.
fn spec_source(fields: &[FieldShape]) -> String {
    let mut body = String::new();
    for (i, f) in fields.iter().enumerate() {
        match f {
            FieldShape::Prim(p) => body.push_str(&format!("{p} f{i}; ")),
            FieldShape::Array(p, n) => body.push_str(&format!("{p} f{i}[{n}]; ")),
            FieldShape::Str { prefix, total } => {
                body.push_str(&format!("/* @string(prefix = {prefix}) */ uint8_t f{i}[{total}]; "))
            }
        }
    }
    format!(
        "/* @autogen define parser P with input = T, output = T */
         typedef struct {{ {body} }} T;"
    )
}

fn gen_config(rng: &mut SplitMix64) -> PeConfig {
    let src = spec_source(&gen_fields(rng));
    let m = ndp_spec::parse(&src).expect("generated source parses");
    elaborate(&m, "P").expect("generated source elaborates")
}

fn random_bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    rng.fill_bytes(&mut v);
    v
}

// ---------------------------------------------------------- layout props

/// Layout invariants: fields tile the tuple contiguously, every relevant
/// field gets a unique lane, lane width is the max field width, padded
/// size is lanes × lane width + postfix bits.
#[test]
fn layout_invariants() {
    for case in 0..32u64 {
        let cfg = gen_config(&mut SplitMix64::new(0x1A10 + case));
        let l = &cfg.input;
        let mut offset = 0u64;
        let mut lanes_seen = std::collections::HashSet::new();
        for f in &l.fields {
            assert_eq!(f.offset_bits, offset, "case {case}: field {} not contiguous", f.path);
            offset += u64::from(f.width_bits);
            if let Some(lane) = f.lane {
                assert!(lanes_seen.insert(lane), "case {case}: duplicate lane");
                assert!(f.width_bits <= l.lane_bits, "case {case}");
            }
        }
        assert_eq!(offset, l.tuple_bits, "case {case}");
        assert_eq!(lanes_seen.len() as u32, l.lanes, "case {case}");
        assert_eq!(
            l.padded_bits(),
            u64::from(l.lanes) * u64::from(l.lane_bits) + l.postfix_bits,
            "case {case}"
        );
        let max_rel = l.relevant_fields().map(|f| f.width_bits).max().unwrap();
        assert_eq!(l.lane_bits, max_rel, "case {case}");
    }
}

/// Parser/printer round-trip: printing a parsed module and re-parsing it
/// preserves semantics (the printer is the span-free normal form).
#[test]
fn spec_print_parse_round_trips() {
    for case in 0..32u64 {
        let src = spec_source(&gen_fields(&mut SplitMix64::new(0x2B20 + case)));
        let m1 = ndp_spec::parse(&src).expect("generated source parses");
        let printed = ndp_spec::print_module(&m1);
        let m2 = ndp_spec::parse(&printed).expect("printed source re-parses");
        assert_eq!(ndp_spec::print_module(&m1), ndp_spec::print_module(&m2), "case {case}");
    }
}

/// Codec round-trip: unpack→pack is the identity on arbitrary bytes.
#[test]
fn codec_round_trips() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x3C30 + case);
        let cfg = gen_config(&mut rng);
        let codec = LayoutCodec::new(&cfg.input);
        let bytes = random_bytes(&mut rng, codec.tuple_bytes());
        let t = codec.unpack(&bytes);
        let mut out = Vec::new();
        codec.pack_into(&t, &mut out);
        assert_eq!(out, bytes, "case {case}");
    }
}

/// Identity transforms preserve tuples exactly.
#[test]
fn identity_transform_is_identity() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x4D40 + case);
        let cfg = gen_config(&mut rng);
        let codec = LayoutCodec::new(&cfg.input);
        let bytes = random_bytes(&mut rng, codec.tuple_bytes());
        let input = codec.unpack(&bytes);
        let mut output = Tuple::default();
        apply_transform(&cfg.transform, &codec, &codec, &input, &mut output);
        assert_eq!(output, input, "case {case}");
    }
}

// ---------------------------------------------------------- filter props

/// Naive reference model of one comparison, written independently of
/// `CmpOp::eval` (full-width integer semantics only; float-typed lanes
/// are skipped by the caller).
fn naive_cmp(op: u32, prim: PrimTy, a: u64, b: u64) -> Option<bool> {
    let (a, b) = match prim {
        PrimTy::U8 | PrimTy::U16 | PrimTy::U32 | PrimTy::U64 => (i128::from(a), i128::from(b)),
        PrimTy::I8 => (i128::from(a as u8 as i8), i128::from(b as u8 as i8)),
        PrimTy::I16 => (i128::from(a as u16 as i16), i128::from(b as u16 as i16)),
        PrimTy::I32 => (i128::from(a as u32 as i32), i128::from(b as u32 as i32)),
        PrimTy::I64 => (i128::from(a as i64), i128::from(b as i64)),
        PrimTy::F32 | PrimTy::F64 => return None,
    };
    Some(match op {
        0 => true,
        1 => a != b,
        2 => a == b,
        3 => a > b,
        4 => a >= b,
        5 => a < b,
        6 => a <= b,
        _ => false,
    })
}

/// The oracle's filter chain equals the conjunction of naive comparisons
/// for every non-float lane.
#[test]
fn filter_chain_matches_naive_model() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x5E50 + case);
        let cfg = gen_config(&mut rng);
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let codec = LayoutCodec::new(&cfg.input);
        let bytes = random_bytes(&mut rng, codec.tuple_bytes());
        let t = codec.unpack(&bytes);
        let rules: Vec<FilterRule> = (0..1 + rng.gen_usize(3))
            .map(|_| FilterRule {
                lane: rng.gen_u32(cfg.input.lanes),
                op_code: rng.gen_u32(7),
                value: rng.next_u64(),
            })
            .collect();
        // Skip tuples whose selected lanes are float-typed (the naive
        // model doesn't cover IEEE semantics; CmpOp's unit tests do).
        let mut expected = true;
        let mut all_integer = true;
        for r in &rules {
            let prim = codec.lane_prim(r.lane).unwrap();
            match naive_cmp(r.op_code, prim, t.lanes[r.lane as usize], r.value) {
                Some(pass) => expected &= pass,
                None => {
                    all_integer = false;
                    break;
                }
            }
        }
        if all_integer {
            assert_eq!(bp.tuple_passes(&bytes, &rules, &ops), expected, "case {case}");
        }
    }
}

/// CmpOp total-order consistency: exactly one of <, ==, > holds for
/// non-NaN operands, and the derived operators agree.
#[test]
fn cmp_op_order_consistency() {
    let mut rng = SplitMix64::new(0x6F60);
    for case in 0..48u64 {
        let (a, b) = (rng.next_u64(), if case % 5 == 0 { 0 } else { rng.next_u64() });
        for prim in [PrimTy::U32, PrimTy::I64, PrimTy::U8, PrimTy::I16] {
            let lt = CmpOp::Lt.eval(prim, a, b);
            let eq = CmpOp::Eq.eval(prim, a, b);
            let gt = CmpOp::Gt.eval(prim, a, b);
            assert_eq!(u8::from(lt) + u8::from(eq) + u8::from(gt), 1, "case {case}");
            assert_eq!(CmpOp::Ge.eval(prim, a, b), !lt, "case {case}");
            assert_eq!(CmpOp::Le.eval(prim, a, b), !gt, "case {case}");
            assert_eq!(CmpOp::Ne.eval(prim, a, b), !eq, "case {case}");
            assert!(CmpOp::Nop.eval(prim, a, b), "case {case}");
        }
    }
}

/// The cycle-level PE equals the byte oracle on arbitrary blocks and
/// single rules (deep equivalence of the two execution models).
#[test]
fn cycle_model_equals_oracle() {
    use ndp_pe::regs::offsets;
    use ndp_pe::{MemBus, Mmio, PeDevice, PeSim, VecMem};
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x7A70 + case);
        let cfg = gen_config(&mut rng);
        let bp = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let ts = cfg.input.tuple_bytes() as usize;
        let n_tuples = 1 + rng.gen_usize(39);
        let input = random_bytes(&mut rng, n_tuples * ts);
        let rule = FilterRule {
            lane: rng.gen_u32(cfg.input.lanes),
            op_code: rng.gen_u32(7),
            value: rng.next_u64(),
        };

        let mut expected = Vec::new();
        let stats = bp.process_block(&input, std::slice::from_ref(&rule), &ops, &mut expected);

        let mut pe = PeSim::new(cfg.clone());
        let mut mem = VecMem::new(1 << 20);
        mem.write_bytes(0, &input);
        pe.mmio_write(offsets::SRC_LEN, input.len() as u32);
        pe.mmio_write(offsets::DST_ADDR_LO, 0x8_0000);
        pe.mmio_write(offsets::DST_CAPACITY, 1 << 18);
        pe.mmio_write(offsets::STAGE_BASE + offsets::STAGE_FIELD, rule.lane);
        pe.mmio_write(offsets::STAGE_BASE + offsets::STAGE_OP, rule.op_code);
        pe.mmio_write(offsets::STAGE_BASE + offsets::STAGE_VAL_LO, rule.value as u32);
        pe.mmio_write(offsets::STAGE_BASE + offsets::STAGE_VAL_HI, (rule.value >> 32) as u32);
        pe.mmio_write(offsets::START, 1);
        let res = pe.execute(&mut mem);
        assert_eq!(res.tuples_in, stats.tuples_in, "case {case}");
        assert_eq!(res.tuples_out, stats.tuples_out, "case {case}");
        let mut got = vec![0u8; expected.len()];
        mem.read_bytes(0x8_0000, &mut got);
        assert_eq!(got, expected, "case {case}");
    }
}

/// Hardware performance-counter conservation on arbitrary blocks and
/// rule chains, on PEs of one to four filtering stages, over a short
/// block and a full 32 KiB one: every tuple that enters the pipeline
/// either leaves it or is dropped by exactly one filtering stage, every
/// cycle is either active or idle, the Load and Store Units move whole
/// 64-bit beats but for a block's last one, and an identity PE whose
/// tuples are at least a beat wide never stalls its Load Unit (it cannot
/// receive more than one tuple per cycle). The counters are cumulative
/// across blocks until the `CNT_CTRL` reset.
#[test]
fn perf_counters_conserve_tuples_and_cycles() {
    use ndp_pe::regs::offsets;
    use ndp_pe::{MemBus, Mmio, PeDevice, PeSim, VecMem};
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xCF20 + case);
        let stages = 1 + case as u32 % 4;
        let src = spec_source(&gen_fields(&mut rng))
            .replace("parser P with", &format!("parser P with stages = {stages},"));
        let cfg = elaborate(&ndp_spec::parse(&src).expect("generated source parses"), "P")
            .expect("generated source elaborates");
        let ts = cfg.input.tuple_bytes() as usize;
        let mut pe = PeSim::new(cfg.clone());
        let mut mem = VecMem::new(1 << 20);
        let (mut cycles, mut tuples_in, mut load_beats, mut store_beats) = (0u64, 0u64, 0u64, 0u64);
        for n_tuples in [1 + rng.gen_usize(39), cfg.tuples_per_chunk() as usize] {
            let input = random_bytes(&mut rng, n_tuples * ts);
            mem.write_bytes(0, &input);
            pe.mmio_write(offsets::SRC_LEN, input.len() as u32);
            pe.mmio_write(offsets::DST_ADDR_LO, 0x8_0000);
            pe.mmio_write(offsets::DST_CAPACITY, 1 << 18);
            let n_rules = 1 + rng.gen_u32(stages.min(3));
            for stage in 0..stages {
                // Stages past the chain go back to `nop`.
                let rule = if stage < n_rules {
                    FilterRule {
                        lane: rng.gen_u32(cfg.input.lanes),
                        op_code: rng.gen_u32(7),
                        value: rng.next_u64(),
                    }
                } else {
                    FilterRule::pass()
                };
                let base = offsets::STAGE_BASE + stage * offsets::STAGE_STRIDE;
                pe.mmio_write(base + offsets::STAGE_FIELD, rule.lane);
                pe.mmio_write(base + offsets::STAGE_OP, rule.op_code);
                pe.mmio_write(base + offsets::STAGE_VAL_LO, rule.value as u32);
                pe.mmio_write(base + offsets::STAGE_VAL_HI, (rule.value >> 32) as u32);
            }
            pe.mmio_write(offsets::START, 1);
            let res = pe.execute(&mut mem);
            assert_eq!(res.bytes_read as usize, input.len(), "case {case}");
            assert_eq!(res.result_bytes, res.bytes_written, "case {case}: nothing overflowed");
            cycles += res.cycles;
            tuples_in += u64::from(res.tuples_in);
            load_beats += u64::from(res.bytes_read).div_ceil(8);
            store_beats += u64::from(res.result_bytes).div_ceil(8);
        }
        let perf = pe.perf();
        assert_eq!(perf.tuples_in, tuples_in, "case {case}: counters accumulate across blocks");
        assert_eq!(
            perf.tuples_in,
            perf.tuples_out + perf.dropped_total(),
            "case {case}: tuples_in = tuples_out + stage drops"
        );
        assert_eq!(perf.active + perf.idle, cycles, "case {case}: every cycle is active or idle");
        assert_eq!(perf.load_beats, load_beats, "case {case}: one load beat per 8 bytes read");
        assert_eq!(perf.store_beats, store_beats, "case {case}: one store beat per 8 result bytes");
        if ts >= 8 {
            assert_eq!(perf.in_stall, 0, "case {case}: {ts}-byte identity tuples stalled the load");
        }
        pe.reset_perf();
        assert_eq!(pe.perf().tuples_in, 0, "case {case}: CNT_CTRL clears the bank");
    }
}

/// A latency histogram accounts for exactly the recorded samples: the
/// bucket populations sum to the record count, the max is exact, and
/// quantiles are monotone with upper bounds never below the true value
/// at that rank.
#[test]
fn latency_histogram_counts_every_record() {
    use nkv::LatencyHistogram;
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xD030 + case);
        let mut hist = LatencyHistogram::new();
        let n = 1 + rng.gen_usize(499);
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            // Span the full dynamic range: ns .. minutes.
            let v = rng.next_u64() >> rng.gen_u32(64);
            hist.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        assert_eq!(hist.count(), n as u64, "case {case}: every record counted");
        assert_eq!(
            hist.buckets().iter().sum::<u64>(),
            n as u64,
            "case {case}: bucket populations sum to the count"
        );
        assert_eq!(hist.max(), *samples.last().unwrap(), "case {case}: max is exact");
        let mut prev = 0;
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let est = hist.quantile(q);
            assert!(est >= prev, "case {case}: quantiles are monotone");
            // Same nearest-rank definition as `quantile`: the
            // ceil(q*n)-th smallest sample (1-indexed).
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            assert!(
                est >= samples[rank],
                "case {case}: q{q} bound {est} below true value {}",
                samples[rank]
            );
            prev = est;
        }
    }
}

// ------------------------------------------------------------- LSM props

/// The LSM tree (through flush and compaction) is observationally
/// equivalent to a `BTreeMap` under random put/delete sequences.
#[test]
fn lsm_matches_btreemap_model() {
    use cosmos_sim::{FlashArray, FlashConfig};
    use nkv::lsm::{LsmConfig, LsmTree};
    use nkv::memtable::Entry;
    use nkv::placement::PageAllocator;
    use nkv::sst::{read_block, search_block};

    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x8B80 + case);
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let cfg = LsmConfig { memtable_bytes: 1 << 14, c1_sst_limit: 2, ..LsmConfig::default() };
        let mut lsm = LsmTree::new("t", 16, cfg);
        let mut model = std::collections::BTreeMap::new();

        let rec = |key: u64, tag: u8| {
            let mut v = key.to_le_bytes().to_vec();
            v.resize(16, tag);
            v
        };

        let n_ops = 1 + rng.gen_usize(299);
        let flush_every = 10 + rng.gen_usize(40);
        for i in 0..n_ops {
            let key = rng.gen_range_u64(1, 64);
            let tag = rng.next_u32() as u8;
            if rng.gen_bool(0.5) {
                lsm.put(key, rec(key, tag));
                model.insert(key, rec(key, tag));
            } else {
                lsm.delete(key);
                model.remove(&key);
            }
            if i % flush_every == flush_every - 1 {
                lsm.flush(&mut flash, &mut alloc, 0).unwrap();
            }
            if lsm.should_compact(0) {
                lsm.compact(&mut flash, &mut alloc, 0, 0).unwrap();
            }
        }

        // Reference read path over the final state.
        for key in 1u64..64 {
            let got = match lsm.memtable_get(key) {
                Some(Entry::Value(v)) => Some(v.clone()),
                Some(Entry::Tombstone) => None,
                None => {
                    let mut found = None;
                    for sst in lsm.candidate_ssts(key) {
                        if sst.is_tombstoned(key) {
                            break;
                        }
                        if !sst.may_contain(key) {
                            continue;
                        }
                        if let Some(bi) = sst.block_for(key) {
                            let (_, data) = read_block(&mut flash, sst, bi, 0).unwrap();
                            if let Some(r) = search_block(&data, 16, key).unwrap() {
                                found = Some(r.to_vec());
                                break;
                            }
                        }
                    }
                    found
                }
            };
            assert_eq!(&got, &model.get(&key).cloned(), "case {case} key {key}");
        }
    }
}

/// SST index serialization round-trips for arbitrary record sizes and
/// key sets.
#[test]
fn sst_index_round_trips() {
    use cosmos_sim::{FlashArray, FlashConfig};
    use nkv::placement::PageAllocator;
    use nkv::sst::{deserialize_index, serialize_index, RunShape, RunWriter};

    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x9C90 + case);
        let record_bytes = [8usize, 12, 16, 20, 40, 80][rng.gen_usize(6)];
        let keys: std::collections::BTreeSet<u64> =
            (0..1 + rng.gen_usize(199)).map(|_| rng.gen_range_u64(1, 100_000)).collect();

        let mut flash = FlashArray::new(FlashConfig::default());
        let mut alloc = PageAllocator::new(flash.config());
        let shape = RunShape {
            table: "t",
            level: 1,
            record_bytes,
            block_bytes: 32 * 1024,
            entries_per_sst: usize::MAX,
            allow_duplicates: false,
        };
        let mut run = RunWriter::new(&mut flash, &mut alloc, 0, shape);
        for &k in &keys {
            let mut rec = k.to_le_bytes().to_vec();
            rec.resize(record_bytes, 0x5A);
            run.add(k, Some(&rec)).unwrap();
        }
        let meta = run.finish().unwrap().0.remove(0);
        let back = deserialize_index(&serialize_index(&meta)).unwrap();
        assert_eq!(back.blocks, meta.blocks, "case {case}");
        assert_eq!(back.n_records, meta.n_records, "case {case}");
        assert_eq!((back.min_key, back.max_key), (meta.min_key, meta.max_key), "case {case}");
    }
}

/// CRC-32C detects any single-byte corruption in a block.
#[test]
fn crc_detects_any_single_byte_change() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xAD00 + case);
        let len = 1 + rng.gen_usize(2047);
        let data = random_bytes(&mut rng, len);
        let clean = nkv::util::crc32c(&data);
        let mut corrupted = data.clone();
        let pos = rng.gen_usize(corrupted.len());
        let delta = 1 + rng.next_u32() as u8 % 255;
        corrupted[pos] ^= delta;
        assert_ne!(nkv::util::crc32c(&corrupted), clean, "case {case}");
    }
}

/// Bloom filters never produce false negatives.
#[test]
fn bloom_never_false_negative() {
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0xBE10 + case);
        let keys: std::collections::HashSet<u64> =
            (0..1 + rng.gen_usize(499)).map(|_| rng.next_u64()).collect();
        let bits_per_key = 4 + rng.gen_u32(12);
        let mut bloom = nkv::util::Bloom::new(keys.len(), bits_per_key);
        for &k in &keys {
            bloom.insert(k);
        }
        for &k in &keys {
            assert!(bloom.may_contain(k), "case {case}");
        }
    }
}
