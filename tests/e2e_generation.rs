//! End-to-end toolflow tests: specification → generated PE → execution,
//! checked against the software oracle (the framework's core promise is
//! that the generated hardware computes exactly the declared semantics).

use ndp_core::generate;
use ndp_pe::oracle::{BlockProcessor, FilterRule, OpTable};
use ndp_pe::regs::offsets;
use ndp_pe::{MemBus, Mmio, PeDevice, VecMem};
use ndp_workload::SplitMix64;

/// Run a generated PE over `input` with `rules`; return its output bytes.
fn run_pe(
    arts: &ndp_core::Artifacts,
    name: &str,
    input: &[u8],
    rules: &[FilterRule],
) -> (Vec<u8>, u32, u32) {
    let pe = arts.pe(name).unwrap();
    let mut sim = pe.simulator();
    let mut mem = VecMem::new(1 << 20);
    mem.write_bytes(0, input);
    sim.mmio_write(offsets::SRC_LEN, input.len() as u32);
    sim.mmio_write(offsets::DST_ADDR_LO, 0x8_0000);
    sim.mmio_write(offsets::DST_CAPACITY, 1 << 18);
    for (s, r) in rules.iter().enumerate() {
        let base = offsets::STAGE_BASE + s as u32 * offsets::STAGE_STRIDE;
        sim.mmio_write(base + offsets::STAGE_FIELD, r.lane);
        sim.mmio_write(base + offsets::STAGE_OP, r.op_code);
        sim.mmio_write(base + offsets::STAGE_VAL_LO, r.value as u32);
        sim.mmio_write(base + offsets::STAGE_VAL_HI, (r.value >> 32) as u32);
    }
    sim.mmio_write(offsets::START, 1);
    let res = sim.execute(&mut mem);
    let mut out = vec![0u8; res.result_bytes as usize];
    mem.read_bytes(0x8_0000, &mut out);
    (out, res.tuples_in, res.tuples_out)
}

#[test]
fn generated_pe_equals_oracle_on_random_blocks() {
    let src = "
        /* @autogen define parser Mix with input = In, output = Out, stages = 2,
           mapping = { output.score = input.m2 } */
        typedef struct {
            uint64_t id;
            uint16_t kind;
            uint32_t m1, m2;
            /* @string(prefix = 2) */ uint8_t tag[10];
        } In;
        typedef struct { uint64_t id; uint32_t score; } Out;
    ";
    let arts = generate(src).unwrap();
    let cfg = &arts.pe("Mix").unwrap().config;
    let bp = BlockProcessor::new(cfg);
    let ops = OpTable::from_config(cfg);

    let mut rng = SplitMix64::new(42);
    for trial in 0..8 {
        let n = 1 + rng.gen_usize(199);
        let mut input = vec![0u8; n * cfg.input.tuple_bytes() as usize];
        rng.fill_bytes(&mut input[..]);
        let rules = [
            FilterRule {
                lane: rng.gen_u32(cfg.input.lanes),
                op_code: rng.gen_u32(7),
                value: u64::from(rng.next_u32()),
            },
            FilterRule {
                lane: rng.gen_u32(cfg.input.lanes),
                op_code: rng.gen_u32(7),
                value: u64::from(rng.next_u32() as u16),
            },
        ];
        let (hw_out, tin, tout) = run_pe(&arts, "Mix", &input, &rules);
        let mut sw_out = Vec::new();
        let stats = bp.process_block(&input, &rules, &ops, &mut sw_out);
        assert_eq!(hw_out, sw_out, "trial {trial}");
        assert_eq!(tin, stats.tuples_in);
        assert_eq!(tout, stats.tuples_out);
    }
}

#[test]
fn all_standard_operators_behave_end_to_end() {
    let src = "
        /* @autogen define parser Ops with input = V, output = V */
        typedef struct { uint32_t v; } V;
    ";
    let arts = generate(src).unwrap();
    let cfg = &arts.pe("Ops").unwrap().config;
    let values: Vec<u32> = vec![0, 1, 5, 10, 11, u32::MAX];
    let mut input = Vec::new();
    for v in &values {
        input.extend_from_slice(&v.to_le_bytes());
    }
    let cases: &[(&str, u64, Vec<u32>)] = &[
        ("nop", 10, vec![0, 1, 5, 10, 11, u32::MAX]),
        ("eq", 10, vec![10]),
        ("ne", 10, vec![0, 1, 5, 11, u32::MAX]),
        ("gt", 10, vec![11, u32::MAX]),
        ("ge", 10, vec![10, 11, u32::MAX]),
        ("lt", 10, vec![0, 1, 5]),
        ("le", 10, vec![0, 1, 5, 10]),
    ];
    for (op, val, expect) in cases {
        let rules = [FilterRule { lane: 0, op_code: cfg.op_code(op).unwrap(), value: *val }];
        let (out, _, tout) = run_pe(&arts, "Ops", &input, &rules);
        let got: Vec<u32> =
            out.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
        assert_eq!(&got, expect, "operator {op}");
        assert_eq!(tout as usize, expect.len());
    }
}

#[test]
fn header_and_verilog_are_consistent_with_the_config() {
    let src = "
        /* @autogen define parser Consis with input = R, output = R, stages = 4 */
        typedef struct { uint64_t a; int32_t b; float c; } R;
    ";
    let arts = generate(src).unwrap();
    let pe = arts.pe("Consis").unwrap();
    // Header advertises every register of the map at the right offset.
    for reg in &pe.register_map.regs {
        assert!(
            pe.c_header.contains(&format!("CONSIS_{} {:#04x}", reg.name(), reg.offset)),
            "register {} missing from header",
            reg.name()
        );
    }
    // Verilog instantiates one filter unit per stage and a float-capable
    // comparator (the struct has a float lane).
    for s in 0..4 {
        assert!(pe.verilog.contains(&format!("filter_unit_{s}")));
    }
    assert!(pe.verilog.contains("compare_unit_w64_ops7"));
    // The regfile is sized exactly to the map.
    assert!(pe.verilog.contains(&format!("ctrl_regfile_n{}", pe.register_map.len())));
}

#[test]
fn regenerating_after_format_evolution_changes_only_what_it_should() {
    // The motivation scenario: the record format evolves; regeneration
    // must pick up the new layout without touching unrelated behavior.
    let v1 = "
        /* @autogen define parser Evo with input = R, output = R */
        typedef struct { uint64_t id; uint32_t a; } R;
    ";
    let v2 = "
        /* @autogen define parser Evo with input = R, output = R */
        typedef struct { uint64_t id; uint32_t a; uint32_t b; } R;
    ";
    let a1 = generate(v1).unwrap();
    let a2 = generate(v2).unwrap();
    let (p1, p2) = (a1.pe("Evo").unwrap(), a2.pe("Evo").unwrap());
    assert_eq!(p1.config.input.lanes + 1, p2.config.input.lanes);
    assert!(p2.report.slices_in_context > p1.report.slices_in_context);
    // Same register protocol: the firmware interface is stable.
    assert_eq!(p1.register_map.regs.len(), p2.register_map.regs.len());
    assert_eq!(p1.register_map.filter_counter_offset(), p2.register_map.filter_counter_offset());
}

#[test]
fn chunk_granularity_is_respected() {
    // chunksize = 1 KiB: a generated PE refuses larger transfers
    // (SRC_LEN is clamped to the chunk).
    let src = "
        /* @autogen define parser Small with chunksize = 1, input = R, output = R */
        typedef struct { uint64_t id; } R;
    ";
    let arts = generate(src).unwrap();
    let mut sim = arts.pe("Small").unwrap().simulator();
    let mut mem = VecMem::new(1 << 16);
    let input = vec![0xAAu8; 4096];
    mem.write_bytes(0, &input);
    sim.mmio_write(offsets::SRC_LEN, 4096);
    sim.mmio_write(offsets::DST_ADDR_LO, 0x8000);
    sim.mmio_write(offsets::DST_CAPACITY, 8192);
    sim.mmio_write(offsets::START, 1);
    let res = sim.execute(&mut mem);
    assert_eq!(res.bytes_read, 1024, "transfer clamps to the 1 KiB chunk");
    assert_eq!(res.tuples_in, 128);
}
