//! The device-wide observability stack, end to end: hardware
//! performance counters read back from a generated PE, op-level latency
//! histograms and busy-time breakdowns from the key-value store, and a
//! Chrome `trace_event` JSON export of the device-internal spans
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! ```text
//! cargo run --release --example profiling [-- <trace-output.json>]
//! ```

use ndp_pe::oracle::FilterRule;
use ndp_pe::regs::{offsets, perf_offsets};
use ndp_pe::template::{pe_report_opts, PeObservability, PeVariant};
use ndp_pe::{MemBus, Mmio, PeDevice, VecMem};
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{PaperGen, PubGraphConfig};
use nkv::{Backend, NkvDb, TableConfig};

/// `ge` in the standard operator set (ndp-ir encoding).
const OP_GE: u32 = 4;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "target/profile_trace.json".into());

    // --- 1. The synthesis cost of observability. The software surface
    // always exposes the CNT_* bank; whether the counter logic is
    // synthesized is a template option, so the figure paths keep the
    // paper's exact slice counts.
    let module = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let cfg = ndp_ir::elaborate(&module, PAPER_PE).unwrap();
    let stripped = pe_report_opts(&cfg, PeVariant::Generated, PeObservability::Stripped);
    let counters = pe_report_opts(&cfg, PeVariant::Generated, PeObservability::Counters);
    println!("=== Hardware tax of the performance-counter bank (paper-PE) ===");
    println!(
        "  stripped: {} slices   with counters: {} slices   (+{}, {} CNT_* registers)",
        stripped.slices_in_context,
        counters.slices_in_context,
        counters.slices_in_context - stripped.slices_in_context,
        9 + cfg.stages
    );

    // --- 2. Counter readback from a running PE: filter `year >= 2010`
    // over a batch of encoded Paper records and read the CNT_* bank.
    let artifacts = ndp_core::generate(PAPER_REF_SPEC).expect("workload spec is valid");
    let pe = artifacts.pe(PAPER_PE).expect("paper PE is defined");
    let mut sim = pe.simulator();
    let mut mem = VecMem::new(1 << 20);
    let gen_cfg = PubGraphConfig { papers: 512, refs: 512, seed: 11 };
    let mut bytes = Vec::new();
    for p in PaperGen::new(gen_cfg) {
        p.encode_into(&mut bytes);
    }
    mem.write_bytes(0, &bytes);
    sim.mmio_write(offsets::SRC_ADDR_LO, 0);
    sim.mmio_write(offsets::SRC_LEN, bytes.len() as u32);
    sim.mmio_write(offsets::DST_ADDR_LO, 0x8_0000);
    sim.mmio_write(offsets::DST_CAPACITY, 1 << 19);
    sim.mmio_write(offsets::STAGE_BASE + offsets::STAGE_FIELD, paper_lanes::YEAR);
    sim.mmio_write(offsets::STAGE_BASE + offsets::STAGE_OP, OP_GE);
    sim.mmio_write(offsets::STAGE_BASE + offsets::STAGE_VAL_LO, 2010);
    sim.mmio_write(offsets::START, 1);
    let res = sim.execute(&mut mem);
    let perf = sim.perf().clone();
    println!("\n=== CNT_* readback after one block ({} tuples) ===", res.tuples_in);
    println!(
        "  tuples in/out: {}/{}   stage drops: {:?}   load/store beats: {}/{}",
        perf.tuples_in, perf.tuples_out, perf.stage_drops, perf.load_beats, perf.store_beats
    );
    println!(
        "  cycles: {} active + {} idle = {}   stalls: in {}, out {}",
        perf.active, perf.idle, res.cycles, perf.in_stall, perf.out_stall
    );
    assert_eq!(perf.tuples_in, perf.tuples_out + perf.dropped_total(), "conservation");
    assert_eq!(perf.active + perf.idle, res.cycles, "every cycle accounted");
    // The bank is W1C-cleared through CNT_CTRL, like real hardware.
    sim.mmio_write(offsets::STAGE_BASE + offsets::STAGE_STRIDE + perf_offsets::CNT_CTRL, 1);

    // --- 3. Op-level metrics on the store: load a small corpus, run
    // GETs and a hardware SCAN with full observability on, and render
    // the device's own account of where the time went.
    let mut db = NkvDb::default_db();
    db.create_table("papers", TableConfig::new(cfg)).unwrap();
    db.enable_observability(1 << 20);
    let mut buf = Vec::new();
    db.bulk_load(
        "papers",
        PaperGen::new(gen_cfg).map(|p| {
            buf.clear();
            p.encode_into(&mut buf);
            buf.clone()
        }),
    )
    .unwrap();
    for i in 0..8 {
        let p = PaperGen::paper_at(&gen_cfg, (i * 61) % gen_cfg.papers);
        let (rec, _) = db.get("papers", p.id, Backend::Hardware).unwrap();
        assert!(rec.is_some());
    }
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: OP_GE, value: 2010 }];
    let scan = db.scan("papers", &rules, Backend::Hardware).unwrap();
    println!("\n=== Device stats after {} GETs + 1 SCAN ({} matches) ===", 8, scan.count);
    println!("{}", db.device_stats());

    // --- 4. Export the trace for chrome://tracing / Perfetto.
    let trace = db.take_trace();
    let json = cosmos_sim::chrome_trace_json(&trace);
    std::fs::write(&out_path, &json).expect("trace file is writable");
    println!(
        "\nwrote {} spans ({} bytes of trace_event JSON) to {}",
        trace.len(),
        json.len(),
        out_path
    );
}
