//! The paper's evaluation workload on the full stack: a publication
//! reference graph stored in nKV on the simulated Cosmos+ OpenSSD,
//! queried with GET and SCAN in software and hardware NDP modes.
//!
//! ```text
//! cargo run --release --example pubgraph_scan [-- scale]
//! ```
//!
//! `scale` is a fraction of the paper's 3.78 M-paper / 40.1 M-reference
//! dataset (default 1/128 ≈ 8.6 MB of records).

use cosmos_sim::ns_to_secs;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, ref_lanes};
use ndp_workload::PaperGen;
use nkv::Backend;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0 / 128.0);

    println!("building the device and loading the publication graph (scale {scale}) ...");
    let module = ndp_spec::parse(ndp_workload::PAPER_REF_SPEC).unwrap();
    let paper_pe = ndp_ir::elaborate(&module, ndp_workload::PAPER_PE).unwrap();
    let ref_pe = ndp_ir::elaborate(&module, ndp_workload::REF_PE).unwrap();

    let mut db = nkv::NkvDb::default_db();
    let mut papers = nkv::TableConfig::new(paper_pe);
    papers.n_pes = 1;
    db.create_table("papers", papers).unwrap();
    let mut refs = nkv::TableConfig::new(ref_pe);
    refs.n_pes = 7; // the paper's population: 1 paper-PE + 7 ref-PEs
    refs.unique_keys = false;
    db.create_table("refs", refs).unwrap();

    let cfg = ndp_workload::PubGraphConfig::scaled(scale);
    let mut buf = Vec::new();
    db.bulk_load(
        "papers",
        ndp_workload::PaperGen::new(cfg).map(|p| {
            buf.clear();
            p.encode_into(&mut buf);
            buf.clone()
        }),
    )
    .unwrap();
    let mut buf = Vec::new();
    db.bulk_load(
        "refs",
        ndp_workload::RefGen::new(cfg).map(|r| {
            buf.clear();
            r.encode_into(&mut buf);
            buf.clone()
        }),
    )
    .unwrap();
    println!(
        "loaded {} papers and {} references ({} MB)",
        cfg.papers,
        cfg.refs,
        cfg.total_bytes() / 1_000_000
    );

    // --- GET: a point lookup on the papers table.
    let sample = PaperGen::paper_at(&cfg, cfg.papers / 3);
    for (backend, tag) in [(Backend::Software, "sw"), (Backend::Hardware, "hw")] {
        let (rec, rep) = db.get("papers", sample.id, backend).unwrap();
        assert!(rec.is_some());
        println!(
            "GET  paper {:7} [{}]: {:8.3} ms simulated ({} blocks read)",
            sample.id,
            tag,
            rep.sim_ns as f64 / 1e6,
            rep.blocks
        );
    }

    // --- SCAN: recent papers (year >= 2015) — the I/O-heavy operation
    // where near-data processing pays off.
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2015 }];
    let mut times = Vec::new();
    for (backend, tag) in [(Backend::Software, "sw"), (Backend::Hardware, "hw")] {
        let s = db.scan("papers", &rules, backend).unwrap();
        println!(
            "SCAN papers year>=2015 [{}]: {:8.3} ms simulated, {} matches \
             ({} MB scanned)",
            tag,
            s.report.sim_ns as f64 / 1e6,
            s.count,
            s.report.bytes_scanned / 1_000_000
        );
        times.push(s.report.sim_ns);
    }
    println!("hardware NDP speedup on SCAN: {:.2}x", times[0] as f64 / times[1] as f64);

    // --- SCAN on the edge table with 7 ref-PEs in parallel.
    let rules = [FilterRule { lane: ref_lanes::YEAR, op_code: 2, value: 1980 }];
    let s = db.scan("refs", &rules, Backend::Hardware).unwrap();
    println!(
        "SCAN refs year==1980 [hw, 7 PEs]: {:8.3} ms simulated, {} matches",
        s.report.sim_ns as f64 / 1e6,
        s.count
    );
    println!("total simulated device time: {:.3} s", ns_to_secs(db.clock()));
}
