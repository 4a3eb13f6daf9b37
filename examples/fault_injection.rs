//! The device-wide fault-injection engine in action: a seeded
//! `FaultPlan` throws transient reads, correctable-ECC degradation and
//! PE hangs at the store, which reacts with retries, watchdog-driven
//! HW→SW degradation and read-repair — then a power cut mid-persist is
//! recovered from the dual-slot manifest.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use cosmos_sim::faults::FaultPlan;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{PaperGen, PubGraphConfig};
use nkv::{Backend, NkvDb, NkvError, TableConfig};

fn main() {
    let module = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let mut db = NkvDb::default_db();
    db.create_table("papers", TableConfig::new(ndp_ir::elaborate(&module, PAPER_PE).unwrap()))
        .unwrap();
    let cfg = PubGraphConfig { papers: 5_000, refs: 5_000, seed: 7 };
    let mut buf = Vec::new();
    db.bulk_load(
        "papers",
        PaperGen::new(cfg).map(|p| {
            buf.clear();
            p.encode_into(&mut buf);
            buf.clone()
        }),
    )
    .unwrap();
    db.persist().unwrap();
    println!("loaded {} papers on the healthy device", cfg.papers);

    // A fault-free hardware scan is the reference answer.
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2010 }];
    let reference = db.scan("papers", &rules, Backend::Hardware).unwrap();
    println!("reference HW scan: {} matches", reference.count);

    // --- Turn the weather bad: flaky reads, degrading pages, and a PE
    // that hangs on every block.
    db.platform_mut().install_faults(&FaultPlan {
        seed: 42,
        transient_read_p: 0.02, // retried with simulated-time backoff
        correctable_p: 0.30,    // degrades pages; read-repair relocates them
        pe_hang_p: 1.0,         // watchdog retires the PE, blocks re-run on ARM
        ..FaultPlan::default()
    });
    let degraded = db.scan("papers", &rules, Backend::Hardware).unwrap();
    assert_eq!(degraded.records, reference.records, "degradation must not change results");
    println!(
        "faulty   HW scan: {} matches (identical), {:.1}x slower simulated",
        degraded.count,
        degraded.report.sim_ns as f64 / reference.report.sim_ns as f64
    );
    println!("{}", db.device_stats().health);

    // --- Read-repair: a couple more scans accumulate ECC-correction
    // counts, then degrading pages are relocated to fresh ones.
    for _ in 0..2 {
        db.scan("papers", &rules, Backend::Hardware).unwrap();
    }
    let repaired = db.read_repair(2).unwrap();
    let again = db.read_repair(2).unwrap();
    println!("read-repair relocated {repaired} degrading pages ({again} left on a second pass)");

    // --- The PE comes back after maintenance.
    db.platform_mut().clear_faults();
    db.reset_pes("papers").unwrap();
    let healed = db.scan("papers", &rules, Backend::Hardware).unwrap();
    assert_eq!(healed.records, reference.records);
    println!("after clear_faults + reset_pes: HW scan healthy again, {} matches", healed.count);

    // --- Power cut mid-persist: the dual-slot manifest keeps the last
    // acknowledged epoch readable.
    let mut extra = PaperGen::paper_at(&cfg, 0);
    extra.id = 1_000_000;
    buf.clear();
    extra.encode_into(&mut buf);
    db.put("papers", buf.clone()).unwrap();
    db.flush("papers").unwrap();
    db.platform_mut().install_faults(&FaultPlan {
        seed: 9,
        power_cut_at_write: Some(0), // the very next page program is torn
        ..FaultPlan::default()
    });
    match db.persist() {
        Err(NkvError::Flash(cosmos_sim::FlashError::PowerCut)) => {
            println!("power cut struck during persist — manifest write torn")
        }
        other => panic!("expected a power cut, got {other:?}"),
    }

    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    fresh.flash.reboot();
    let table_cfg = TableConfig::new(ndp_ir::elaborate(&module, PAPER_PE).unwrap());
    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), table_cfg)]).unwrap();
    let survivors = rec.scan("papers", &rules, Backend::Hardware).unwrap();
    assert_eq!(survivors.records, reference.records, "acknowledged state must survive the cut");
    println!(
        "rebooted + recovered from the surviving manifest slot: {} matches, \
         unacknowledged flush rolled back",
        survivors.count
    );
}
