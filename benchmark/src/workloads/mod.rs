//! The five fixed-seed workloads. Names are normative: `BENCHMARK.json`,
//! the README and every later issue refer to them.

pub mod generate;
pub mod get_point;
pub mod ingest_churn;
pub mod queued_mixed;
pub mod scan_bulk;

use crate::harness::{self, Opts, Report};

/// Run the workload `opts.workload` names.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let (seed, quick) = (opts.seed, opts.quick);
    match opts.workload.as_str() {
        "scan_bulk" => harness::run(&scan_bulk::ScanBulk::new(seed, quick, opts.trace), opts),
        "get_point" => harness::run(&get_point::GetPoint::new(seed, quick), opts),
        "queued_mixed" => harness::run(&queued_mixed::QueuedMixed::new(seed, quick), opts),
        "ingest_churn" => harness::run(&ingest_churn::IngestChurn::new(seed, quick), opts),
        "generate" => harness::run(&generate::Generate::new(seed, quick), opts),
        other => Err(format!("unknown workload `{other}`")),
    }
}
