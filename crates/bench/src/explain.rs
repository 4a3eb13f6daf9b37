//! `repro explain`: render the planner's EXPLAIN for a query.
//!
//! Lowering only reads a table's *capabilities* (stage count, lanes,
//! PE pool, parallel streams), so this builds the paper's device with
//! empty tables — no bulk load — and asks [`nkv::NkvDb::explain`] for
//! the rendering. The refs table is configured with 4 parallel PE job
//! streams to show the fan-out a scan plan picks up.
//!
//! Query grammar (one op per invocation):
//!
//! * `get <key>` — point lookup;
//! * `range <lo>..<hi>` — key-range scan (`lo <= key < hi`);
//! * one or more predicates `lane<op>value` with ops `>=ge` `<lt`
//!   `==eq` `!=ne`, e.g. `year>=2010 venue==3` — a conjunctive SCAN.
//!
//! Lane names are per table: papers has `id year venue n_cits n_refs
//! title_prefix`, refs has `src dst year`.

use ndp_ir::elaborate;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, ref_lanes, PAPER_PE, PAPER_REF_SPEC, REF_PE};
use nkv::{Backend, LogicalOp, NkvDb, TableConfig, Tier};

/// Streams the refs table's scan plans fan out to in the explain device
/// (and the device the README example builds).
pub(crate) const EXPLAIN_REF_STREAMS: usize = 4;

/// Build the paper's device shape (1 paper-PE, 7 ref-PEs) with empty
/// tables — capabilities only, no data. A nonzero `cache_mb` turns on
/// the device-DRAM block cache so plans advertise it.
fn explain_db(cache_mb: usize) -> NkvDb {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("bundled spec parses");
    let paper_pe = elaborate(&module, PAPER_PE).expect("bundled spec elaborates");
    let ref_pe = elaborate(&module, REF_PE).expect("bundled spec elaborates");
    let mut db = NkvDb::default_db();
    let mut papers_cfg = TableConfig::new(paper_pe);
    papers_cfg.n_pes = 1;
    db.create_table("papers", papers_cfg).expect("table config is valid");
    let mut refs_cfg = TableConfig::new(ref_pe);
    refs_cfg.n_pes = 7;
    refs_cfg.unique_keys = false;
    refs_cfg.parallel_pes = EXPLAIN_REF_STREAMS;
    db.create_table("refs", refs_cfg).expect("table config is valid");
    if cache_mb > 0 {
        db.enable_cache(cache_mb << 20);
    }
    db
}

fn lane_of(table: &str, name: &str) -> Option<u32> {
    match table {
        "papers" => Some(match name {
            "id" => paper_lanes::ID,
            "year" => paper_lanes::YEAR,
            "venue" => paper_lanes::VENUE,
            "n_cits" => paper_lanes::N_CITS,
            "n_refs" => paper_lanes::N_REFS,
            "title_prefix" => paper_lanes::TITLE_PREFIX,
            _ => return None,
        }),
        "refs" => Some(match name {
            "src" => ref_lanes::SRC,
            "dst" => ref_lanes::DST,
            "year" => ref_lanes::YEAR,
            _ => return None,
        }),
        _ => None,
    }
}

fn parse_predicate(table: &str, token: &str) -> Result<FilterRule, String> {
    // Two-char operators first so `>=` does not parse as `>`.
    for (sym, code) in [(">=", 4u32), ("==", 2), ("!=", 1), ("<", 5)] {
        if let Some((name, val)) = token.split_once(sym) {
            let lane = lane_of(table, name)
                .ok_or_else(|| format!("unknown lane `{name}` on table `{table}`"))?;
            let value =
                val.parse().map_err(|_| format!("predicate `{token}` needs an integer value"))?;
            return Ok(FilterRule { lane, op_code: code, value });
        }
    }
    Err(format!("cannot parse predicate `{token}` (want lane>=N, lane<N, lane==N or lane!=N)"))
}

fn parse_query(table: &str, query: &[String]) -> Result<LogicalOp, String> {
    match query.first().map(String::as_str) {
        None => Err("explain needs a query (predicates, `get <key>` or `range <lo>..<hi>`)".into()),
        Some("get") => {
            let key =
                query.get(1).and_then(|k| k.parse().ok()).ok_or("`get` needs an integer key")?;
            Ok(LogicalOp::Get { key })
        }
        Some("range") => {
            let span = query.get(1).ok_or("`range` needs <lo>..<hi>")?;
            let (lo, hi) = span.split_once("..").ok_or("`range` needs <lo>..<hi>")?;
            let lo = lo.parse().map_err(|_| "`range` bounds must be integers".to_string())?;
            let hi = hi.parse().map_err(|_| "`range` bounds must be integers".to_string())?;
            Ok(LogicalOp::RangeScan { lo, hi })
        }
        Some(_) => {
            let rules =
                query.iter().map(|t| parse_predicate(table, t)).collect::<Result<Vec<_>, _>>()?;
            Ok(LogicalOp::Scan { rules })
        }
    }
}

/// Parse and render: the whole subcommand behind `repro explain`.
/// `cache_mb > 0` plans against a device with that much block cache.
pub fn explain(
    table: &str,
    query: &[String],
    backend: &str,
    cache_mb: usize,
) -> Result<String, String> {
    let tier = match backend {
        "sw" => Tier::Forced(Backend::Software),
        "hw" => Tier::Forced(Backend::Hardware),
        "hybrid" => Tier::Forced(Backend::Hybrid),
        // Cost-based tier selection: the plan renders with the chosen
        // tier plus the per-tier estimates that drove the choice.
        "adaptive" => Tier::Adaptive,
        other => {
            return Err(format!("unknown backend `{other}` (want sw, hw, hybrid or adaptive)"))
        }
    };
    if table != "papers" && table != "refs" {
        return Err(format!("unknown table `{table}` (the explain device has: papers, refs)"));
    }
    let op = parse_query(table, query)?;
    let db = explain_db(cache_mb);
    db.explain(table, &op, tier).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(table: &str, query: &[&str], backend: &str) -> String {
        let q: Vec<String> = query.iter().map(|s| s.to_string()).collect();
        explain(table, &q, backend, 0).unwrap()
    }

    #[test]
    fn snapshot_parallel_hardware_scan() {
        assert_eq!(
            run("refs", &["year>=2010"], "hw"),
            "PLAN SCAN ON refs (backend: hardware)\n\
             \x20 pushed -> PE filtering stages:\n\
             \x20   [0] lane2 >= 2010\n\
             \x20 dispatch: 4 parallel PE job stream(s) over flash-channel groups, \
             merged in (component, block) order\n\
             \x20 then: version reconciliation + NVMe result transfer\n"
        );
        // One pushable predicate leaves hybrid nothing to keep on the
        // ARM: the same plan under the other backend's name.
        assert_eq!(
            run("refs", &["year>=2010"], "hybrid"),
            run("refs", &["year>=2010"], "hw").replace("hardware", "hybrid")
        );
    }

    #[test]
    fn snapshot_hybrid_residual_split() {
        // The paper-PE has one filtering stage: the second predicate
        // stays on the ARM as a residual post-filter.
        assert_eq!(
            run("papers", &["year>=2010", "venue==3"], "hybrid"),
            "PLAN SCAN ON papers (backend: hybrid)\n\
             \x20 pushed -> PE filtering stages:\n\
             \x20   [0] lane1 >= 2010\n\
             \x20 residual -> ARM post-filter over PE output:\n\
             \x20   [1] lane2 == 3\n\
             \x20 dispatch: serial block stream (legacy)\n\
             \x20 then: version reconciliation + NVMe result transfer\n"
        );
    }

    #[test]
    fn snapshot_get_and_range() {
        assert_eq!(
            run("papers", &["get", "42"], "hw"),
            "PLAN GET ON papers (backend: hardware)\n\
             \x20 memtable probe -> bloom-pruned index walk -> one block search\n\
             \x20 pushed -> PE 0 stage: lane0 == 42\n"
        );
        let range = run("refs", &["range", "100..200"], "sw");
        assert!(range.starts_with("PLAN SCAN ON refs (backend: software)\n"), "{range}");
        assert!(range.contains("[0] lane0 >= 100\n"), "{range}");
        assert!(range.contains("[1] lane0 < 200\n"), "{range}");
    }

    #[test]
    fn snapshot_cache_line_appears_only_with_a_budget() {
        let q = vec!["year>=2010".to_string()];
        let cached = explain("refs", &q, "hw", 8).unwrap();
        assert!(
            cached.contains("  cache=device-DRAM segmented-LRU, budget 8192 KiB\n"),
            "{cached}"
        );
        let plain = explain("refs", &q, "hw", 0).unwrap();
        assert!(!plain.contains("cache="), "{plain}");
        // Everything but the cache line is the budget-independent plan.
        assert_eq!(
            cached.replace("  cache=device-DRAM segmented-LRU, budget 8192 KiB\n", ""),
            plain
        );
    }

    #[test]
    fn snapshot_adaptive_renders_tier_and_costs() {
        // The explain device's tables are empty (capabilities only), so
        // the cost model sees zero flash blocks and keeps the scan on
        // the ARM path — rendered with the per-tier estimates.
        let text = run("refs", &["year>=2010"], "adaptive");
        assert!(text.starts_with("PLAN SCAN ON refs (backend: software)\n"), "{text}");
        assert!(text.contains("  cost: software "), "{text}");
        assert!(text.contains(", hardware "), "{text}");
        assert!(text.contains(", hybrid "), "{text}");
        assert!(
            text.ends_with("  adaptive: chose software (scan cold after 0 sightings)\n"),
            "{text}"
        );
        // A GET prices all three tiers too, and stays typed on errors.
        let get = run("papers", &["get", "42"], "adaptive");
        assert!(get.contains("adaptive: chose "), "{get}");
    }

    #[test]
    fn bad_inputs_are_reported_not_panicked() {
        let q = |s: &str| vec![s.to_string()];
        assert!(explain("papers", &q("nope>=1"), "hw", 0).unwrap_err().contains("unknown lane"));
        assert!(explain("nope", &q("year>=1"), "hw", 0).unwrap_err().contains("unknown table"));
        assert!(explain("papers", &q("year>=x"), "hw", 0).unwrap_err().contains("integer"));
        assert!(explain("papers", &q("year>=1"), "warp", 0).unwrap_err().contains("backend"));
        assert!(explain("papers", &[], "hw", 0).is_err());
        // Planner errors surface as text too: a 2-rule chain cannot run
        // purely in the paper-PE's single hardware stage.
        let long: Vec<String> = ["year>=2010", "venue==3"].iter().map(|s| s.to_string()).collect();
        let err = explain("papers", &long, "hw", 0).unwrap_err();
        assert!(err.contains("filtering stage"), "{err}");
    }
}
