//! Device-level integration tests: the full nKV stack on the simulated
//! Cosmos+ platform, including failure injection.

use cosmos_sim::{FlashError, PhysAddr};
use ndp_ir::elaborate;
use ndp_pe::oracle::FilterRule;
use ndp_pe::template::PeVariant;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC, REF_PE};
use ndp_workload::{Paper, PaperGen, PubGraphConfig, Ref, RefGen};
use nkv::{Backend, NkvDb, NkvError, TableConfig};

fn encode_paper(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

fn papers_db() -> (NkvDb, PubGraphConfig) {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let pe = elaborate(&m, PAPER_PE).unwrap();
    let mut db = NkvDb::default_db();
    db.create_table("papers", TableConfig::new(pe)).unwrap();
    let cfg = PubGraphConfig { papers: 4000, refs: 4000, seed: 77 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode_paper(&p))).unwrap();
    (db, cfg)
}

#[test]
fn hardware_and_software_agree_after_updates_and_deletes() {
    let (mut db, cfg) = papers_db();
    // Mixed mutations on top of the bulk data.
    for i in (0..cfg.papers).step_by(97) {
        let mut p = PaperGen::paper_at(&cfg, i);
        p.year = 1949; // distinctive updated value
        db.put("papers", encode_paper(&p)).unwrap();
    }
    for i in (0..cfg.papers).step_by(301) {
        db.delete("papers", i + 1).unwrap();
    }
    db.flush("papers").unwrap();
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5 /* lt */, value: 1950 }];
    let sw = db.scan("papers", &rules, Backend::Software).unwrap();
    let hw = db.scan("papers", &rules, Backend::Hardware).unwrap();
    assert_eq!(sw.records, hw.records);
    // Exactly the updated-but-not-deleted papers have year < 1950
    // (i = 0 is both updated and later deleted).
    let expected = (0..cfg.papers).step_by(97).filter(|i| i % 301 != 0).count() as u64;
    assert_eq!(sw.count, expected);
    // GETs agree too.
    for i in [0u64, 97, 301, 1234] {
        let (a, _) = db.get("papers", i + 1, Backend::Software).unwrap();
        let (b, _) = db.get("papers", i + 1, Backend::Hardware).unwrap();
        assert_eq!(a, b, "key {}", i + 1);
    }
}

#[test]
fn injected_ecc_fault_surfaces_as_flash_error() {
    let (mut db, _) = papers_db();
    // Poison a page belonging to the table's data (probe the first
    // allocated addresses — placement starts at page 0 of each LUN).
    db.platform_mut().flash.inject_bad_page(PhysAddr { channel: 0, lun: 2, page: 0 });
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 1000 }];
    // The scan must fail loudly (never silently drop data), whichever
    // block the bad page lands in.
    let result = db.scan("papers", &rules, Backend::Hardware);
    match result {
        Err(NkvError::Flash(FlashError::Uncorrectable(_))) => {}
        other => panic!("expected uncorrectable-ECC error, got {other:?}"),
    }
    // Healing restores service.
    db.platform_mut().flash.heal_page(PhysAddr { channel: 0, lun: 2, page: 0 });
    assert!(db.scan("papers", &rules, Backend::Hardware).is_ok());
}

#[test]
fn baseline_pe_population_matches_generated_results() {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let pe = elaborate(&m, PAPER_PE).unwrap();
    let cfg = PubGraphConfig { papers: 3000, refs: 3000, seed: 5 };
    let mut results = Vec::new();
    for variant in [PeVariant::Generated, PeVariant::HandCrafted] {
        let mut db = NkvDb::default_db();
        let mut tc = TableConfig::new(pe.clone());
        tc.variant = variant;
        tc.n_pes = 2;
        db.create_table("papers", tc).unwrap();
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode_paper(&p))).unwrap();
        let rules = [FilterRule { lane: paper_lanes::N_CITS, op_code: 4, value: 1500 }];
        results.push(db.scan("papers", &rules, Backend::Hardware).unwrap().records);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn duplicate_key_edge_table_full_workflow() {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let pe = elaborate(&m, REF_PE).unwrap();
    let mut db = NkvDb::default_db();
    let mut tc = TableConfig::new(pe);
    tc.unique_keys = false;
    tc.n_pes = 3;
    db.create_table("refs", tc).unwrap();
    let cfg = PubGraphConfig { papers: 500, refs: 6000, seed: 9 };
    let mut buf = Vec::new();
    let n = db
        .bulk_load(
            "refs",
            RefGen::new(cfg).map(|r| {
                buf.clear();
                r.encode_into(&mut buf);
                buf.clone()
            }),
        )
        .unwrap();
    assert_eq!(n, 6000);
    // SCAN over duplicate keys returns every matching edge.
    let rules = [FilterRule { lane: 2 /* year */, op_code: 4, value: 2000 }];
    let s = db.scan("refs", &rules, Backend::Hardware).unwrap();
    let expected = RefGen::new(cfg).filter(|r| r.year >= 2000).count() as u64;
    assert_eq!(s.count, expected);
    for rec in s.records.chunks_exact(20) {
        assert!(Ref::decode(rec).year >= 2000);
    }
    // GET by source id returns one of that source's edges.
    let (rec, _) = db.get("refs", 42, Backend::Software).unwrap();
    assert_eq!(Ref::decode(&rec.unwrap()).src, 42);
}

#[test]
fn range_scan_matches_key_range_exactly() {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let mut pe = elaborate(&m, PAPER_PE).unwrap();
    pe.stages = 2;
    let mut db = NkvDb::default_db();
    db.create_table("papers", TableConfig::new(pe)).unwrap();
    let cfg = PubGraphConfig { papers: 5000, refs: 5000, seed: 13 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode_paper(&p))).unwrap();
    for (lo, hi) in [(1u64, 2u64), (100, 1100), (4990, 6000), (6000, 7000)] {
        let s = db.range_scan("papers", lo, hi, Backend::Hardware).unwrap();
        let expected = (lo..hi.min(cfg.papers + 1)).count() as u64;
        let expected = expected.min(cfg.papers.saturating_sub(lo - 1));
        assert_eq!(s.count, expected, "range {lo}..{hi}");
    }
}

/// Regression: the rules the store issues itself — GET's `lane0 == key`
/// on the PE and RANGE_SCAN's `ge`/`lt` chain — used the standard set's
/// encodings (2/4/5) on every table. Encodings follow the declaration
/// order of the specification, so on `operators = { eq }` (where `eq`
/// is 1) a hardware GET of a present key missed, and RANGE_SCAN
/// returned nothing on any backend.
#[test]
fn store_issued_operators_use_the_tables_own_encodings() {
    const BACKENDS: [Backend; 3] = [Backend::Software, Backend::Hardware, Backend::Hybrid];
    let is_missing_op = |err: Option<NkvError>, name: &str| match err {
        Some(NkvError::Config(msg)) => msg.contains(&format!("`{name}` operator")),
        _ => false,
    };
    // (operator annotation, has eq, has ge + lt)
    for (operators, has_eq, has_range) in [
        ("", true, true),
        (", operators = { eq }", true, false),
        (", operators = { lt, ge, eq }", true, true),
        (", operators = { ge, lt }", false, true),
    ] {
        let spec = format!(
            "/* @autogen define parser RefPe with chunksize = 32, input = Ref, output = Ref,
                stages = 2{operators} */
             typedef struct {{ uint64_t src; uint64_t dst; uint32_t year; }} Ref;"
        );
        let pe = elaborate(&ndp_spec::parse(&spec).unwrap(), REF_PE).unwrap();
        let mut db = NkvDb::default_db();
        db.create_table("refs", TableConfig::new(pe)).unwrap();
        // Even keys, two flushed runs plus an unflushed tail.
        let mut model = std::collections::BTreeMap::new();
        for key in (2..=400u64).step_by(2) {
            let mut rec = Vec::new();
            Ref { src: key, dst: key * 3, year: 2000 + (key % 20) as u32 }.encode_into(&mut rec);
            db.put("refs", rec.clone()).unwrap();
            model.insert(key, rec);
            if key % 150 == 0 {
                db.flush("refs").unwrap();
            }
        }
        for backend in BACKENDS {
            let ctx = format!("`{operators}` on {backend:?}");
            // GET: present (flushed and in-memtable) and absent keys.
            for key in [2u64, 148, 151, 400, 401] {
                let got = db.get("refs", key, backend).map(|(rec, _)| rec);
                if has_eq || backend == Backend::Software {
                    assert_eq!(got.unwrap(), model.get(&key).cloned(), "get({key}), {ctx}");
                } else {
                    assert!(is_missing_op(got.err(), "eq"), "get({key}), {ctx}");
                }
            }
            let batch = db.multi_get("refs", &[148, 151], backend).map(|(slots, _)| slots);
            if has_eq || backend == Backend::Software {
                let slots: Vec<_> = batch.unwrap().into_iter().map(Result::unwrap).collect();
                assert_eq!(slots, [model.get(&148).cloned(), None], "multi_get, {ctx}");
            } else {
                assert!(is_missing_op(batch.err(), "eq"), "multi_get, {ctx}");
            }
            // RANGE_SCAN: 50 present keys, in component recency order.
            let scan = db.range_scan("refs", 100, 200, backend);
            if has_range {
                let scan = scan.unwrap();
                let mut got: Vec<&[u8]> = scan.records.chunks_exact(20).collect();
                got.sort();
                let want: Vec<&[u8]> = model.range(100..200).map(|(_, r)| r.as_slice()).collect();
                assert_eq!(scan.count, 50, "range_scan, {ctx}");
                assert_eq!(got, want, "range_scan, {ctx}");
            } else {
                assert!(is_missing_op(scan.err(), "ge"), "range_scan, {ctx}");
            }
        }
    }
}

#[test]
fn simulated_times_scale_with_data_volume() {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let pe = elaborate(&m, PAPER_PE).unwrap();
    let mut times = Vec::new();
    for n in [20_000u64, 80_000] {
        let mut db = NkvDb::default_db();
        db.create_table("papers", TableConfig::new(pe.clone())).unwrap();
        let cfg = PubGraphConfig { papers: n, refs: n, seed: 3 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode_paper(&p))).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 3000 }];
        let s = db.scan("papers", &rules, Backend::Hardware).unwrap();
        times.push(s.report.sim_ns as f64);
    }
    let ratio = times[1] / times[0];
    assert!(
        (3.2..4.8).contains(&ratio),
        "4x the data should take ~4x the streaming time \
         (constant per-op overheads shift it slightly), got {ratio:.2}x"
    );
}

/// Minimal recursive-descent JSON validator (the workspace carries no
/// serde); returns the rest of the input after one complete value.
fn json_value(s: &[u8]) -> Result<&[u8], String> {
    let s = skip_ws(s);
    match s.first() {
        Some(b'{') => json_seq(&s[1..], b'}', |s| {
            let s = json_string(skip_ws(s))?;
            let s = skip_ws(s);
            match s.first() {
                Some(b':') => json_value(&s[1..]),
                _ => Err("expected `:`".into()),
            }
        }),
        Some(b'[') => json_seq(&s[1..], b']', json_value),
        Some(b'"') => json_string(s),
        Some(b't') => json_lit(s, b"true"),
        Some(b'f') => json_lit(s, b"false"),
        Some(b'n') => json_lit(s, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let end = s
                .iter()
                .position(|c| !(c.is_ascii_digit() || b"+-.eE".contains(c)))
                .unwrap_or(s.len());
            s[..end]
                .iter()
                .any(|c| c.is_ascii_digit())
                .then(|| &s[end..])
                .ok_or_else(|| "bad number".into())
        }
        other => Err(format!("unexpected {other:?}")),
    }
}

fn skip_ws(s: &[u8]) -> &[u8] {
    let n = s.iter().take_while(|c| c.is_ascii_whitespace()).count();
    &s[n..]
}

fn json_lit<'a>(s: &'a [u8], lit: &[u8]) -> Result<&'a [u8], String> {
    s.strip_prefix(lit).ok_or_else(|| "bad literal".into())
}

fn json_string(s: &[u8]) -> Result<&[u8], String> {
    let mut rest = s.strip_prefix(b"\"").ok_or("expected string")?;
    loop {
        match rest.first().ok_or("unterminated string")? {
            b'"' => return Ok(&rest[1..]),
            b'\\' => rest = rest.get(2..).ok_or("bad escape")?,
            _ => rest = &rest[1..],
        }
    }
}

/// `items` already past the opener; elements parsed by `elem`, separated
/// by commas, closed by `close`.
fn json_seq<'a>(
    items: &'a [u8],
    close: u8,
    elem: impl Fn(&'a [u8]) -> Result<&'a [u8], String>,
) -> Result<&'a [u8], String> {
    let mut s = skip_ws(items);
    if s.first() == Some(&close) {
        return Ok(&s[1..]);
    }
    loop {
        s = skip_ws(elem(s)?);
        match s.first() {
            Some(b',') => s = skip_ws(&s[1..]),
            Some(c) if *c == close => return Ok(&s[1..]),
            other => return Err(format!("expected `,` or close, got {other:?}")),
        }
    }
}

/// The Chrome `trace_event` export of a tiny SCAN is well-formed JSON,
/// covers every device resource the op touched, orders spans by start
/// time, and is byte-for-byte reproducible across identical runs.
#[test]
fn tiny_scan_chrome_trace_is_valid_json_with_stable_ordering() {
    let run = || {
        let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        db.create_table("papers", TableConfig::new(pe)).unwrap();
        let cfg = PubGraphConfig { papers: 200, refs: 0, seed: 5 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode_paper(&p))).unwrap();
        db.enable_observability(1 << 12);
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4 /* ge */, value: 2000 }];
        let s = db.scan("papers", &rules, Backend::Hardware).unwrap();
        assert!(s.count > 0, "the tiny scan must match something");
        cosmos_sim::chrome_trace_json(&db.take_trace())
    };
    let json = run();

    // Well-formed JSON, one complete value, nothing trailing.
    let rest = json_value(json.as_bytes()).unwrap_or_else(|e| panic!("invalid JSON ({e})"));
    assert!(skip_ws(rest).is_empty(), "trailing bytes after the JSON value");
    assert!(json.starts_with("{\"traceEvents\":["), "envelope drifted");
    assert!(json.ends_with("],\"displayTimeUnit\":\"ns\"}"), "envelope drifted");

    // Every resource the scan exercised has spans, on its stable pid row.
    for (name, pid_frag) in [
        ("flash_read", "\"pid\":100,"),
        ("dram_transfer", "\"pid\":200,"),
        ("pe_job", "\"pid\":300,"),
        ("reg_access", "\"pid\":300,"),
        ("nvme_transfer", "\"pid\":400,"),
    ] {
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "no {name} spans");
        assert!(json.contains(pid_frag), "pid row {pid_frag} missing");
    }

    // Spans come out sorted by start timestamp.
    let ts: Vec<f64> = json
        .match_indices("\"ts\":")
        .map(|(i, _)| {
            let t = &json[i + 5..];
            t[..t.find(',').unwrap()].parse().unwrap()
        })
        .collect();
    assert!(!ts.is_empty() && ts.windows(2).all(|w| w[0] <= w[1]), "spans not time-ordered");

    // Deterministic: an identical run renders the identical bytes.
    assert_eq!(json, run(), "trace export is not reproducible");
}
