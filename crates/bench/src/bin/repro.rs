//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all [--scale 0.125 | --full]
//! cargo run --release -p bench --bin repro -- fig7a fig7b table1   # any subset, in order
//! cargo run --release -p bench --bin repro -- loadgen [--clients 1,4,16] \
//!     [--depth D] [--ops N] [--seed S] [--scale F] [--cache-mb M] \
//!     [--devices 1,2,4] [--batch B] [--qos] [--trace t.json]
//! cargo run --release -p bench --bin repro -- profile [--devices 4] [--trace t.json]
//! cargo run --release -p bench --bin repro -- explain refs year>=2010 --backend adaptive
//! ```
//!
//! Simulated device times come from the calibrated `cosmos-sim` model;
//! paper reference values are printed next to each measurement. Run with
//! `--full` to simulate the paper's complete 1.10 GB dataset (needs a few
//! GiB of RAM and a couple of minutes); the default scale of 1/8 keeps
//! the streaming terms proportional while constant per-operation
//! overheads (sub-millisecond) are unaffected.
//!
//! `loadgen` is the beyond-paper figure: a closed-loop multi-client
//! sweep through the NVMe queue engine (it defaults to its own smaller
//! scale of 1/256 because it builds one database per client count).
//!
//! Unknown subcommands and unknown flags both exit nonzero with usage.

use bench::figures;
use std::env;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if let Err(e) = parse_args(&args).and_then(run) {
        die(&e);
    }
}

/// What one command line asks for. Every argument error `repro` can
/// detect before running anything is an `Err` of [`parse_args`].
#[derive(Debug)]
enum Invocation {
    /// `repro explain <table> <query...> [--backend sw|hw|hybrid|adaptive]
    /// [--cache-mb M]` — no dataset, no simulation: lower the query and
    /// print the plan (against a cache-equipped device when M > 0).
    Explain { table: String, query: Vec<String>, backend: String, cache_mb: usize },
    /// Experiments in command-line order.
    Experiments {
        cmds: Vec<String>,
        scale: f64,
        lg: bench::LoadgenConfig,
        trace_path: Option<String>,
    },
}

fn parse_args(args: &[String]) -> Result<Invocation, String> {
    if args.first().map(String::as_str) == Some("explain") {
        return parse_explain(&args[1..]);
    }
    let mut cmds: Vec<String> = Vec::new();
    let mut scale = 1.0 / 8.0;
    let mut scale_set = false;
    let mut lg = bench::LoadgenConfig::default();
    let mut trace_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if !a.starts_with("--") {
            cmds.push(a.clone());
            continue;
        }
        let mut value = || iter.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--full" => {
                scale = 1.0;
                scale_set = true;
            }
            "--scale" => {
                // 1 is the paper's full dataset; `inf` exhausts the
                // simulated flash, and at or below 0 (or NaN) the figures
                // would be labelled with a scale nothing ran at.
                scale = match value()?.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 1.0 => s,
                    _ => return Err("--scale needs a number in (0, 1]".into()),
                };
                scale_set = true;
            }
            "--clients" => {
                lg.clients = value()?
                    .split(',')
                    .map(|c| c.parse().map_err(|_| "--clients needs n[,n...]"))
                    .collect::<Result<_, _>>()?;
            }
            "--depth" => {
                lg.depth = match value()?.parse() {
                    Ok(d) if d >= 1 => d,
                    _ => return Err("--depth needs an integer >= 1".into()),
                };
            }
            "--ops" => {
                lg.ops_per_client = value()?.parse().map_err(|_| "--ops needs an integer")?;
            }
            "--seed" => lg.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--cache-mb" => {
                lg.cache_mb = value()?.parse().map_err(|_| "--cache-mb needs an integer (MiB)")?;
            }
            "--devices" => {
                lg.devices = value()?
                    .split(',')
                    .map(|d| match d.parse() {
                        Ok(n) if n >= 1 => Ok(n),
                        _ => Err("--devices needs n[,n...] with every n >= 1"),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--batch" => {
                // No upper bound: folds beyond one key-list DMA page
                // (510 keys) split into multiple descriptors.
                lg.batch = match value()?.parse::<u32>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("--batch needs an integer >= 1".into()),
                };
            }
            "--qos" => lg.qos = true,
            "--trace" => trace_path = Some(value()?.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if scale_set {
        lg.scale = scale;
    }
    if cmds.is_empty() {
        cmds.push("all".into());
    }
    // Validate every subcommand up front so a typo in the third one
    // doesn't waste the first two's simulation time.
    const KNOWN: [&str; 9] =
        ["all", "fig7a", "fig7b", "table1", "fig8", "fig9", "ablations", "profile", "loadgen"];
    if let Some(bad) = cmds.iter().find(|c| !KNOWN.contains(&c.as_str())) {
        return Err(format!("unknown experiment `{bad}`"));
    }
    if let Some(path) = &trace_path {
        if !cmds.iter().any(|c| c == "loadgen" || c == "profile") {
            return Err("--trace only applies to the loadgen and profile experiments".into());
        }
        if cmds.iter().any(|c| c == "loadgen") && lg.devices.is_empty() {
            return Err(
                "loadgen --trace needs --devices (the merged trace comes from the cluster run)"
                    .into(),
            );
        }
        // Probe writability up front so a bad path fails before the
        // simulation time is spent, not after.
        std::fs::File::create(path)
            .map_err(|e| format!("cannot write --trace file {path}: {e}"))?;
    }
    Ok(Invocation::Experiments { cmds, scale, lg, trace_path })
}

fn parse_explain(args: &[String]) -> Result<Invocation, String> {
    let mut backend = "hw".to_string();
    let mut cache_mb = 0usize;
    let mut pos: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--backend" {
            backend = iter.next().ok_or("--backend needs a value")?.clone();
        } else if a == "--cache-mb" {
            cache_mb = iter
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("--cache-mb needs an integer (MiB)")?;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag `{a}`"));
        } else {
            pos.push(a.clone());
        }
    }
    if pos.is_empty() {
        return Err("explain needs a table: explain <table> <query...>".into());
    }
    let table = pos.remove(0);
    Ok(Invocation::Explain { table, query: pos, backend, cache_mb })
}

fn run(inv: Invocation) -> Result<(), String> {
    match inv {
        Invocation::Explain { table, query, backend, cache_mb } => {
            print!("{}", bench::explain::explain(&table, &query, &backend, cache_mb)?);
        }
        Invocation::Experiments { cmds, scale, lg, trace_path } => {
            for cmd in &cmds {
                match cmd.as_str() {
                    "all" => {
                        table1();
                        fig8();
                        fig9();
                        fig7a(scale);
                        fig7b(scale);
                        ablations(scale);
                    }
                    "fig7a" => fig7a(scale),
                    "fig7b" => fig7b(scale),
                    "table1" => table1(),
                    "fig8" => fig8(),
                    "fig9" => fig9(),
                    "ablations" => ablations(scale),
                    "profile" => profile(scale, &lg, trace_path.as_deref())?,
                    "loadgen" => loadgen(&lg, trace_path.as_deref())?,
                    _ => unreachable!("parse_args admits only KNOWN experiments"),
                }
            }
        }
    }
    Ok(())
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [all|fig7a|fig7b|table1|fig8|fig9|ablations|profile|loadgen]\n\
         \x20            [--scale F | --full]\n\
         \x20            [--clients n[,n...]] [--depth D] [--ops N] [--seed S]\n\
         \x20            [--cache-mb M] [--devices n[,n...]] [--batch B] [--qos]\n\
         \x20            [--trace PATH]  (loadgen, profile)\n\
         \x20            loadgen --devices ... --trace t.json writes the merged cluster\n\
         \x20            trace; profile --devices N adds the fleet ClusterStats fold;\n\
         \x20            loadgen --qos adds the mixed-priority FIFO-vs-QoS sweep\n\
         \x20      repro explain <table> <query...> [--backend sw|hw|hybrid|adaptive]\n\
         \x20            [--cache-mb M]\n\
         \x20            e.g. explain refs year>=2010 --backend adaptive; explain papers get 42"
    );
    std::process::exit(2)
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn fig7a(scale: f64) {
    header(&format!("Fig. 7(a) — GET runtimes (scale {scale})"));
    println!("building databases and churning C1 ...");
    let f = figures::fig7a(scale, 16);
    println!("  averaged over {} GETs (simulated device time):", f.n_gets);
    println!("    [1]  SW: {:8.3} ms    HW: {:8.3} ms", f.base_sw_ms, f.base_hw_ms);
    println!("    ours SW: {:8.3} ms    HW: {:8.3} ms", f.ours_sw_ms, f.ours_hw_ms);
    println!(
        "  shape checks: HW/SW (ours) = {:.2} (paper: no HW benefit on GET);",
        f.ours_hw_ms / f.ours_sw_ms
    );
    println!(
        "                ours/[1] (SW) = {:.2} (paper: ca. 10% firmware tax)",
        f.ours_sw_ms / f.base_sw_ms
    );
}

fn fig7b(scale: f64) {
    header(&format!("Fig. 7(b) — SCAN runtimes (scale {scale})"));
    println!("building databases ({} MB of records) ...", (1104.6 * scale) as u64);
    let f = figures::fig7b(scale);
    let x = 1.0 / scale;
    println!("  simulated device time at scale, (linear full-volume extrapolation):");
    println!(
        "    [1]  SW: {:8.3} s ({:6.3} s)    HW: {:8.3} s ({:6.3} s)   paper HW: 5.512 s",
        f.base_sw_s,
        f.base_sw_s * x,
        f.base_hw_s,
        f.base_hw_s * x
    );
    println!(
        "    ours SW: {:8.3} s ({:6.3} s)    HW: {:8.3} s ({:6.3} s)   paper HW: 5.530 s",
        f.ours_sw_s,
        f.ours_sw_s * x,
        f.ours_hw_s,
        f.ours_hw_s * x
    );
    println!(
        "  matched records: {}; HW speedup over SW (ours): {:.2}x",
        f.matched,
        f.ours_sw_s / f.ours_hw_s
    );
    if scale < 1.0 {
        println!(
            "  note: extrapolation also multiplies constant per-op overheads\n\
             \x20       (~0.6 ms total); run with --full for exact absolute numbers."
        );
    }
}

fn table1() {
    header("Table I — FPGA slice utilization (1 paper-PE + 7 ref-PEs)");
    let t = figures::table1();
    println!("               [1]            Our Work        (paper: [1] / ours)");
    println!(
        "  Overall    {:6} {:5.2}%   {:6} {:5.2}%   (40821 74.70% / 41934 76.73%)",
        t.base.overall_slices, t.base.overall_pct, t.ours.overall_slices, t.ours.overall_pct
    );
    for (name, base, ours) in &t.pe_rows {
        let reference = match name.as_str() {
            "paper-PE" => "( 9480 17.35% / 14348 26.25%)",
            _ => "( 1277  1.41% /  1446  2.65%)",
        };
        println!(
            "  {:9}  {:6} {:5.2}%   {:6} {:5.2}%   {}",
            name,
            base,
            f64::from(*base) / 546.50,
            ours,
            f64::from(*ours) / 546.50,
            reference
        );
    }
    println!("  Available  {:6} 100.00%  {:6} 100.00%", t.base.available, t.ours.available);
    println!(
        "  BRAM: ours uses {} ({} platform + 8 PEs), [1] uses {} (platform only)",
        t.ours.brams,
        t.ours.brams - 8,
        t.base.brams
    );
}

fn fig8() {
    header("Fig. 8 — Out-of-context slices vs tuple size");
    println!("  tuple bits   Full (slices)   Half (slices)   Half/Full");
    for r in figures::fig8() {
        println!(
            "  {:10}   {:13}   {:13}   {:9.3}",
            r.tuple_bits,
            r.full_slices,
            r.half_slices,
            f64::from(r.half_slices) / f64::from(r.full_slices)
        );
    }
    println!("  (paper: growth with tuple size; prefixing costs extra on small tuples)");
}

fn fig9() {
    header("Fig. 9 — Out-of-context slice % vs filtering stages (256-bit tuples)");
    println!("  stages   Full (%)   Half (%)");
    let rows = figures::fig9();
    for r in &rows {
        println!("  {:6}   {:8.3}   {:8.3}", r.stages, r.full_pct, r.half_pct);
    }
    let slope = (rows[4].full_pct - rows[0].full_pct) / 4.0;
    println!(
        "  linear growth: ~{:.3}% per stage vs {:.3}% fixed template overhead",
        slope, rows[0].full_pct
    );
}

fn profile(scale: f64, lg: &bench::LoadgenConfig, trace_path: Option<&str>) -> Result<(), String> {
    header("Profile — where the device time goes (observability stack)");
    println!("building the database with metrics + tracing enabled ...");
    let p = figures::profile(scale, 16);
    let get = p.stats.metrics.op(nkv::OpKind::Get);
    let scan = p.stats.metrics.op(nkv::OpKind::Scan);
    let per_get = |ns: u64| ns as f64 / f64::from(p.n_gets) / 1e3;
    println!("  GET (HW, {} ops) — busy time per op from the device trace:", p.n_gets);
    println!(
        "    flash: {:8.2} us   dram: {:6.2} us   pe: {:6.2} us   \
         config regs: {:6.2} us   result data: {:6.2} us",
        per_get(get.breakdown.flash_ns),
        per_get(get.breakdown.dram_ns),
        per_get(get.breakdown.pe_ns),
        per_get(get.breakdown.cfg_ns),
        per_get(get.breakdown.nvme_ns),
    );
    let tax_before = get.breakdown.cfg_ns as f64 / get.breakdown.nvme_ns.max(1) as f64;
    println!(
        "    => config-register traffic costs {tax_before:.0}x the result transfer \
         (Fig. 7a: why GET gains nothing from HW)"
    );
    // Before/after config tax: the same GET schedule re-issued through
    // batched key lists (one PE configuration + per-key START strobes).
    let batch = if lg.batch > 1 { lg.batch } else { 16 };
    let bt = figures::profile_batched_tax(scale, p.n_gets, batch);
    println!("  batched GET (key-list descriptors, {} keys/batch) — config tax:", bt.batch);
    println!("               cfg(us/get)  result(us/get)  cfg/result");
    println!(
        "    per-key   {:10.2} {:14.2} {:10.0}x",
        per_get(get.breakdown.cfg_ns),
        per_get(get.breakdown.nvme_ns),
        tax_before
    );
    println!(
        "    batched   {:10.2} {:14.2} {:10.1}x",
        bt.cfg_us_per_get, bt.nvme_us_per_get, bt.config_tax_ratio
    );
    let unbatched = figures::profile_batched_tax(scale, p.n_gets, 1);
    println!(
        "    => key lists cut the config tax {:.0}x (flash {:.2} -> {:.2} us/get \
         from shared index pages)",
        tax_before / bt.config_tax_ratio.max(f64::MIN_POSITIVE),
        per_get(get.breakdown.flash_ns),
        bt.flash_us_per_get
    );
    println!(
        "    => per-key device time {:.1} -> {:.1} us: {:.1}x GET throughput at batch {}",
        unbatched.us_per_get,
        bt.us_per_get,
        unbatched.us_per_get / bt.us_per_get.max(f64::MIN_POSITIVE),
        bt.batch
    );
    println!(
        "  SCAN (HW): flash-controller occupancy {:.1}% of wall time \
         (the paper's flash-bandwidth bottleneck)",
        p.scan_flash_occupancy * 100.0
    );
    println!(
        "    busy time: flash {:.2} ms, dram {:.2} ms, pe {:.2} ms, \
         cfg {:.3} ms, nvme {:.3} ms",
        scan.breakdown.flash_ns as f64 / 1e6,
        scan.breakdown.dram_ns as f64 / 1e6,
        scan.breakdown.pe_ns as f64 / 1e6,
        scan.breakdown.cfg_ns as f64 / 1e6,
        scan.breakdown.nvme_ns as f64 / 1e6,
    );
    println!("  {}", p.stats.to_string().replace('\n', "\n  "));
    println!(
        "  trace: {} spans captured ({} bytes of Chrome trace_event JSON; \
         see examples/profiling.rs to export)",
        p.trace_events,
        p.trace_json.len()
    );

    // Fleet-scope profile: the same workload over an N-device cluster,
    // folded through ClusterStats and the merged multi-device trace.
    let mut fleet_trace = None;
    if let Some(d) = lg.devices.iter().copied().max() {
        println!("\n  --- fleet profile ({d} hash-sharded devices) ---");
        let fp = figures::cluster_profile(scale, 16, d);
        println!("  {}", fp.stats.to_string().replace('\n', "\n  "));
        fleet_trace = Some(fp.trace_json);
    }
    if let Some(path) = trace_path {
        // With --devices the merged cluster flame graph wins; without,
        // the single-device trace is exported directly.
        let json = fleet_trace.as_deref().unwrap_or(&p.trace_json);
        write_file(path, json)?;
        eprintln!("wrote Chrome trace to {path}");
    }
    Ok(())
}

fn loadgen(cfg: &bench::LoadgenConfig, trace_path: Option<&str>) -> Result<(), String> {
    header("Loadgen — closed-loop multi-client throughput (beyond-paper)");
    println!("building one database per client count ...");
    let (fig, trace) = bench::loadgen::loadgen_traced(cfg, trace_path.is_some());
    print!("{}", bench::loadgen::render(&fig));
    if let (Some(path), Some(json)) = (trace_path, trace) {
        write_file(path, &json)?;
        eprintln!("wrote merged cluster trace to {path}");
    }
    Ok(())
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

fn ablations(scale: f64) {
    let scale = scale.min(1.0 / 64.0); // ablations don't need volume
    header(&format!("Ablations (scale {scale})"));
    println!("  [A1] SCAN time vs ref-PE count (flash-bound => flat):");
    for (n, t) in figures::ablation_pe_count(scale, &[1, 2, 4, 7]) {
        println!("    {n} PE(s): {:8.4} s (full-volume equivalent)", t);
    }
    let (ours, base) = figures::ablation_store_traffic(scale);
    println!("  [A2] PE store-unit DRAM write traffic during a selective scan:");
    println!(
        "    flexible (ours): {:9} bytes; fixed 32 KiB blocks [1]: {:9} bytes ({:.1}x)",
        ours,
        base,
        base as f64 / ours as f64
    );
    let (scan_b, agg_b, scan_s, agg_s) = figures::ablation_aggregate_pushdown(scale);
    println!("  [A3] aggregate pushdown (extension; the paper's future work):");
    println!(
        "    filtering SCAN moves {scan_b} result bytes in {scan_s:.4} s; \
         on-device COUNT moves {agg_b} bytes in {agg_s:.4} s"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn every_rejected_command_line_is_an_error_naming_the_cause() {
        for (line, cause) in [
            ("loadgen --devices zero", "--devices needs n[,n...] with every n >= 1"),
            ("loadgen --devices 0", "--devices needs n[,n...] with every n >= 1"),
            ("loadgen --devices 1,0", "--devices needs n[,n...] with every n >= 1"),
            ("loadgen --batch 0", "--batch needs an integer >= 1"),
            ("loadgen --batch banana", "--batch needs an integer >= 1"),
            // No cluster run, no merged trace — refused before the
            // writability probe would create the file.
            ("loadgen --trace repro-test-never-created.json", "loadgen --trace needs --devices"),
            ("fig7b --trace t.json", "--trace only applies"),
            (
                "loadgen --devices 1,2 --trace /nonexistent-dir/trace.json",
                "cannot write --trace file /nonexistent-dir/trace.json",
            ),
            ("definitely-not-an-experiment", "unknown experiment `definitely-not-an-experiment`"),
            ("fig7a fig7b tabel1", "unknown experiment `tabel1`"),
            ("all --definitely-not-a-flag", "unknown flag `--definitely-not-a-flag`"),
            ("loadgen --json out.json", "unknown flag `--json`"),
            ("all --scale", "--scale needs a value"),
            ("all --scale big", "--scale needs a number"),
            ("fig7a --scale inf", "--scale needs a number in (0, 1]"),
            ("all --scale 0", "--scale needs a number in (0, 1]"),
            ("all --scale -1", "--scale needs a number in (0, 1]"),
            ("all --scale NaN", "--scale needs a number in (0, 1]"),
            ("all --scale 1.5", "--scale needs a number in (0, 1]"),
            ("loadgen --depth 0", "--depth needs an integer >= 1"),
            ("loadgen --depth deep", "--depth needs an integer >= 1"),
            ("loadgen --clients 1,x", "--clients needs n[,n...]"),
            ("explain", "explain needs a table"),
            ("explain refs year>=2010 --backend", "--backend needs a value"),
            ("explain refs year>=2010 --cache-mb lots", "--cache-mb needs an integer (MiB)"),
            ("explain refs --definitely-not-a-flag", "unknown flag `--definitely-not-a-flag`"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(cause), "`{line}`: {err}");
        }
        assert!(!std::path::Path::new("repro-test-never-created.json").exists());
    }

    #[test]
    fn accepted_command_lines_carry_their_values() {
        let Ok(Invocation::Experiments { cmds, scale, lg, trace_path }) = parse("") else {
            panic!("no arguments means `all`");
        };
        assert_eq!(cmds, ["all"]);
        assert_eq!(scale, 1.0 / 8.0);
        assert_eq!(lg.scale, bench::LoadgenConfig::default().scale, "loadgen keeps its own scale");
        assert_eq!(trace_path, None);

        // Beyond one key-list DMA page (510 keys) is legal: the queue
        // engine splits the fold into capacity-sized descriptors.
        let Ok(Invocation::Experiments { cmds, scale, lg, .. }) = parse(
            "fig7a loadgen --scale 0.5 --clients 1,4 --depth 2 --ops 3 --seed 9 --cache-mb 8 \
             --devices 1,2,4 --batch 511 --qos",
        ) else {
            panic!("every flag parses");
        };
        assert_eq!(cmds, ["fig7a", "loadgen"]);
        assert_eq!((scale, lg.scale), (0.5, 0.5), "--scale feeds the figures and loadgen");
        assert_eq!((lg.clients, lg.depth, lg.ops_per_client, lg.seed), (vec![1, 4], 2, 3, 9));
        assert_eq!((lg.cache_mb, lg.devices, lg.batch, lg.qos), (8, vec![1, 2, 4], 511, true));

        let Ok(Invocation::Explain { table, query, backend, cache_mb }) =
            parse("explain refs year>=2010 venue==3 --backend hybrid --cache-mb 8")
        else {
            panic!("explain parses");
        };
        assert_eq!((table.as_str(), backend.as_str(), cache_mb), ("refs", "hybrid", 8));
        assert_eq!(query, ["year>=2010", "venue==3"]);
    }

    #[test]
    fn a_writable_trace_path_is_probed_and_accepted() {
        let path = std::env::temp_dir().join(format!("repro-trace-{}.json", std::process::id()));
        let line = format!("profile --devices 4 --trace {}", path.display());
        let Ok(Invocation::Experiments { trace_path, .. }) = parse(&line) else {
            panic!("`{line}` parses");
        };
        assert_eq!(trace_path.as_deref(), path.to_str());
        assert!(path.exists(), "the probe creates the file before any simulation runs");
        std::fs::remove_file(&path).expect("probe file is removable");
    }

    #[test]
    fn explain_errors_reach_the_caller_as_text() {
        let err = parse("explain refs definitely_not_a_lane>=1").and_then(run).unwrap_err();
        assert!(err.contains("unknown lane"), "{err}");
    }
}
