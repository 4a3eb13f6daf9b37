//! The repo's benchmark: two-clock end-to-end metrics, a per-layer
//! ledger and five fixed-seed workloads. See `README.md`.
//!
//! ```text
//! benchmark [run] --workload W --seed N --seconds S --trace 0|1   one workload, in process
//! benchmark [run] [--seed N] [--seconds S] [--quick] [--out FILE] every workload, one process each
//! benchmark compare A.json B.json
//! ```

mod adapter;
mod compare;
mod digest;
mod harness;
mod json;
mod kernels;
mod metrics;
mod span;
mod stats;
mod workloads;

use harness::Opts;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
                  [--out FILE] [--out-dir DIR]
  benchmark compare A.json B.json

  --workload W   scan_bulk | get_point | queued_mixed | ingest_churn | generate
                 (default: all of them, each in its own process, untraced then traced)
  --seed N       workload seed (default 42): dataset, key choice and op mix
  --seconds S    length of each measured phase (default 10)
  --trace 0|1    0: end-to-end metrics; 1: spans + product observability, per-layer metrics
  --quick        smoke run: scale 1/512, K = 1 measured chunk, one set-up
  --out FILE     where the suite writes its merged results (default <out-dir>/run-seed<N>.json)
  --out-dir DIR  result and trace files (default benchmark/out)";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                if !metrics::WORKLOADS.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.seed =
                    value(&mut i, "--seed")?.parse().map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut i, "--seconds")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone means 1; `--trace 0|1` is the driver's form.
                cli.trace = Some(match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                });
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            "--out-dir" => cli.out_dir = PathBuf::from(value(&mut i, "--out-dir")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(cli)
}

/// 0 when everything checked out, 1 when something failed or regressed
/// (2 is kept for usage and I/O errors).
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn result_path(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(format!("result-{workload}-trace{}.json", u8::from(trace)))
}

/// One workload, in this process. Prints every metric by name with its
/// unit, then the result line.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let opts = Opts {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick { 0.0 } else { 10.0 }),
        trace: cli.trace.unwrap_or(false),
        quick: cli.quick,
        out_dir: cli.out_dir.clone(),
    };
    let report = match workloads::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let path = result_path(&opts.out_dir, workload, opts.trace);
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, report.to_json().render() + "\n"))
    {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    print!("{}", report.render());
    println!("{}", report.result_line());
    exit_code(report.correct())
}

/// Every workload, each in its own process (so `peak_rss_mb` is the
/// workload's own), untraced then traced; results merged into one file.
fn run_suite(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let traces: Vec<bool> = cli.trace.map_or(vec![false, true], |t| vec![t]);
    let mut merged = Vec::new();
    let mut all_ok = true;
    for (workload, _) in metrics::WORKLOADS {
        let mut digests = Vec::new();
        for &trace in &traces {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", workload, "--seed", &cli.seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&cli.out_dir);
            if let Some(s) = cli.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if cli.quick {
                cmd.arg("--quick");
            }
            // The child inherits stdout; `status` waits until it has ended.
            match cmd.status() {
                Ok(status) => all_ok &= status.success(),
                Err(e) => {
                    eprintln!("benchmark: cannot start {workload}: {e}");
                    return ExitCode::from(2);
                }
            }
            let path = result_path(&cli.out_dir, workload, trace);
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| json::parse(&t))
            {
                Ok(v) => {
                    digests.extend(
                        v.get("sim_digest").and_then(json::Value::as_str).map(String::from),
                    );
                    merged.push(v);
                }
                Err(e) => {
                    eprintln!("benchmark: no result from {workload} at {}: {e}", path.display());
                    all_ok = false;
                }
            }
        }
        // The repo's timing-invisibility invariant: observability on or
        // off, the simulated clock reads the same.
        if let [untraced, traced] = digests.as_slice() {
            if untraced != traced {
                println!("FAILED: {workload}: traced sim_digest {traced} != untraced {untraced}");
                all_ok = false;
            }
        }
    }
    let out =
        cli.out.clone().unwrap_or_else(|| cli.out_dir.join(format!("run-seed{}.json", cli.seed)));
    let doc = json::Value::obj(vec![
        ("seed", json::Value::Num(cli.seed as f64)),
        ("quick", json::Value::Bool(cli.quick)),
        ("workloads", json::Value::Arr(merged)),
    ]);
    if let Err(e) = std::fs::write(&out, doc.render() + "\n") {
        eprintln!("benchmark: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!(
        "suite {}: results in {}",
        if all_ok { "ok (ops_failed = 0 everywhere)" } else { "FAILED" },
        out.display()
    );
    exit_code(all_ok)
}

fn run_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let benchmark_json = std::fs::read_to_string("BENCHMARK.json").ok();
    match (read(a), read(b)) {
        (Ok(ta), Ok(tb)) => match compare::compare(&ta, &tb, benchmark_json.as_deref()) {
            Ok((table, ok)) => {
                print!("{table}");
                exit_code(ok)
            }
            Err(e) => {
                eprintln!("benchmark compare: {e}");
                ExitCode::from(2)
            }
        },
        (ra, rb) => {
            for e in [ra.err(), rb.err()].into_iter().flatten() {
                eprintln!("benchmark compare: {e}");
            }
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = match args.first().map(String::as_str) {
        Some("compare") => return run_compare(&args[1..]),
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => &args[1..],
        _ => &args[..],
    };
    let cli = match parse_cli(rest) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(w) => run_one(&cli, w),
        None => run_suite(&cli),
    }
}
