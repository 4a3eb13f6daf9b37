//! The measurement loop shared by every workload.
//!
//! Load shape: one process, closed loops only (callers wait for replies).
//! Fixed *work*, not fixed time, decides what is compared: a workload's
//! measured phase repeats one fixed chunk (the identical op list) and
//! reports the **median chunk**; `--seconds` only decides how many
//! repetitions K fit. Everything on the simulated clock is read off the
//! first measured chunk, after exactly one untimed warm-up chunk on a
//! freshly built state, so it does not depend on K or on the host.

use crate::digest::Fnv;
use crate::kernels::{self, KernelCosts};
use crate::metrics::{self, Def};
use crate::span::{NameTotals, Tracer};
use crate::{json, stats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest measured chunks a phase reports a median of.
const MIN_CHUNKS: usize = 3;
/// Set-ups timed per untraced run (the first one is kept and measured on).
const SETUPS: usize = 5;
/// Set-ups faster than this are repeated until they add up to it (bounded
/// by [`MAX_SETUPS`]), so a millisecond set-up still reports a steady median.
const MIN_SETUP_TOTAL_S: f64 = 2.0;
const MAX_SETUPS: usize = 41;
/// Spans kept per traced run; later ones are counted, not stored.
const SPAN_CAPACITY: usize = 400_000;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: scale 1/512, one measured chunk.
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// What one chunk did. `values`, `calls` and `notes` only matter for the
/// first measured chunk; later chunks contribute their host time and
/// failures.
#[derive(Debug, Default)]
pub struct ChunkOut {
    /// Host nanoseconds spent inside calls into the product.
    pub host_ns: u64,
    pub ops: u64,
    pub failed: u64,
    /// Simulated nanoseconds the chunk took (all phases).
    pub sim_ns: u64,
    /// FNV-1a over the chunk's simulated values, reports and result bytes.
    pub digest: u64,
    /// Workload metrics and exact per-layer counters, by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// Calls into each micro-kernel, by the kernel's metric name
    /// (`est_host_share` = kernel ns x calls / host ns).
    pub calls: Vec<(&'static str, f64)>,
    /// Free-text facts worth a line in the report (sample counts, …).
    pub notes: Vec<String>,
}

/// What happened after the measured chunks (e.g. persist + recover).
#[derive(Debug, Default)]
pub struct FinishOut {
    pub ops: u64,
    pub failed: u64,
    /// Simulated nanoseconds of the closing operations (they count
    /// towards `sim_us_per_op` like the chunks' own).
    pub sim_ns: u64,
    pub digest: u64,
    pub values: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

pub trait Workload {
    type State;

    /// Build the state the chunks run on (timed as `setup_s`).
    fn setup(&self) -> Result<Self::State, String>;

    /// Turn on the product's own observability for the traced run.
    fn observe(&self, _st: &mut Self::State) {}

    /// Run one chunk: the identical op list every time. `detail` is set
    /// for the first measured chunk, whose counters are reported.
    fn chunk(&self, st: &mut Self::State, tr: &mut Tracer, detail: bool) -> ChunkOut;

    /// After the last chunk; consumes the state.
    fn finish(&self, _st: Self::State, _tr: &mut Tracer) -> FinishOut {
        FinishOut::default()
    }

    /// A workload whose state grows with every chunk runs exactly this
    /// many measured chunks, whatever `--seconds` says, so that its memory
    /// does not depend on the host's speed.
    fn fixed_chunks(&self) -> Option<usize> {
        None
    }

    /// Host-time facts about the last set-up (e.g. bulk-load MB/s).
    fn setup_values(&self, _st: &Self::State) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
    /// Quartiles and sample count for host metrics with repeated samples.
    pub samples: Option<(f64, f64, usize)>,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub k: usize,
    pub chunk_ops: u64,
    /// The metrics of the final result line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Further named numbers printed but not part of the result line.
    pub extra: Vec<Metric>,
    pub notes: Vec<String>,
}

struct Phase {
    chunk_s: Vec<f64>,
    /// The first measured chunk: what the simulated values and counters
    /// describe.
    first: ChunkOut,
    finish: FinishOut,
    attempted: u64,
    failed: u64,
    setup_values: Vec<(&'static str, f64)>,
}

impl Phase {
    fn digest(&self) -> u64 {
        Fnv::new().u64(self.first.digest).u64(self.finish.digest).finish()
    }

    fn median_s(&self) -> f64 {
        stats::median(&self.chunk_s)
    }

    fn note(&self, label: &str) -> String {
        format!(
            "{label}chunk host time: median {:.4} s, K = {}, spread {:.2} % of median",
            self.median_s(),
            self.chunk_s.len(),
            stats::spread(&self.chunk_s) * 100.0
        )
    }
}

/// One untimed warm-up chunk, then the measured chunks, then (when
/// `finish` is set) the workload's closing checks.
fn measure<W: Workload>(
    w: &W,
    mut st: W::State,
    tr: &mut Tracer,
    seconds: f64,
    min_chunks: usize,
    finish: bool,
) -> Phase {
    let setup_values = w.setup_values(&st);
    let mut warm_tracer = Tracer::disabled();
    let warm = w.chunk(&mut st, &mut warm_tracer, false);
    let (mut attempted, mut failed) = (warm.ops, warm.failed);

    let started = Instant::now();
    let mut chunk_s = Vec::new();
    let mut first = None;
    let fixed = w.fixed_chunks().filter(|_| min_chunks > 1);
    while match fixed {
        Some(k) => chunk_s.len() < k,
        None => chunk_s.len() < min_chunks || started.elapsed().as_secs_f64() < seconds,
    } {
        let out = w.chunk(&mut st, tr, first.is_none());
        attempted += out.ops;
        failed += out.failed;
        chunk_s.push(out.host_ns as f64 / 1e9);
        if first.is_none() {
            first = Some(out);
        }
    }
    let finish = if finish { w.finish(st, tr) } else { FinishOut::default() };
    attempted += finish.ops;
    failed += finish.failed;
    let first = first.expect("at least one measured chunk");
    Phase { chunk_s, first, finish, attempted, failed, setup_values }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64) -> Metric {
    let def = metrics::find(name).unwrap_or_else(|| panic!("metric `{name}` is not catalogued"));
    Metric { def, value, samples: None }
}

fn metric_with_samples(name: &str, value: f64, samples: &[f64]) -> Metric {
    let (q1, _, q3) = stats::quartiles(samples);
    Metric { samples: Some((q1, q3, samples.len())), ..metric(name, value) }
}

/// Run one workload as `opts` asks and assemble its report.
pub fn run<W: Workload>(w: &W, opts: &Opts) -> Result<Report, String> {
    if opts.trace {
        run_traced(w, opts)
    } else {
        run_untraced(w, opts)
    }
}

fn min_chunks(opts: &Opts) -> usize {
    if opts.quick {
        1
    } else {
        MIN_CHUNKS
    }
}

fn run_untraced<W: Workload>(w: &W, opts: &Opts) -> Result<Report, String> {
    // The measured phase runs on the first state this process builds, and
    // peak RSS is read when it ends, before anything is built a second
    // time: rebuilding into a heap the dropped state has fragmented peaked
    // at 220 or 287 MiB (`scan_bulk`) depending on the order `HashMap`s
    // happened to free their pages in, which says nothing about the code.
    let t = Instant::now();
    let st = w.setup()?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut tr = Tracer::disabled();
    let phase = measure(w, st, &mut tr, opts.seconds, min_chunks(opts), true);
    let peak_rss = peak_rss_mib();

    // `setup_s` is the median of several set-ups; the rest are timed here,
    // each state dropped as soon as it is built.
    let wanted = if opts.quick { 1 } else { SETUPS };
    while setups.len() < wanted
        || (!opts.quick
            && setups.iter().sum::<f64>() < MIN_SETUP_TOTAL_S
            && setups.len() < MAX_SETUPS)
    {
        let t = Instant::now();
        let st = w.setup()?;
        setups.push(t.elapsed().as_secs_f64());
        drop(st);
    }

    let (ops, chunk_med) = (phase.first.ops, phase.median_s());
    let rate = |name: &str, amount: f64| {
        let samples: Vec<f64> = phase.chunk_s.iter().map(|s| amount / s).collect();
        metric_with_samples(name, amount / chunk_med, &samples)
    };
    let metrics = vec![
        metric_with_samples("setup_s", stats::median(&setups), &setups),
        rate("host_ops_per_s", ops as f64),
        metric("peak_rss_mb", peak_rss),
        metric(
            "sim_us_per_op",
            (phase.first.sim_ns + phase.finish.sim_ns) as f64
                / 1e3
                / (ops + phase.finish.ops).max(1) as f64,
        ),
    ];
    let mut extra = Vec::new();
    for &(name, value) in phase.first.values.iter().chain(&phase.finish.values) {
        if metrics::WORKLOAD.iter().any(|d| d.name == name) {
            extra.push(metric(name, value));
        }
    }
    if let Some(bytes) = value_of(&phase.first.values, "chunk_bytes_scanned") {
        extra.push(rate("sim_mb_per_host_s", bytes / 1e6));
    }
    let mut notes = phase.first.notes.clone();
    notes.extend(phase.finish.notes.iter().cloned());
    notes.push(phase.note(""));
    Ok(Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: false,
        attempted: phase.attempted,
        failed: phase.failed,
        sim_digest: phase.digest(),
        k: phase.chunk_s.len(),
        chunk_ops: ops,
        metrics,
        extra,
        notes,
    })
}

fn value_of(values: &[(&'static str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

fn run_traced<W: Workload>(w: &W, opts: &Opts) -> Result<Report, String> {
    let half = opts.seconds / 2.0;
    // A throwaway set-up first, so both phases below run on memory the
    // allocator has already faulted in (the first build of a large state
    // pays for its page faults; see `setup_s` q3).
    if !opts.quick {
        drop(w.setup()?);
    }
    // (a) The reference: an untraced phase on a fresh state.
    let mut off = Tracer::disabled();
    let plain = measure(w, w.setup()?, &mut off, half, min_chunks(opts), false);

    // (b) The same on another fresh state with the benchmark's spans and
    // the product's own observability switched on.
    let mut st = w.setup()?;
    w.observe(&mut st);
    let mut tr = Tracer::enabled(SPAN_CAPACITY);
    let traced = measure(w, st, &mut tr, half, min_chunks(opts), true);

    let mut failed = plain.failed + traced.failed;
    let mut notes = traced.first.notes.clone();
    notes.extend(traced.finish.notes.iter().cloned());
    if plain.first.digest != traced.first.digest {
        // Tracing must be invisible on the simulated clock.
        failed += 1;
        notes.push(format!(
            "FAILED: traced chunk digest {:016x} != untraced {:016x}",
            traced.first.digest, plain.first.digest
        ));
    }

    let costs = kernels::measure(opts.seed);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, value) in traced
        .first
        .values
        .iter()
        .chain(&traced.finish.values)
        .chain(&traced.setup_values)
        .chain(&costs.metrics)
    {
        values.insert(name, value);
    }
    let (plain_med, traced_med) = (plain.median_s(), traced.median_s());
    if let Some(bytes) = value_of(&traced.first.values, "chunk_bytes_scanned") {
        values.insert("sim_mb_per_host_s", bytes / 1e6 / plain_med);
    }
    values.insert("trace_overhead_pct", (traced_med / plain_med - 1.0) * 100.0);
    let totals = tr.totals();
    span_metrics(&totals, &mut values);
    host_shares(&totals, &costs, &traced, plain_med, &mut values);

    let trace_path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    match std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&trace_path, tr.to_json()))
    {
        Ok(()) => notes.push(format!(
            "{} spans written to {} ({} dropped)",
            tr.spans().len(),
            trace_path.display(),
            tr.dropped()
        )),
        Err(e) => return Err(format!("cannot write {}: {e}", trace_path.display())),
    }
    notes.push(plain.note("untraced "));
    notes.push(traced.note("traced "));

    let metrics = metrics::per_layer_names()
        .map(|def| Metric {
            def,
            value: values.get(def.name).copied().unwrap_or(0.0),
            samples: None,
        })
        .collect();
    Ok(Report {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: true,
        attempted: plain.attempted + traced.attempted,
        failed,
        sim_digest: traced.digest(),
        k: traced.chunk_s.len(),
        chunk_ops: traced.first.ops,
        metrics,
        extra: Vec::new(),
        notes,
    })
}

/// Mean host time per call of the `nkv` entry points, from the spans.
fn span_metrics(
    totals: &BTreeMap<&'static str, NameTotals>,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let per_call = |span: &str, scale: f64| {
        totals.get(span).filter(|t| t.count > 0).map(|t| t.total_ns as f64 / t.count as f64 / scale)
    };
    for (span, name, scale) in [
        ("nkv.get.serial_hw", "nkv.get_hw_host_us", 1e3),
        ("nkv.get.serial_sw", "nkv.get_sw_host_us", 1e3),
        ("nkv.scan.hw", "nkv.scan_hw_host_ms", 1e6),
        ("nkv.scan.sw", "nkv.scan_sw_host_ms", 1e6),
        ("nkv.scan.par4", "nkv.scan_par4_host_ms", 1e6),
    ] {
        if let Some(v) = per_call(span, scale) {
            values.insert(name, v);
        }
    }
    // Per key / per op: the workloads record how many keys or commands a
    // call carried under the `*_per_call` pseudo-values.
    for (span, name, divisor) in [
        ("nkv.multi_get.batched16_hw", "nkv.multi_get_host_us_per_key", "multi_get.keys_per_call"),
        ("nkv.run_queued", "nkv.run_queued_host_us_per_op", "run_queued.ops_per_call"),
        (
            "nkv.cluster_run_queued",
            "nkv.cluster_run_queued_host_us_per_op",
            "run_queued.ops_per_call",
        ),
    ] {
        let per = values.get(divisor).copied().unwrap_or(0.0);
        if let (Some(v), true) = (per_call(span, 1e3), per > 0.0) {
            values.insert(name, v / per);
        }
    }
}

/// `est_host_share.<layer>` and `host_unattributed_pct`.
///
/// Layers the benchmark calls directly (the generator stages, `PeSim`,
/// the oracle) get their *measured* span self time. Layers reached only
/// through an `nkv` call are estimated from outside: micro-kernel cost x
/// the number of calls the chunk's counters imply. The remainder is the
/// gap — `nkv`'s own engine code (merge, staging, allocation) and
/// whatever the estimates miss — and is printed, not hidden.
fn host_shares(
    totals: &BTreeMap<&'static str, NameTotals>,
    costs: &KernelCosts,
    traced: &Phase,
    plain_med_s: f64,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let mut share: BTreeMap<&str, f64> = BTreeMap::new();
    // Measured: self time of spans whose name starts with a directly
    // called layer, per traced chunk.
    let traced_total_ns: f64 = traced.chunk_s.iter().sum::<f64>() * 1e9;
    for (name, t) in totals {
        let layer = name.split('.').next().unwrap_or("");
        if layer != "nkv" && metrics::LAYERS.contains(&layer) && traced_total_ns > 0.0 {
            *share.entry(layer).or_default() += t.self_ns as f64 / traced_total_ns * 100.0;
        }
    }
    // Estimated: kernel ns x calls of the first chunk / untraced chunk ns.
    for &(kernel, calls) in &traced.first.calls {
        if let Some((layer, ns)) = costs.ns_per_call(kernel) {
            *share.entry(layer).or_default() += ns * calls / (plain_med_s * 1e9) * 100.0;
        }
    }
    let mut sum = 0.0;
    for def in metrics::PER_LAYER {
        if let Some(layer) = def.name.strip_prefix("est_host_share.") {
            let v = share.get(layer).copied().unwrap_or(0.0);
            sum += v;
            values.insert(def.name, v);
        }
    }
    values.insert("host_unattributed_pct", 100.0 - sum);
}

// ------------------------------------------------------------- rendering

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== {} seed {} ({}) ==\n",
            self.workload,
            self.seed,
            if self.trace { "traced run: per-layer ledger" } else { "untraced run: end-to-end" }
        ));
        out.push_str(&format!(
            "  ops_attempted {}  ops_failed {}  sim_digest {:016x}  K {}  ops/chunk {}\n",
            self.attempted, self.failed, self.sim_digest, self.k, self.chunk_ops
        ));
        for m in self.metrics.iter().chain(&self.extra) {
            let clock = if m.def.exact { "sim " } else { "host" };
            let mut line = format!(
                "  [{clock}] {:<40} {:>16} {:<6}",
                m.def.name,
                format_value(m.value),
                m.def.unit
            );
            if let Some((q1, q3, n)) = m.samples {
                line.push_str(&format!(
                    " (q1 {} q3 {} n {})",
                    format_value(q1),
                    format_value(q3),
                    n
                ));
            }
            if self.trace && !m.def.layer.is_empty() {
                line.push_str(&format!("  {{{}}} {}", m.def.layer, m.def.note));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name,
                    json::Value::obj(vec![
                        ("value", json::Value::Num(m.value)),
                        ("unit", json::Value::str(m.def.unit)),
                    ]),
                )
            })
            .collect();
        json::Value::obj(vec![
            ("correct", json::Value::Bool(self.correct())),
            ("attempted", json::Value::Num(self.attempted.max(1) as f64)),
            ("failed", json::Value::Num(self.failed as f64)),
            ("metrics", json::Value::obj(metrics)),
        ])
        .render()
    }

    /// The detailed record `compare` reads.
    pub fn to_json(&self) -> json::Value {
        let metrics = self
            .metrics
            .iter()
            .chain(&self.extra)
            .map(|m| {
                let mut fields = vec![
                    ("value", json::Value::Num(m.value)),
                    ("unit", json::Value::str(m.def.unit)),
                ];
                if let Some((q1, q3, n)) = m.samples {
                    fields.push(("q1", json::Value::Num(q1)));
                    fields.push(("q3", json::Value::Num(q3)));
                    fields.push(("n", json::Value::Num(n as f64)));
                }
                (m.def.name, json::Value::obj(fields))
            })
            .collect();
        json::Value::obj(vec![
            ("workload", json::Value::str(&self.workload)),
            ("seed", json::Value::Num(self.seed as f64)),
            ("trace", json::Value::Bool(self.trace)),
            ("ops_attempted", json::Value::Num(self.attempted as f64)),
            ("ops_failed", json::Value::Num(self.failed as f64)),
            ("sim_digest", json::Value::Str(format!("{:016x}", self.sim_digest))),
            ("k", json::Value::Num(self.k as f64)),
            ("metrics", json::Value::obj(metrics)),
        ])
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}
