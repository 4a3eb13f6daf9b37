//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both values, the ratio with its base, the bound, and a verdict.
//!
//! * Simulated-clock metrics, `write_amp`, `space_amp`, `paper_err_pct`,
//!   `sim_digest` and `ops_failed` must be **equal**.
//! * Host metrics are `regressed` when B is worse than A by more than the
//!   bound, `unresolved` when either side's own spread (interquartile
//!   range over its median) is wider than the bound — a difference that
//!   small cannot be told from noise — and `ok` otherwise.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Def};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// First and third quartile of the run's own samples, when it has any.
    pub quartiles: Option<(f64, f64)>,
}

impl Reading {
    fn spread(&self) -> f64 {
        match self.quartiles {
            Some((q1, q3)) if self.value != 0.0 => (q3 - q1).abs() / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// By how much of A's value B is worse (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

pub fn judge(def: &Def, bound: f64, a: Reading, b: Reading) -> Verdict {
    if def.exact {
        return if a.value == b.value { Verdict::Ok } else { Verdict::Regressed };
    }
    if worse_by(def.better, a.value, b.value) > bound {
        return Verdict::Regressed;
    }
    if a.spread().max(b.spread()) > bound {
        // Too noisy to call unchanged — unless every quartile of B reads
        // better than every quartile of A.
        let clearly_better = match (def.better, a.quartiles, b.quartiles) {
            (Better::Lower, Some((a_q1, _)), Some((_, b_q3))) => b_q3 < a_q1,
            (Better::Higher, Some((_, a_q3)), Some((b_q1, _))) => b_q1 > a_q3,
            _ => false,
        };
        return if clearly_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    Verdict::Ok
}

/// Bounds by metric name: `BENCHMARK.json`'s where it lists the metric,
/// the catalogue's otherwise.
pub fn bounds(benchmark_json: Option<&str>) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = metrics::END_TO_END
        .iter()
        .chain(metrics::WORKLOAD)
        .map(|d| (d.name.to_string(), d.bound))
        .collect();
    let listed = benchmark_json
        .and_then(|t| json::parse(t).ok())
        .and_then(|doc| doc.get("end_to_end").and_then(Value::as_arr).map(<[Value]>::to_vec));
    for m in listed.unwrap_or_default() {
        if let (Some(name), Some(bound)) =
            (m.get("name").and_then(Value::as_str), m.get("bound").and_then(Value::as_f64))
        {
            out.insert(name.to_string(), bound);
        }
    }
    out
}

struct Side {
    failed: f64,
    digest: String,
    readings: BTreeMap<String, Reading>,
}

fn sides(doc: &Value) -> Result<BTreeMap<String, Side>, String> {
    let list = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("result file has no `workloads` array")?;
    let mut out = BTreeMap::new();
    for w in list {
        if w.get("trace") == Some(&Value::Bool(true)) {
            continue; // end-to-end metrics always come from the untraced run
        }
        let name = w.get("workload").and_then(Value::as_str).ok_or("workload without a name")?;
        let mut readings = BTreeMap::new();
        for (metric, v) in w.get("metrics").and_then(Value::as_obj).unwrap_or_default() {
            if let Some(value) = v.get("value").and_then(Value::as_f64) {
                let quartiles = match (
                    v.get("q1").and_then(Value::as_f64),
                    v.get("q3").and_then(Value::as_f64),
                ) {
                    (Some(q1), Some(q3)) => Some((q1, q3)),
                    _ => None,
                };
                readings.insert(metric.clone(), Reading { value, quartiles });
            }
        }
        out.insert(
            name.to_string(),
            Side {
                failed: w.get("ops_failed").and_then(Value::as_f64).unwrap_or(f64::NAN),
                digest: w.get("sim_digest").and_then(Value::as_str).unwrap_or("?").to_string(),
                readings,
            },
        );
    }
    Ok(out)
}

/// Render the comparison table. The flag is true when every row is `ok`.
pub fn compare(
    a_text: &str,
    b_text: &str,
    benchmark_json: Option<&str>,
) -> Result<(String, bool), String> {
    let a = sides(&json::parse(a_text).map_err(|e| format!("A: {e}"))?)?;
    let b = sides(&json::parse(b_text).map_err(|e| format!("B: {e}"))?)?;
    let bounds = bounds(benchmark_json);
    let mut out = String::new();
    let mut all_ok = true;
    out.push_str(&format!(
        "{:<13} {:<20} {:>16} {:>16} {:>22} {:>7}  {}\n",
        "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict"
    ));
    let mut row =
        |w: &str, m: &str, av: String, bv: String, ratio: String, bound: String, v: Verdict| {
            all_ok &= v == Verdict::Ok;
            out.push_str(&format!(
                "{w:<13} {m:<20} {av:>16} {bv:>16} {ratio:>22} {bound:>7}  {}\n",
                v.as_str()
            ));
        };
    for (name, _) in metrics::WORKLOADS {
        let (Some(sa), Some(sb)) = (a.get(*name), b.get(*name)) else {
            row(
                name,
                "(workload)",
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                Verdict::Unresolved,
            );
            continue;
        };
        for def in metrics::END_TO_END.iter().chain(metrics::WORKLOAD) {
            let (Some(&ra), Some(&rb)) = (sa.readings.get(def.name), sb.readings.get(def.name))
            else {
                continue;
            };
            let bound = bounds.get(def.name).copied().unwrap_or(def.bound);
            let ratio = if ra.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4} x {}", rb.value / ra.value, trim(ra.value))
            };
            let bound_text =
                if def.exact { "equal".to_string() } else { format!("{:.0} %", bound * 100.0) };
            row(
                name,
                def.name,
                trim(ra.value),
                trim(rb.value),
                ratio,
                bound_text,
                judge(def, bound, ra, rb),
            );
        }
        let same = |x: bool| if x { Verdict::Ok } else { Verdict::Regressed };
        row(
            name,
            "sim_digest",
            sa.digest.clone(),
            sb.digest.clone(),
            "-".into(),
            "equal".into(),
            same(sa.digest == sb.digest),
        );
        row(
            name,
            "ops_failed",
            trim(sa.failed),
            trim(sb.failed),
            "-".into(),
            "equal".into(),
            same(sa.failed == sb.failed && sa.failed == 0.0),
        );
    }
    out.push_str(if all_ok {
        "every row ok: the two runs agree within the benchmark's bounds\n"
    } else {
        "NOT every row is ok (regressed = outside the bound or unequal; unresolved = spread wider than the bound)\n"
    });
    Ok((out, all_ok))
}

fn trim(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(better: Better) -> Def {
        Def { name: "h", unit: "s", better, bound: 0.10, exact: false, layer: "", note: "" }
    }

    fn r(value: f64, q1: f64, q3: f64) -> Reading {
        Reading { value, quartiles: Some((q1, q3)) }
    }

    #[test]
    fn host_metrics_are_ok_within_the_bound_and_regressed_beyond_it() {
        let lower = host(Better::Lower);
        assert_eq!(judge(&lower, 0.10, r(10.0, 9.9, 10.1), r(10.9, 10.8, 11.0)), Verdict::Ok);
        assert_eq!(
            judge(&lower, 0.10, r(10.0, 9.9, 10.1), r(11.1, 11.0, 11.2)),
            Verdict::Regressed
        );
        assert_eq!(judge(&lower, 0.10, r(10.0, 9.9, 10.1), r(5.0, 4.9, 5.1)), Verdict::Ok);
        let higher = host(Better::Higher);
        assert_eq!(judge(&higher, 0.10, r(100.0, 99.0, 101.0), r(91.0, 90.0, 92.0)), Verdict::Ok);
        assert_eq!(
            judge(&higher, 0.10, r(100.0, 99.0, 101.0), r(89.0, 88.0, 90.0)),
            Verdict::Regressed
        );
        assert!((worse_by(Better::Higher, 100.0, 89.0) - 0.11).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_clearly_better() {
        let lower = host(Better::Lower);
        // A's own quartiles span 30 % of its median: a 5 % difference is noise.
        assert_eq!(
            judge(&lower, 0.10, r(10.0, 8.5, 11.5), r(10.5, 10.4, 10.6)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower, 0.10, r(10.0, 9.9, 10.1), r(10.5, 9.0, 12.0)),
            Verdict::Unresolved
        );
        // Every quartile of B below every quartile of A: better, not noise.
        assert_eq!(judge(&lower, 0.10, r(10.0, 8.5, 11.5), r(6.0, 5.0, 7.0)), Verdict::Ok);
        // Worse beyond the bound stays regressed however noisy.
        assert_eq!(
            judge(&lower, 0.10, r(10.0, 8.5, 11.5), r(12.0, 11.0, 13.0)),
            Verdict::Regressed
        );
        // No samples, no spread.
        let bare = |v| Reading { value: v, quartiles: None };
        assert_eq!(judge(&lower, 0.10, bare(10.0), bare(10.5)), Verdict::Ok);
    }

    #[test]
    fn simulated_metrics_must_be_equal() {
        let exact = Def { exact: true, ..host(Better::Lower) };
        let bare = |v| Reading { value: v, quartiles: None };
        assert_eq!(judge(&exact, 0.001, bare(1.5), bare(1.5)), Verdict::Ok);
        assert_eq!(judge(&exact, 0.001, bare(1.5), bare(1.5000001)), Verdict::Regressed);
        assert_eq!(
            judge(&exact, 0.001, bare(1.5), bare(1.4)),
            Verdict::Regressed,
            "even if better"
        );
    }

    fn file(setup: f64, digest: &str, failed: u64) -> String {
        format!(
            "{{\"workloads\":[{{\"workload\":\"generate\",\"trace\":false,\"ops_failed\":{failed},\
             \"sim_digest\":\"{digest}\",\"metrics\":{{\
             \"setup_s\":{{\"value\":{setup},\"q1\":{setup},\"q3\":{setup}}},\
             \"sim_us_per_op\":{{\"value\":2.5}}}}}},\
             {{\"workload\":\"generate\",\"trace\":true,\"ops_failed\":9,\"metrics\":{{}}}}]}}"
        )
    }

    #[test]
    fn compare_reads_result_files_and_flags_differences() {
        let (text, ok) = compare(&file(1.0, "ab", 0), &file(1.1, "ab", 0), None).unwrap();
        assert!(!ok, "four workloads are missing from the files");
        let gen_rows: Vec<&str> = text.lines().filter(|l| l.starts_with("generate")).collect();
        assert_eq!(gen_rows.len(), 4, "{text}");
        assert!(gen_rows.iter().all(|l| l.ends_with(" ok")), "{text}");
        assert!(gen_rows[0].contains("1.1000 x 1"), "ratio is printed with its base: {text}");

        let (text, _) = compare(&file(1.0, "ab", 0), &file(1.5, "cd", 1), None).unwrap();
        let verdict = |metric: &str| {
            let line = text.lines().find(|l| l.starts_with("generate") && l.contains(metric));
            line.unwrap().split_whitespace().last().unwrap().to_string()
        };
        assert_eq!(verdict("setup_s"), "regressed");
        assert_eq!(verdict("sim_us_per_op"), "ok");
        assert_eq!(verdict("sim_digest"), "regressed");
        assert_eq!(verdict("ops_failed"), "regressed");
    }

    #[test]
    fn benchmark_json_bounds_override_the_catalogue() {
        let b = bounds(Some("{\"end_to_end\":[{\"name\":\"setup_s\",\"bound\":0.2}]}"));
        assert_eq!(b["setup_s"], 0.2);
        let catalogued = |name: &str| metrics::find(name).unwrap().bound;
        assert_eq!(b["host_ops_per_s"], catalogued("host_ops_per_s"));
        assert_eq!(bounds(None)["setup_s"], catalogued("setup_s"));
    }
}
