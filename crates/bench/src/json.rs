//! Hand-rolled JSON emission for the `BENCH_*.json` artifacts.
//!
//! The workspace carries no serde, so every machine-readable artifact
//! (`BENCH_loadgen.json`, `BENCH_profile.json`) is emitted through the
//! two primitives here: [`json_str`] (escaping) and [`json_num`]
//! (finite-only floats). Emitters are stable by construction — same
//! inputs, same bytes — because `scripts/check.sh` diffs the artifacts
//! against their committed copies. Every artifact
//! carries a top-level `schema` (versioned name) and `seed` field so a
//! reader can tell what produced it.

use std::fmt::Write as _;

/// Escape a string for a JSON literal (the latency summaries only carry
/// ASCII, but stay safe anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` as a JSON number (`null` for the non-finite values
/// JSON cannot carry).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Emit a [`nkv::ClusterStats`] snapshot as a JSON object (no trailing
/// newline; meant to nest inside a `BENCH_*.json` document).
pub fn cluster_stats_json(stats: &nkv::ClusterStats) -> String {
    let shards = stats
        .shards
        .iter()
        .map(|row| {
            let b = row.stats.metrics.total_breakdown();
            format!(
                "      {{\"shard\": {}, \"state\": {}, \"ops\": {}, \"busy_ns\": {}, \
                 \"flash_ns\": {}, \"dram_ns\": {}, \"pe_ns\": {}, \"cfg_ns\": {}, \
                 \"nvme_ns\": {}, \"dropped_spans\": {}}}",
                row.shard,
                json_str(&row.state.to_string()),
                row.stats.metrics.total_ops(),
                b.total(),
                b.flash_ns,
                b.dram_ns,
                b.pe_ns,
                b.cfg_ns,
                b.nvme_ns,
                row.stats.dropped_spans,
            )
        })
        .collect::<Vec<_>>();
    format!(
        "{{\n    \"total_ops\": {},\n    \"busy_skew\": {},\n    \"cache_hit_rate\": {},\n    \
         \"dropped_spans\": {},\n    \"router_retries\": {},\n    \"router_backoff_ns\": {},\n    \
         \"shards\": [\n{}\n    ]\n  }}",
        stats.total_ops(),
        json_num(stats.busy_skew),
        json_num(stats.cache_hit_rate()),
        stats.dropped_spans,
        stats.router_retries,
        stats.router_backoff_ns,
        shards.join(",\n"),
    )
}

/// Render `BENCH_profile.json`, the perf journal's machine-readable
/// snapshot (schema `nkv-bench-profile/2`; v2 added the batched-GET
/// config-tax measurement). Fixed-seed inputs make the document
/// byte-stable, so `scripts/check.sh` diffs it against the committed
/// reference.
pub fn profile_bench_json(p: &crate::figures::ProfileBench) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"nkv-bench-profile/2\",");
    let _ = writeln!(out, "  \"seed\": {},", p.seed);
    let _ = writeln!(
        out,
        "  \"config\": {{\"scale\": {}, \"devices\": {}, \"n_gets\": {}, \"batch\": {}}},",
        json_num(p.scale),
        p.devices,
        p.n_gets,
        p.batch
    );
    let _ = writeln!(out, "  \"config_tax_ratio\": {},", json_num(p.config_tax_ratio));
    let _ = writeln!(out, "  \"config_tax_batched\": {},", json_num(p.config_tax_batched));
    let _ = writeln!(out, "  \"get_us_unbatched\": {},", json_num(p.get_us_unbatched));
    let _ = writeln!(out, "  \"get_us_batched\": {},", json_num(p.get_us_batched));
    let _ = writeln!(out, "  \"batched_get_speedup\": {},", json_num(p.batched_get_speedup));
    let _ = writeln!(out, "  \"flash_occupancy\": {},", json_num(p.flash_occupancy));
    let _ = writeln!(out, "  \"cache_hit_rate\": {},", json_num(p.cache_hit_rate));
    let _ = writeln!(out, "  \"cluster_scaling\": {},", json_num(p.cluster_scaling));
    let _ = writeln!(out, "  \"cluster\": {}", cluster_stats_json(&p.cluster));
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_str("a\nb\tc"), "\"a\\u000ab\\u0009c\"");
        assert_eq!(json_str(""), "\"\"");
        // Non-ASCII passes through as UTF-8 (JSON allows it raw).
        assert_eq!(json_str("µs"), "\"µs\"");
    }

    #[test]
    fn numbers_render_finite_values_and_null_otherwise() {
        assert_eq!(json_num(0.0), "0");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(-2.25), "-2.25");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NEG_INFINITY), "null");
        // No exponent surprises for the magnitudes the benches emit.
        assert_eq!(json_num(123456.789), "123456.789");
    }

    #[test]
    fn profile_bench_json_carries_every_key_and_stamps() {
        let p = crate::figures::ProfileBench {
            seed: 7,
            scale: 1.0 / 2048.0,
            devices: 4,
            n_gets: 16,
            config_tax_ratio: 45.0,
            batch: 16,
            config_tax_batched: 4.5,
            get_us_unbatched: 2200.0,
            get_us_batched: 210.0,
            batched_get_speedup: 10.5,
            flash_occupancy: 0.97,
            cache_hit_rate: 0.5,
            cluster_scaling: f64::NAN,
            cluster: nkv::NkvCluster::new(nkv::ClusterConfig::default())
                .expect("default cluster config is valid")
                .cluster_stats(),
        };
        let json = profile_bench_json(&p);
        for key in [
            "\"schema\": \"nkv-bench-profile/2\"",
            "\"seed\": 7",
            "\"config\"",
            "\"batch\": 16",
            "\"config_tax_ratio\": 45",
            "\"config_tax_batched\": 4.5",
            "\"get_us_unbatched\": 2200",
            "\"get_us_batched\": 210",
            "\"batched_get_speedup\": 10.5",
            "\"flash_occupancy\": 0.97",
            "\"cache_hit_rate\": 0.5",
            "\"cluster_scaling\": null",
            "\"cluster\"",
            "\"shards\"",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    }

    #[test]
    fn cluster_stats_emit_every_key_and_balance() {
        let stats = nkv::NkvCluster::new(nkv::ClusterConfig::default())
            .expect("default cluster config is valid")
            .cluster_stats();
        let json = cluster_stats_json(&stats);
        for key in [
            "\"total_ops\"",
            "\"busy_skew\"",
            "\"cache_hit_rate\"",
            "\"dropped_spans\"",
            "\"router_retries\"",
            "\"router_backoff_ns\"",
            "\"shards\"",
            "\"state\": \"healthy\"",
            "\"busy_ns\"",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces: {json}");
    }
}
