//! Report bookkeeping for the `bench-regression` CI gate.
//!
//! The `bench_smoke` binary records the deterministic figures of the
//! smoke experiment in a flat JSON object (`BENCH_smoke.json`, name →
//! value) and compares them against the checked-in baseline: any entry
//! above `baseline × max_regression` fails the job. Every gated entry is
//! a count where lower is better: `allocs_per_round` (steady-state heap
//! allocations), the `bytes_per_round_*` family (simulated bytes-on-wire
//! per round, one entry per wire codec) and `resident_client_bytes` — a
//! breach means the footprint actually grew. Wall-clock is not gated
//! here: timing claims live in the repo benchmark (`benchmark/`), which
//! measures them as medians of repeated runs. The format is deliberately
//! trivial — the workspace is offline, so both the writer and the parser
//! live here instead of pulling in `serde_json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Entry-name → value map, ordered for stable output.
pub type BenchReport = BTreeMap<String, f64>;

/// Renders a report as the flat JSON object the CI artifact carries.
#[must_use]
pub fn to_json(report: &BenchReport) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in report.iter().enumerate() {
        let comma = if i + 1 == report.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{name}\": {value:.3}{comma}");
    }
    out.push_str("}\n");
    out
}

/// Parses the flat JSON object produced by [`to_json`].
///
/// Accepts exactly the subset this crate writes — one `"key": number`
/// pair per entry, string keys without escapes — which keeps the offline
/// parser small while still round-tripping every report byte-for-byte.
///
/// # Errors
///
/// Returns a description of the first malformed construct.
pub fn from_json(text: &str) -> Result<BenchReport, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| "expected a top-level JSON object".to_string())?;
    let mut report = BenchReport::new();
    for pair in body.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) =
            pair.split_once(':').ok_or_else(|| format!("missing ':' in entry {pair:?}"))?;
        let key = key.trim();
        let key = key
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("key is not a JSON string: {key:?}"))?;
        if key.contains(['"', '\\']) {
            return Err(format!("escaped keys are not supported: {key:?}"));
        }
        let value: f64 =
            value.trim().parse().map_err(|e| format!("bad number for {key:?}: {e}"))?;
        report.insert(key.to_string(), value);
    }
    Ok(report)
}

/// Folds a telemetry snapshot (the Prometheus-style text
/// [`aergia_telemetry::snapshot`] renders) into a report so bench
/// artifacts carry the run's deterministic counters next to the gated
/// figures. Only metrics under the listed deterministic prefixes are
/// kept — engine, pool, profile and codec figures, all pure functions
/// of the configuration — never wall-clock metrics like GEMM GFLOP/s
/// gauges or network round-trips. Per-bucket histogram entries are
/// skipped (`_sum`/`_count` carry the signal at artifact granularity).
///
/// Embedded keys are prefixed `telemetry_` and label syntax is
/// flattened to `[a-z0-9_]` so they survive the flat JSON format:
/// `aergia_codec_encoded_bytes_total{codec="dense_f32"}` becomes
/// `telemetry_aergia_codec_encoded_bytes_total_codec_dense_f32`.
pub fn embed_telemetry(report: &mut BenchReport, snapshot_text: &str) {
    const DETERMINISTIC_PREFIXES: &[&str] =
        &["aergia_engine_", "aergia_pool_", "aergia_profile_", "aergia_codec_"];
    // A malformed snapshot embeds nothing — the gate must not fail on a
    // telemetry formatting problem.
    let Ok(metrics) = aergia_telemetry::parse_snapshot(snapshot_text) else { return };
    for (name, value) in metrics {
        if !DETERMINISTIC_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        if name.contains("_bucket{") {
            continue;
        }
        let mut key = String::with_capacity("telemetry_".len() + name.len());
        key.push_str("telemetry_");
        let mut last_underscore = false;
        for c in name.chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                last_underscore = c == '_';
                key.push(c);
            } else if !last_underscore {
                last_underscore = true;
                key.push('_');
            }
        }
        while key.ends_with('_') {
            key.pop();
        }
        report.insert(key, value);
    }
}

/// One entry whose current value breaches the regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Entry name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value, same unit as the baseline.
    pub current: f64,
}

/// Compares a fresh report against the baseline: an entry regresses when
/// it is more than `max_ratio` times its baseline. Entries only present
/// on one side are ignored (new figures don't need a lockstep baseline
/// update; retired figures don't block).
#[must_use]
pub fn regressions(
    baseline: &BenchReport,
    current: &BenchReport,
    max_ratio: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, &current) in current {
        let Some(&baseline) = baseline.get(name) else { continue };
        if current > baseline * max_ratio {
            out.push(Regression { name: name.clone(), baseline, current });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64)]) -> BenchReport {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn json_round_trips() {
        let r = report(&[("fig6_iid", 12.345), ("fig8_round_density", 0.125), ("table1", 3.0)]);
        let parsed = from_json(&to_json(&r)).unwrap();
        assert_eq!(parsed.len(), 3);
        assert!((parsed["fig6_iid"] - 12.345).abs() < 1e-9);
        assert!((parsed["fig8_round_density"] - 0.125).abs() < 1e-9);
    }

    #[test]
    fn empty_report_round_trips() {
        assert_eq!(from_json(&to_json(&BenchReport::new())).unwrap(), BenchReport::new());
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"a\" 1.0}").unwrap_err().contains(':'));
        assert!(from_json("{\"a\": x}").unwrap_err().contains("bad number"));
        assert!(from_json("{a: 1.0}").is_err());
    }

    #[test]
    fn regression_gate_fires_only_above_the_ratio() {
        let baseline = report(&[("fig6_iid", 10.0), ("fig7_noniid", 8.0)]);
        let ok = report(&[("fig6_iid", 19.9), ("fig7_noniid", 8.1)]);
        assert!(regressions(&baseline, &ok, 2.0).is_empty());

        let bad = report(&[("fig6_iid", 20.1), ("fig7_noniid", 8.1)]);
        let found = regressions(&baseline, &bad, 2.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "fig6_iid");
    }

    #[test]
    fn unmatched_entries_do_not_gate() {
        let baseline = report(&[("retired_figure", 5.0)]);
        let current = report(&[("brand_new_figure", 500.0)]);
        assert!(regressions(&baseline, &current, 2.0).is_empty());
    }

    #[test]
    fn bytes_entries_gate_like_wall_times() {
        // The bytes-per-round figures are deterministic counts; doubling
        // one (protocol bloat, or a codec quietly shipping dense frames)
        // must trip the gate.
        let baseline = report(&[("bytes_per_round_topk_delta", 90_000.0)]);
        let ok = report(&[("bytes_per_round_topk_delta", 179_000.0)]);
        assert!(regressions(&baseline, &ok, 2.0).is_empty());
        let bloated = report(&[("bytes_per_round_topk_delta", 181_000.0)]);
        assert_eq!(regressions(&baseline, &bloated, 2.0).len(), 1);
        // Shrinking is never a regression.
        let slim = report(&[("bytes_per_round_topk_delta", 9_000.0)]);
        assert!(regressions(&baseline, &slim, 2.0).is_empty());
    }

    #[test]
    fn telemetry_embeds_deterministic_metrics_with_flat_keys() {
        let snapshot = "\
# TYPE aergia_engine_rounds_total counter
aergia_engine_rounds_total 12
# TYPE aergia_codec_encoded_bytes_total counter
aergia_codec_encoded_bytes_total{codec=\"dense_f32\",kind=\"features\"} 4096
# TYPE aergia_profile_t123_seconds histogram
aergia_profile_t123_seconds_bucket{le=\"0.1\"} 3
aergia_profile_t123_seconds_sum 0.25
aergia_profile_t123_seconds_count 3
# TYPE aergia_gemm_calls_total counter
aergia_gemm_calls_total{op=\"nn\"} 42
# TYPE aergia_net_order_rtt_seconds histogram
aergia_net_order_rtt_seconds_sum 1.5
";
        let mut r = BenchReport::new();
        embed_telemetry(&mut r, snapshot);
        assert!((r["telemetry_aergia_engine_rounds_total"] - 12.0).abs() < 1e-9);
        let flat = "telemetry_aergia_codec_encoded_bytes_total_codec_dense_f32_kind_features";
        assert!((r[flat] - 4096.0).abs() < 1e-9, "label syntax flattens to {flat}");
        assert!((r["telemetry_aergia_profile_t123_seconds_sum"] - 0.25).abs() < 1e-9);
        // Per-bucket entries and wall-clock metrics stay out.
        assert!(r.keys().all(|k| !k.contains("bucket")));
        assert!(r.keys().all(|k| !k.contains("gemm") && !k.contains("net")));
        // Embedded keys survive the flat JSON artifact format.
        let parsed = from_json(&to_json(&r)).unwrap();
        assert_eq!(parsed.len(), r.len());
    }

    #[test]
    fn malformed_telemetry_snapshot_embeds_nothing() {
        let mut r = report(&[("fig6_iid", 1.0)]);
        embed_telemetry(&mut r, "aergia_engine_rounds_total not-a-number");
        assert_eq!(r.len(), 1);
    }
}
