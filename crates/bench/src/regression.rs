//! Wall-time bookkeeping for the `bench-regression` CI gate.
//!
//! The `bench_smoke` binary times every figure harness at
//! `AERGIA_SCALE=smoke`, records the wall-times in a flat JSON object
//! (`BENCH_smoke.json`, figure name → seconds) and compares them against
//! the checked-in baseline: any entry slower than `baseline ×
//! max_regression` fails the job. Counted figures ride the same gate with
//! wall-time semantics (lower is better): `allocs_per_round` (steady-state
//! heap allocations) and the `bytes_per_round_*` family (simulated
//! bytes-on-wire per round, one entry per wire codec — deterministic, so a
//! breach means the protocol's byte footprint actually grew). Entries
//! named `*_gflops` are *throughputs* (GFLOP/s — e.g. the `matmul_gflops`
//! GEMM figure), where higher is better: they regress when the current
//! value falls below `baseline ÷ max_regression`. The format is
//! deliberately trivial — the workspace is offline, so both the writer and
//! the parser live here instead of pulling in `serde_json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Figure-name → wall-time-seconds map, ordered for stable output.
pub type BenchReport = BTreeMap<String, f64>;

/// Renders a report as the flat JSON object the CI artifact carries.
#[must_use]
pub fn to_json(report: &BenchReport) -> String {
    let mut out = String::from("{\n");
    for (i, (name, secs)) in report.iter().enumerate() {
        let comma = if i + 1 == report.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{name}\": {secs:.3}{comma}");
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
/// artifacts carry the run's deterministic counters next to the
/// wall-times. Only metrics under the listed deterministic prefixes are
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
    // A malformed snapshot embeds nothing — the wall-time gate must not
    // fail on a telemetry formatting problem.
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

/// One benchmark whose current value breaches the regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Figure harness name.
    pub name: String,
    /// Baseline value (seconds for wall-time entries, GFLOP/s for
    /// `*_gflops` throughput entries).
    pub baseline_secs: f64,
    /// Current value, same unit as the baseline.
    pub current_secs: f64,
}

/// Name suffix marking a throughput entry (higher is better) rather than
/// a wall-time (lower is better).
pub const THROUGHPUT_SUFFIX: &str = "_gflops";

/// Whether an entry name denotes a throughput (see [`THROUGHPUT_SUFFIX`]).
#[must_use]
pub fn is_throughput(name: &str) -> bool {
    name.ends_with(THROUGHPUT_SUFFIX)
}

/// Compares a fresh report against the baseline: a wall-time entry
/// regresses when it is more than `max_ratio` times slower than its
/// baseline; a throughput entry (`*_gflops`) regresses when it drops
/// below `baseline ÷ max_ratio`. Entries only present on one side are
/// ignored (new figures don't need a lockstep baseline update; retired
/// figures don't block).
///
/// A small absolute floor (0.5, in the entry's own unit) keeps noisy
/// low-magnitude entries from tripping the gate: sub-half-second
/// harnesses never gate, and neither do throughput entries whose
/// baseline is at or below 0.5 GFLOP/s.
#[must_use]
pub fn regressions(
    baseline: &BenchReport,
    current: &BenchReport,
    max_ratio: f64,
) -> Vec<Regression> {
    const NOISE_FLOOR: f64 = 0.5;
    let mut out = Vec::new();
    for (name, &current_secs) in current {
        let Some(&baseline_secs) = baseline.get(name) else { continue };
        let regressed = if is_throughput(name) {
            baseline_secs > NOISE_FLOOR && current_secs * max_ratio < baseline_secs
        } else {
            current_secs > (baseline_secs * max_ratio).max(NOISE_FLOOR)
        };
        if regressed {
            out.push(Regression { name: name.clone(), baseline_secs, current_secs });
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
        // must trip the gate exactly like a slow harness.
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
    fn throughput_entries_gate_on_drops_not_gains() {
        let baseline = report(&[("matmul_gflops", 20.0)]);
        // Faster is never a regression.
        let faster = report(&[("matmul_gflops", 80.0)]);
        assert!(regressions(&baseline, &faster, 2.0).is_empty());
        // A drop within the ratio passes; beyond it fails.
        let ok = report(&[("matmul_gflops", 10.1)]);
        assert!(regressions(&baseline, &ok, 2.0).is_empty());
        let bad = report(&[("matmul_gflops", 9.9)]);
        let found = regressions(&baseline, &bad, 2.0);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "matmul_gflops");
    }

    #[test]
    fn throughput_noise_floor_shields_tiny_baselines() {
        let baseline = report(&[("tiny_gflops", 0.4)]);
        let current = report(&[("tiny_gflops", 0.01)]);
        assert!(regressions(&baseline, &current, 2.0).is_empty());
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

    #[test]
    fn noise_floor_shields_subsecond_harnesses() {
        let baseline = report(&[("ablation", 0.01)]);
        let current = report(&[("ablation", 0.4)]);
        assert!(regressions(&baseline, &current, 2.0).is_empty(), "0.4s is under the 0.5s floor");
        let current = report(&[("ablation", 0.6)]);
        assert_eq!(regressions(&baseline, &current, 2.0).len(), 1);
    }
}
