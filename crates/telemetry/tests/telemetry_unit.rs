//! Behavioural tests for the telemetry layer: histogram bucket edges,
//! sink round-trips, JSONL flush semantics.
//!
//! The registry and event log are process-global, so every test takes
//! the same lock and starts from `reset()` — libtest's default thread
//! parallelism must not interleave two tests' records.

use std::sync::{Mutex, MutexGuard};

use aergia_telemetry as tel;
use aergia_telemetry::{event, span};

static LOCK: Mutex<()> = Mutex::new(());

/// Runs tests one at a time and resets telemetry state on entry.
fn fresh() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tel::disable();
    tel::reset();
    // Drop records another test's thread may still flush later? No:
    // the lock is held for the whole test body, and worker threads are
    // not used here.
    tel::enable();
    guard
}

#[test]
fn histogram_bucket_boundaries_are_le_semantics() {
    let _g = fresh();
    let h = tel::histogram("unit_edges", &[1.0, 10.0]);
    h.observe(1.0); // exactly on the first edge → first bucket (le semantics)
    h.observe(1.0000001); // just above → second bucket
    h.observe(10.0); // exactly on the last finite edge → second bucket
    h.observe(10.5); // above every finite edge → overflow bucket
    h.observe(-3.0); // below everything → first bucket
    assert_eq!(h.count(), 5);
    assert!((h.sum() - (1.0 + 1.000_000_1 + 10.0 + 10.5 - 3.0)).abs() < 1e-9);

    // The snapshot renders *cumulative* buckets ending at +Inf == count.
    let snap = tel::snapshot();
    assert!(snap.contains("unit_edges_bucket{le=\"1\"} 2"), "snapshot:\n{snap}");
    assert!(snap.contains("unit_edges_bucket{le=\"10\"} 4"), "snapshot:\n{snap}");
    assert!(snap.contains("unit_edges_bucket{le=\"+Inf\"} 5"), "snapshot:\n{snap}");
    assert!(snap.contains("unit_edges_count 5"), "snapshot:\n{snap}");
    tel::disable();
}

#[test]
fn snapshot_round_trips_through_parser() {
    let _g = fresh();
    tel::counter("unit_rt_total").add(7);
    tel::gauge("unit_rt_gauge").set(2.5);
    tel::histogram("unit_rt_hist{phase=\"ff\"}", &[0.5]).observe(0.25);
    let snap = tel::snapshot();
    let parsed = tel::parse_snapshot(&snap).expect("snapshot must parse");
    assert_eq!(parsed.get("unit_rt_total"), Some(&7.0));
    assert_eq!(parsed.get("unit_rt_gauge"), Some(&2.5));
    assert_eq!(parsed.get("unit_rt_hist_bucket{phase=\"ff\",le=\"0.5\"}"), Some(&1.0));
    assert_eq!(parsed.get("unit_rt_hist_count{phase=\"ff\"}"), Some(&1.0));
    assert!(snap.contains("# TYPE unit_rt_total counter"));
    assert!(snap.contains("# TYPE unit_rt_hist histogram"));
    tel::disable();
}

#[test]
fn jsonl_has_stable_field_order_and_flushes_only_changes() {
    let _g = fresh();
    tel::set_virtual_now(500);
    {
        let _span = span!("round", round = 2u32, mode = "sim");
        event!("round.crash", client = 9u32);
        tel::set_virtual_now(750);
    }
    tel::counter("unit_flush_total").add(3);
    tel::flush_metrics();
    let first = tel::drain_jsonl();
    let mut lines = first.lines();
    // Point events skip the thread buffer, so the crash event precedes
    // the span records, which flush at drain time.
    assert_eq!(
        lines.next(),
        Some(r#"{"t":500,"kind":"event","name":"round.crash","client":9}"#),
        "full stream:\n{first}"
    );
    assert_eq!(
        lines.next(),
        Some(r#"{"t":500,"kind":"enter","name":"round","round":2,"mode":"sim"}"#)
    );
    assert_eq!(lines.next(), Some(r#"{"t":750,"kind":"exit","name":"round"}"#));
    assert!(first.contains(r#"{"t":750,"kind":"metric","name":"unit_flush_total","value":3}"#));

    // Unchanged since the last flush → no new record.
    tel::flush_metrics();
    assert_eq!(tel::drain_jsonl(), "");
    tel::counter("unit_flush_total").add(1);
    tel::flush_metrics();
    assert!(tel::drain_jsonl().contains(r#""name":"unit_flush_total","value":4"#));
    tel::disable();
}

#[test]
fn snapshot_only_metrics_stay_out_of_jsonl() {
    let _g = fresh();
    tel::histogram_snapshot_only("unit_wallclock_secs", &[1.0]).observe(0.25);
    tel::counter("unit_visible_total").add(1);
    tel::flush_metrics();
    let jsonl = tel::drain_jsonl();
    assert!(!jsonl.contains("unit_wallclock_secs"), "jsonl:\n{jsonl}");
    assert!(jsonl.contains("unit_visible_total"));
    assert!(tel::snapshot().contains("unit_wallclock_secs_sum 0.25"));
    tel::disable();
}

#[test]
fn disabled_layer_records_nothing() {
    let _g = fresh();
    tel::disable();
    {
        let _span = span!("ghost", x = 1u32);
        event!("ghost.event");
    }
    tel::counter("unit_ghost_total"); // direct registration still works...
    static LAZY: tel::LazyCounter = tel::LazyCounter::new("unit_ghost_lazy_total");
    LAZY.add(5); // ...but lazy handles are inert while disabled.
    tel::flush_metrics();
    assert_eq!(tel::drain_jsonl(), "");
    assert!(!tel::snapshot().contains("unit_ghost_lazy_total"));
}

#[test]
fn reset_zeroes_metrics_in_place() {
    let _g = fresh();
    let c = tel::counter("unit_reset_total");
    c.add(9);
    let h = tel::histogram("unit_reset_hist", &[1.0]);
    h.observe(0.5);
    tel::reset();
    assert_eq!(c.get(), 0, "the same handle must see the zeroed cell");
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0.0);
    assert_eq!(tel::virtual_now(), 0);
    tel::disable();
}

#[test]
fn histogram_duplicate_registration_returns_same_cell() {
    let _g = fresh();
    let a = tel::histogram("unit_dup_hist", &[1.0, 2.0]);
    let b = tel::histogram("unit_dup_hist", &[1.0, 2.0]);
    a.observe(0.5);
    assert_eq!(b.count(), 1, "both handles share one cell");
    tel::disable();
}
