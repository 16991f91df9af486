//! Structured operational logging and metrics for the network runtime.
//!
//! Every operational message in this crate goes through the [`netlog!`]
//! macro: one call emits a structured `aergia-telemetry` point event
//! (when the layer is enabled) *and* the human-readable stderr line,
//! so the two views can never drift apart. [`stderr_line`] is the
//! crate's single sanctioned raw-stderr site — the `eprintln!` row of
//! `scripts/gone.tsv`, which `scripts/ci.sh lint-logging` runs, fails CI
//! on any other `eprintln!` in a library crate. User-facing
//! output from the binaries (usage text, results) belongs on stdout.
//!
//! The metric handles below are the runtime's registry surface:
//! connection lifecycle counters, an envelope-size histogram, and a
//! wall-clock round-trip histogram. The round-trip histogram is
//! *snapshot-only*: wall-clock values may appear in a Prometheus
//! snapshot but must never enter the JSONL event stream, which is
//! reserved for virtual-clock-stamped, seed-pure records.

use aergia_telemetry::{LazyCounter, LazyHistogram, SIZE_BYTES_BUCKETS};

/// Seconds buckets for the wall-clock order round-trip (snapshot-only).
const RTT_SECS_BUCKETS: &[f64] =
    &[0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0];

/// Client connections the coordinator admitted.
pub(crate) static CONNECTS: LazyCounter = LazyCounter::new("aergia_net_connects_total");
/// Connections the coordinator rejected during the Hello exchange.
pub(crate) static REJECTS: LazyCounter = LazyCounter::new("aergia_net_rejects_total");
/// Clients dropped mid-round (connection lost, timeout, bad reply).
pub(crate) static DROPS: LazyCounter = LazyCounter::new("aergia_net_client_drops_total");
/// Runs resumed from an on-disk checkpoint.
pub(crate) static RESUMES: LazyCounter = LazyCounter::new("aergia_net_checkpoint_resumes_total");
/// Client-side reconnect attempts (each waits one backoff step).
pub(crate) static BACKOFFS: LazyCounter = LazyCounter::new("aergia_net_backoffs_total");
/// Bytes of every envelope the coordinator ships to a client.
pub(crate) static ENVELOPE_BYTES: LazyHistogram =
    LazyHistogram::new("aergia_net_envelope_bytes", SIZE_BYTES_BUCKETS);
/// Wall-clock seconds from writing an order to decoding its reply.
/// Snapshot-only: real time is not part of the deterministic stream.
pub(crate) static ORDER_RTT_SECS: LazyHistogram =
    LazyHistogram::new_snapshot_only("aergia_net_order_rtt_seconds", RTT_SECS_BUCKETS);

/// Writes one formatted line to stderr — the only place the networked
/// runtime's library code touches stderr directly.
pub(crate) fn stderr_line(args: std::fmt::Arguments<'_>) {
    eprintln!("{args}");
}

/// Logs one operational event: a structured telemetry point event named
/// `$event` with the given attributes, plus a human-readable stderr
/// line. The attribute list and the message are separated by `;`.
///
/// ```ignore
/// netlog!("net.client.drop", round = round, client = c;
///         "coordinator: client {c} lost during round {round}: {e}");
/// ```
macro_rules! netlog {
    ($event:expr $(, $key:ident = $val:expr)* ; $($fmt:tt)+) => {{
        aergia_telemetry::event!($event $(, $key = $val)*);
        $crate::log::stderr_line(::std::format_args!($($fmt)+));
    }};
}

pub(crate) use netlog;
