//! Deterministic tracing spans and a metrics registry for the Aergia
//! reproduction.
//!
//! Aergia's contribution is a *timing* argument — the federator spots
//! stragglers from per-phase profiles and reschedules work to cut round
//! wall-clock — so observability is a first-class subsystem here, not an
//! afterthought. This crate is the substrate every other layer
//! instruments against: the engine's round lifecycle, the GEMM
//! microkernel dispatch, the wire codec, and the TCP runtime.
//!
//! # Design
//!
//! Three pieces, all vendored with zero external dependencies (the
//! crate sits at the bottom of the workspace DAG next to
//! `aergia-runtime`):
//!
//! 1. **Spans** — [`span!`] records an `enter` event and returns a
//!    guard whose drop records the matching `exit`; [`event!`] records
//!    a point event. Span records land on a *per-thread* buffer and
//!    reach the global event log only at an explicit
//!    [`flush_thread_events`] call, so the single deterministic
//!    federator thread controls event order. Point events append to the
//!    global log directly (network worker threads report drops and
//!    reconnects; their interleaving is inherently wall-clock).
//! 2. **Metrics** — a process-global registry of monotonic
//!    [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s, keyed
//!    by Prometheus-style names (`aergia_codec_encoded_bytes_total` or
//!    with labels baked in: `aergia_gemm_calls_total{op="nn"}`).
//!    [`LazyCounter`]/[`LazyGauge`]/[`LazyHistogram`] give hot paths a
//!    `static` handle that registers on first use and costs one relaxed
//!    atomic op afterwards.
//! 3. **Sinks** — [`drain_jsonl`] renders the event log as JSONL with a
//!    stable field order, and [`snapshot`] renders the registry as a
//!    Prometheus-style text snapshot ([`parse_snapshot`] reads one
//!    back).
//!
//! # Determinism contract
//!
//! In simulator runs every record is stamped from the `simnet` virtual
//! clock — the engine publishes it via [`set_virtual_now`] — and span
//! events are only emitted from the deterministic federator thread, so
//! two runs with the same seed produce **byte-identical JSONL**.
//! Worker threads (GEMM kernels, TCP connection handlers) touch only
//! commutative counters/histograms, whose totals at a flush boundary
//! are order-independent. Metrics whose *values* are wall-clock
//! measurements (network round-trips) are registered snapshot-only so
//! they never leak into the JSONL stream.
//!
//! The whole layer is gated on one relaxed atomic flag and is **off by
//! default**: when disabled, every macro and handle is a load-and-branch
//! that performs zero allocations, so bit-identical training and bench
//! baselines are untouched.
//!
//! # Examples
//!
//! ```
//! use aergia_telemetry as tel;
//!
//! tel::reset();
//! tel::enable();
//! tel::set_virtual_now(1_000);
//! {
//!     let _g = tel::span!("round", round = 3u32);
//!     tel::counter("demo_rounds_total").add(1);
//! }
//! tel::flush_thread_events();
//! tel::flush_metrics();
//! let jsonl = tel::drain_jsonl();
//! assert!(jsonl.contains(r#"{"t":1000,"kind":"enter","name":"round","round":3}"#));
//! assert!(tel::snapshot().contains("demo_rounds_total 1"));
//! tel::disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

mod metrics;
mod sink;
mod span;

pub use metrics::{
    counter, flush_metrics, gauge, histogram, histogram_snapshot_only, Counter, Gauge, Histogram,
    LazyCounter, LazyGauge, LazyHistogram, DURATION_SECS_BUCKETS, SIZE_BYTES_BUCKETS,
};
pub use sink::{parse_snapshot, snapshot};
pub use span::{drain_jsonl, flush_thread_events, point, SpanGuard, Value};

/// Global on/off switch. Off by default; every entry point checks this
/// first with a relaxed load, so the disabled cost is one branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The virtual "now" in integer microseconds, published by whichever
/// component owns the clock (the engine's simnet clock in simulator
/// runs; zero until someone sets it).
static VIRTUAL_NOW: AtomicU64 = AtomicU64::new(0);

/// Turns the telemetry layer on. Idempotent.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the telemetry layer off. Already-registered metrics keep their
/// values; new records are simply not made.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the layer is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Publishes the current virtual time in microseconds. All subsequent
/// records are stamped with this value until it is advanced again.
///
/// A plain atomic store — safe to call even when telemetry is disabled
/// (it allocates nothing).
#[inline]
pub fn set_virtual_now(micros: u64) {
    VIRTUAL_NOW.store(micros, Ordering::Relaxed);
}

/// The most recently published virtual time, in microseconds.
#[inline]
pub fn virtual_now() -> u64 {
    VIRTUAL_NOW.load(Ordering::Relaxed)
}

/// Resets all recorded state for a fresh run: zeroes every registered
/// metric in place, clears the event log and the calling thread's span
/// buffer, and rewinds the virtual clock.
///
/// Registered metric *names* survive (hot-path `static` handles keep
/// pointing at live cells); only their values reset. Primarily a test
/// hook — production runs never need it.
pub fn reset() {
    metrics::reset_metrics();
    span::reset_events();
    VIRTUAL_NOW.store(0, Ordering::Relaxed);
}

/// Records an `enter` event on the calling thread's span buffer and
/// returns a guard that records the matching `exit` on drop.
///
/// Attributes are `key = value` pairs; values may be any type with a
/// [`Value`] conversion (unsigned/signed integers, floats, strings).
/// When telemetry is disabled this is a single branch and allocates
/// nothing.
///
/// ```
/// # use aergia_telemetry as tel;
/// let _guard = tel::span!("round.fold", round = 7u32);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                vec![$((stringify!($key), $crate::Value::from($val))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Records a point event directly on the global event log.
///
/// Same attribute syntax as [`span!`]. When telemetry is disabled this
/// is a single branch and allocates nothing.
///
/// ```
/// # use aergia_telemetry as tel;
/// tel::event!("round.crash", client = 12u32);
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::point(
                $name,
                vec![$((stringify!($key), $crate::Value::from($val))),*],
            );
        }
    };
}
