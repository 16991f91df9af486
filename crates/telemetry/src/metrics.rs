//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! All cells are shared atomics, so worker threads can bump counters
//! and observe histogram values concurrently; totals at any flush
//! boundary are order-independent (addition commutes), which is what
//! keeps snapshots deterministic even though thread interleaving is
//! not. Names are Prometheus-style, with labels baked into the name
//! string (`aergia_gemm_calls_total{op="nn"}`) — the registry itself is
//! a flat `name → cell` map.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::span::{push_global, Record};

/// Fixed bucket bounds (upper edges, seconds) for duration histograms:
/// round wall-clock, per-phase costs, network round-trips.
pub const DURATION_SECS_BUCKETS: &[f64] =
    &[0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0];

/// Fixed bucket bounds (upper edges, bytes) for size histograms:
/// frame and envelope sizes.
pub const SIZE_BYTES_BUCKETS: &[f64] =
    &[64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0];

/// A histogram cell: non-cumulative per-bucket counts plus a running
/// count and sum. Bounds are the finite upper edges in ascending order;
/// an implicit overflow bucket (`+Inf`) follows the last bound. A value
/// lands in the first bucket whose upper edge it does not exceed
/// (`value <= bound`, matching Prometheus `le` semantics).
#[derive(Debug)]
pub(crate) struct HistCell {
    pub(crate) bounds: Vec<f64>,
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    sum_bits: AtomicU64,
}

impl HistCell {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistCell {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|b| value > *b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Compare-exchange loop: f64 addition via the bit pattern.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
    }
}

/// A monotonic counter handle. Cheap to clone; all clones share one
/// cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle holding the most recently set `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        self.0.observe(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.0.sum()
    }
}

#[derive(Debug, Default)]
pub(crate) struct Registry {
    pub(crate) counters: BTreeMap<String, Arc<AtomicU64>>,
    pub(crate) gauges: BTreeMap<String, Arc<AtomicU64>>,
    pub(crate) hists: BTreeMap<String, Arc<HistCell>>,
    /// Histograms excluded from the JSONL stream because their values are
    /// wall-clock measurements (network RTT) — they would break
    /// same-seed byte-identity. Snapshot-only.
    pub(crate) snapshot_only: BTreeSet<String>,
    /// Value (counter value / gauge bits / histogram count) at the last
    /// [`flush_metrics`] — only changed metrics emit a JSONL record.
    flushed: BTreeMap<String, u64>,
}

pub(crate) fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn check_fresh(reg: &Registry, name: &str, kind: &str) {
    let taken = match kind {
        "counter" => reg.gauges.contains_key(name) || reg.hists.contains_key(name),
        "gauge" => reg.counters.contains_key(name) || reg.hists.contains_key(name),
        _ => reg.counters.contains_key(name) || reg.gauges.contains_key(name),
    };
    assert!(!taken, "telemetry metric {name:?} already registered with a different kind");
}

/// Registers (or fetches) the counter `name`.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    check_fresh(&reg, name, "counter");
    let cell =
        reg.counters.entry(name.to_string()).or_insert_with(|| Arc::new(AtomicU64::new(0))).clone();
    Counter(cell)
}

/// Registers (or fetches) the gauge `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    check_fresh(&reg, name, "gauge");
    let cell =
        reg.gauges.entry(name.to_string()).or_insert_with(|| Arc::new(AtomicU64::new(0))).clone();
    Gauge(cell)
}

/// Registers (or fetches) the histogram `name` with the given finite
/// upper bucket edges (ascending; an overflow bucket is implicit).
/// Bounds must match any earlier registration of the same name.
pub fn histogram(name: &str, bounds: &[f64]) -> Histogram {
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    check_fresh(&reg, name, "histogram");
    let cell = reg
        .hists
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(HistCell::new(bounds)))
        .clone();
    assert!(
        cell.bounds == bounds,
        "telemetry histogram {name:?} re-registered with different bounds"
    );
    Histogram(cell)
}

/// Registers (or fetches) a histogram excluded from the JSONL stream —
/// use for wall-clock-valued measurements that must not break same-seed
/// byte-identity (they still appear in the snapshot).
pub fn histogram_snapshot_only(name: &str, bounds: &[f64]) -> Histogram {
    let h = histogram(name, bounds);
    registry().lock().expect("telemetry registry poisoned").snapshot_only.insert(name.to_string());
    h
}

/// A `static`-friendly counter that registers itself on first use.
/// After that, [`add`](LazyCounter::add) is one enabled-check plus one
/// relaxed atomic add — cheap enough for GEMM-kernel call sites.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Creates the handle (const, so it can live in a `static`).
    pub const fn new(name: &'static str) -> Self {
        LazyCounter { name, cell: OnceLock::new() }
    }

    /// Adds `n` when telemetry is enabled; a single branch otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.cell.get_or_init(|| counter(self.name)).add(n);
        }
    }
}

/// A `static`-friendly gauge (see [`LazyCounter`]).
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Gauge>,
}

impl LazyGauge {
    /// Creates the handle (const).
    pub const fn new(name: &'static str) -> Self {
        LazyGauge { name, cell: OnceLock::new() }
    }

    /// Sets the gauge when telemetry is enabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if crate::enabled() {
            self.cell.get_or_init(|| gauge(self.name)).set(value);
        }
    }
}

/// A `static`-friendly histogram (see [`LazyCounter`]).
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    bounds: &'static [f64],
    snapshot_only: bool,
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// Creates the handle (const).
    pub const fn new(name: &'static str, bounds: &'static [f64]) -> Self {
        LazyHistogram { name, bounds, snapshot_only: false, cell: OnceLock::new() }
    }

    /// Creates a handle whose histogram never appears in the JSONL
    /// stream.
    pub const fn new_snapshot_only(name: &'static str, bounds: &'static [f64]) -> Self {
        LazyHistogram { name, bounds, snapshot_only: true, cell: OnceLock::new() }
    }

    /// Records one observation when telemetry is enabled.
    #[inline]
    pub fn observe(&self, value: f64) {
        if crate::enabled() {
            self.cell
                .get_or_init(|| {
                    if self.snapshot_only {
                        histogram_snapshot_only(self.name, self.bounds)
                    } else {
                        histogram(self.name, self.bounds)
                    }
                })
                .observe(value);
        }
    }
}

/// Appends one JSONL record to the global event log for every metric
/// whose value changed since the previous flush, stamped with the
/// current virtual time. Counters and gauges emit their value;
/// histograms emit their count and sum. Iteration is in sorted name
/// order (counters, then gauges, then histograms), so the stream is
/// deterministic. Snapshot-only metrics are skipped.
///
/// Call this from the thread that owns event ordering (the federator
/// thread in simulator runs) at deterministic points — the engine does
/// so at round boundaries.
pub fn flush_metrics() {
    if !crate::enabled() {
        return;
    }
    // Buffered span records precede the metric flush in the stream.
    crate::span::flush_thread_events();
    let t = crate::virtual_now();
    let mut records = Vec::new();
    {
        let mut reg = registry().lock().expect("telemetry registry poisoned");
        let mut updates: Vec<(String, u64)> = Vec::new();
        for (name, cell) in &reg.counters {
            let cur = cell.load(Ordering::Relaxed);
            if reg.flushed.get(name).copied().unwrap_or(0) != cur {
                records.push(Record::MetricU64 { t, name: name.clone(), value: cur });
                updates.push((name.clone(), cur));
            }
        }
        for (name, cell) in &reg.gauges {
            let bits = cell.load(Ordering::Relaxed);
            if reg.flushed.get(name).copied().unwrap_or(0) != bits {
                records.push(Record::MetricF64 {
                    t,
                    name: name.clone(),
                    value: f64::from_bits(bits),
                });
                updates.push((name.clone(), bits));
            }
        }
        for (name, cell) in &reg.hists {
            if reg.snapshot_only.contains(name) {
                continue;
            }
            let count = cell.count.load(Ordering::Relaxed);
            if reg.flushed.get(name).copied().unwrap_or(0) != count {
                records.push(Record::Hist { t, name: name.clone(), count, sum: cell.sum() });
                updates.push((name.clone(), count));
            }
        }
        for (name, v) in updates {
            reg.flushed.insert(name, v);
        }
    }
    push_global(records);
}

/// Zeroes every registered metric in place and forgets the last-flush
/// watermarks. Registrations (and `static` handles) survive.
pub(crate) fn reset_metrics() {
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    for cell in reg.counters.values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in reg.gauges.values() {
        cell.store(0, Ordering::Relaxed);
    }
    for cell in reg.hists.values() {
        cell.zero();
    }
    reg.flushed.clear();
}
