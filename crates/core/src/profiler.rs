//! The online profiler (§4.2).
//!
//! During the first `P` batch updates of a round, each client records the
//! duration of the four training phases using its local clock. The
//! averaged per-batch numbers — split into the paper's `t_{1,2,3}` (ff +
//! fc + bc) and `t_4` (bf) — are reported to the federator, which uses
//! them to spot stragglers and compute the offloading schedule.

use aergia_nn::profile::PhaseCost;

/// Accumulates per-phase costs over the profiling window of a round.
#[derive(Debug, Clone, Default)]
pub struct OnlineProfiler {
    accumulated: PhaseCost,
    batches: u32,
    window: u32,
}

impl OnlineProfiler {
    /// Creates a profiler that observes the first `window` batches.
    pub fn new(window: u32) -> Self {
        OnlineProfiler { accumulated: PhaseCost::zero(), batches: 0, window }
    }

    /// Records the phase costs of one batch. Returns `true` exactly when
    /// this observation completes the profiling window (time to report).
    pub fn record(&mut self, cost: PhaseCost) -> bool {
        if self.done() {
            return false;
        }
        self.accumulated += cost;
        self.batches += 1;
        self.done()
    }

    /// True once the window is full.
    pub fn done(&self) -> bool {
        self.batches >= self.window
    }

    /// Batches observed so far.
    pub fn batches(&self) -> u32 {
        self.batches
    }

    /// Averaged per-batch profile (zeros when nothing was recorded).
    pub(crate) fn per_batch(&self) -> PhaseCost {
        if self.batches == 0 {
            PhaseCost::zero()
        } else {
            self.accumulated.scaled(1.0 / f64::from(self.batches))
        }
    }
}

/// Per-round observability of the engine's client-state pool (see
/// `engine::pool`): how many of the round's participants found their
/// state resident (`hits`) versus freshly admitted (`misses`), how many
/// of those admissions re-created state that an earlier eviction had
/// discarded (`rebuilds` — a subset of `misses`), and what the pool
/// holds after admission. Surfaced on every
/// [`RoundRecord`](crate::metrics::RoundRecord).
///
/// `resident_bytes` is a deterministic *estimate* of what the pool holds
/// — each resident client's shard index storage plus a fixed 64-byte
/// entry overhead — computed from pool membership alone, so the figure
/// is identical across parallelism settings, transports and
/// checkpoint resume (actual allocator behaviour is not). Training
/// workspaces are not pool state (the engine shelves one per task in
/// flight), so they are not charged here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspacePoolStats {
    /// Participants whose client state was already resident.
    pub hits: u32,
    /// Participants whose client state had to be admitted fresh.
    pub misses: u32,
    /// Admissions that re-created previously evicted state (⊆ `misses`).
    pub rebuilds: u32,
    /// Clients evicted this round — during admission (cap pressure from
    /// the round's own participants) or at round end (shrinking back to
    /// the cap once training folded).
    pub evictions: u32,
    /// Clients resident in the pool after this round's admissions.
    pub resident_clients: u32,
    /// Estimated bytes of resident client state after admissions.
    pub resident_bytes: u64,
}

/// The numbers a client reports to the federator after profiling, plus the
/// derived quantities Algorithm 1 consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileReport {
    /// Round this report belongs to (stale reports are discarded).
    pub round: u32,
    /// Average per-batch cost of the four phases, in virtual seconds.
    pub per_batch: PhaseCost,
    /// Local batch updates still to run when the report was sent.
    pub remaining_updates: u32,
}

impl ProfileReport {
    /// The paper's `t_{j,{1,2,3}}`: per-batch cost of ff + fc + bc.
    pub fn t123(&self) -> f64 {
        self.per_batch.first_three()
    }

    /// The paper's `t_{j,4}`: per-batch cost of bf.
    pub fn t4(&self) -> f64 {
        self.per_batch.bf
    }

    /// Per-batch cost of a full (unfrozen) update.
    pub fn full_batch(&self) -> f64 {
        self.per_batch.total()
    }

    /// Per-batch cost of training *only the feature section* — the
    /// paper's `x_b`, what a strong client pays per offloaded batch.
    pub fn feature_only_batch(&self) -> f64 {
        self.per_batch.ff + self.per_batch.bf
    }

    /// Estimated time for this client to finish its remaining updates.
    pub fn estimated_completion(&self) -> f64 {
        f64::from(self.remaining_updates) * self.full_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(x: f64) -> PhaseCost {
        PhaseCost { ff: x, fc: x / 10.0, bc: x / 10.0, bf: 2.0 * x }
    }

    #[test]
    fn window_fills_and_reports_once() {
        let mut p = OnlineProfiler::new(3);
        assert!(!p.record(cost(1.0)));
        assert!(!p.record(cost(1.0)));
        assert!(p.record(cost(1.0)), "third batch completes the window");
        assert!(p.done());
        assert!(!p.record(cost(1.0)), "extra batches are ignored");
        assert_eq!(p.batches(), 3);
    }

    #[test]
    fn per_batch_is_the_average() {
        let mut p = OnlineProfiler::new(2);
        p.record(cost(1.0));
        p.record(cost(3.0));
        let avg = p.per_batch();
        assert!((avg.ff - 2.0).abs() < 1e-12);
        assert!((avg.bf - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profiler_reports_zero() {
        let p = OnlineProfiler::new(5);
        assert_eq!(p.per_batch(), PhaseCost::zero());
        assert!(!p.done());
    }

    #[test]
    fn report_derivations_match_paper_quantities() {
        let report = ProfileReport {
            round: 1,
            per_batch: PhaseCost { ff: 1.0, fc: 0.25, bc: 0.25, bf: 2.5 },
            remaining_updates: 10,
        };
        assert!((report.t123() - 1.5).abs() < 1e-12);
        assert!((report.t4() - 2.5).abs() < 1e-12);
        assert!((report.full_batch() - 4.0).abs() < 1e-12);
        assert!((report.feature_only_batch() - 3.5).abs() < 1e-12);
        assert!((report.estimated_completion() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn zero_window_is_immediately_done() {
        let p = OnlineProfiler::new(0);
        assert!(p.done());
    }
}
