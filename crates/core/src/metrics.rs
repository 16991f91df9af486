//! Per-round records and whole-run results.

use aergia_codec::wire_struct;
use aergia_simnet::{SimDuration, SimTime};

use crate::profiler::WorkspacePoolStats;

/// What happened in one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u32,
    /// Wall-clock (virtual) duration from the federator's round start to
    /// the last expected message (paper §2.4's measurement rule).
    pub duration: SimDuration,
    /// Global-model test accuracy after aggregation (NaN in timing mode).
    pub test_accuracy: f64,
    /// Mean training loss reported by participants (NaN in timing mode).
    pub train_loss: f64,
    /// Clients selected this round.
    pub participants: Vec<usize>,
    /// Sender→receiver pairs whose offload was *activated*: the straggler
    /// froze its feature section and shipped its model to the receiver.
    /// A pair the federator rescheduled after a receiver crash is listed
    /// too, after the original.
    pub offloads: Vec<(usize, usize)>,
    /// Participants whose update was not aggregated, in participant
    /// order. There are three causes:
    /// - the update arrived after the deadline (deadline strategies);
    /// - the client crashed (churn) before its update left — a client
    ///   that crashes later, while serving an offload, is not dropped;
    /// - the transport lost the client's reply (real mode).
    pub dropped: Vec<usize>,
    /// Payload bytes delivered over the simulated network this round —
    /// actual encoded frame sizes under the experiment's wire codec, plus
    /// control envelopes.
    pub bytes_on_wire: u64,
    /// Client-state pool observability: batcher hit/miss/rebuild counts
    /// and the resident-client byte estimate after this round's
    /// admissions.
    pub pool: WorkspacePoolStats,
}

// Wire order differs from field order: `bytes_on_wire` precedes
// `participants`. This one layout is the checkpoint's `RNDS` record
// (layout v3) and the coordinator's `RunOutcome` record (v2), pinned by a
// golden-bytes test below.
wire_struct!(RoundRecord {
    round,
    duration,
    test_accuracy,
    train_loss,
    bytes_on_wire,
    participants,
    offloads,
    dropped,
    pool,
});

wire_struct!(WorkspacePoolStats {
    hits,
    misses,
    rebuilds,
    evictions,
    resident_clients,
    resident_bytes,
});

/// The result of a whole FL run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
    /// Time spent before round 0 (offline profiling, enclave setup, …).
    pub pretraining: SimDuration,
    /// Virtual time when the run finished.
    pub finished_at: SimTime,
    /// Test accuracy of the final global model (NaN in timing mode).
    pub final_accuracy: f64,
}

// The header of the coordinator's `RunOutcome` file.
wire_struct!(RunResult { pretraining, finished_at, final_accuracy, rounds });

impl RunResult {
    /// Total training time: pre-training plus all round durations (the
    /// paper's Figure 1(a) metric).
    pub fn total_time(&self) -> SimDuration {
        self.rounds.iter().fold(self.pretraining, |acc, r| acc + r.duration)
    }

    /// Mean round duration in seconds.
    pub fn mean_round_secs(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.duration.as_secs_f64()).sum::<f64>() / self.rounds.len() as f64
    }

    /// `(elapsed_seconds, accuracy)` pairs — the curves of Figure 10.
    pub fn accuracy_over_time(&self) -> Vec<(f64, f64)> {
        let mut t = self.pretraining.as_secs_f64();
        self.rounds
            .iter()
            .map(|r| {
                t += r.duration.as_secs_f64();
                (t, r.test_accuracy)
            })
            .collect()
    }

    /// Virtual time from run start, pre-training included (the clock of
    /// [`RunResult::accuracy_over_time`]), to the end of the first round
    /// whose test accuracy reaches `target`; `None` if no round does.
    pub fn time_to_accuracy(&self, target: f64) -> Option<SimDuration> {
        let mut t = self.pretraining;
        self.rounds.iter().find_map(|r| {
            t += r.duration;
            (r.test_accuracy >= target).then_some(t)
        })
    }

    /// Round durations in seconds (the sample behind Figure 8's density).
    pub fn round_durations(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.duration.as_secs_f64()).collect()
    }

    /// Total offload count across the run.
    pub fn total_offloads(&self) -> usize {
        self.rounds.iter().map(|r| r.offloads.len()).sum()
    }

    /// Total dropped updates across the run.
    pub fn total_dropped(&self) -> usize {
        self.rounds.iter().map(|r| r.dropped.len()).sum()
    }

    /// Total bytes delivered on the wire across all rounds.
    pub fn total_bytes_on_wire(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes_on_wire).sum()
    }

    /// Mean bytes on the wire per round.
    pub fn mean_round_bytes(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.total_bytes_on_wire() as f64 / self.rounds.len() as f64
    }
}

/// A fixed-width histogram over round durations, the discrete form of the
/// paper's Figure 8 density plot.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationHistogram {
    /// Left edge of the first bin (seconds).
    pub start: f64,
    /// Bin width (seconds).
    pub width: f64,
    /// Sample counts per bin.
    pub counts: Vec<usize>,
}

impl DurationHistogram {
    /// Bins `samples` into `bins` equal-width buckets spanning the data.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `bins == 0`.
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        assert!(!samples.is_empty(), "DurationHistogram: no samples");
        assert!(bins > 0, "DurationHistogram: zero bins");
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = ((hi - lo) / bins as f64).max(1e-9);
        let mut counts = vec![0usize; bins];
        for &s in samples {
            let mut idx = ((s - lo) / width) as usize;
            if idx >= bins {
                idx = bins - 1;
            }
            counts[idx] += 1;
        }
        DurationHistogram { start: lo, width, counts }
    }

    /// Center of bin `i` (seconds).
    pub fn center(&self, i: usize) -> f64 {
        self.start + (i as f64 + 0.5) * self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aergia_codec::wire::Wire;

    fn record(round: u32, secs: f64, acc: f64) -> RoundRecord {
        RoundRecord {
            round,
            duration: SimDuration::from_secs_f64(secs),
            test_accuracy: acc,
            train_loss: 1.0,
            participants: vec![0, 1],
            offloads: vec![],
            dropped: vec![],
            bytes_on_wire: 1_000,
            pool: WorkspacePoolStats::default(),
        }
    }

    fn run() -> RunResult {
        RunResult {
            rounds: vec![record(0, 10.0, 0.5), record(1, 20.0, 0.6), record(2, 30.0, 0.7)],
            pretraining: SimDuration::from_secs_f64(5.0),
            finished_at: SimTime::from_micros(65_000_000),
            final_accuracy: 0.7,
        }
    }

    /// The record's byte layout is shared by checkpoints (layout v3) and
    /// outcome files (v2): changing it means bumping both versions, not
    /// editing this array.
    #[test]
    fn record_bytes_are_pinned() {
        let record = RoundRecord {
            round: 2,
            duration: SimDuration::from_micros(0x0102_0304),
            test_accuracy: 0.5,
            train_loss: -2.0,
            participants: vec![7, 1],
            offloads: vec![(7, 1)],
            dropped: vec![3],
            bytes_on_wire: 0x0a0b,
            pool: WorkspacePoolStats {
                hits: 1,
                misses: 2,
                rebuilds: 3,
                evictions: 4,
                resident_clients: 5,
                resident_bytes: 6,
            },
        };
        #[rustfmt::skip]
        let golden: &[u8] = &[
            2, 0, 0, 0,                               // round
            4, 3, 2, 1, 0, 0, 0, 0,                   // duration µs
            0, 0, 0, 0, 0, 0, 0xe0, 0x3f,             // accuracy 0.5
            0, 0, 0, 0, 0, 0, 0, 0xc0,                // loss -2.0
            0x0b, 0x0a, 0, 0, 0, 0, 0, 0,             // bytes on wire
            2, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0,       // participants
            1, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0,       // offloads
            1, 0, 0, 0, 3, 0, 0, 0,                   // dropped
            1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0,       // pool hits/misses/rebuilds
            4, 0, 0, 0, 5, 0, 0, 0,                   // evictions, resident clients
            6, 0, 0, 0, 0, 0, 0, 0,                   // resident bytes
        ];
        assert_eq!(record.encode(), golden);
        assert_eq!(RoundRecord::decode(golden).unwrap(), record);
        for cut in 0..golden.len() {
            assert!(RoundRecord::decode(&golden[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn total_time_includes_pretraining() {
        assert!((run().total_time().as_secs_f64() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn mean_round_duration() {
        assert!((run().mean_round_secs() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_curve_is_cumulative_in_time() {
        let curve = run().accuracy_over_time();
        assert_eq!(curve.len(), 3);
        assert!((curve[0].0 - 15.0).abs() < 1e-9);
        assert!((curve[2].0 - 65.0).abs() < 1e-9);
        assert_eq!(curve[2].1, 0.7);
    }

    #[test]
    fn time_to_accuracy_counts_from_run_start() {
        let secs = |target| run().time_to_accuracy(target).map(SimDuration::as_secs_f64);
        // Crossed in round 1: 5 s pre-training + 10 s + 20 s.
        assert_eq!(secs(0.55), Some(35.0));
        // Equality reaches the target: round 0's 0.5 exactly.
        assert_eq!(secs(0.5), Some(15.0));
        assert_eq!(secs(0.71), None);
    }

    #[test]
    fn byte_totals_sum_over_rounds() {
        assert_eq!(run().total_bytes_on_wire(), 3_000);
        assert!((run().mean_round_bytes() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_cover_all_samples() {
        let h = DurationHistogram::from_samples(&[1.0, 2.0, 3.0, 4.0, 100.0], 4);
        assert_eq!(h.counts.iter().sum::<usize>(), 5);
        assert_eq!(h.counts, vec![4, 0, 0, 1]);
        assert!((h.start + 4.0 * h.width - 100.0).abs() < 1e-9, "bins span the data");
    }

    #[test]
    fn histogram_handles_identical_samples() {
        let h = DurationHistogram::from_samples(&[2.0, 2.0, 2.0], 3);
        assert_eq!(h.counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn empty_run_has_zero_mean() {
        let r = RunResult {
            rounds: vec![],
            pretraining: SimDuration::ZERO,
            finished_at: SimTime::ZERO,
            final_accuracy: f64::NAN,
        };
        assert_eq!(r.mean_round_secs(), 0.0);
        assert_eq!(r.total_offloads(), 0);
    }
}
