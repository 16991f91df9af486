//! The client-state pool: resident state for at most `cap` clients.
//!
//! A million-client simulation cannot afford per-client heavyweight
//! state. The engine therefore splits a client in two:
//!
//! * **Compact population state** — CPU model, shard length, per-batch
//!   phase costs (`ClientNode`, tens of bytes) — lives densely for every
//!   simulated client.
//! * **Heavy participant state** — the mini-batch draw stream
//!   ([`Batcher`], which owns a copy of the shard's index permutation) —
//!   lives in this pool, keyed by client id.
//!
//! Training workspaces are not client state at all: they sit on the
//! engine's shelf, one per task in flight (see the `Engine::workspaces`
//! field).
//!
//! Under [`ClientStateMode::Resident`](crate::config::ClientStateMode)
//! the pool is pre-populated with every client at build time and its
//! capacity is unbounded: behaviour (and bits) match the historical
//! dense layout exactly. Under `CohortSampled { max_resident }` the pool
//! starts empty, admits each round's participants on demand, and evicts
//! least-recently-selected clients above the cap.
//!
//! # Lifecycle and determinism
//!
//! [`CohortPool::begin_round`] admits the round's participants in
//! ascending client order (counting hits/misses/rebuilds), then evicts
//! non-participants — smallest `(stamp, client)` first — until the pool
//! fits the cap again; [`CohortPool::end_round`] evicts down to the cap
//! with the round over (participants are now fair game). Eviction order
//! is a pure function of the selection history, so pool membership — and
//! with it every statistic in
//! [`WorkspacePoolStats`](crate::profiler::WorkspacePoolStats) — is
//! identical across parallelism settings, transports and checkpoint
//! resume (the pool's entries, clock and eviction memory are serialized
//! in the `BTCH`/`POOL` checkpoint chunks).
//!
//! That split is safe because a workspace carries no round-to-round
//! information: every order resets its model from the order's own
//! snapshot (the decoded broadcast, or a straggler's delivered frozen
//! model) before training, so any workspace, however dirty, produces
//! bit-identical results (dirty reuse is pinned by the determinism
//! suite). A *batcher* is different: evicting one discards the client's
//! draw-stream position; on re-admission the stream restarts from its
//! seeded origin. That is the documented divergence of cohort-sampled
//! runs from fully resident ones — and the reason `Resident` mode never
//! evicts.

use std::collections::{HashMap, HashSet};

use aergia_data::batcher::Batcher;

use crate::profiler::WorkspacePoolStats;

/// One resident client's heavy state.
pub(crate) struct PoolEntry {
    /// Last round-admission tick (LRU key; ties broken by client id).
    pub(crate) stamp: u64,
    pub(crate) batcher: Batcher,
}

/// LRU pool of per-client heavy state (see the module docs).
pub(crate) struct CohortPool {
    entries: HashMap<usize, PoolEntry>,
    /// Monotone admission tick.
    clock: u64,
    /// Maximum resident clients (`usize::MAX` for `Resident` mode).
    cap: usize,
    /// Every client ever evicted — distinguishes a *rebuild* from a
    /// first-time admission in the stats.
    evicted_ever: HashSet<usize>,
    /// Counters of the round in flight (reset by `begin_round`).
    stats: WorkspacePoolStats,
}

impl CohortPool {
    pub(crate) fn new(cap: usize) -> Self {
        CohortPool {
            entries: HashMap::new(),
            clock: 0,
            cap: cap.max(1),
            evicted_ever: HashSet::new(),
            stats: WorkspacePoolStats::default(),
        }
    }

    /// Inserts a client at build time (Resident mode), before any round.
    pub(crate) fn prepopulate(&mut self, client: usize, batcher: Batcher) {
        let stamp = self.clock;
        self.clock += 1;
        let prev = self.entries.insert(client, PoolEntry { stamp, batcher });
        debug_assert!(prev.is_none(), "client {client} prepopulated twice");
    }

    /// Admits this round's participants (building missing batchers with
    /// `make`, in ascending client order), evicts non-participants above
    /// the cap, and leaves the round's stats readable via
    /// [`CohortPool::stats`].
    pub(crate) fn begin_round(
        &mut self,
        participants: &[usize],
        mut make: impl FnMut(usize) -> Batcher,
    ) {
        self.stats = WorkspacePoolStats::default();
        self.clock += 1;
        let stamp = self.clock;
        for &p in participants {
            if let Some(entry) = self.entries.get_mut(&p) {
                entry.stamp = stamp;
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
                if self.evicted_ever.contains(&p) {
                    self.stats.rebuilds += 1;
                }
                self.entries.insert(p, PoolEntry { stamp, batcher: make(p) });
            }
        }
        let keep: HashSet<usize> = participants.iter().copied().collect();
        self.evict_over_cap(&keep);
        self.stats.resident_clients = self.entries.len() as u32;
        self.stats.resident_bytes =
            self.entries.values().map(|e| (e.batcher.shard_len() * 8 + 64) as u64).sum();
    }

    /// Evicts down to the cap with no protected set — call once the
    /// round's training is folded, so the *next* round observes at most
    /// `cap` residents.
    pub(crate) fn end_round(&mut self) {
        self.evict_over_cap(&HashSet::new());
    }

    fn evict_over_cap(&mut self, keep: &HashSet<usize>) {
        if self.entries.len() <= self.cap {
            return;
        }
        let excess = self.entries.len() - self.cap;
        let mut victims: Vec<(u64, usize)> = self
            .entries
            .iter()
            .filter(|(c, _)| !keep.contains(c))
            .map(|(&c, e)| (e.stamp, c))
            .collect();
        victims.sort_unstable();
        for &(_, client) in victims.iter().take(excess) {
            self.entries.remove(&client).expect("victim is resident");
            self.stats.evictions += 1;
            self.evicted_ever.insert(client);
        }
    }

    /// The finished round's pool statistics.
    pub(crate) fn stats(&self) -> WorkspacePoolStats {
        self.stats
    }

    /// Disjoint `&mut` handles to every resident entry's batcher, for the
    /// round's transport orders.
    pub(crate) fn handles(&mut self) -> HashMap<usize, &mut Batcher> {
        self.entries.iter_mut().map(|(&c, e)| (c, &mut e.batcher)).collect()
    }

    /// Resident client count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether `client` is resident.
    #[cfg(test)]
    pub(crate) fn contains(&self, client: usize) -> bool {
        self.entries.contains_key(&client)
    }

    /// `(client, stamp, batcher)` of every resident entry, ascending by
    /// client id — the checkpoint's `BTCH` chunk order.
    pub(crate) fn snapshot_entries(&self) -> Vec<(usize, u64, &Batcher)> {
        let mut out: Vec<(usize, u64, &Batcher)> =
            self.entries.iter().map(|(&c, e)| (c, e.stamp, &e.batcher)).collect();
        out.sort_unstable_by_key(|&(c, _, _)| c);
        out
    }

    /// `(clock, sorted eviction memory)` — the checkpoint's `POOL` chunk.
    pub(crate) fn snapshot_meta(&self) -> (u64, Vec<usize>) {
        let mut evicted: Vec<usize> = self.evicted_ever.iter().copied().collect();
        evicted.sort_unstable();
        (self.clock, evicted)
    }

    /// Replaces the pool's contents with checkpoint-restored state.
    pub(crate) fn restore(
        &mut self,
        entries: Vec<(usize, u64, Batcher)>,
        clock: u64,
        evicted_ever: Vec<usize>,
    ) {
        self.entries = entries
            .into_iter()
            .map(|(c, stamp, batcher)| (c, PoolEntry { stamp, batcher }))
            .collect();
        self.clock = clock;
        self.evicted_ever = evicted_ever.into_iter().collect();
        self.stats = WorkspacePoolStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(id: usize) -> Batcher {
        Batcher::new(vec![id, id + 1], 2, id as u64)
    }

    #[test]
    fn resident_mode_never_evicts_and_always_hits() {
        let mut p = CohortPool::new(usize::MAX);
        for c in 0..4 {
            p.prepopulate(c, batcher(c));
        }
        p.begin_round(&[1, 3], batcher);
        assert_eq!(p.stats().hits, 2);
        assert_eq!(p.stats().misses, 0);
        assert_eq!(p.stats().resident_clients, 4);
        p.end_round();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn lru_evicts_least_recently_selected_first() {
        let mut p = CohortPool::new(2);
        p.begin_round(&[0, 1], batcher);
        p.end_round();
        p.begin_round(&[2], batcher); // evicts 0 or 1? same stamp → lowest id: 0
        assert!(!p.contains(0), "client 0 (oldest, lowest id) evicted");
        assert!(p.contains(1) && p.contains(2));
        p.end_round();
        p.begin_round(&[1], batcher); // refresh 1
        p.end_round();
        p.begin_round(&[3], batcher); // now 2 is the LRU
        assert!(!p.contains(2));
        assert!(p.contains(1) && p.contains(3));
    }

    #[test]
    fn participants_survive_admission_even_over_cap() {
        let mut p = CohortPool::new(2);
        p.begin_round(&[0, 1, 2, 3], batcher);
        assert_eq!(p.len(), 4, "the live round's participants are protected");
        assert_eq!(p.stats().resident_clients, 4);
        p.end_round();
        assert_eq!(p.len(), 2, "end_round shrinks back to the cap");
    }

    #[test]
    fn rebuilds_count_readmissions_only() {
        let mut p = CohortPool::new(1);
        p.begin_round(&[0], batcher);
        p.end_round();
        p.begin_round(&[1], batcher); // evicts 0, first admission of 1
        assert_eq!((p.stats().misses, p.stats().rebuilds), (1, 0));
        p.end_round();
        p.begin_round(&[0], batcher); // 0 comes back: a rebuild
        assert_eq!((p.stats().misses, p.stats().rebuilds), (1, 1));
    }

    #[test]
    fn resident_bytes_track_membership() {
        let mut p = CohortPool::new(2);
        p.begin_round(&[0, 1, 2], batcher);
        // 3 entries × (2 indices × 8 + 64): batchers only, no workspace.
        assert_eq!(p.stats().resident_bytes, 3 * (16 + 64));
        p.end_round();
        p.begin_round(&[3], batcher);
        assert_eq!(p.stats().resident_bytes, 2 * (16 + 64), "evicted entries stop counting");
    }

    #[test]
    fn snapshot_restore_round_trips_membership() {
        let mut p = CohortPool::new(2);
        p.begin_round(&[0, 1], batcher);
        p.end_round();
        p.begin_round(&[2], batcher);
        p.end_round();
        let entries: Vec<(usize, u64, Batcher)> = p
            .snapshot_entries()
            .into_iter()
            .map(|(c, stamp, b)| {
                let mut fresh = batcher(c);
                fresh.restore_state(b.state());
                (c, stamp, fresh)
            })
            .collect();
        let (clock, evicted) = p.snapshot_meta();
        assert_eq!(evicted, vec![0]);
        let mut q = CohortPool::new(2);
        q.restore(entries, clock, evicted);
        assert_eq!(q.len(), 2);
        // Same continuation: admitting 0 again counts as a rebuild in both.
        p.begin_round(&[0], batcher);
        q.begin_round(&[0], batcher);
        assert_eq!(p.stats(), q.stats());
    }
}
