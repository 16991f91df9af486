//! Client data partitioning: IID and non-IID(k) disjoint splits.
//!
//! The paper's non-IID setup (§5.1): every client samples 3 of the 10
//! classes and owns a disjoint subset of the images of those classes.
//! [`Scheme::NonIid`] generalises this to any `classes_per_client` (the
//! Figure 10 sweep uses 2, 5 and 10).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt as _, SeedableRng};

use crate::synth::Dataset;

/// How to split a dataset across clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Every client receives a uniformly random, equally sized shard.
    Iid,
    /// Every client owns samples from only `classes_per_client` classes
    /// (the paper's non-IID(k)).
    NonIid {
        /// Number of distinct classes per client.
        classes_per_client: usize,
    },
}

impl Scheme {
    /// The paper's default non-IID setting (3 classes of 10).
    pub fn paper_non_iid() -> Self {
        Scheme::NonIid { classes_per_client: 3 }
    }
}

/// A disjoint assignment of dataset indices to clients.
///
/// Normally one index list is stored per client. For populations far
/// larger than the dataset ([`Partition::strided`]) the stored lists are
/// *shared shards*: `virtual_clients` many clients map onto them
/// round-robin, so storage stays `O(dataset)` however many clients are
/// simulated.
#[derive(Debug, Clone)]
pub struct Partition {
    client_indices: Vec<Vec<usize>>,
    num_classes: usize,
    /// `Some(n)`: `n` virtual clients share the stored shards
    /// round-robin (`client % shards`). `None`: one list per client.
    virtual_clients: Option<usize>,
}

impl Partition {
    /// Splits `dataset` across `clients` according to `scheme`.
    ///
    /// Shards are always disjoint. Under [`Scheme::NonIid`], every class is
    /// guaranteed at least one owner (so no data is silently dropped) and
    /// each class's samples are divided evenly among its owners.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0`, if the dataset is empty, or if
    /// `classes_per_client` is zero or exceeds the class count.
    pub fn split(dataset: &Dataset, clients: usize, scheme: Scheme, seed: u64) -> Self {
        assert!(clients > 0, "Partition::split: need at least one client");
        assert!(!dataset.is_empty(), "Partition::split: empty dataset");
        let num_classes = dataset.num_classes();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_7274); // "part" tag

        let client_indices = match scheme {
            Scheme::Iid => {
                let mut all: Vec<usize> = (0..dataset.len()).collect();
                all.shuffle(&mut rng);
                let mut shards = vec![Vec::new(); clients];
                for (pos, idx) in all.into_iter().enumerate() {
                    shards[pos % clients].push(idx);
                }
                shards
            }
            Scheme::NonIid { classes_per_client } => {
                assert!(
                    classes_per_client > 0 && classes_per_client <= num_classes,
                    "Partition::split: classes_per_client {classes_per_client} invalid for {num_classes} classes"
                );
                // 1. Each client picks k distinct classes.
                let mut owners: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
                for client in 0..clients {
                    let mut classes: Vec<usize> = (0..num_classes).collect();
                    classes.shuffle(&mut rng);
                    for &class in classes.iter().take(classes_per_client) {
                        owners[class].push(client);
                    }
                }
                // 2. Guarantee every class at least one owner so the global
                //    training signal covers all classes. To preserve the
                //    per-client class cap, an orphan class *swaps into* a
                //    client whose picks include a class that has another
                //    owner; only when the cluster cannot cover all classes
                //    (clients · k < classes) does the cap yield to coverage.
                for class in 0..num_classes {
                    if !owners[class].is_empty() {
                        continue;
                    }
                    let mut start = rng.random_range(0..clients);
                    let mut swapped = false;
                    for probe in 0..clients {
                        let client = (start + probe) % clients;
                        let replaceable = (0..num_classes).find(|&other| {
                            owners[other].len() >= 2 && owners[other].contains(&client)
                        });
                        if let Some(other) = replaceable {
                            owners[other].retain(|&c| c != client);
                            owners[class].push(client);
                            swapped = true;
                            break;
                        }
                    }
                    if !swapped {
                        // Cap must yield: coverage is required for training.
                        start = rng.random_range(0..clients);
                        owners[class].push(start);
                    }
                }
                // 3. Deal each class's samples round-robin to its owners.
                let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
                for i in 0..dataset.len() {
                    per_class[dataset.label(i)].push(i);
                }
                let mut shards = vec![Vec::new(); clients];
                for (class, samples) in per_class.iter_mut().enumerate() {
                    samples.shuffle(&mut rng);
                    let own = &owners[class];
                    for (pos, &idx) in samples.iter().enumerate() {
                        shards[own[pos % own.len()]].push(idx);
                    }
                }
                shards
            }
        };

        Partition { client_indices, num_classes, virtual_clients: None }
    }

    /// Splits `dataset` across `clients` with *shared strided shards*:
    /// `S = min(clients, dataset.len())` shards are materialised (shard
    /// `s` owns indices `s, s+S, s+2S, …`) and client `c` reads shard
    /// `c % S`. Storage is `O(dataset)` regardless of `clients`, which
    /// is what makes million-client populations affordable; the price is
    /// that clients congruent modulo `S` share data (their draw streams
    /// still differ — batcher seeds are per-client).
    ///
    /// Every shard is non-empty by construction.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0` or the dataset is empty.
    pub fn strided(dataset: &Dataset, clients: usize) -> Self {
        assert!(clients > 0, "Partition::strided: need at least one client");
        assert!(!dataset.is_empty(), "Partition::strided: empty dataset");
        let shards = clients.min(dataset.len());
        let client_indices =
            (0..shards).map(|s| (s..dataset.len()).step_by(shards).collect()).collect();
        Partition {
            client_indices,
            num_classes: dataset.num_classes(),
            virtual_clients: Some(clients),
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.virtual_clients.unwrap_or(self.client_indices.len())
    }

    /// The stored index list backing `client` (identity for materialised
    /// splits, `client % shards` for strided ones).
    fn slot(&self, client: usize) -> usize {
        match self.virtual_clients {
            Some(n) => {
                assert!(client < n, "client {client} out of range for {n} virtual clients");
                client % self.client_indices.len()
            }
            None => client,
        }
    }

    /// Sample indices owned by `client`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn indices(&self, client: usize) -> &[usize] {
        &self.client_indices[self.slot(client)]
    }

    /// Number of samples owned by `client`.
    pub fn shard_len(&self, client: usize) -> usize {
        self.client_indices[self.slot(client)].len()
    }

    /// Per-class label counts of `client`'s shard — the vector clients
    /// encrypt and send to the enclave.
    pub fn class_histogram(&self, dataset: &Dataset, client: usize) -> Vec<u64> {
        let mut hist = vec![0u64; self.num_classes];
        for &i in &self.client_indices[self.slot(client)] {
            hist[dataset.label(i)] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;
    use crate::synth::DataConfig;
    use std::collections::HashSet;

    fn dataset() -> Dataset {
        DataConfig { spec: DatasetSpec::MnistLike, train_size: 400, test_size: 1, seed: 3 }
            .generate_pair()
            .0
    }

    /// Number of distinct classes present in `client`'s shard.
    fn classes_present(p: &Partition, ds: &Dataset, client: usize) -> usize {
        p.class_histogram(ds, client).iter().filter(|&&n| n > 0).count()
    }

    fn assert_disjoint(p: &Partition) {
        let mut seen = HashSet::new();
        for c in 0..p.num_clients() {
            for &i in p.indices(c) {
                assert!(seen.insert(i), "index {i} assigned twice");
            }
        }
    }

    #[test]
    fn iid_shards_are_disjoint_exhaustive_and_balanced() {
        let ds = dataset();
        let p = Partition::split(&ds, 8, Scheme::Iid, 1);
        assert_disjoint(&p);
        let total: usize = (0..8).map(|c| p.shard_len(c)).sum();
        assert_eq!(total, ds.len());
        let min = (0..8).map(|c| p.shard_len(c)).min().unwrap();
        let max = (0..8).map(|c| p.shard_len(c)).max().unwrap();
        assert!(max - min <= 1, "IID shards unbalanced: {min}..{max}");
    }

    #[test]
    fn iid_shards_cover_most_classes() {
        let ds = dataset();
        let p = Partition::split(&ds, 4, Scheme::Iid, 2);
        for c in 0..4 {
            assert!(classes_present(&p, &ds, c) >= 8, "IID shard missing many classes");
        }
    }

    #[test]
    fn non_iid_limits_classes_per_client() {
        let ds = dataset();
        let p = Partition::split(&ds, 8, Scheme::NonIid { classes_per_client: 3 }, 7);
        assert_disjoint(&p);
        for c in 0..8 {
            let present = classes_present(&p, &ds, c);
            assert!(present <= 3, "client {c} has {present} classes, expected <= 3");
            assert!(present >= 1, "client {c} has no data");
        }
    }

    #[test]
    fn non_iid_covers_every_class_globally() {
        let ds = dataset();
        let p = Partition::split(&ds, 8, Scheme::NonIid { classes_per_client: 2 }, 9);
        let mut global = vec![0u64; ds.num_classes()];
        for c in 0..8 {
            for (g, h) in global.iter_mut().zip(p.class_histogram(&ds, c)) {
                *g += h;
            }
        }
        assert!(global.iter().all(|&count| count > 0), "some class lost: {global:?}");
    }

    #[test]
    fn non_iid_with_all_classes_equals_iid_coverage() {
        let ds = dataset();
        let p = Partition::split(&ds, 4, Scheme::NonIid { classes_per_client: 10 }, 5);
        assert_disjoint(&p);
        for c in 0..4 {
            assert_eq!(classes_present(&p, &ds, c), 10);
        }
    }

    #[test]
    fn split_is_deterministic_in_seed() {
        let ds = dataset();
        let a = Partition::split(&ds, 6, Scheme::paper_non_iid(), 42);
        let b = Partition::split(&ds, 6, Scheme::paper_non_iid(), 42);
        for c in 0..6 {
            assert_eq!(a.indices(c), b.indices(c));
        }
        let c_p = Partition::split(&ds, 6, Scheme::paper_non_iid(), 43);
        assert_ne!(a.indices(0), c_p.indices(0));
    }

    #[test]
    #[should_panic(expected = "classes_per_client")]
    fn rejects_zero_classes_per_client() {
        let ds = dataset();
        Partition::split(&ds, 2, Scheme::NonIid { classes_per_client: 0 }, 0);
    }

    #[test]
    fn strided_shards_are_disjoint_and_exhaustive() {
        let ds = dataset(); // 400 samples
        let p = Partition::strided(&ds, 7);
        assert_eq!(p.num_clients(), 7);
        let mut seen = HashSet::new();
        for c in 0..7 {
            assert!(!p.indices(c).is_empty());
            for &i in p.indices(c) {
                assert!(seen.insert(i), "index {i} assigned twice");
            }
        }
        assert_eq!(seen.len(), ds.len());
    }

    #[test]
    fn strided_virtual_clients_share_shards_modulo_stride() {
        let ds = dataset(); // 400 samples, so 1000 clients share 400 shards
        let p = Partition::strided(&ds, 1000);
        assert_eq!(p.num_clients(), 1000);
        assert_eq!(p.indices(3), p.indices(403));
        assert_eq!(p.shard_len(999), p.shard_len(599));
        assert!(!p.indices(999).is_empty(), "every virtual client has data");
        assert_eq!(p.class_histogram(&ds, 5), p.class_histogram(&ds, 405));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn strided_rejects_out_of_range_clients() {
        let ds = dataset();
        Partition::strided(&ds, 10).indices(10);
    }
}
