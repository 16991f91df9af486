//! Mini-batch iteration over a client's shard.

use aergia_codec::wire::{Reader, Wire};
use aergia_codec::CodecError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::synth::Dataset;
use aergia_tensor::Tensor;

/// The serializable iteration state of a [`Batcher`] (see
/// [`Batcher::state`] / [`Batcher::restore_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatcherState {
    /// The shard's sample indices in their current shuffled order.
    pub indices: Vec<usize>,
    /// Position of the next draw within `indices`.
    pub cursor: usize,
    /// Raw RNG state driving the epoch reshuffles.
    pub rng: [u64; 4],
}

// The cursor travels as u64 and must lie within the index list. This is
// the body of the checkpoint's `BTCH` chunk and of every batcher snapshot
// the network protocol ships, so both persist the same bytes.
impl Wire for BatcherState {
    fn put(&self, out: &mut Vec<u8>) {
        (self.cursor as u64, self.rng).put(out);
        self.indices.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (cursor, rng) = <(u64, [u64; 4])>::get(r)?;
        let (cursor, indices) = (cursor as usize, Vec::<usize>::get(r)?);
        if cursor > indices.len() {
            return Err(CodecError::Corrupt("batcher cursor out of range"));
        }
        Ok(BatcherState { indices, cursor, rng })
    }
}

/// Cycles through a client's sample indices in shuffled epochs, yielding
/// fixed-size mini-batches forever.
///
/// Local FL training runs a fixed number of *batch updates* per round
/// (1600 in the paper, scaled down here), so the iterator wraps around
/// epoch boundaries transparently, reshuffling at each new epoch.
///
/// # Examples
///
/// ```
/// use aergia_data::batcher::Batcher;
/// use aergia_data::{DataConfig, DatasetSpec};
///
/// let (train, _) = DataConfig {
///     spec: DatasetSpec::MnistLike, train_size: 10, test_size: 2, seed: 0,
/// }.generate_pair();
/// let indices: Vec<usize> = (0..10).collect();
/// let mut batcher = Batcher::new(indices, 4, 1);
/// let (mut x, mut y) = (Default::default(), Vec::new());
/// batcher.next_batch_into(&train, &mut x, &mut y);
/// assert_eq!(x.dims()[0], 4);
/// assert_eq!(y.len(), 4);
/// ```
#[derive(Debug)]
pub struct Batcher {
    indices: Vec<usize>,
    batch_size: usize,
    cursor: usize,
    rng: StdRng,
    /// Reusable pick buffer for [`Batcher::next_batch_into`].
    picked: Vec<usize>,
}

impl Batcher {
    /// Creates a batcher over `indices` with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or `batch_size` is zero.
    pub fn new(indices: Vec<usize>, batch_size: usize, seed: u64) -> Self {
        assert!(!indices.is_empty(), "Batcher::new: empty shard");
        assert!(batch_size > 0, "Batcher::new: zero batch size");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0062_6174_6368); // "batch"
        let mut indices = indices;
        indices.shuffle(&mut rng);
        Batcher { indices, batch_size, cursor: 0, rng, picked: Vec::new() }
    }

    /// Effective batch size (may exceed the shard, in which case batches
    /// repeat samples across the wrap).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of samples in the shard this batcher cycles over.
    pub fn shard_len(&self) -> usize {
        self.indices.len()
    }

    /// Captures the full iteration state — the current shuffled index
    /// order, the epoch cursor and the RNG — for a resumable checkpoint.
    pub fn state(&self) -> BatcherState {
        BatcherState { indices: self.indices.clone(), cursor: self.cursor, rng: self.rng.state() }
    }

    /// Restores the state captured by [`Batcher::state`]: subsequent
    /// draws continue the interrupted stream exactly.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's shard size differs from this batcher's or
    /// its cursor lies beyond the shard — either means the snapshot came
    /// from a different configuration.
    pub fn restore_state(&mut self, state: BatcherState) {
        assert_eq!(
            state.indices.len(),
            self.indices.len(),
            "Batcher::restore_state: shard size mismatch"
        );
        assert!(state.cursor <= state.indices.len(), "Batcher::restore_state: cursor out of range");
        self.indices = state.indices;
        self.cursor = state.cursor;
        self.rng = StdRng::from_state(state.rng);
    }

    /// Fills a caller-provided `(Tensor, Vec<usize>)` pair with the next
    /// mini-batch, reshuffling at epoch boundaries. `x` is reshaped in
    /// place to `[batch, C, H, W]` and `y` cleared and refilled, so both
    /// buffers reuse their allocations across calls and steady-state
    /// iteration stays allocation-free.
    pub fn next_batch_into(&mut self, dataset: &Dataset, x: &mut Tensor, y: &mut Vec<usize>) {
        self.picked.clear();
        while self.picked.len() < self.batch_size {
            if self.cursor == self.indices.len() {
                self.indices.shuffle(&mut self.rng);
                self.cursor = 0;
            }
            self.picked.push(self.indices[self.cursor]);
            self.cursor += 1;
        }
        dataset.batch_into(&self.picked, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DatasetSpec;
    use crate::synth::DataConfig;

    fn dataset() -> Dataset {
        DataConfig { spec: DatasetSpec::MnistLike, train_size: 10, test_size: 1, seed: 2 }
            .generate_pair()
            .0
    }

    /// The next batch into fresh buffers.
    fn next(b: &mut Batcher, ds: &Dataset) -> (Tensor, Vec<usize>) {
        let (mut x, mut y) = (Tensor::default(), Vec::new());
        b.next_batch_into(ds, &mut x, &mut y);
        (x, y)
    }

    #[test]
    fn one_epoch_visits_every_sample_once() {
        let ds = dataset();
        let mut b = Batcher::new((0..10).collect(), 5, 0);
        let (_, y1) = next(&mut b, &ds);
        let (_, y2) = next(&mut b, &ds);
        let mut seen = y1;
        seen.extend(y2);
        seen.sort_unstable();
        let mut expected: Vec<usize> = ds.labels().to_vec();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn wraps_across_epochs() {
        let ds = dataset();
        let mut b = Batcher::new((0..10).collect(), 7, 1);
        for _ in 0..5 {
            let (x, y) = next(&mut b, &ds);
            assert_eq!(x.dims()[0], 7);
            assert_eq!(y.len(), 7);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let mut a = Batcher::new((0..10).collect(), 3, 9);
        let mut b = Batcher::new((0..10).collect(), 3, 9);
        for _ in 0..4 {
            assert_eq!(next(&mut a, &ds).1, next(&mut b, &ds).1);
        }
    }

    #[test]
    fn state_round_trip_resumes_the_draw_stream() {
        let ds = dataset();
        let mut a = Batcher::new((0..10).collect(), 3, 4);
        for _ in 0..4 {
            next(&mut a, &ds);
        }
        let snap = a.state();
        let tail: Vec<Vec<usize>> = (0..6).map(|_| next(&mut a, &ds).1).collect();
        let mut b = Batcher::new((0..10).collect(), 3, 999); // different seed
        b.restore_state(snap);
        let replay: Vec<Vec<usize>> = (0..6).map(|_| next(&mut b, &ds).1).collect();
        assert_eq!(tail, replay);
    }

    #[test]
    #[should_panic(expected = "shard size mismatch")]
    fn restore_rejects_foreign_shards() {
        let mut a = Batcher::new((0..10).collect(), 3, 4);
        let foreign = Batcher::new((0..4).collect(), 3, 4).state();
        a.restore_state(foreign);
    }

    #[test]
    fn batch_larger_than_shard_repeats() {
        let ds = dataset();
        let mut b = Batcher::new(vec![0, 1], 5, 3);
        let (x, y) = next(&mut b, &ds);
        assert_eq!(x.dims()[0], 5);
        assert_eq!(y.len(), 5);
    }
}
