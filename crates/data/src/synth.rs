//! Procedural dataset generation.
//!
//! Every class gets a *prototype image* composed of a handful of smooth
//! Gaussian blobs (per channel), plus a share of a background prototype
//! common to all classes (the spec's class-overlap knob).
//! A sample of class `c` is the prototype shifted by a small random jitter
//! with per-pixel Gaussian noise added. The result is a dataset a small
//! CNN genuinely has to learn spatial features for, while remaining fully
//! deterministic given a seed.
//!
//! Generation is two passes over one RNG stream. The **label walk** is
//! serial and runs in `Dataset::from_prototypes`: per sample it draws
//! the label and the jitter, records the generator state in front of the
//! sample's noise and skips the `c·h·w` normals the pixels will consume.
//! The **render** turns each sample's recipe into pixels, one pool task
//! per sample, each re-seeded from its recorded state — so every pixel is
//! the same expression over the same bits whatever the pool size. It runs
//! the first time a pixel is read ([`Dataset::batch_into`]) or when
//! [`Dataset::render`] asks for it; a consumer that only reads labels
//! (partitioning, histograms, the timing-mode engine) never pays for it.

use std::sync::{Arc, OnceLock};

use aergia_codec::wire::{Reader, Wire};
use aergia_codec::CodecError;
use aergia_runtime::ThreadPool;
use aergia_tensor::init::{skip_standard_normals, standard_normal};
use aergia_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

use crate::spec::DatasetSpec;

/// Parameters for generating a train/test dataset pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataConfig {
    /// Which benchmark to imitate.
    pub spec: DatasetSpec,
    /// Number of training samples.
    pub train_size: usize,
    /// Number of test samples.
    pub test_size: usize,
    /// Master seed: prototypes derive from it, so train and test share the
    /// same class structure.
    pub seed: u64,
}

// The dataset sizes travel as u64, not as the usual u32.
impl Wire for DataConfig {
    fn put(&self, out: &mut Vec<u8>) {
        (self.spec, self.train_size as u64, self.test_size as u64).put(out);
        self.seed.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (spec, train_size, test_size) = <(DatasetSpec, u64, u64)>::get(r)?;
        let (train_size, test_size) = (train_size as usize, test_size as usize);
        Ok(DataConfig { spec, train_size, test_size, seed: u64::get(r)? })
    }
}

impl DataConfig {
    /// Generates the train and test datasets.
    ///
    /// Both use the same class prototypes (derived from `seed`) but
    /// disjoint sample randomness, like a real train/test split.
    pub fn generate_pair(&self) -> (Dataset, Dataset) {
        let protos = Prototypes::generate(self.spec, self.seed);
        let train = Dataset::from_prototypes(&protos, self.train_size, self.seed.wrapping_add(1));
        let test = Dataset::from_prototypes(&protos, self.test_size, self.seed.wrapping_add(2));
        (train, test)
    }
}

/// The per-class prototype images for one dataset instance.
#[derive(Debug, Clone)]
pub struct Prototypes {
    spec: DatasetSpec,
    // One flattened C×H×W image per class; shared with every dataset
    // sampled from these prototypes, which render from them lazily.
    images: Arc<[Vec<f32>]>,
}

impl Prototypes {
    /// Generates prototypes for `spec` from a master seed.
    pub(crate) fn generate(spec: DatasetSpec, seed: u64) -> Self {
        let (c, h, w) = spec.dims();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_726f_746f); // "proto" tag
        let background = random_blob_image(&mut rng, c, h, w, 4);
        let overlap = spec.class_overlap();
        let images = (0..spec.num_classes())
            .map(|_| -> Vec<f32> {
                let own = random_blob_image(&mut rng, c, h, w, 3);
                own.iter()
                    .zip(&background)
                    .map(|(o, b)| (1.0 - overlap) * o + overlap * b)
                    .collect()
            })
            .collect();
        Prototypes { spec, images }
    }

    /// The spec these prototypes were generated for.
    pub fn spec(&self) -> DatasetSpec {
        self.spec
    }
}

/// Renders `blobs` smooth Gaussian bumps per channel onto a C×H×W canvas.
fn random_blob_image(rng: &mut StdRng, c: usize, h: usize, w: usize, blobs: usize) -> Vec<f32> {
    let mut img = vec![0.0f32; c * h * w];
    for chan in 0..c {
        for _ in 0..blobs {
            let cy: f32 = rng.random_range(0.15f32..0.85) * h as f32;
            let cx: f32 = rng.random_range(0.15f32..0.85) * w as f32;
            let sigma: f32 = rng.random_range(0.08f32..0.25) * h as f32;
            let amp: f32 =
                rng.random_range(0.6f32..1.4) * if rng.random_bool(0.3) { -1.0 } else { 1.0 };
            let base = chan * h * w;
            for y in 0..h {
                for x in 0..w {
                    let dy = (y as f32 - cy) / sigma;
                    let dx = (x as f32 - cx) / sigma;
                    img[base + y * w + x] += amp * (-(dy * dy + dx * dx) / 2.0).exp();
                }
            }
        }
    }
    img
}

/// What the render needs to know about one sample beyond its label.
#[derive(Debug, Clone, Copy)]
struct SampleRecipe {
    /// Generator state at the sample's first noise draw.
    noise_rng: [u64; 4],
    /// Spatial jitter applied to the prototype.
    dy: i8,
    dx: i8,
}

/// Everything needed to render a synthetic dataset's pixels on demand.
#[derive(Debug, Clone)]
struct Recipe {
    protos: Prototypes,
    samples: Vec<SampleRecipe>,
}

/// An in-memory labelled image dataset.
///
/// Labels are always resident. Pixels are stored contiguously (row-major
/// C×H×W per sample) once they exist: a dataset sampled from prototypes
/// keeps a 40-byte recipe per sample instead and renders all pixels the
/// first time one is read — [`Dataset::batch`] and friends, or an explicit
/// [`Dataset::render`] — on the global thread pool. Reading labels or
/// histograms never renders. `Clone` copies the pixels if they have been
/// rendered; a clone taken earlier renders on its own.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: OnceLock<Vec<f32>>,
    recipe: Recipe,
    labels: Vec<usize>,
    dims: (usize, usize, usize),
    num_classes: usize,
}

impl Dataset {
    /// Samples `n` images (labels drawn uniformly) from prototypes.
    ///
    /// This is the serial label walk only; see the module docs for when
    /// the pixels are rendered.
    pub(crate) fn from_prototypes(protos: &Prototypes, n: usize, sample_seed: u64) -> Self {
        let spec = protos.spec;
        let (c, h, w) = spec.dims();
        let mut rng = StdRng::seed_from_u64(sample_seed ^ 0x73616d_706c65); // "sample"
        let jitter = spec.jitter() as i64;
        let mut samples = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);

        for _ in 0..n {
            labels.push(rng.random_range(0..spec.num_classes()));
            // The jitter is a few pixels, so `i8` holds it.
            let dy = rng.random_range(-jitter..=jitter) as i8;
            let dx = rng.random_range(-jitter..=jitter) as i8;
            samples.push(SampleRecipe { noise_rng: rng.state(), dy, dx });
            skip_standard_normals(&mut rng, c * h * w);
        }

        Dataset {
            images: OnceLock::new(),
            recipe: Recipe { protos: protos.clone(), samples },
            labels,
            dims: (c, h, w),
            num_classes: spec.num_classes(),
        }
    }

    /// Renders every sample's pixels on `pool`, one chunk per sample.
    fn render_on(&self, pool: &ThreadPool) -> Vec<f32> {
        let recipe = &self.recipe;
        let (c, h, w) = self.dims;
        let noise = recipe.protos.spec.noise_std();
        let mut images = vec![0.0f32; self.labels.len() * c * h * w];
        pool.par_chunks_mut(&mut images, c * h * w, |i, out| {
            let SampleRecipe { noise_rng, dy, dx } = recipe.samples[i];
            let proto = &recipe.protos.images[self.labels[i]];
            let mut rng = StdRng::from_state(noise_rng);
            for (chan, plane) in out.chunks_mut(h * w).enumerate() {
                let base = chan * h * w;
                for (y, row) in plane.chunks_mut(w).enumerate() {
                    for (x, px) in row.iter_mut().enumerate() {
                        let sy = y as isize + dy as isize;
                        let sx = x as isize + dx as isize;
                        let v = if sy >= 0 && sy < h as isize && sx >= 0 && sx < w as isize {
                            proto[base + sy as usize * w + sx as usize]
                        } else {
                            0.0
                        };
                        *px = v + noise * standard_normal(&mut rng);
                    }
                }
            }
        });
        images
    }

    /// All pixels, rendering them first if nobody has read one yet.
    fn pixels(&self) -> &[f32] {
        self.images.get_or_init(|| self.render_on(ThreadPool::global()))
    }

    /// Renders the pixels now (a no-op once rendered), so that a caller
    /// about to time pixel reads pays the one-time cost up front.
    pub fn render(&self) {
        self.pixels();
    }

    /// Whether the pixels exist yet.
    pub fn is_rendered(&self) -> bool {
        self.images.get().is_some()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image dimensions `(channels, height, width)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Number of classes (labels range over `0..num_classes`).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Materialises the samples at `indices` as an NCHW batch.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut x = Tensor::default();
        let mut labels = Vec::new();
        self.batch_into(indices, &mut x, &mut labels);
        (x, labels)
    }

    /// [`Dataset::batch`] writing into a caller-provided pair: `x` is
    /// reshaped in place to `[batch, C, H, W]` and `labels` cleared and
    /// refilled, so a training loop reusing the same buffers copies sample
    /// data without touching the allocator once the buffers are warm.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn batch_into(&self, indices: &[usize], x: &mut Tensor, labels: &mut Vec<usize>) {
        assert!(!indices.is_empty(), "Dataset::batch: empty index list");
        let (c, h, w) = self.dims;
        let stride = c * h * w;
        let images = self.pixels();
        x.reset_for_overwrite(&[indices.len(), c, h, w]);
        let data = x.data_mut();
        labels.clear();
        for (row, &i) in indices.iter().enumerate() {
            data[row * stride..(row + 1) * stride]
                .copy_from_slice(&images[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
    }

    /// The whole dataset as one batch (for small test sets).
    pub fn full_batch(&self) -> (Tensor, Vec<usize>) {
        let idx: Vec<usize> = (0..self.len()).collect();
        self.batch(&idx)
    }

    /// Histogram of labels over `indices` (or the whole set when `None`),
    /// with one bucket per class — the paper's “number of labels per
    /// class” vector that clients send to the enclave.
    pub fn class_histogram(&self, indices: Option<&[usize]>) -> Vec<u64> {
        let mut hist = vec![0u64; self.num_classes];
        match indices {
            Some(idx) => {
                for &i in idx {
                    hist[self.labels[i]] += 1;
                }
            }
            None => {
                for &l in &self.labels {
                    hist[l] += 1;
                }
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pair() -> (Dataset, Dataset) {
        DataConfig { spec: DatasetSpec::MnistLike, train_size: 40, test_size: 20, seed: 5 }
            .generate_pair()
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = small_pair();
        let (b, _) = small_pair();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.pixels(), b.pixels());
    }

    #[test]
    fn render_is_bit_identical_at_any_pool_size() {
        let (train, _) = small_pair();
        let bits = |threads| -> Vec<u32> {
            let pool = ThreadPool::new(threads);
            train.render_on(&pool).iter().map(|v| v.to_bits()).collect()
        };
        let serial = bits(1);
        assert_eq!(bits(2), serial);
        assert_eq!(bits(4), serial);
        let global: Vec<u32> = train.pixels().iter().map(|v| v.to_bits()).collect();
        assert_eq!(global, serial);
    }

    #[test]
    fn pixels_render_on_first_read_only() {
        let (train, test) = small_pair();
        assert!(!train.is_rendered());
        let _ = (train.labels(), train.class_histogram(None), train.class_histogram(Some(&[1])));
        assert!(!train.is_rendered(), "labels and histograms must not render");
        let _ = train.batch(&[0]);
        assert!(train.is_rendered());
        assert!(train.clone().is_rendered(), "Clone copies rendered pixels");
        assert!(!test.is_rendered(), "the splits render independently");
        test.render();
        assert!(test.is_rendered());
    }

    #[test]
    fn train_and_test_differ_but_share_structure() {
        let (train, test) = small_pair();
        assert_ne!(train.pixels()[..100], test.pixels()[..100]);
        assert_eq!(train.dims(), test.dims());
        assert_eq!(train.num_classes(), test.num_classes());
    }

    #[test]
    fn batch_shapes_and_labels() {
        let (train, _) = small_pair();
        let (x, y) = train.batch(&[0, 3, 7]);
        assert_eq!(x.dims(), &[3, 1, 28, 28]);
        assert_eq!(y, vec![train.label(0), train.label(3), train.label(7)]);
        assert!(x.is_finite());
    }

    #[test]
    fn histogram_sums_to_len() {
        let (train, _) = small_pair();
        let hist = train.class_histogram(None);
        assert_eq!(hist.iter().sum::<u64>(), train.len() as u64);
        let sub = train.class_histogram(Some(&[0, 1, 2]));
        assert_eq!(sub.iter().sum::<u64>(), 3);
    }

    #[test]
    fn prototypes_are_distinct_per_class() {
        let protos = Prototypes::generate(DatasetSpec::MnistLike, 3);
        let a = &protos.images[0];
        let b = &protos.images[1];
        let diff: f32 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1.0, "prototypes nearly identical (diff {diff})");
    }

    #[test]
    fn cifar_like_has_three_channels() {
        let (train, _) =
            DataConfig { spec: DatasetSpec::Cifar10Like, train_size: 4, test_size: 2, seed: 1 }
                .generate_pair();
        assert_eq!(train.dims(), (3, 32, 32));
    }

    #[test]
    fn a_cnn_can_learn_the_synthetic_data() {
        // The core promise of the substitution: a small CNN trained briefly
        // beats random guessing comfortably.
        use aergia_nn::models::ModelArch;
        use aergia_nn::optim::{Sgd, SgdConfig};

        let (train, test) =
            DataConfig { spec: DatasetSpec::MnistLike, train_size: 256, test_size: 128, seed: 11 }
                .generate_pair();
        let mut model = ModelArch::MnistCnn.build(0);
        let mut opt = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, ..SgdConfig::default() });
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..40 {
            let idx: Vec<usize> = (0..16).map(|_| rng.random_range(0..train.len())).collect();
            let (x, y) = train.batch(&idx);
            model.train_batch(&x, &y, &mut opt).unwrap();
        }
        let (x, y) = test.full_batch();
        let (_, correct) = model.evaluate(&x, &y);
        let acc = correct as f32 / y.len() as f32;
        assert!(acc > 0.35, "accuracy only {acc} after brief training (chance = 0.1)");
    }
}
