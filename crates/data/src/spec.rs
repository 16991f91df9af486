//! Dataset specifications mirroring the paper's benchmarks.

aergia_codec::wire_enum! {
    /// A synthetic stand-in for one of the paper's image benchmarks.
    ///
    /// Image shapes and class counts match the originals; the `noise_std` /
    /// `class_overlap` knobs order the classification difficulty the same way
    /// (MNIST easiest, CIFAR hardest).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum DatasetSpec {
        /// 28×28 grayscale, 10 well-separated classes (stands in for MNIST).
        MnistLike = 0,
        /// 28×28 grayscale, 10 classes with more overlap (FMNIST).
        FmnistLike = 1,
        /// 32×32 RGB, 10 overlapping classes (CIFAR-10).
        Cifar10Like = 2,
        /// 32×32 RGB, 100 overlapping classes (CIFAR-100).
        Cifar100Like = 3,
    }
}

impl DatasetSpec {
    /// All specs used somewhere in the evaluation.
    pub const ALL: [DatasetSpec; 4] = [
        DatasetSpec::MnistLike,
        DatasetSpec::FmnistLike,
        DatasetSpec::Cifar10Like,
        DatasetSpec::Cifar100Like,
    ];

    /// Image dimensions `(channels, height, width)`.
    pub fn dims(self) -> (usize, usize, usize) {
        match self {
            DatasetSpec::MnistLike | DatasetSpec::FmnistLike => (1, 28, 28),
            DatasetSpec::Cifar10Like | DatasetSpec::Cifar100Like => (3, 32, 32),
        }
    }

    /// Number of classes.
    pub fn num_classes(self) -> usize {
        match self {
            DatasetSpec::Cifar100Like => 100,
            _ => 10,
        }
    }

    /// Per-pixel Gaussian noise added to every sample.
    pub(crate) fn noise_std(self) -> f32 {
        match self {
            DatasetSpec::MnistLike => 0.15,
            DatasetSpec::FmnistLike => 0.25,
            DatasetSpec::Cifar10Like | DatasetSpec::Cifar100Like => 0.35,
        }
    }

    /// Fraction of a shared "background" prototype mixed into every class
    /// prototype; higher values make classes harder to tell apart.
    pub(crate) fn class_overlap(self) -> f32 {
        match self {
            DatasetSpec::MnistLike => 0.1,
            DatasetSpec::FmnistLike => 0.3,
            DatasetSpec::Cifar10Like | DatasetSpec::Cifar100Like => 0.5,
        }
    }

    /// Maximum absolute spatial jitter (pixels) applied to each sample.
    pub(crate) fn jitter(self) -> usize {
        match self {
            DatasetSpec::MnistLike | DatasetSpec::FmnistLike => 2,
            _ => 3,
        }
    }

    /// Short lowercase name used in reports (`mnist`, `fmnist`, …).
    pub fn name(self) -> &'static str {
        match self {
            DatasetSpec::MnistLike => "mnist",
            DatasetSpec::FmnistLike => "fmnist",
            DatasetSpec::Cifar10Like => "cifar10",
            DatasetSpec::Cifar100Like => "cifar100",
        }
    }
}

impl std::fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_real_benchmarks() {
        assert_eq!(DatasetSpec::MnistLike.dims(), (1, 28, 28));
        assert_eq!(DatasetSpec::FmnistLike.dims(), (1, 28, 28));
        assert_eq!(DatasetSpec::Cifar10Like.dims(), (3, 32, 32));
        assert_eq!(DatasetSpec::Cifar100Like.dims(), (3, 32, 32));
        assert_eq!(DatasetSpec::Cifar100Like.num_classes(), 100);
    }

    #[test]
    fn difficulty_ordering_is_preserved() {
        // MNIST-like must be strictly easier than FMNIST-like which must be
        // easier than CIFAR-like.
        assert!(DatasetSpec::MnistLike.noise_std() < DatasetSpec::FmnistLike.noise_std());
        assert!(DatasetSpec::FmnistLike.noise_std() < DatasetSpec::Cifar10Like.noise_std());
        assert!(DatasetSpec::MnistLike.class_overlap() < DatasetSpec::FmnistLike.class_overlap());
        assert!(DatasetSpec::FmnistLike.class_overlap() < DatasetSpec::Cifar10Like.class_overlap());
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = DatasetSpec::ALL.iter().map(|s| s.name()).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped);
    }
}
