//! The model zoo of the paper's evaluation (§5.1 “Networks” and Figure 4).
//!
//! * MNIST / FMNIST: a three-layer CNN (two convolutional layers and one
//!   fully-connected layer).
//! * CIFAR-10: an eight-layer CNN (six convolutional layers and two
//!   fully-connected layers).
//! * The Figure 4 profiling study additionally uses ResNet-style and
//!   VGG-style networks on CIFAR-10/CIFAR-100; we provide compact versions
//!   with the same structural characteristics (residual blocks with skip
//!   projections; deep conv stacks with a multi-layer dense head).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layer::{Conv2d, Flatten, Layer, Linear, MaxPool2d, Relu, ResidualBlock};
use crate::model::Cnn;

aergia_codec::wire_enum! {
    /// The network architectures used in the paper's evaluation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ModelArch {
        /// Two conv layers + one fully-connected layer, for 28×28×1 inputs.
        MnistCnn = 0,
        /// Same topology as [`ModelArch::MnistCnn`] (the paper trains the same
        /// model on FMNIST).
        FmnistCnn = 1,
        /// Six conv layers + two fully-connected layers, for 32×32×3 inputs.
        Cifar10Cnn = 2,
        /// Conv stem + three residual blocks, 10 classes.
        Cifar10ResNet = 3,
        /// VGG-style conv stack with a three-layer dense head, 100 classes.
        Cifar100Vgg = 4,
        /// Conv stem + three residual blocks, 100 classes.
        Cifar100ResNet = 5,
    }
}

impl ModelArch {
    /// Every architecture, in the order Figure 4 reports them.
    pub const ALL: [ModelArch; 6] = [
        ModelArch::Cifar10Cnn,
        ModelArch::Cifar10ResNet,
        ModelArch::Cifar100Vgg,
        ModelArch::Cifar100ResNet,
        ModelArch::FmnistCnn,
        ModelArch::MnistCnn,
    ];

    /// The paper's name for this dataset/network pairing.
    pub fn name(self) -> &'static str {
        match self {
            ModelArch::MnistCnn => "mnist-cnn",
            ModelArch::FmnistCnn => "fmnist-cnn",
            ModelArch::Cifar10Cnn => "Cifar-10-cnn",
            ModelArch::Cifar10ResNet => "Cifar-10-resnet",
            ModelArch::Cifar100Vgg => "Cifar-100-vgg",
            ModelArch::Cifar100ResNet => "Cifar-100-resnet",
        }
    }

    /// Number of output classes.
    pub fn num_classes(self) -> usize {
        match self {
            ModelArch::Cifar100Vgg | ModelArch::Cifar100ResNet => 100,
            _ => 10,
        }
    }

    /// Builds the architecture with weights drawn from `seed`.
    ///
    /// Two builds from the same seed are identical, which is how every
    /// client starts a round from the same global model.
    pub fn build(self, seed: u64) -> Cnn {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            ModelArch::MnistCnn | ModelArch::FmnistCnn => mnist_cnn(&mut rng),
            ModelArch::Cifar10Cnn => cifar_cnn(&mut rng, 10),
            ModelArch::Cifar10ResNet => cifar_resnet(&mut rng, 10),
            ModelArch::Cifar100Vgg => cifar_vgg(&mut rng, 100),
            ModelArch::Cifar100ResNet => cifar_resnet(&mut rng, 100),
        }
    }
}

impl std::fmt::Display for ModelArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn mnist_cnn(rng: &mut StdRng) -> Cnn {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 16, 5, 2, 28, 28, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(28, 28)),
        Box::new(Conv2d::new(16, 32, 5, 2, 14, 14, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(14, 14)),
        // --- classifier ---
        Box::new(Flatten::new()),
        Box::new(Linear::new(32 * 7 * 7, 10, rng)),
    ];
    Cnn::new(layers, 6, 10).expect("mnist_cnn: static split is valid")
}

fn cifar_cnn(rng: &mut StdRng, classes: usize) -> Cnn {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(3, 32, 3, 1, 32, 32, rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(32, 32, 3, 1, 32, 32, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(32, 32)),
        Box::new(Conv2d::new(32, 64, 3, 1, 16, 16, rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(64, 64, 3, 1, 16, 16, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(16, 16)),
        Box::new(Conv2d::new(64, 128, 3, 1, 8, 8, rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(128, 128, 3, 1, 8, 8, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(8, 8)),
        // --- classifier ---
        Box::new(Flatten::new()),
        Box::new(Linear::new(128 * 4 * 4, 256, rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(256, classes, rng)),
    ];
    Cnn::new(layers, 15, classes).expect("cifar_cnn: static split is valid")
}

fn cifar_resnet(rng: &mut StdRng, classes: usize) -> Cnn {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(3, 16, 3, 1, 32, 32, rng)),
        Box::new(Relu::new()),
        Box::new(ResidualBlock::new(16, 16, 32, 32, rng)),
        Box::new(MaxPool2d::new(32, 32)),
        Box::new(ResidualBlock::new(16, 32, 16, 16, rng)),
        Box::new(MaxPool2d::new(16, 16)),
        Box::new(ResidualBlock::new(32, 64, 8, 8, rng)),
        Box::new(MaxPool2d::new(8, 8)),
        // --- classifier ---
        Box::new(Flatten::new()),
        Box::new(Linear::new(64 * 4 * 4, classes, rng)),
    ];
    Cnn::new(layers, 8, classes).expect("cifar_resnet: static split is valid")
}

fn cifar_vgg(rng: &mut StdRng, classes: usize) -> Cnn {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(3, 32, 3, 1, 32, 32, rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(32, 32, 3, 1, 32, 32, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(32, 32)),
        Box::new(Conv2d::new(32, 64, 3, 1, 16, 16, rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(64, 64, 3, 1, 16, 16, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(16, 16)),
        Box::new(Conv2d::new(64, 128, 3, 1, 8, 8, rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(128, 128, 3, 1, 8, 8, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(8, 8)),
        // --- classifier (VGG-style three-layer head) ---
        Box::new(Flatten::new()),
        Box::new(Linear::new(128 * 4 * 4, 512, rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(512, 256, rng)),
        Box::new(Relu::new()),
        Box::new(Linear::new(256, classes, rng)),
    ];
    Cnn::new(layers, 15, classes).expect("cifar_vgg: static split is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use aergia_tensor::{Tensor, Workspace};

    #[test]
    fn all_architectures_forward_with_correct_shapes() {
        for arch in ModelArch::ALL {
            let mut model = arch.build(7);
            let (c, h, w) = match arch {
                ModelArch::MnistCnn | ModelArch::FmnistCnn => (1, 28, 28),
                _ => (3, 32, 32),
            };
            let x = Tensor::zeros(&[2, c, h, w]);
            let logits = model.forward_phase(&x, &mut Workspace::new()).a;
            assert_eq!(logits.dims(), &[2, arch.num_classes()], "wrong logits shape for {arch}");
            assert!(logits.is_finite(), "non-finite logits for {arch}");
        }
    }

    #[test]
    fn same_seed_builds_identical_models() {
        for arch in [ModelArch::MnistCnn, ModelArch::Cifar10Cnn] {
            let a = arch.build(123);
            let b = arch.build(123);
            assert_eq!(a.weights(), b.weights(), "{arch} build is not deterministic");
        }
    }

    #[test]
    fn different_seeds_build_different_models() {
        let a = ModelArch::MnistCnn.build(1);
        let b = ModelArch::MnistCnn.build(2);
        assert_ne!(a.weights(), b.weights());
    }

    #[test]
    fn mnist_cnn_matches_paper_layer_counts() {
        let model = ModelArch::MnistCnn.build(0);
        let convs = model.layers().iter().filter(|l| l.name() == "conv2d").count();
        let linears = model.layers().iter().filter(|l| l.name() == "linear").count();
        assert_eq!((convs, linears), (2, 1), "paper: two conv + one fc");
    }

    #[test]
    fn cifar10_cnn_matches_paper_layer_counts() {
        let model = ModelArch::Cifar10Cnn.build(0);
        let convs = model.layers().iter().filter(|l| l.name() == "conv2d").count();
        let linears = model.layers().iter().filter(|l| l.name() == "linear").count();
        assert_eq!((convs, linears), (6, 2), "paper: six conv + two fc");
    }

    #[test]
    fn feature_sections_contain_all_convs() {
        for arch in ModelArch::ALL {
            let model = arch.build(0);
            for layer in &model.layers()[model.split()..] {
                assert_ne!(layer.name(), "conv2d", "{arch}: conv in classifier section");
                assert_ne!(layer.name(), "residual", "{arch}: residual in classifier section");
            }
        }
    }

    #[test]
    fn backward_feature_pass_dominates_flops() {
        // The premise of the paper's Figure 4: bf is the most expensive
        // phase for every evaluated network.
        for arch in ModelArch::ALL {
            let model = arch.build(0);
            let cost = model.phase_flops(4);
            for phase in [
                crate::Phase::ForwardFeatures,
                crate::Phase::ForwardClassifier,
                crate::Phase::BackwardClassifier,
            ] {
                assert!(
                    cost.bf > cost.get(phase),
                    "{arch}: bf ({}) not dominant over {phase} ({})",
                    cost.bf,
                    cost.get(phase)
                );
            }
        }
    }

    #[test]
    fn hundred_class_models_have_more_params() {
        let small = ModelArch::Cifar10ResNet.build(0);
        let big = ModelArch::Cifar100ResNet.build(0);
        let count = |ts: Vec<Tensor>| ts.iter().map(Tensor::numel).sum::<usize>();
        assert!(count(big.weights()) > count(small.weights()));
        assert_eq!(count(big.feature_weights()), count(small.feature_weights()));
    }
}
