//! Golden pin of the synthetic generator's output.
//!
//! The constants below were computed on the commit *before* the generator
//! became two-pass (serial label walk, lazy parallel render) and must never
//! be edited to make a change pass: they are what "every pixel is evaluated
//! on the same bits" means.

use aergia_data::spec::DatasetSpec;
use aergia_data::synth::{DataConfig, Dataset};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over every label (as LE `u64`) followed by every pixel's raw
/// `f32` bits in storage order.
fn fingerprint(ds: &Dataset) -> u64 {
    let mut h = FNV_OFFSET;
    for &l in ds.labels() {
        h = fnv1a(h, &(l as u64).to_le_bytes());
    }
    let (x, _) = ds.full_batch();
    for v in x.data() {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn generate_pair_matches_the_pre_rewrite_bits() {
    let golden: [(DatasetSpec, u64, u64); 4] = [
        (DatasetSpec::MnistLike, 0x9ae2_d259_4b1c_c723, 0xd1fc_ef64_9033_6a34),
        (DatasetSpec::FmnistLike, 0x1fc0_ae2a_55b1_07cc, 0x508d_cc11_9bf0_c848),
        (DatasetSpec::Cifar10Like, 0xc197_523d_efe4_2e94, 0x0822_f576_436e_994a),
        (DatasetSpec::Cifar100Like, 0x2ff5_352c_7f4e_9188, 0x2559_ae0d_8d97_32d7),
    ];
    for (spec, want_train, want_test) in golden {
        let (train, test) =
            DataConfig { spec, train_size: 24, test_size: 9, seed: 0x00a3_7e91 }.generate_pair();
        let got = (fingerprint(&train), fingerprint(&test));
        assert_eq!(got, (want_train, want_test), "{spec}: got ({:#018x}, {:#018x})", got.0, got.1);
    }
}
