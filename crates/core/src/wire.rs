//! The FNV-1a hash behind the persisted fingerprints and the schedule
//! signatures. Byte layouts live in [`aergia_codec::wire`]; the tests
//! below hold the lower crates' types this crate persists to its laws.

/// The FNV-1a offset basis: the start state of an unkeyed [`fnv1a`].
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `state`. It is the one hash
/// behind the config and cohort-layout fingerprints checkpoints persist
/// and the schedule signatures; the enclave crate keeps its own copy,
/// since it does not depend on this crate.
pub(crate) fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aergia_codec::wire::{assert_wire_laws, Wire};
    use aergia_codec::CodecError;
    use aergia_data::batcher::BatcherState;
    use aergia_data::{DataConfig, DatasetSpec};
    use aergia_nn::models::ModelArch;
    use aergia_nn::optim::SgdConfig;
    use aergia_simnet::{SimDuration, SimTime};

    /// One FNV-1a, three start states: chaining equals hashing the
    /// concatenation, and the offset basis gives the published vectors.
    #[test]
    fn fnv1a_chains_and_matches_the_reference() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn every_core_type_keeps_the_wire_laws() {
        assert_wire_laws(&(SimTime::from_micros(3), SimDuration::from_micros(4)));
        assert_eq!(SimTime::from_micros(0x0102).encode(), [2, 1, 0, 0, 0, 0, 0, 0]);
        for spec in [DatasetSpec::MnistLike, DatasetSpec::Cifar100Like] {
            let data = DataConfig { spec, train_size: 256, test_size: 128, seed: 9 };
            assert_wire_laws(&(data, ModelArch::Cifar100ResNet));
        }
        assert_wire_laws(&SgdConfig { lr: 0.5, momentum: 0.25, weight_decay: 1e-4 });
        let batcher = BatcherState { indices: vec![5, 2, 9, 0], cursor: 4, rng: [1, 2, 3, 4] };
        assert_wire_laws(&batcher);
    }

    #[test]
    fn out_of_range_values_are_corrupt() {
        assert_eq!(DatasetSpec::decode(&[4]), Err(CodecError::Corrupt("DatasetSpec")));
        assert_eq!(ModelArch::decode(&[6]), Err(CodecError::Corrupt("ModelArch")));
        let batcher = BatcherState { indices: vec![5], cursor: 2, rng: [0; 4] };
        let bytes = batcher.encode();
        assert_eq!(
            BatcherState::decode(&bytes),
            Err(CodecError::Corrupt("batcher cursor out of range"))
        );
    }
}
