//! Simulated remote attestation.
//!
//! Real SGX attestation proves to a remote party that specific code
//! (identified by its measurement, MRENCLAVE) runs inside a genuine
//! enclave. We keep the protocol shape — the client sends a nonce, the
//! enclave answers with its measurement and a nonce-bound response — while
//! replacing the Intel quoting infrastructure with a deterministic hash.

/// FNV-1a, the stand-in for the attestation hash. Deterministic and cheap;
/// *not* collision resistant — acceptable for a simulation whose parties
/// are honest (paper §3.1 assumes all parties honest). The core crate has
/// its own FNV-1a for fingerprints and signatures; this crate keeps a
/// copy because it does not depend on core.
pub(crate) fn measurement_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The identity of the enclave code ("MRENCLAVE").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub u64);

impl Measurement {
    /// Measurement of this crate's similarity-enclave code. A real
    /// deployment would hash the enclave binary; we hash a version string
    /// so that "code changes" change the measurement.
    pub fn current() -> Self {
        Measurement(measurement_hash(b"aergia-similarity-enclave-v1"))
    }
}

/// The enclave's answer to an attestation challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestationReport {
    /// Claimed code measurement.
    pub measurement: Measurement,
    /// Binds the report to the challenger's nonce (prevents replay).
    pub nonce_binding: u64,
}

impl AttestationReport {
    /// Produces a report for a challenge `nonce` (enclave side).
    pub(crate) fn answer(measurement: Measurement, nonce: u64) -> Self {
        AttestationReport {
            measurement,
            nonce_binding: measurement_hash(
                &[measurement.0.to_le_bytes(), nonce.to_le_bytes()].concat(),
            ),
        }
    }

    /// Verifies the report against the expected measurement and the nonce
    /// the challenger sent (client side).
    pub fn verify(&self, expected: Measurement, nonce: u64) -> bool {
        self.measurement == expected
            && self.nonce_binding
                == measurement_hash(&[expected.0.to_le_bytes(), nonce.to_le_bytes()].concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_report_verifies() {
        let m = Measurement::current();
        let report = AttestationReport::answer(m, 42);
        assert!(report.verify(m, 42));
    }

    #[test]
    fn wrong_measurement_fails() {
        let report = AttestationReport::answer(Measurement(123), 42);
        assert!(!report.verify(Measurement::current(), 42));
    }

    #[test]
    fn replayed_report_fails_on_fresh_nonce() {
        let m = Measurement::current();
        let report = AttestationReport::answer(m, 42);
        assert!(!report.verify(m, 43), "report bound to nonce 42 must not verify for 43");
    }

    #[test]
    fn measurement_is_stable_and_content_sensitive() {
        assert_eq!(Measurement::current(), Measurement::current());
        assert_ne!(measurement_hash(b"a"), measurement_hash(b"b"));
        assert_ne!(measurement_hash(b""), 0);
    }
}
