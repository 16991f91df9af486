//! Sealed (encrypted + integrity-tagged) blobs for the client → enclave
//! channel.
//!
//! **Security disclaimer**: the cipher is a xorshift64* keystream and the
//! tag is an FNV hash — a *simulation* of the attested channel's AEAD, not
//! a real one, because the workspace takes no cryptography dependency. The
//! point reproduced here is the dataflow: the federator relays these blobs
//! but cannot read them; only the enclave, which shares the session key,
//! can.

use crate::attestation::measurement_hash;

/// A symmetric session key shared by one client and the enclave.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SessionKey(pub(crate) u64);

impl std::fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("SessionKey(<redacted>)")
    }
}

/// An encrypted, integrity-tagged payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    nonce: u64,
    ciphertext: Vec<u8>,
    tag: u64,
}

fn keystream_byte(state: &mut u64) -> u8 {
    // xorshift64* — fast deterministic stream, NOT cryptographic.
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
}

fn apply_stream(key: SessionKey, nonce: u64, data: &mut [u8]) {
    let mut state = key.0 ^ nonce.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
    if state == 0 {
        state = 1;
    }
    for b in data {
        *b ^= keystream_byte(&mut state);
    }
}

fn tag_of(key: SessionKey, nonce: u64, ciphertext: &[u8]) -> u64 {
    let mut material = Vec::with_capacity(16 + ciphertext.len());
    material.extend_from_slice(&key.0.to_le_bytes());
    material.extend_from_slice(&nonce.to_le_bytes());
    material.extend_from_slice(ciphertext);
    measurement_hash(&material)
}

impl SealedBlob {
    /// Encrypts `plaintext` under `key` with a caller-chosen unique nonce.
    pub(crate) fn seal(key: SessionKey, nonce: u64, plaintext: &[u8]) -> Self {
        let mut ciphertext = plaintext.to_vec();
        apply_stream(key, nonce, &mut ciphertext);
        let tag = tag_of(key, nonce, &ciphertext);
        SealedBlob { nonce, ciphertext, tag }
    }

    /// Decrypts and checks integrity; `None` on tag mismatch (tampering or
    /// wrong key).
    pub(crate) fn unseal(&self, key: SessionKey) -> Option<Vec<u8>> {
        if tag_of(key, self.nonce, &self.ciphertext) != self.tag {
            return None;
        }
        let mut plaintext = self.ciphertext.clone();
        apply_stream(key, self.nonce, &mut plaintext);
        Some(plaintext)
    }

    /// Size of the sealed payload in bytes (for transfer-cost accounting).
    pub fn len(&self) -> usize {
        self.ciphertext.len() + 16
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }
}

/// Encodes a class histogram as little-endian u64s (the plaintext the
/// clients seal).
pub(crate) fn encode_histogram(hist: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * hist.len());
    for &c in hist {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_histogram`]; `None` if the length is not a multiple
/// of 8.
pub(crate) fn decode_histogram(bytes: &[u8]) -> Option<Vec<u64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let key = SessionKey(0xdead_beef);
        let blob = SealedBlob::seal(key, 1, b"hello histograms");
        assert_eq!(blob.unseal(key).unwrap(), b"hello histograms");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let key = SessionKey(1);
        let blob = SealedBlob::seal(key, 2, b"secret");
        assert_ne!(blob.ciphertext, b"secret");
    }

    #[test]
    fn wrong_key_fails_integrity() {
        let blob = SealedBlob::seal(SessionKey(1), 3, b"data");
        assert!(blob.unseal(SessionKey(2)).is_none());
    }

    #[test]
    fn tampering_is_detected() {
        let key = SessionKey(5);
        let mut blob = SealedBlob::seal(key, 4, b"data");
        blob.ciphertext[0] ^= 1;
        assert!(blob.unseal(key).is_none());
    }

    #[test]
    fn same_plaintext_different_nonce_differs() {
        let key = SessionKey(9);
        let a = SealedBlob::seal(key, 1, b"xxxx");
        let b = SealedBlob::seal(key, 2, b"xxxx");
        assert_ne!(a.ciphertext, b.ciphertext);
    }

    #[test]
    fn histogram_codec_round_trips() {
        let hist = vec![0u64, 5, 17, u64::MAX];
        let bytes = encode_histogram(&hist);
        assert_eq!(decode_histogram(&bytes).unwrap(), hist);
        assert!(decode_histogram(&bytes[..7]).is_none());
    }

    #[test]
    fn debug_never_leaks_key() {
        let key = SessionKey(0x1234);
        assert_eq!(format!("{key:?}"), "SessionKey(<redacted>)");
    }
}
