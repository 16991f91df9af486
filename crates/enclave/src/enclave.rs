//! The similarity enclave: collects sealed client histograms and answers
//! only pairwise EMD distances, on demand.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use aergia_data::emd;

use crate::attestation::{AttestationReport, Measurement};
use crate::sealing::{decode_histogram, encode_histogram, SealedBlob, SessionKey};

/// Errors surfaced by the enclave protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EnclaveError {
    /// The attestation report did not verify.
    AttestationFailed,
    /// A sealed blob failed integrity checking or decoding.
    BadBlob {
        /// Submitting client.
        client: u32,
    },
    /// A client submitted twice for the same epoch.
    DuplicateSubmission {
        /// Offending client.
        client: u32,
    },
    /// Fewer than two histograms available.
    NotEnoughClients {
        /// Histograms currently held.
        have: usize,
    },
    /// Histograms disagree on class count.
    InconsistentClasses,
    /// The submitting client never established a session.
    UnknownClient {
        /// Offending client.
        client: u32,
    },
}

impl fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnclaveError::AttestationFailed => write!(f, "enclave attestation failed"),
            EnclaveError::BadBlob { client } => {
                write!(f, "sealed blob from client {client} failed to unseal")
            }
            EnclaveError::DuplicateSubmission { client } => {
                write!(f, "client {client} already submitted a histogram")
            }
            EnclaveError::NotEnoughClients { have } => {
                write!(f, "need at least 2 histograms, have {have}")
            }
            EnclaveError::InconsistentClasses => {
                write!(f, "client histograms disagree on class count")
            }
            EnclaveError::UnknownClient { client } => {
                write!(f, "client {client} has no attested session")
            }
        }
    }
}

impl Error for EnclaveError {}

/// The federator-hosted enclave computing dataset similarities (§4.4).
///
/// The plaintext histograms live only in the private `histograms` map —
/// the untrusted host (the federator code in `aergia`) interacts purely
/// through sealed blobs and receives only a [`SimilarityView`], whose one
/// query is the distances from one client to a block of others,
/// mirroring the SGX isolation boundary. The scheduler asks it only
/// about the receivers its scan visits, so no n × n matrix is ever
/// resident.
#[derive(Debug)]
pub struct SimilarityEnclave {
    measurement: Measurement,
    secret: u64,
    num_classes: usize,
    sessions: HashMap<u32, SessionKey>,
    histograms: HashMap<u32, Vec<u64>>,
}

impl SimilarityEnclave {
    /// Launches an enclave expecting histograms of `num_classes` buckets.
    ///
    /// `secret` seeds the enclave's private key material (in real SGX this
    /// comes from the CPU's sealing identity).
    pub fn new(num_classes: usize, secret: u64) -> Self {
        SimilarityEnclave {
            measurement: Measurement::current(),
            secret,
            num_classes,
            sessions: HashMap::new(),
            histograms: HashMap::new(),
        }
    }

    /// Answers an attestation challenge (run inside the enclave).
    pub(crate) fn attest(&self, nonce: u64) -> AttestationReport {
        AttestationReport::answer(self.measurement, nonce)
    }

    /// Derives the session key for `client` after a successful handshake.
    /// Also called by [`ClientSession::establish`] to model the key
    /// agreement of an attested channel.
    fn derive_key(&self, client: u32, client_nonce: u64) -> SessionKey {
        SessionKey(
            self.secret.rotate_left(13).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ u64::from(client).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
                ^ client_nonce,
        )
    }

    /// Registers `client`'s attested session so its blobs can be unsealed.
    pub(crate) fn register_session(&mut self, client: u32, key: SessionKey) {
        self.sessions.insert(client, key);
    }

    /// Accepts a sealed histogram from `client`.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::UnknownClient`] without a prior session,
    /// [`EnclaveError::BadBlob`] if unsealing or decoding fails,
    /// [`EnclaveError::DuplicateSubmission`] on a second submit, and
    /// [`EnclaveError::InconsistentClasses`] on a wrong bucket count.
    pub fn submit(&mut self, client: u32, blob: SealedBlob) -> Result<(), EnclaveError> {
        let key = *self.sessions.get(&client).ok_or(EnclaveError::UnknownClient { client })?;
        if self.histograms.contains_key(&client) {
            return Err(EnclaveError::DuplicateSubmission { client });
        }
        let plain = blob.unseal(key).ok_or(EnclaveError::BadBlob { client })?;
        let hist = decode_histogram(&plain).ok_or(EnclaveError::BadBlob { client })?;
        if hist.len() != self.num_classes {
            return Err(EnclaveError::InconsistentClasses);
        }
        self.histograms.insert(client, hist);
        Ok(())
    }

    /// The read-only distance oracle over every histogram submitted so
    /// far: index `i` is the `i`-th *submitting* client in ascending
    /// client-id order. It holds the normalised histograms privately and
    /// answers only [`SimilarityView::distances`].
    pub fn similarity_view(&self) -> SimilarityView {
        let order = self.client_order();
        let mut probs = Vec::with_capacity(order.len() * self.num_classes);
        for id in &order {
            probs.extend(emd::normalize(&self.histograms[id]));
        }
        SimilarityView { probs, classes: self.num_classes }
    }

    /// Computes the pairwise EMD matrix over all submitted histograms:
    /// entry `(i, j)` is the view's distance between clients `i` and `j`
    /// (see [`SimilarityEnclave::similarity_view`]). O(n²) in time and memory;
    /// the engine asks the view instead.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::NotEnoughClients`] with fewer than two submissions.
    pub fn compute_similarity_matrix(&self) -> Result<Vec<Vec<f64>>, EnclaveError> {
        if self.histograms.len() < 2 {
            return Err(EnclaveError::NotEnoughClients { have: self.histograms.len() });
        }
        Ok(self.similarity_view().matrix())
    }

    /// Ascending ids of the clients whose histograms are present; index
    /// `i` of the similarity view corresponds to `client_order()[i]`.
    pub(crate) fn client_order(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.histograms.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// Dataset similarity on demand: the enclave's answer to "how far apart
/// are the datasets of clients `i` and `j`", without a resident n × n
/// matrix.
///
/// Holds each client's normalised class histogram (n × classes × 8 B:
/// 320 KiB for 4 096 ten-class clients, against 128 MiB for the full
/// matrix) in private fields; its only query is
/// [`SimilarityView::distances`], so the host learns distances and
/// nothing else.
#[derive(Debug)]
pub struct SimilarityView {
    /// Row-major normalised histograms, `classes` values per client.
    probs: Vec<f64>,
    classes: usize,
}

impl SimilarityView {
    /// Number of clients the view answers for.
    pub fn len(&self) -> usize {
        self.probs.len().checked_div(self.classes).unwrap_or(0)
    }

    /// Whether the view holds no client.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// EMD between the datasets of clients `i` and `j` (0 = identical).
    ///
    /// Bit-identical to entry `(i, j)` of [`aergia_data::emd::similarity_matrix`]
    /// for both `i < j` and `i > j`: `emd` negates exactly when its
    /// arguments swap, so it is symmetric in IEEE arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not below [`SimilarityView::len`].
    pub(crate) fn distance(&self, i: usize, j: usize) -> f64 {
        let c = self.classes;
        emd::emd(&self.probs[i * c..(i + 1) * c], &self.probs[j * c..(j + 1) * c])
    }

    /// The EMD between the datasets of client `i` and of every client of
    /// `js` (0 = identical): lane `l` holds the bits of `distance(i,
    /// js[l])`, entry `(i, js[l])` of
    /// [`aergia_data::emd::similarity_matrix`]. The lanes run
    /// `emd`'s steps (`prefix += p − q; total += |prefix|`, classes in
    /// ascending order) side by side, so each compiles to vector
    /// instructions and no lane's arithmetic differs from the scalar
    /// form's. A lane naming `i` itself gets 0.
    ///
    /// # Panics
    ///
    /// Panics if `i` or an entry of `js` is not below
    /// [`SimilarityView::len`].
    pub fn distances<const N: usize>(&self, i: usize, js: &[usize; N]) -> [f64; N] {
        let c = self.classes;
        let p = &self.probs[i * c..][..c];
        let qs: [&[f64]; N] = js.map(|j| &self.probs[j * c..][..c]);
        let (mut prefix, mut total) = ([0.0f64; N], [0.0f64; N]);
        for (k, &a) in p.iter().enumerate() {
            for l in 0..N {
                prefix[l] += a - qs[l][k];
                total[l] += prefix[l].abs();
            }
        }
        total
    }

    /// The full pairwise matrix, built on demand one pair at a time —
    /// O(n²) time and memory.
    pub fn matrix(&self) -> Vec<Vec<f64>> {
        let n = self.len();
        let mut matrix = vec![vec![0.0; n]; n];
        for i in 0..n {
            // Each pair fills both triangles (`distance` is symmetric to
            // the bit); the diagonal stays 0.
            let (head, tail) = matrix.split_at_mut(i + 1);
            for (j, row) in (i + 1..).zip(tail) {
                let d = self.distance(i, j);
                head[i][j] = d;
                row[i] = d;
            }
        }
        matrix
    }
}

/// A client's side of the attested channel.
///
/// `establish` performs the attestation handshake against the enclave and
/// derives the shared session key; `seal_histogram` encrypts the client's
/// private class distribution for submission *via the untrusted federator*.
#[derive(Debug)]
pub struct ClientSession {
    client: u32,
    key: SessionKey,
    next_nonce: u64,
}

impl ClientSession {
    /// Runs the attestation handshake and key agreement.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::AttestationFailed`] if the enclave's report
    /// does not verify against [`Measurement::current`].
    pub(crate) fn establish(
        enclave: &SimilarityEnclave,
        client: u32,
        nonce: u64,
    ) -> Result<ClientSessionHandle, EnclaveError> {
        let report = enclave.attest(nonce);
        if !report.verify(Measurement::current(), nonce) {
            return Err(EnclaveError::AttestationFailed);
        }
        let key = enclave.derive_key(client, nonce);
        Ok(ClientSessionHandle { session: ClientSession { client, key, next_nonce: 1 }, key })
    }

    /// The client id this session belongs to.
    pub fn client(&self) -> u32 {
        self.client
    }

    /// Seals a class histogram for submission.
    pub fn seal_histogram(&mut self, hist: &[u64]) -> SealedBlob {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        SealedBlob::seal(self.key, nonce ^ (u64::from(self.client) << 32), &encode_histogram(hist))
    }
}

/// Result of [`ClientSession::establish`]: the client-side session plus
/// the key the enclave must register (models the conclusion of the key
/// agreement, where both ends hold the same key).
#[derive(Debug)]
pub struct ClientSessionHandle {
    session: ClientSession,
    key: SessionKey,
}

impl ClientSessionHandle {
    /// Completes the handshake: registers the key inside the enclave and
    /// returns the client-side session.
    pub fn finish(self, enclave: &mut SimilarityEnclave) -> ClientSession {
        enclave.register_session(self.session.client, self.key);
        self.session
    }
}

/// Convenience wrapper: attest, agree on a key and register it, returning
/// the ready-to-use client session.
///
/// # Errors
///
/// Propagates [`EnclaveError::AttestationFailed`].
pub fn establish_session(
    enclave: &mut SimilarityEnclave,
    client: u32,
    nonce: u64,
) -> Result<ClientSession, EnclaveError> {
    Ok(ClientSession::establish(enclave, client, nonce)?.finish(enclave))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enclave_with(hists: &[(u32, Vec<u64>)]) -> SimilarityEnclave {
        let classes = hists[0].1.len();
        let mut enclave = SimilarityEnclave::new(classes, 1234);
        for (client, hist) in hists {
            let mut session = establish_session(&mut enclave, *client, 55).unwrap();
            enclave.submit(*client, session.seal_histogram(hist)).unwrap();
        }
        enclave
    }

    #[test]
    fn end_to_end_matrix_matches_plaintext_emd() {
        let hists = vec![(0u32, vec![10u64, 0, 0]), (1, vec![0, 10, 0]), (2, vec![10, 0, 0])];
        let enclave = enclave_with(&hists);
        let matrix = enclave.compute_similarity_matrix().unwrap();
        let plain: Vec<Vec<u64>> = hists.iter().map(|(_, h)| h.clone()).collect();
        let expected = aergia_data::emd::similarity_matrix(&plain);
        assert_eq!(matrix, expected);
        assert_eq!(matrix[0][2], 0.0, "identical distributions");
        assert!(matrix[0][1] > 0.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Every lane of `distances` holds the bits of `distance` for its
        /// receiver, at every lane position: random, all-zero (uniform
        /// after normalisation) and single-class histograms, with the
        /// sender itself in one lane of every block.
        #[test]
        fn distances_match_distance_in_every_lane(
            raw in proptest::collection::vec(proptest::collection::vec(0u64..4, 12), 2..=20),
            classes in 1usize..=12,
            picks in proptest::collection::vec(0usize..1000, 64),
        ) {
            let hists: Vec<(u32, Vec<u64>)> = raw
                .iter()
                .enumerate()
                .map(|(i, counts)| {
                    let mut hist = counts[..classes].to_vec();
                    match i % 4 {
                        0 => hist.fill(0),
                        1 => {
                            hist.fill(0);
                            hist[i % classes] = counts[0] + 1;
                        }
                        _ => {}
                    }
                    (i as u32, hist)
                })
                .collect();
            let view = enclave_with(&hists).similarity_view();
            let n = view.len();
            for (i, block) in picks.chunks_exact(8).enumerate() {
                let sender = block[0] % n;
                let mut js: [usize; 8] = std::array::from_fn(|l| block[l] % n);
                js[i % 8] = sender;
                let lanes = view.distances(sender, &js);
                for (l, &j) in js.iter().enumerate() {
                    proptest::prop_assert_eq!(
                        lanes[l].to_bits(),
                        view.distance(sender, j).to_bits(),
                        "lane {} ({}, {})",
                        l,
                        sender,
                        j
                    );
                }
                proptest::prop_assert_eq!(lanes[i % 8], 0.0);
            }
        }
    }

    #[test]
    fn submission_without_session_is_rejected() {
        let mut enclave = SimilarityEnclave::new(2, 9);
        let other = SimilarityEnclave::new(2, 9);
        let mut session = ClientSession::establish(&other, 0, 1).unwrap().session;
        let blob = session.seal_histogram(&[1, 2]);
        assert_eq!(enclave.submit(0, blob).unwrap_err(), EnclaveError::UnknownClient { client: 0 });
    }

    #[test]
    fn duplicate_submission_is_rejected() {
        let mut enclave = SimilarityEnclave::new(2, 9);
        let mut session = establish_session(&mut enclave, 0, 1).unwrap();
        enclave.submit(0, session.seal_histogram(&[1, 2])).unwrap();
        let err = enclave.submit(0, session.seal_histogram(&[1, 2])).unwrap_err();
        assert_eq!(err, EnclaveError::DuplicateSubmission { client: 0 });
    }

    #[test]
    fn wrong_class_count_is_rejected() {
        let mut enclave = SimilarityEnclave::new(3, 9);
        let mut session = establish_session(&mut enclave, 0, 1).unwrap();
        let err = enclave.submit(0, session.seal_histogram(&[1, 2])).unwrap_err();
        assert_eq!(err, EnclaveError::InconsistentClasses);
    }

    #[test]
    fn tampered_blob_is_rejected() {
        let mut enclave = SimilarityEnclave::new(2, 9);
        let mut session = establish_session(&mut enclave, 7, 1).unwrap();
        let blob = session.seal_histogram(&[3, 4]);
        // Re-seal under a bogus key to simulate tampering in transit.
        let forged = SealedBlob::seal(SessionKey(42), 1, b"0123456789abcdef");
        assert_eq!(enclave.submit(7, forged).unwrap_err(), EnclaveError::BadBlob { client: 7 });
        // The genuine blob still works.
        enclave.submit(7, blob).unwrap();
    }

    #[test]
    fn matrix_needs_two_clients() {
        let mut enclave = SimilarityEnclave::new(2, 9);
        assert_eq!(
            enclave.compute_similarity_matrix().unwrap_err(),
            EnclaveError::NotEnoughClients { have: 0 }
        );
        let mut session = establish_session(&mut enclave, 0, 1).unwrap();
        enclave.submit(0, session.seal_histogram(&[1, 1])).unwrap();
        assert!(enclave.compute_similarity_matrix().is_err());
    }

    #[test]
    fn client_order_is_sorted_ids() {
        let enclave = enclave_with(&[(5, vec![1, 0]), (2, vec![0, 1]), (9, vec![1, 1])]);
        assert_eq!(enclave.client_order(), vec![2, 5, 9]);
    }

    #[test]
    fn different_enclave_secrets_give_different_keys() {
        let a = SimilarityEnclave::new(2, 1);
        let b = SimilarityEnclave::new(2, 2);
        assert_ne!(a.derive_key(0, 7).0, b.derive_key(0, 7).0);
    }
}
