//! Simulated trusted execution environment for private dataset-similarity
//! computation.
//!
//! In the paper (§3.1, §4.4), clients send their *encrypted* per-class
//! label counts to an Intel SGX enclave hosted by the federator; the
//! enclave — after clients authenticate it via remote attestation —
//! decrypts the histograms and emits only pairwise EMD distances, so the
//! federator never sees any client's class distribution.
//!
//! This crate reproduces that *code path* without real SGX hardware:
//!
//! * [`attestation`] — a measurement-check + nonce handshake standing in
//!   for remote attestation;
//! * [`sealing`] — a keystream cipher standing in for the attested
//!   session's authenticated encryption (**not cryptographically secure**;
//!   see the module docs);
//! * [`SimilarityEnclave`] — the enclave itself. Plaintext histograms
//!   exist only inside its private state. After the last submission it
//!   hands out a [`SimilarityView`] whose one query is `distances(i,
//!   js)`, the distances from client `i` to each client of `js`, answered
//!   on demand, mirroring the SGX isolation boundary at the type level.
//!   The scheduler asks only about the receivers its scan visits; the
//!   full matrix is built only when a caller asks for it.
//!
//! # Examples
//!
//! ```
//! use aergia_enclave::{establish_session, SimilarityEnclave};
//!
//! let mut enclave = SimilarityEnclave::new(2, 99);
//! // Each client attests the enclave, derives a session key and seals its
//! // private histogram.
//! for (client, hist) in [(0u32, vec![8u64, 0]), (1, vec![0, 8])].into_iter() {
//!     let mut session = establish_session(&mut enclave, client, 7).unwrap();
//!     let blob = session.seal_histogram(&hist);
//!     enclave.submit(client, blob).unwrap();
//! }
//! let view = enclave.similarity_view();
//! let [d01, d00] = view.distances(0, &[1, 0]);
//! assert!(d01 > 0.0); // disjoint class distributions are distant
//! assert_eq!(d00, 0.0);
//! assert_eq!(d01.to_bits(), view.distances(1, &[0])[0].to_bits());
//! assert_eq!(enclave.compute_similarity_matrix().unwrap()[0][1], d01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attestation;
pub mod sealing;

mod enclave;

pub use enclave::{
    establish_session, ClientSession, EnclaveError, SimilarityEnclave, SimilarityView,
};
