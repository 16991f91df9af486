//! Discrete-event cluster simulation substrate.
//!
//! The paper evaluates Aergia on a Kubernetes testbed where each client is
//! a Docker container throttled to a fraction (0.1–1.0) of a CPU core and
//! nodes exchange models over asynchronous, reliable RPC. This crate is
//! the deterministic stand-in, so that a run is a pure function of its
//! configuration ("The determinism contract" in `docs/architecture.md`):
//! a virtual clock and event queue ([`event`]), per-node CPU speed models
//! ([`node`]), reliable latency/bandwidth links as the paper assumes
//! (§3.1; [`network`]) and helpers for building heterogeneous speed
//! assignments ([`cluster`]).
//!
//! Nothing here knows about federated learning; the `aergia` core crate
//! builds its federator/client state machines on top.
//!
//! # Examples
//!
//! ```
//! use aergia_simnet::event::EventQueue;
//! use aergia_simnet::time::{SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_secs_f64(2.0), "late");
//! queue.push(SimTime::ZERO + SimDuration::from_secs_f64(1.0), "early");
//! let (t, event) = queue.pop().unwrap();
//! assert_eq!(event, "early");
//! assert_eq!(t.as_secs_f64(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod event;
pub mod network;
pub mod node;
pub mod time;

pub use event::EventQueue;
pub use network::{LinkModel, Network};
pub use node::{CpuModel, NodeId};
pub use time::{SimDuration, SimTime};
