//! Interconnect model for the Reactive NUMA reproduction.
//!
//! The paper's machine connects eight SMP nodes with a point-to-point
//! network of constant 100-cycle latency, modeling contention only at
//! the network interfaces (Section 4). This crate provides:
//!
//! * [`msg`] — the directory protocol's message vocabulary;
//! * [`net`] — the [`Network`]: constant-latency fabric plus per-node
//!   FCFS NI ports in both directions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod msg;
pub mod net;

pub use msg::MsgKind;
pub use net::{NetConfig, Network};
