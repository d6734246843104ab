//! Directory-based cache-coherence protocol for the Reactive NUMA
//! reproduction.
//!
//! All three machines the paper compares — CC-NUMA, S-COMA, and R-NUMA —
//! run the *same* directory protocol over the same interconnect; they
//! differ only in where each node caches remote data. This crate holds
//! the protocol machinery shared by all of them:
//!
//! * [`directory`] — the full-map, non-notifying directory with the
//!   paper's voluntary-write-back ("was-owner") state, which makes
//!   capacity/conflict *refetches* detectable at the home for both
//!   read-only and read-write blocks (Section 3.1);
//! * [`bus`] — the intra-node snoopy MOESI bus, including the MBus
//!   no-cache-to-cache-for-unowned-blocks quirk the paper models;
//! * [`reactive`] — the per-node, per-page refetch counters that trigger
//!   R-NUMA's relocation interrupt.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod directory;
pub mod reactive;

pub use bus::{snoop, BusRequest, SnoopResult};
pub use directory::{Directory, Entry, ReadOutcome, WriteOutcome};
pub use reactive::RefetchCounters;
