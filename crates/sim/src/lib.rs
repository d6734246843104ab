//! Discrete-time simulation substrate for the Reactive NUMA reproduction.
//!
//! This crate provides the building blocks shared by every other crate in
//! the workspace:
//!
//! * [`time`] — the [`Cycles`] time base (400-MHz CPU cycles)
//!   and conversions to wall-clock units used by the paper (µs at 400 MHz).
//! * [`resource`] — first-come-first-served occupancy servers used to model
//!   contention at shared hardware resources (memory buses, network
//!   interfaces, protocol controllers).
//! * [`stats`] — the cumulative distribution builder used to regenerate
//!   Figure 5 of the paper.
//! * [`rng`] — a small deterministic RNG wrapper so that every simulation
//!   run is a pure function of its configuration.
//!
//! The simulator built on top of this substrate is a *protocol-level*
//! simulator in the spirit of the execution-driven simulator used in the
//! paper: processors are in-order and suspend on misses (one outstanding
//! transaction each), and shared resources serialize contending requests.
//!
//! # Example
//!
//! ```
//! use rnuma_sim::time::Cycles;
//! use rnuma_sim::resource::Resource;
//!
//! // A 100-MHz bus on a 400-MHz machine is busy 4 CPU cycles per bus cycle.
//! let mut bus = Resource::new();
//! let grant = bus.acquire(Cycles(10), Cycles(8));
//! assert_eq!(grant, Cycles(10)); // uncontended
//! let grant2 = bus.acquire(Cycles(12), Cycles(8));
//! assert_eq!(grant2, Cycles(18)); // waits for the first transaction
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use resource::Resource;
pub use rng::DetRng;
pub use stats::Cdf;
pub use time::Cycles;
