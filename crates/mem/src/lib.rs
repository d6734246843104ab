//! Memory-hierarchy structures for the Reactive NUMA reproduction.
//!
//! This crate models the state-holding hardware of each SMP node in the
//! paper's machine (Falsafi & Wood, ISCA 1997, Figure 1):
//!
//! * [`addr`] — the global shared address space, block/page geometry
//!   (32-byte MBus lines, 4-KB pages), node/CPU identifiers, and node
//!   bitmasks.
//! * [`moesi`] — the intra-node snoopy MOESI protocol states.
//! * [`cache`] — generic direct-mapped and infinite cache containers.
//! * [`l1`] — the 8-KB per-processor data caches.
//! * [`block_cache`] — the RAD's remote block cache (CC-NUMA/R-NUMA),
//!   with the paper's read-write-only inclusion policy.
//! * [`fine_tags`] — S-COMA's two-bit-per-block access-control tags.
//! * [`page_cache`] — the S-COMA page cache with Least-Recently-Missed
//!   replacement.
//! * [`page_table`] — per-node page tables mapping pages to local,
//!   CC-NUMA, or S-COMA modes.
//! * [`page_map`] — the dense map indexed by page number that every
//!   per-page table above is built on: a lookup is one array load.
//! * [`paged`] — the dense-per-page block-state map the home directory
//!   and the infinite block cache use: a page index, then a flat array
//!   index per block.
//!
//! Everything here is *state only*: the simulator never materializes data
//! values, exactly like a protocol-level execution-driven simulator. The
//! timing and protocol logic live in the `rnuma-proto`, `rnuma-os`, and
//! `rnuma` crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod block_cache;
pub mod cache;
pub mod fine_tags;
pub mod l1;
pub mod moesi;
pub mod page_cache;
pub mod page_map;
pub mod page_table;
pub mod paged;

pub use addr::{CpuId, FrameId, NodeId, NodeMask, VBlock, VPage, Va};
pub use block_cache::{BlockCache, BlockEviction, BlockState};
pub use fine_tags::{AccessTag, FineTags};
pub use l1::{L1Cache, L1Probe};
pub use moesi::Moesi;
pub use page_cache::{PageCache, PageVictim, ReplacementPolicy};
pub use page_map::PageMap;
pub use page_table::{Mapping, NodePageTable};
pub use paged::PagedMap;
