//! # Reactive NUMA (R-NUMA)
//!
//! A from-scratch reproduction of *"Reactive NUMA: A Design for Unifying
//! S-COMA and CC-NUMA"* (Babak Falsafi and David A. Wood, ISCA 1997).
//!
//! R-NUMA is a distributed-shared-memory design in which every node
//! caches each remote page either **CC-NUMA**-style — in a small SRAM
//! *block cache* on the node's Remote Access Device — or
//! **S-COMA**-style — in a main-memory *page cache* guarded by
//! fine-grain access tags — and *reacts* to observed behavior: pages
//! start CC-NUMA, and a per-node, per-page count of capacity/conflict
//! *refetches* triggers OS relocation into the page cache once it
//! crosses a threshold. The result is provably within
//! `2 + C_relocate/C_allocate` (≈ 2–3×) of the better of the two pure
//! protocols on any reference pattern, and usually better than both in
//! practice.
//!
//! ## What this crate provides
//!
//! * [`config`] — machine/protocol configurations, including the paper's
//!   base systems ([`config::Protocol::paper_ccnuma`],
//!   [`config::Protocol::paper_scoma`], [`config::Protocol::paper_rnuma`],
//!   and the ideal infinite-block-cache baseline).
//! * [`machine`] — the full simulated cluster: 8 SMP nodes × 4 CPUs with
//!   8-KB caches on snoopy MOESI buses, RADs with block caches,
//!   fine-grain tags, page caches and reactive counters, a full-map
//!   directory protocol with refetch detection, and a 100-cycle
//!   point-to-point interconnect with NI contention.
//! * [`program`] — the shared-memory programming framework for workload
//!   kernels (allocation, parallel phases, barriers, think time).
//! * [`experiment`] — one-call runs, the worker count of the grid
//!   drivers' pool (`RNUMA_JOBS`), and the trace-once/replay-many
//!   building blocks (`TraceStore` capture and `replay_serial`; the
//!   sweep driver on top of them is `rnuma_bench::sweep_grid`, see
//!   `docs/SWEEP.md`).
//!   Every replay is serial batched replay of a [`TraceOp`] stream,
//!   bit-identical to the live run it was captured from (see
//!   `docs/DETERMINISM.md`).
//! * [`model`] — the paper's Section-3.2 competitive analysis (EQ 1–3).
//! * [`metrics`] — everything the paper's tables and figures report.
//!
//! ## Quickstart
//!
//! ```
//! use rnuma::config::{MachineConfig, Protocol};
//! use rnuma::experiment::run;
//! use rnuma::program::{Runner, Workload};
//!
//! /// Every CPU sums a strided slice of a shared array.
//! struct Sum;
//! impl Workload for Sum {
//!     fn name(&self) -> &'static str { "sum" }
//!     fn run(&mut self, r: &mut Runner<'_>) {
//!         let data = r.alloc(64 * 1024);
//!         let items = r.block_partition(data.len(8));
//!         r.parallel(&items, |ctx, _cpu, i| {
//!             ctx.read(data.word(i));
//!             ctx.think(8);
//!         });
//!         r.barrier();
//!     }
//! }
//!
//! let report = run(MachineConfig::paper_base(Protocol::paper_rnuma()), &mut Sum);
//! assert!(report.cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod experiment;
pub mod machine;
pub mod metrics;
pub mod model;
pub mod program;
mod trace;

pub use config::{MachineConfig, Protocol};
pub use experiment::{run, run_traced, RunReport, TraceId, TraceStore};
pub use machine::Machine;
pub use metrics::{Metrics, PageProfile};
pub use model::ModelParams;
pub use program::{Ctx, Region, Runner, Workload};
pub use trace::{split_cpu_runs, CpuRun, TraceOp};
