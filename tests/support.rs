//! Helpers shared by the workspace determinism suites, included per
//! test binary via `#[path = "support.rs"] mod support;`.
//!
//! Items are `#[allow(dead_code)]` because each including binary uses
//! its own subset.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{TraceId, TraceStore};
use rnuma::{CpuRun, TraceOp};

/// The figure-grid protocol axis: the ideal (infinite block cache)
/// baseline every figure normalizes to, then the paper's three finite
/// protocols.
#[allow(dead_code, reason = "each including test binary uses its own subset")]
pub fn figure_protocols() -> [Protocol; 4] {
    [
        Protocol::ideal(),
        Protocol::paper_ccnuma(),
        Protocol::paper_scoma(),
        Protocol::paper_rnuma(),
    ]
}

/// The figure-grid configuration axis ([`figure_protocols`] on the
/// paper's base machine): capture on the ideal baseline, replay on the
/// three finite protocols. One fixture shared by every determinism
/// suite so the grids cannot drift apart.
#[allow(dead_code, reason = "each including test binary uses its own subset")]
pub fn figure_configs() -> [MachineConfig; 4] {
    figure_protocols().map(MachineConfig::paper_base)
}

/// Asserts `store`'s decoded form of `id` is exactly `ops`, and that
/// each decoded batch's run table tiles its op chunk.
#[allow(dead_code, reason = "each including test binary uses its own subset")]
pub fn assert_exact_decode(store: &TraceStore, id: TraceId, ops: &[TraceOp]) {
    assert_eq!(
        store.decode(id).as_slice(),
        ops,
        "decoded stream is not bit-identical to the captured ops"
    );
    let mut rebuilt: Vec<TraceOp> = Vec::with_capacity(ops.len());
    store.for_each_batch(id, |chunk, runs| {
        let tiled: usize = runs
            .iter()
            .map(|r| match *r {
                CpuRun::Cpu { len, .. } => len,
                CpuRun::Barrier => 1,
            })
            .sum();
        assert_eq!(tiled, chunk.len(), "run table does not tile its segment");
        rebuilt.extend_from_slice(chunk);
    });
    assert_eq!(
        rebuilt.as_slice(),
        ops,
        "batch chunks do not concatenate to the stream"
    );
}
