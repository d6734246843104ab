//! Helpers shared by the workspace determinism suites, included per
//! test binary via `#[path = "support.rs"] mod support;`.
//!
//! Items are `#[allow(dead_code)]` because each including binary uses
//! its own subset.

use rnuma::config::{MachineConfig, Protocol};

/// The figure-grid protocol axis: the ideal (infinite block cache)
/// baseline every figure normalizes to, then the paper's three finite
/// protocols.
#[allow(dead_code)]
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
#[allow(dead_code)]
pub fn figure_configs() -> [MachineConfig; 4] {
    figure_protocols().map(MachineConfig::paper_base)
}
