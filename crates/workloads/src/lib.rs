//! Application kernels for the Reactive NUMA reproduction.
//!
//! Table 3 of the paper lists ten shared-memory applications: eight from
//! SPLASH-2 (barnes, cholesky, fft, fmm, lu, ocean, radix, raytrace),
//! the Split-C em3d benchmark, and a CHARMM-like moldyn. The original
//! SPARC binaries cannot run here, so each application is reproduced as
//! a *kernel*: Rust code that executes the same parallel structure — the
//! shared data structures at the paper's input sizes, the phase/barrier
//! skeleton, the per-CPU traversal order, and the read/write sharing
//! pattern — emitting every load and store to the simulated machine.
//! The substitution preserves the paper's results, which depend on
//! data-access structure rather than instruction encodings; each
//! kernel's module documentation names the input and sharing pattern
//! it reproduces.
//!
//! Each kernel takes a [`Scale`]: [`Scale::Paper`] reproduces Table 3's
//! inputs; [`Scale::Small`] and [`Scale::Tiny`] shrink the data sets for
//! tests and micro-benchmarks while preserving the access patterns.
//!
//! Initialization phases run *untimed* (standard SPLASH-2 methodology:
//! measurements cover the parallel phase), and the machine homes every
//! page at the node of its first timed reference, so page homes land
//! where the paper's first-touch migration policy would put them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod barnes;
pub mod cholesky;
pub mod em3d;
pub mod fft;
pub mod fmm;
pub mod lu;
pub mod moldyn;
pub mod ocean;
pub mod radix;
pub mod raytrace;

use rnuma::program::Workload;

/// Input-size scaling for the kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scale {
    /// The paper's Table-3 inputs (e.g., 16 K particles, 512×512 LU).
    #[default]
    Paper,
    /// Roughly 1/4-sized inputs for integration tests.
    Small,
    /// Minimal inputs for smoke tests and Criterion benches.
    Tiny,
}

impl Scale {
    /// Scales a linear dimension down: `Paper` keeps `n`, `Small`
    /// divides by 4, `Tiny` by 16 (minimum 1).
    #[must_use]
    pub fn apply(self, n: u64) -> u64 {
        let scaled = match self {
            Scale::Paper => n,
            Scale::Small => n / 4,
            Scale::Tiny => n / 16,
        };
        scaled.max(1)
    }

    /// Scales an iteration count: `Paper` keeps `n`, others halve it
    /// (minimum 1).
    #[must_use]
    pub fn apply_iters(self, n: u64) -> u64 {
        let scaled = match self {
            Scale::Paper => n,
            Scale::Small | Scale::Tiny => n / 2,
        };
        scaled.max(1)
    }
}

/// The ten applications of Table 3, in the paper's order.
pub const APP_NAMES: [&str; 10] = [
    "barnes", "cholesky", "em3d", "fft", "fmm", "lu", "moldyn", "ocean", "radix", "raytrace",
];

/// Instantiates one application by name.
///
/// Returns `None` for unknown names. Names match [`APP_NAMES`].
#[must_use]
pub fn by_name(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match name {
        "barnes" => Box::new(barnes::Barnes::new(scale)),
        "cholesky" => Box::new(cholesky::Cholesky::new(scale)),
        "em3d" => Box::new(em3d::Em3d::new(scale)),
        "fft" => Box::new(fft::Fft::new(scale)),
        "fmm" => Box::new(fmm::Fmm::new(scale)),
        "lu" => Box::new(lu::Lu::new(scale)),
        "moldyn" => Box::new(moldyn::Moldyn::new(scale)),
        "ocean" => Box::new(ocean::Ocean::new(scale)),
        "radix" => Box::new(radix::Radix::new(scale)),
        "raytrace" => Box::new(raytrace::Raytrace::new(scale)),
        _ => return None,
    };
    Some(w)
}

/// Instantiates the full Table-3 suite.
///
/// # Panics
///
/// Panics, naming the offending entry, if `APP_NAMES` and the
/// [`by_name`] registry ever drift apart (a bug this crate's
/// exhaustiveness test also catches at test time).
#[must_use]
pub fn suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    APP_NAMES
        .iter()
        .map(|n| {
            by_name(n, scale).unwrap_or_else(|| {
                panic!("APP_NAMES entry {n:?} is missing from the by_name registry")
            })
        })
        .collect()
}

/// One-line description of each application's input (Table 3).
#[must_use]
pub fn input_description(name: &str) -> Option<&'static str> {
    Some(match name {
        "barnes" => "Barnes-Hut N-body simulation, 16K particles",
        "cholesky" => "Blocked sparse Cholesky factorization, tk16.O-class matrix",
        "em3d" => "3-D electromagnetic wave propagation, 76800 nodes, 15% remote, 5 iters",
        "fft" => "Complex 1-D radix-sqrt(n) six-step FFT, 64K points",
        "fmm" => "Fast Multipole N-body simulation, 16K particles",
        "lu" => "Blocked dense LU factorization, 512x512 matrix, 16x16 blocks",
        "moldyn" => "Molecular dynamics simulation, 2048 particles, 15 iters",
        "ocean" => "Ocean simulation, 258x258 ocean",
        "radix" => "Integer radix sort, 1M integers, radix 1024",
        "raytrace" => "3-D scene rendering using ray-tracing, car-class scene",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        for name in APP_NAMES {
            assert!(by_name(name, Scale::Tiny).is_some(), "{name} missing");
            assert!(input_description(name).is_some(), "{name} undocumented");
        }
        assert!(by_name("doom", Scale::Tiny).is_none());
        assert_eq!(suite(Scale::Tiny).len(), 10);
    }

    #[test]
    fn workload_names_match_registry() {
        for name in APP_NAMES {
            let w = by_name(name, Scale::Tiny)
                .unwrap_or_else(|| panic!("APP_NAMES entry {name:?} missing from by_name"));
            assert_eq!(w.name(), name);
        }
    }

    /// `APP_NAMES`, the `by_name` registry, and `input_description`
    /// cannot drift: the three agree entry-for-entry, names are unique,
    /// and every registered workload reports itself under its
    /// registered name. (The registry match has a `_` arm by design —
    /// unknown names are a `None`, not a panic — so drift is pinned
    /// here rather than by the compiler.)
    #[test]
    fn registry_tables_are_exhaustive_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for name in APP_NAMES {
            assert!(seen.insert(name), "APP_NAMES entry {name:?} duplicated");
            let w = by_name(name, Scale::Tiny)
                .unwrap_or_else(|| panic!("APP_NAMES entry {name:?} missing from by_name"));
            assert_eq!(w.name(), name, "workload self-name drifted for {name:?}");
            assert!(
                input_description(name).is_some(),
                "APP_NAMES entry {name:?} missing from input_description"
            );
        }
        assert_eq!(suite(Scale::Tiny).len(), APP_NAMES.len());
    }

    #[test]
    fn scaling_is_monotone() {
        assert_eq!(Scale::Paper.apply(1024), 1024);
        assert_eq!(Scale::Small.apply(1024), 256);
        assert_eq!(Scale::Tiny.apply(1024), 64);
        assert_eq!(Scale::Tiny.apply(4), 1, "never scales to zero");
        assert_eq!(Scale::Paper.apply_iters(15), 15);
        assert_eq!(Scale::Tiny.apply_iters(15), 7);
    }
}
