//! Machine and protocol configuration.
//!
//! [`MachineConfig`] describes one simulated machine: the cluster shape
//! (the paper's base is 8 nodes × 4 CPUs), the per-CPU cache, the
//! interconnect and OS cost models, and — the independent variable of
//! the whole study — the [`Protocol`] used for remote data.

use rnuma_mem::page_cache::ReplacementPolicy;
use rnuma_net::NetConfig;
use rnuma_os::CostModel;
use rnuma_sim::Cycles;
use std::fmt;

/// The paper's relocation-threshold default (Sections 4–5).
pub const DEFAULT_THRESHOLD: u32 = 64;

/// How a node caches remote data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// CC-NUMA: remote data lives in the RAD's block cache only.
    /// `block_cache_bytes: None` models the *ideal* machine with an
    /// infinite block cache that every figure normalizes to.
    CcNuma {
        /// Block-cache capacity; `None` = infinite (the ideal baseline).
        block_cache_bytes: Option<u64>,
    },
    /// S-COMA: remote data lives in a main-memory page cache guarded by
    /// fine-grain tags.
    SComa {
        /// Page-cache capacity in bytes (the paper's base is 320 KB).
        page_cache_bytes: u64,
    },
    /// R-NUMA: pages start CC-NUMA and relocate to the page cache after
    /// `threshold` capacity/conflict refetches.
    RNuma {
        /// Block-cache capacity (the paper's base is just 128 bytes).
        block_cache_bytes: u64,
        /// Page-cache capacity in bytes (base: 320 KB).
        page_cache_bytes: u64,
        /// The relocation threshold `T` (base: 64).
        threshold: u32,
    },
}

impl Protocol {
    /// The paper's base CC-NUMA: a 32-KB block cache (the sum of the
    /// node's four 8-KB processor caches).
    #[must_use]
    pub fn paper_ccnuma() -> Protocol {
        Protocol::CcNuma {
            block_cache_bytes: Some(32 * 1024),
        }
    }

    /// The ideal CC-NUMA with an infinite block cache (normalization
    /// baseline for every figure).
    #[must_use]
    pub fn ideal() -> Protocol {
        Protocol::CcNuma {
            block_cache_bytes: None,
        }
    }

    /// The paper's base S-COMA: a 320-KB page cache (10× the block
    /// cache, "to compensate for the lower cost of DRAM").
    #[must_use]
    pub fn paper_scoma() -> Protocol {
        Protocol::SComa {
            page_cache_bytes: 320 * 1024,
        }
    }

    /// The paper's base R-NUMA: a 128-byte block cache, a 320-KB page
    /// cache, and threshold 64.
    #[must_use]
    pub fn paper_rnuma() -> Protocol {
        Protocol::RNuma {
            block_cache_bytes: 128,
            page_cache_bytes: 320 * 1024,
            threshold: DEFAULT_THRESHOLD,
        }
    }

    /// Short label used in reports ("CC-NUMA", "S-COMA", "R-NUMA",
    /// "ideal").
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::CcNuma {
                block_cache_bytes: None,
            } => "ideal",
            Protocol::CcNuma { .. } => "CC-NUMA",
            Protocol::SComa { .. } => "S-COMA",
            Protocol::RNuma { .. } => "R-NUMA",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Protocol::CcNuma {
                block_cache_bytes: None,
            } => write!(f, "ideal CC-NUMA (infinite block cache)"),
            Protocol::CcNuma {
                block_cache_bytes: Some(b),
            } => write!(f, "CC-NUMA (b={b}B)"),
            Protocol::SComa { page_cache_bytes } => {
                write!(f, "S-COMA (p={page_cache_bytes}B)")
            }
            Protocol::RNuma {
                block_cache_bytes,
                page_cache_bytes,
                threshold,
            } => write!(
                f,
                "R-NUMA (b={block_cache_bytes}B, p={page_cache_bytes}B, T={threshold})"
            ),
        }
    }
}

/// Full description of one simulated machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of SMP nodes (paper: 8).
    pub nodes: u8,
    /// Processors per node (paper: 4).
    pub cpus_per_node: u16,
    /// Per-CPU data-cache capacity in bytes (paper: 8 KB).
    pub l1_bytes: u64,
    /// Remote-data caching protocol under study.
    pub protocol: Protocol,
    /// OS and device latencies (Table 2).
    pub costs: CostModel,
    /// Interconnect parameters (100-cycle point-to-point fabric).
    pub net: NetConfig,
    /// Memory-bus occupancy per block transaction, in CPU cycles
    /// (2 bus cycles at the 4:1 clock ratio).
    pub bus_occupancy: Cycles,
    /// Page-cache victim selection (paper: Least Recently Missed; the
    /// alternatives support the replacement-policy ablation).
    pub page_policy: ReplacementPolicy,
    /// Cost charged per barrier episode.
    pub barrier_cost: Cycles,
}

impl MachineConfig {
    /// The paper's base machine with the given protocol.
    #[must_use]
    pub fn paper_base(protocol: Protocol) -> MachineConfig {
        MachineConfig {
            nodes: 8,
            cpus_per_node: 4,
            l1_bytes: 8 * 1024,
            protocol,
            costs: CostModel::base(),
            net: NetConfig::default(),
            bus_occupancy: Cycles::from_bus_cycles(2),
            page_policy: ReplacementPolicy::LeastRecentlyMissed,
            barrier_cost: Cycles(400),
        }
    }

    /// Total CPUs in the machine.
    #[must_use]
    pub fn total_cpus(&self) -> u16 {
        u16::from(self.nodes) * self.cpus_per_node
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (zero nodes/CPUs, cache sizes below one line, a
    /// direct-mapped cache whose line count is not a power of two, zero
    /// threshold, or more than 64 nodes).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError("machine needs at least one node"));
        }
        if self.nodes as usize > 64 {
            return Err(ConfigError("at most 64 nodes are supported"));
        }
        if self.cpus_per_node == 0 {
            return Err(ConfigError("nodes need at least one CPU"));
        }
        if self.l1_bytes < 32 {
            return Err(ConfigError("L1 smaller than one 32-byte line"));
        }
        if !lines_are_power_of_two(self.l1_bytes) {
            return Err(ConfigError("L1 line count must be a power of two"));
        }
        let block_cache = match self.protocol {
            Protocol::CcNuma { block_cache_bytes } => block_cache_bytes,
            Protocol::RNuma {
                block_cache_bytes, ..
            } => Some(block_cache_bytes),
            Protocol::SComa { .. } => None,
        };
        if block_cache.is_some_and(|b| b >= 32 && !lines_are_power_of_two(b)) {
            return Err(ConfigError("block cache line count must be a power of two"));
        }
        match self.protocol {
            Protocol::CcNuma {
                block_cache_bytes: Some(b),
            } if b < 32 => Err(ConfigError("block cache smaller than one line")),
            Protocol::SComa { page_cache_bytes } if page_cache_bytes < 4096 => {
                Err(ConfigError("page cache smaller than one page"))
            }
            Protocol::RNuma {
                block_cache_bytes, ..
            } if block_cache_bytes < 32 => Err(ConfigError("block cache smaller than one line")),
            Protocol::RNuma {
                page_cache_bytes, ..
            } if page_cache_bytes < 4096 => Err(ConfigError("page cache smaller than one page")),
            Protocol::RNuma { threshold: 0, .. } => {
                Err(ConfigError("relocation threshold must be at least 1"))
            }
            _ => Ok(()),
        }
    }
}

/// `true` when a direct-mapped cache of `bytes` holds a power-of-two
/// number of 32-byte lines (the only sizes it accepts).
fn lines_are_power_of_two(bytes: u64) -> bool {
    (bytes / rnuma_mem::addr::BLOCK_BYTES).is_power_of_two()
}

/// An invalid [`MachineConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError(&'static str);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid machine configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_matches_section_4() {
        let c = MachineConfig::paper_base(Protocol::paper_ccnuma());
        assert_eq!(c.nodes, 8);
        assert_eq!(c.cpus_per_node, 4);
        assert_eq!(c.total_cpus(), 32);
        assert_eq!(c.l1_bytes, 8 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn paper_protocol_presets() {
        assert_eq!(
            Protocol::paper_ccnuma(),
            Protocol::CcNuma {
                block_cache_bytes: Some(32 * 1024)
            }
        );
        assert_eq!(
            Protocol::paper_scoma(),
            Protocol::SComa {
                page_cache_bytes: 320 * 1024
            }
        );
        let Protocol::RNuma {
            block_cache_bytes,
            page_cache_bytes,
            threshold,
        } = Protocol::paper_rnuma()
        else {
            panic!("wrong variant")
        };
        assert_eq!(
            (block_cache_bytes, page_cache_bytes, threshold),
            (128, 320 * 1024, 64)
        );
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(Protocol::paper_ccnuma().label(), "CC-NUMA");
        assert_eq!(Protocol::paper_scoma().label(), "S-COMA");
        assert_eq!(Protocol::paper_rnuma().label(), "R-NUMA");
        assert_eq!(Protocol::ideal().label(), "ideal");
        assert!(Protocol::paper_rnuma().to_string().contains("T=64"));
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = MachineConfig::paper_base(Protocol::paper_ccnuma());
        c.nodes = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_base(Protocol::paper_ccnuma());
        c.protocol = Protocol::SComa {
            page_cache_bytes: 100,
        };
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_base(Protocol::paper_ccnuma());
        c.protocol = Protocol::RNuma {
            block_cache_bytes: 128,
            page_cache_bytes: 320 * 1024,
            threshold: 0,
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("threshold"));
    }

    #[test]
    fn validation_rejects_non_power_of_two_caches() {
        let mut c = MachineConfig::paper_base(Protocol::paper_ccnuma());
        c.l1_bytes = 3 * 32;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("L1 line count"), "{err}");

        // 1000 bytes hold 31 lines: neither a power of two nor tiny.
        for protocol in [
            Protocol::CcNuma {
                block_cache_bytes: Some(1000),
            },
            Protocol::RNuma {
                block_cache_bytes: 96,
                page_cache_bytes: 320 * 1024,
                threshold: 64,
            },
        ] {
            let err = MachineConfig::paper_base(protocol).validate().unwrap_err();
            assert!(err.to_string().contains("block cache line count"), "{err}");
        }

        // Every cache size the figures build is accepted.
        for b in [128, 1024, 32 * 1024] {
            let c = MachineConfig::paper_base(Protocol::CcNuma {
                block_cache_bytes: Some(b),
            });
            assert!(c.validate().is_ok(), "{b}-byte block cache");
        }
    }

    #[test]
    fn ideal_is_valid() {
        let c = MachineConfig::paper_base(Protocol::ideal());
        assert!(c.validate().is_ok());
    }
}
