//! Machine configuration (defaults reproduce Table 5 of the paper).

use dirtree_core::cache::CacheConfig;
use dirtree_core::protocol::ProtocolParams;
use dirtree_net::{NetworkConfig, Topology};
use dirtree_sim::Cycle;

/// Cache access latency, and a cache controller's occupancy per message
/// (Table 5: 1 cycle).
pub const CACHE_LATENCY: Cycle = 1;

/// Cost of a barrier release or lock grant by the sync hardware.
pub const SYNC_LATENCY: Cycle = 4;

/// Which interconnect topology the machine instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Binary n-cube (the paper's network; `nodes` must be a power of 2).
    Hypercube,
    /// General k-ary n-cube with the given radix (`nodes` must be `k^m`).
    KaryNcube { radix: u32 },
}

impl TopologyKind {
    /// Build the topology for `nodes` processors.
    pub fn build(self, nodes: u32) -> Topology {
        match self {
            TopologyKind::Hypercube => Topology::hypercube(nodes),
            TopologyKind::KaryNcube { radix } => {
                let mut dims = 0;
                let mut n = 1u64;
                while n < nodes as u64 {
                    n *= radix as u64;
                    dims += 1;
                }
                assert_eq!(n, nodes as u64, "nodes must be a power of the radix");
                Topology::kary_ncube(radix, dims.max(1))
            }
        }
    }
}

/// Full configuration of a simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of processors (must be a power of two for the binary n-cube).
    pub nodes: u32,
    /// Cache geometry (Table 5: 16 KB fully associative, 8-byte blocks).
    pub cache: CacheConfig,
    /// Data block size in bytes (Table 5: 8).
    pub block_bytes: u32,
    /// Control-message header size in bytes.
    pub header_bytes: u32,
    /// Memory access latency at a directory controller (Table 5: 5).
    pub mem_latency: Cycle,
    /// Network timing (Table 5: 8-bit links, 1-cycle switches).
    pub net: NetworkConfig,
    /// Interconnect topology (Table 5: binary n-cube).
    pub topology: TopologyKind,
    /// Protocol tunables (Dir_iTree_k ablations, adaptive thresholds).
    pub protocol: ProtocolParams,
    /// Run the sequential-consistency witness on every operation.
    pub verify: bool,
    /// Abort the run if this many events are processed (livelock guard;
    /// generously above any legitimate run for the configured workloads).
    pub max_events: u64,
}

impl MachineConfig {
    /// The paper's simulated machine (Table 5) at a given size.
    pub fn paper_default(nodes: u32) -> Self {
        Self {
            nodes,
            cache: CacheConfig::paper_default(),
            block_bytes: 8,
            header_bytes: 8,
            mem_latency: 5,
            net: NetworkConfig::default(),
            topology: TopologyKind::Hypercube,
            protocol: ProtocolParams::default(),
            verify: false,
            max_events: 20_000_000_000,
        }
    }

    /// A small configuration for unit tests: tiny cache to exercise
    /// replacements, verification on.
    pub fn test_default(nodes: u32) -> Self {
        Self {
            nodes,
            cache: CacheConfig { lines: 64 },
            verify: true,
            max_events: 200_000_000,
            ..Self::paper_default(nodes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table5() {
        let c = MachineConfig::paper_default(32);
        assert_eq!(c.cache.lines * c.block_bytes as usize, 16 * 1024);
        assert_eq!(c.block_bytes, 8);
        assert_eq!(c.mem_latency, 5);
        assert_eq!(CACHE_LATENCY, 1);
        assert_eq!(c.net.link_width_bits, 8);
        assert_eq!(dirtree_net::wormhole::SWITCH_DELAY, 1);
    }

    #[test]
    fn topology_kinds_build() {
        assert_eq!(TopologyKind::Hypercube.build(16).num_nodes(), 16);
        let t = TopologyKind::KaryNcube { radix: 4 }.build(16);
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.radix(), 4);
        assert_eq!(t.dimensions(), 2);
    }
}
