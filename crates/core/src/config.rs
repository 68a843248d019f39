//! Cluster-wide configuration.
//!
//! One [`ClusterConfig`] value describes every hardware and OS parameter of
//! a simulated cluster. [`ClusterConfig::prototype`] is calibrated to the
//! 16-node CLUSTER 2010 machine (FPGA RMCs, DDR2-800, 4×4 mesh); the
//! ablation benches derive variants from it. Policies every experiment runs
//! one way are not settable here: reservations and recovery fall back to
//! the directory's nearest donor with room, the span ring holds
//! [`DEFAULT_TRACE_CAPACITY`](cohfree_sim::span::DEFAULT_TRACE_CAPACITY)
//! spans, the retry backoff doubles up to 16 timeouts plus up to 25 %
//! jitter, and the recovery manager's timing and watermarks are constants
//! of [`cohfree_os::manager`].

use crate::fault::FaultPlan;
use cohfree_fabric::{FabricConfig, Topology};
use cohfree_mem::{CacheConfig, DramConfig};
use cohfree_os::pagetable::TlbConfig;
use cohfree_rmc::RmcConfig;
use cohfree_sim::span::TraceMode;
use cohfree_sim::SimDuration;

/// Software-path timing (everything the OS charges that hardware does not).
#[derive(Debug, Clone, Copy)]
pub struct OsTiming {
    /// Latency of a cache hit as seen by the core (L2-class).
    pub cache_hit: SimDuration,
    /// Latency of an L1 hit (only charged when an L1 is configured).
    pub l1_hit: SimDuration,
    /// Page-walk cost on a TLB miss with a valid PTE.
    pub tlb_walk: SimDuration,
    /// Kernel overhead of a major fault (trap, handler, driver, return) —
    /// charged *in addition to* the device/page transfer itself.
    pub fault_overhead: SimDuration,
    /// One-time software cost of a remote-zone reservation: the paper's
    /// kernel-to-kernel request and grant, charged as this one delay (off
    /// the access path).
    pub reservation: SimDuration,
    /// Interposed `malloc` bookkeeping per allocation call.
    pub malloc_overhead: SimDuration,
}

impl Default for OsTiming {
    fn default() -> Self {
        OsTiming {
            cache_hit: SimDuration::ns(4),
            l1_hit: SimDuration::ns(1),
            tlb_walk: SimDuration::ns(80),
            fault_overhead: SimDuration::us(8),
            reservation: SimDuration::us(200),
            malloc_overhead: SimDuration::us(1),
        }
    }
}

/// Full description of a simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Interconnect topology (the prototype: 4×4 2D mesh).
    pub topology: Topology,
    /// Fabric physical parameters.
    pub fabric: FabricConfig,
    /// Per-node DRAM parameters.
    pub dram: DramConfig,
    /// RMC parameters (client and server side).
    pub rmc: RmcConfig,
    /// CPU cache geometry (per application core; the L2/aggregate level).
    pub cache: CacheConfig,
    /// Optional L1 in front of [`ClusterConfig::cache`]; `None` (default)
    /// keeps the single-cache baseline model.
    pub l1: Option<CacheConfig>,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Bytes each node keeps for its own OS/processes.
    pub private_bytes: u64,
    /// Bytes each node contributes to the shared pool.
    pub pool_bytes: u64,
    /// Software timing.
    pub os: OsTiming,
    /// Deterministic fault-injection schedule (empty by default).
    pub faults: FaultPlan,
    /// Retransmissions per transaction before the home node is declared
    /// suspect and outstanding transactions to it are aborted. The default
    /// (16) is deliberately generous so heavy-loss studies (5 % per
    /// traversal) never false-positive; EXT-FAILOVER sweeps it down.
    pub max_retries: u32,
    /// Run the online recovery manager (off by default). When on, the
    /// world runs periodic manager ticks that drive load-aware evacuation,
    /// proactive migration, and admission control.
    pub manager: bool,
    /// Per-transaction span tracing (off by default). `Aggregate` keeps
    /// per-phase latency histograms that fold into `World::snapshot()`;
    /// `Full` also retains the span stream for Chrome-trace export.
    pub trace: TraceMode,
    /// Base PRNG seed (placement and workload streams derive from it).
    pub seed: u64,
}

impl ClusterConfig {
    /// The CLUSTER 2010 prototype: 16 nodes, 4 sockets × 4 GiB each,
    /// 8 GiB private + 8 GiB pooled per node (128 GiB cluster pool),
    /// FPGA RMCs on a 4×4 mesh.
    pub fn prototype() -> ClusterConfig {
        ClusterConfig {
            topology: Topology::prototype(),
            fabric: FabricConfig::default(),
            dram: DramConfig::default(),
            rmc: RmcConfig::default(),
            cache: CacheConfig::default(),
            l1: None,
            tlb: TlbConfig::default(),
            private_bytes: 8 << 30,
            pool_bytes: 8 << 30,
            os: OsTiming::default(),
            faults: FaultPlan::default(),
            max_retries: 16,
            manager: false,
            trace: TraceMode::Off,
            seed: 0xC0DE_2010,
        }
    }

    /// Frames each node contributes to the pool.
    pub fn pool_frames_per_node(&self) -> u64 {
        self.pool_bytes / cohfree_os::frames::PAGE_FRAME_BYTES
    }

    /// Total shared pool across the cluster in bytes.
    pub fn cluster_pool_bytes(&self) -> u64 {
        self.pool_bytes * self.topology.num_nodes() as u64
    }

    /// An L1 refinement preset: 64 KiB 8-way L1 in front of the default L2.
    pub fn with_l1(mut self) -> ClusterConfig {
        self.l1 = Some(CacheConfig {
            line_bytes: 64,
            sets: 128,
            ways: 8,
        });
        self
    }

    /// Validate internal consistency (sizes fit address windows, etc.).
    ///
    /// # Panics
    /// Panics with a descriptive message on an inconsistent configuration.
    pub fn validate(&self) {
        let node_bytes = self.dram.node_bytes();
        assert!(
            self.private_bytes + self.pool_bytes <= node_bytes,
            "private ({}) + pool ({}) exceed node memory ({})",
            self.private_bytes,
            self.pool_bytes,
            node_bytes
        );
        assert!(
            node_bytes <= cohfree_mem::map::NODE_WINDOW_BYTES,
            "node memory exceeds the 14-bit-prefix address window"
        );
        assert!(self.topology.num_nodes() >= 2, "a cluster needs >= 2 nodes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_the_paper() {
        let c = ClusterConfig::prototype();
        c.validate();
        assert_eq!(c.topology.num_nodes(), 16);
        assert_eq!(c.dram.node_bytes(), 16 << 30);
        assert_eq!(c.cluster_pool_bytes(), 128 << 30, "the 128 GiB pool");
        assert_eq!(c.pool_frames_per_node(), (8 << 30) / 4096);
    }

    #[test]
    #[should_panic(expected = "exceed node memory")]
    fn oversubscribed_node_rejected() {
        let mut c = ClusterConfig::prototype();
        c.pool_bytes = 20 << 30;
        c.validate();
    }
}
