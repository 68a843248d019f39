#![warn(missing_docs)]

//! # cohfree — umbrella crate
//!
//! Re-exports the full cohfree stack (a Rust reproduction of *"Getting Rid
//! of Coherency Overhead for Memory-Hungry Applications"*, IEEE CLUSTER
//! 2010) so examples and integration tests can depend on one crate.
//!
//! Layering, bottom to top:
//!
//! * [`sim`] — deterministic discrete-event engine,
//! * [`fabric`] — HyperTransport / HNC-HT interconnect model,
//! * [`mem`] — node DRAM, caches and the sparse functional store,
//! * [`rmc`] — the Remote Memory Controller (the paper's contribution),
//! * [`os`] — virtual memory, frame allocation, regions, directory, swap,
//! * [`core`] — cluster assembly, memory backends, analytic model,
//! * [`workloads`] — B-tree / hash / PARSEC-class applications.
//!
//! Start with [`core::config::ClusterConfig::prototype`] and the
//! `examples/` directory.

pub use cohfree_core as core;
pub use cohfree_fabric as fabric;
pub use cohfree_mem as mem;
pub use cohfree_os as os;
pub use cohfree_rmc as rmc;
pub use cohfree_sim as sim;
pub use cohfree_workloads as workloads;

// Flat re-exports of the everyday API.
pub use cohfree_core::{
    AllocPolicy, ClusterConfig, LocalMachine, MemSpace, MsgKind, NodeId, RemoteMemorySpace, Rng,
    SimDuration, SimTime, SwapSpace, Topology, World,
};
