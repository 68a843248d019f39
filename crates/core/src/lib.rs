#![warn(missing_docs)]

//! # cohfree-core — the public API of the cohfree cluster simulator
//!
//! This crate assembles the substrates (`cohfree-sim/-fabric/-mem/-rmc/-os`)
//! into the system of the paper: a cluster whose nodes can borrow memory
//! from each other **without extending cache coherency across nodes**.
//!
//! The API has three levels:
//!
//! 1. [`config::ClusterConfig`] — describe the machine (topology, DRAM, RMC,
//!    cache, OS timing); [`config::ClusterConfig::prototype`] reproduces the
//!    16-node CLUSTER 2010 prototype.
//! 2. [`world::World`] — the discrete-event cluster: inject transactions,
//!    spawn traffic-generator threads (used by the Fig. 6–8 experiments),
//!    inspect component statistics.
//! 3. [`backend`] — process-level memory spaces implementing [`MemSpace`]:
//!    * [`backend::LocalMachine`] — a hypothetical big-memory single node
//!      (the paper's "local memory" reference),
//!    * [`backend::RemoteMemorySpace`] — the paper's system: reservation +
//!      prefixed page mappings + hardware remote access,
//!    * [`backend::SwapSpace`] — the remote-swap baseline.
//!
//!    Workloads (`cohfree-workloads`) are written once against [`MemSpace`]
//!    and run unchanged over any backend, which is exactly how the paper
//!    compares its prototype against remote swap.
//!
//! [`analytic`] implements the paper's Equations 1–2 for model-vs-simulation
//! validation.
//!
//! ## Example
//!
//! ```
//! use cohfree_core::config::ClusterConfig;
//! use cohfree_core::backend::{MemSpace, RemoteMemorySpace, AllocPolicy};
//!
//! // A process on node 1 of the 16-node prototype, allocating remote memory.
//! let cfg = ClusterConfig::prototype();
//! let mut m = RemoteMemorySpace::new(cfg, cohfree_fabric::NodeId::new(1),
//!                                    AllocPolicy::AlwaysRemote);
//! let va = m.alloc(1 << 20);
//! m.write_u64(va, 42);
//! assert_eq!(m.read_u64(va), 42);
//! assert!(m.now().as_ns() > 0); // simulated time has advanced
//! ```

pub mod analytic;
pub mod backend;
pub mod config;
mod exec;
pub mod fault;
pub mod trace;
pub mod world;

pub use backend::{AllocPolicy, LocalMachine, MemSpace, RemoteMemorySpace, SwapSpace};
pub use config::{ClusterConfig, OsTiming};
pub use fault::{FaultEvent, FaultPlan, MAX_FAULT_EVENTS};
pub use world::{
    AccessOutcome, AccessPattern, ClusterSnapshot, Sample, ThreadSpec, World, WorldConfigError,
};

// Re-export the substrate types a user of the public API needs.
pub use cohfree_fabric::{MsgKind, NodeId, Topology};
pub use cohfree_os::manager::{NodeObservation, RecoveryManager};
pub use cohfree_sim::{
    FaultLog, FaultLogEntry, Json, Phase, Rng, SimDuration, SimTime, SpanRecord, TraceMode,
    TraceSink,
};
