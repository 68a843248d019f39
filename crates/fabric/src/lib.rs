#![warn(missing_docs)]

//! # cohfree-fabric — HyperTransport / HNC-HT interconnect model
//!
//! Models the inter-node fabric of the CLUSTER 2010 prototype: 16 nodes whose
//! FPGA cards each embed a switch, wired as a 4×4 2D mesh and speaking
//! High-Node-Count HyperTransport (the addressing extension that lifts HT's
//! 32-device limit so every RMC in the cluster is addressable).
//!
//! The crate provides:
//!
//! * [`NodeId`] — 1-based node identifiers (the paper's "there is no node 0"
//!   rule, which is what lets the RMC skip translation tables),
//! * [`msg`] — HT-style request/response messages with wire sizes,
//! * [`topology`] — 2D mesh (the prototype), 2D torus and fully-connected
//!   alternatives with minimal deterministic routing,
//! * [`fabric`] — the packet-forwarding state machine: per-hop router delay,
//!   per-link serialization with FIFO contention, and per-link statistics.
//!
//! Forwarding is hop-by-hop: the owning event loop calls
//! [`fabric::Fabric::step`] once per router visit, keeping link contention
//! exact under any interleaving of traffic.

pub mod fabric;
pub mod msg;
pub mod topology;

pub use fabric::{Fabric, FabricConfig, Step};
pub use msg::{Message, MsgKind, NodeId};
pub use topology::Topology;
