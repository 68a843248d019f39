#![warn(missing_docs)]

//! # cohfree-mem — node memory hardware model
//!
//! Per-node memory subsystem of the prototype: four Opteron sockets, each
//! with its own DDR2 memory controller, and the caches in front of them.
//!
//! * [`store`] — [`store::SparseStore`], the *functional* contents of
//!   physical memory: a sparse, page-granular byte store so a "128 GB" pool
//!   costs only what is actually touched,
//! * [`dram`] — [`dram::NodeMemory`], the *timing* of local accesses:
//!   socket-interleaved FIFO memory controllers with deterministic service
//!   times,
//! * [`cache`] — [`cache::Cache`], a set-associative write-back cache used
//!   as a timing filter in front of both local and remote physical memory
//!   (the prototype maps remote ranges write-back cacheable),
//! * [`hierarchy`] — an optional L1+L2 refinement of the cache model
//!   (degenerates exactly to the single cache when the L1 is absent),
//! * [`map`] — the physical address layout: the 14-bit node prefix that
//!   sends an access to a local controller or to the RMC.
//!
//! ### Functional vs. timing state
//!
//! Data is written through to the [`store::SparseStore`] immediately; the
//! cache tracks only tags/dirtiness and is consulted for *timing* and for
//! write-back traffic accounting. This is exact for the architecture being
//! modelled: a memory region has exactly one owning node (one coherency
//! domain), and the home node never reads frames it has lent out, so no
//! agent can ever observe memory "behind" a dirty cached line.

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod map;
pub mod store;

pub use cache::{Cache, CacheConfig, CacheOutcome};
pub use dram::{DramConfig, NodeMemory};
pub use hierarchy::{CacheHierarchy, HierarchyOutcome, Level, Writebacks};
pub use store::{SparseStore, PAGE_BYTES};
