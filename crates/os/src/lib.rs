#![warn(missing_docs)]

//! # cohfree-os — operating-system substrate
//!
//! The paper keeps software *off the access path* but needs OS machinery
//! around it: hot-pluggable physical memory, cluster-wide knowledge of free
//! memory, zone reservation, and (for the baseline) a swap subsystem.
//! This crate implements those pieces as deterministic models:
//!
//! * [`frames`] — per-node physical frame accounting: a private region for
//!   the local OS and a *pool* region that can be lent to other nodes
//!   (8 GiB + 8 GiB in the prototype), with contiguous-zone reservation and
//!   a lender ledger (granted frames are pinned: never swapped, never given
//!   to local processes),
//! * [`pagetable`] — per-process virtual memory: page table, TLB with LRU
//!   replacement, page-walk cost hooks, and page states (resident local,
//!   mapped remote, swapped out),
//! * [`directory`] — the cluster free-memory directory, which decides
//!   *which* node lends memory: the nearest one with room. It is a
//!   function over what each donor's [`frames`] allocator holds free, not
//!   a second count beside it,
//! * [`region`] — memory regions (Fig. 1): one per node, listing the local
//!   and borrowed segments that form that node's coherency domain. A
//!   reservation (Fig. 4) is a function call in `cohfree-core`'s `World`:
//!   the donor's [`frames`] carves the zone and the asker's [`region`]
//!   grows by a [`Reservation`]; those two are its only records,
//! * [`swap`] — the remote-swap baseline: a bounded page cache with CLOCK
//!   eviction and dirty write-back accounting (the fault costs are charged
//!   by the swap backend in `cohfree-core`),
//! * [`balloon`] — the hot-plug/hot-remove watermark policy deciding when a
//!   node borrows or returns zones,
//! * [`manager`] — the online cluster recovery manager: a deterministic
//!   control loop turning periodic cluster observations into load-aware
//!   evacuation, proactive live migration, and admission-control decisions.

pub mod balloon;
pub mod directory;
pub mod frames;
pub mod manager;
pub mod pagetable;
pub mod region;
pub mod swap;

pub use balloon::{Balloon, BalloonAction};
pub use directory::nearest_donor;
pub use frames::{FrameAllocator, FrameError, PAGE_FRAME_BYTES};
pub use manager::{ManagerAction, NodeObservation, RecoveryManager};
pub use pagetable::{PageFlags, PageTable, Tlb, TlbConfig, Translation};
pub use region::{Region, Reservation, Segment};
pub use swap::{PageCache, SwapStats};
