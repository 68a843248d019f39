//! Process-level memory backends.
//!
//! A workload is written once against [`MemSpace`] — allocate, load, store,
//! spend CPU time — and runs unchanged over any backend, which is exactly
//! how the paper compares its prototype against remote swap and against a
//! hypothetical big-memory machine:
//!
//! | backend | models | access path |
//! |---------|--------|-------------|
//! | [`LocalMachine`] | one machine with all the memory local | TLB → cache → local DRAM |
//! | [`RemoteMemorySpace`] | **the paper's system** | TLB → cache → (local DRAM \| RMC → fabric → home DRAM) |
//! | [`SwapSpace`] | remote swap over Ethernet (or, idealized, the same fabric) | TLB → page cache → fault: OS + 4 KiB page transfers |
//!
//! All three are one type, [`Process`], over a different backing, so the
//! process side of every access runs through one path: the packed bump
//! allocator that lays out virtual addresses, the line split, TLB
//! translation with its walk charge, the cache lookup with its L1-hit,
//! L2-hit or miss-lookup charge, the functional [`cohfree_mem::SparseStore`]
//! and the [`AccessStats`] counters. Each backing supplies only what
//! differs:
//!
//! | backing | a new page is | fault handler | miss fill, then victim write-back |
//! |---------|---------------|---------------|-----------------------------------|
//! | [`LocalBacking`] | the next local frame | — | local DRAM; write-backs buffered |
//! | [`RemoteBacking`] | a frame of a reserved remote zone (or a private frame first) | — | victims home first (remote ones stall the core), then a local or remote fetch |
//! | [`SwapBacking`] | a slot on the swap device, non-resident | CLOCK eviction, page out, page in | local DRAM (unloaded latency without a cluster); write-backs buffered |
//!
//! Every dirty line the cache hierarchy displaces is handed to the backing,
//! whichever level served the access. All timing flows through the same
//! component models, so comparisons isolate the *architecture*, not the
//! calibration.

mod local;
mod process;
mod remote;
mod stats;
mod swap;

pub use local::{LocalBacking, LocalMachine};
pub(crate) use process::lines;
pub use process::Process;
pub use remote::{AllocPolicy, RemoteBacking, RemoteMemorySpace, RemoteOptions};
pub use stats::AccessStats;
pub use swap::{SwapBacking, SwapConfig, SwapSpace, SwapTransport};

use cohfree_sim::{SimDuration, SimTime};

/// A process's view of memory: virtual addressing, timed loads/stores, and
/// a simulated clock.
///
/// Functional contents are exact: every byte written is the byte read back,
/// whatever the backend moves around underneath.
pub trait MemSpace {
    /// Allocate `bytes` of zeroed memory; returns its virtual address.
    /// (The interposed-`malloc` entry point of Section IV-B.)
    fn alloc(&mut self, bytes: u64) -> u64;

    /// Timed read of `buf.len()` bytes at `va`.
    fn read(&mut self, va: u64, buf: &mut [u8]);

    /// Timed write of `data` at `va`.
    fn write(&mut self, va: u64, data: &[u8]);

    /// Charge pure CPU time (the workload's own computation).
    fn compute(&mut self, d: SimDuration);

    /// Current simulated time of this process.
    fn now(&self) -> SimTime;

    /// Cumulative access statistics.
    fn stats(&self) -> AccessStats;

    /// Timed read of a little-endian `u64`.
    fn read_u64(&mut self, va: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(va, &mut b);
        u64::from_le_bytes(b)
    }

    /// Timed write of a little-endian `u64`.
    fn write_u64(&mut self, va: u64, v: u64) {
        self.write(va, &v.to_le_bytes());
    }

    /// Timed read of a little-endian `f64`.
    fn read_f64(&mut self, va: u64) -> f64 {
        f64::from_bits(self.read_u64(va))
    }

    /// Timed write of a little-endian `f64`.
    fn write_f64(&mut self, va: u64, v: f64) {
        self.write_u64(va, v.to_bits());
    }
}
