//! Access-trace recording, replay, and locality analysis.
//!
//! The paper's Equations 1–2 need two workload parameters nobody states for
//! real programs: `A_page` (accesses per page residency) and the effective
//! local access cost. This module measures them:
//!
//! * [`Tracer`] wraps any [`MemSpace`] and records every operation
//!   (allocation, read, write, compute) without changing behaviour;
//! * [`replay`] re-runs a trace against another backend — cross-backend
//!   timing comparisons of the *identical* access sequence;
//! * [`page_profile`] simulates the swap backend's page cache over the
//!   trace and returns the exact fault counts the real backend would incur;
//! * [`cache_profile`] simulates the CPU cache over the trace likewise.
//!
//! The `ext_locality` study uses these to *predict* each workload's
//! swap/remote-memory time from its trace via the paper's equations, then
//! validates the predictions against full simulation.

use crate::backend::{lines, AccessStats, MemSpace};
use cohfree_mem::{Cache, CacheConfig, CacheOutcome};
use cohfree_os::pagetable::{PageTable, Tlb, TlbConfig};
use cohfree_os::swap::{PageCache, Touch};
use cohfree_sim::{SimDuration, SimTime};
use std::collections::HashSet;

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `alloc(bytes)` (the returned VA is deterministic, so it need not be
    /// recorded).
    Alloc {
        /// Bytes requested.
        bytes: u64,
    },
    /// Timed read of `len` bytes at `va`.
    Read {
        /// Virtual address.
        va: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Timed write of `len` bytes at `va`.
    Write {
        /// Virtual address.
        va: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Pure CPU time.
    Compute {
        /// Duration charged.
        d: SimDuration,
    },
}

/// A [`MemSpace`] wrapper that records every operation it forwards.
pub struct Tracer<M: MemSpace> {
    inner: M,
    ops: Vec<Op>,
}

impl<M: MemSpace> Tracer<M> {
    /// Wrap `inner`, recording from now on.
    pub fn new(inner: M) -> Tracer<M> {
        Tracer {
            inner,
            ops: Vec::new(),
        }
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &[Op] {
        &self.ops
    }

    /// Unwrap into the inner space and the trace.
    pub fn into_parts(self) -> (M, Vec<Op>) {
        (self.inner, self.ops)
    }
}

impl<M: MemSpace> MemSpace for Tracer<M> {
    fn alloc(&mut self, bytes: u64) -> u64 {
        self.ops.push(Op::Alloc { bytes });
        self.inner.alloc(bytes)
    }

    fn read(&mut self, va: u64, buf: &mut [u8]) {
        self.ops.push(Op::Read {
            va,
            len: buf.len() as u32,
        });
        self.inner.read(va, buf);
    }

    fn write(&mut self, va: u64, data: &[u8]) {
        self.ops.push(Op::Write {
            va,
            len: data.len() as u32,
        });
        self.inner.write(va, data);
    }

    fn compute(&mut self, d: SimDuration) {
        self.ops.push(Op::Compute { d });
        self.inner.compute(d);
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn stats(&self) -> AccessStats {
        self.inner.stats()
    }
}

/// Replay a trace against `mem` (same deterministic VA layout as the
/// original run, since every backend is a [`crate::backend::Process`] with
/// its one packed bump allocator). Returns the simulated time the replay
/// took.
pub fn replay<M: MemSpace + ?Sized>(mem: &mut M, trace: &[Op]) -> SimDuration {
    let t0 = mem.now();
    let mut buf = vec![0u8; 4096];
    for op in trace {
        match *op {
            Op::Alloc { bytes } => {
                mem.alloc(bytes);
            }
            Op::Read { va, len } => {
                if buf.len() < len as usize {
                    buf.resize(len as usize, 0);
                }
                mem.read(va, &mut buf[..len as usize]);
            }
            Op::Write { va, len } => {
                if buf.len() < len as usize {
                    buf.resize(len as usize, 0);
                }
                mem.write(va, &buf[..len as usize]);
            }
            Op::Compute { d } => mem.compute(d),
        }
    }
    mem.now().since(t0)
}

/// Every line-granular access of `trace` as `(line address, write)`, split
/// exactly as the backends split them.
fn line_accesses(trace: &[Op], line_bytes: u64) -> impl Iterator<Item = (u64, bool)> + '_ {
    trace
        .iter()
        .filter_map(|op| match *op {
            Op::Read { va, len } => Some((va, len, false)),
            Op::Write { va, len } => Some((va, len, true)),
            Op::Alloc { .. } | Op::Compute { .. } => None,
        })
        .flat_map(move |(va, len, write)| {
            lines(va, len as u64, line_bytes).map(move |a| (a, write))
        })
}

/// Exact page-level locality profile of a trace under a given resident-set
/// bound (mirrors [`crate::backend::SwapSpace`]'s fault semantics: first
/// touch is a zero-fill minor fault; re-touching an evicted page is major).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageProfile {
    /// Line-granular memory accesses in the trace.
    pub accesses: u64,
    /// Zero-fill (first-touch) minor faults.
    pub minor_faults: u64,
    /// Device-bound major faults.
    pub major_faults: u64,
    /// Dirty page write-outs.
    pub pages_out: u64,
    /// The paper's `A_page`: accesses per major fault (`inf` when no major
    /// faults occur — the working set fits).
    pub accesses_per_page: f64,
}

/// Compute the [`PageProfile`] of `trace` for a `cache_pages`-page resident
/// set, with accesses split into `line_bytes` chunks exactly as backends do.
pub fn page_profile(trace: &[Op], cache_pages: usize, line_bytes: u64) -> PageProfile {
    let mut cache = PageCache::new(cache_pages);
    let mut materialized: HashSet<u64> = HashSet::new();
    let mut p = PageProfile {
        accesses: 0,
        minor_faults: 0,
        major_faults: 0,
        pages_out: 0,
        accesses_per_page: f64::INFINITY,
    };
    for (a, write) in line_accesses(trace, line_bytes) {
        p.accesses += 1;
        let vpn = PageTable::vpn(a);
        if let Touch::Miss { evicted } = cache.touch(vpn, write) {
            if evicted.is_some_and(|e| e.dirty) {
                p.pages_out += 1;
            }
            if materialized.insert(vpn) {
                p.minor_faults += 1;
            } else {
                p.major_faults += 1;
            }
        }
    }
    if p.major_faults > 0 {
        p.accesses_per_page = p.accesses as f64 / p.major_faults as f64;
    }
    p
}

/// Exact CPU-cache profile of a trace (tag simulation over virtual
/// addresses; exact for single-extent bump mappings, see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheProfile {
    /// Line-granular accesses.
    pub accesses: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Dirty-victim writebacks (lines a write-back cache pushes out).
    pub writebacks: u64,
}

/// Compute the [`CacheProfile`] of `trace` under `cfg`.
pub fn cache_profile(trace: &[Op], cfg: CacheConfig) -> CacheProfile {
    let mut cache = Cache::new(cfg);
    let mut p = CacheProfile {
        accesses: 0,
        hits: 0,
        misses: 0,
        writebacks: 0,
    };
    for (a, write) in line_accesses(trace, cfg.line_bytes as u64) {
        p.accesses += 1;
        match cache.access(a, write) {
            CacheOutcome::Hit => p.hits += 1,
            CacheOutcome::Miss { victim_writeback } => {
                p.misses += 1;
                if victim_writeback.is_some() {
                    p.writebacks += 1;
                }
            }
        }
    }
    p
}

/// Approximate TLB-walk count for a trace: misses of an LRU TLB over the
/// line-granular virtual-page stream. Slightly overcounts walks on fault
/// paths (a faulting access TLB-misses first), so callers comparing against
/// backend `tlb_walks` should subtract the fault counts.
pub fn tlb_misses(trace: &[Op], entries: usize, line_bytes: u64) -> u64 {
    let mut tlb = Tlb::new(TlbConfig { entries });
    let mut misses = 0;
    for (a, _) in line_accesses(trace, line_bytes) {
        let vpn = PageTable::vpn(a);
        if tlb.lookup(vpn).is_none() {
            misses += 1;
            tlb.insert_absent(vpn, vpn * 4096);
        }
    }
    misses
}

/// Total CPU time in a trace.
pub fn compute_total(trace: &[Op]) -> SimDuration {
    trace
        .iter()
        .filter_map(|op| match op {
            Op::Compute { d } => Some(*d),
            _ => None,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LocalMachine, SwapConfig, SwapSpace};
    use crate::config::ClusterConfig;
    use crate::NodeId;
    use cohfree_sim::Rng;

    fn workload<M: MemSpace>(mem: &mut M) -> u64 {
        // A mixed workload: populate, random touches, compute.
        let va = mem.alloc(64 * 4096);
        let mut rng = Rng::new(5);
        for p in 0..64u64 {
            mem.write_u64(va + p * 4096, p);
        }
        let mut acc = 0u64;
        for _ in 0..500 {
            let a = va + rng.below(64 * 4096 / 8) * 8;
            acc = acc.wrapping_add(mem.read_u64(a));
            mem.compute(SimDuration::ns(3));
        }
        acc
    }

    #[test]
    fn tracer_is_transparent() {
        let mut plain = LocalMachine::new(ClusterConfig::prototype(), 1 << 30);
        let plain_result = workload(&mut plain);
        let mut traced = Tracer::new(LocalMachine::new(ClusterConfig::prototype(), 1 << 30));
        let traced_result = workload(&mut traced);
        assert_eq!(plain_result, traced_result, "results must match");
        assert_eq!(plain.now(), traced.now(), "timing must match");
        assert_eq!(plain.stats(), traced.stats(), "stats must match");
        assert!(traced.trace().len() > 1_000);
    }

    #[test]
    fn replay_reproduces_timing_exactly() {
        let mut traced = Tracer::new(LocalMachine::new(ClusterConfig::prototype(), 1 << 30));
        workload(&mut traced);
        let (orig, trace) = traced.into_parts();
        let mut fresh = LocalMachine::new(ClusterConfig::prototype(), 1 << 30);
        let replayed = replay(&mut fresh, &trace);
        assert_eq!(replayed, orig.now().since(SimTime::ZERO));
        assert_eq!(fresh.stats().cache_misses, orig.stats().cache_misses);
    }

    #[test]
    fn page_profile_matches_real_swap_backend_exactly() {
        let mut traced = Tracer::new(LocalMachine::new(ClusterConfig::prototype(), 1 << 30));
        workload(&mut traced);
        let (_, trace) = traced.into_parts();
        let cache_pages = 16;
        let predicted = page_profile(&trace, cache_pages, 64);
        // Ground truth: replay on a real swap backend.
        let mut swap = SwapSpace::remote(
            ClusterConfig::prototype(),
            NodeId::new(1),
            SwapConfig {
                cache_pages,
                ..SwapConfig::default()
            },
        );
        replay(&mut swap, &trace);
        let s = swap.stats();
        assert_eq!(predicted.minor_faults, s.minor_faults, "minor faults");
        assert_eq!(predicted.major_faults, s.major_faults, "major faults");
        assert_eq!(predicted.pages_out, s.pages_out, "write-outs");
        assert_eq!(predicted.accesses, s.reads + s.writes, "access count");
    }

    #[test]
    fn cache_profile_matches_local_machine_exactly() {
        let mut traced = Tracer::new(LocalMachine::new(ClusterConfig::prototype(), 1 << 30));
        workload(&mut traced);
        let (orig, trace) = traced.into_parts();
        let predicted = cache_profile(&trace, ClusterConfig::prototype().cache);
        assert_eq!(predicted.hits, orig.stats().cache_hits);
        assert_eq!(predicted.misses, orig.stats().cache_misses);
    }

    #[test]
    fn compute_total_sums_compute_ops() {
        let trace = vec![
            Op::Compute {
                d: SimDuration::ns(5),
            },
            Op::Read { va: 0, len: 8 },
            Op::Compute {
                d: SimDuration::ns(7),
            },
        ];
        assert_eq!(compute_total(&trace), SimDuration::ns(12));
    }

    #[test]
    fn page_profile_infinite_a_page_when_resident() {
        let mut traced = Tracer::new(LocalMachine::new(ClusterConfig::prototype(), 1 << 30));
        workload(&mut traced);
        let (_, trace) = traced.into_parts();
        let p = page_profile(&trace, 1_000, 64); // everything fits
        assert_eq!(p.major_faults, 0);
        assert!(p.accesses_per_page.is_infinite());
        assert_eq!(p.minor_faults, 64);
    }
}
