//! Per-layer unit costs, timed with `cohfree_bench::bencher::bench_quiet`
//! on inputs shaped like the workload that exercises each layer. Time
//! inside `World::run` cannot be split from outside the program, so the
//! traced run attributes it as exact count × these unit costs.

use cohfree_bench::bencher::bench_quiet;
use cohfree_core::{ClusterConfig, MsgKind, NodeId, Rng, SimDuration, SimTime, Topology, World};
use cohfree_fabric::{Fabric, FabricConfig, Message};
use cohfree_mem::{CacheHierarchy, SparseStore};
use cohfree_os::{PageCache, PageTable};
use cohfree_rmc::{RmcClient, Submit};
use cohfree_sim::EventQueue;
use std::hint::black_box;

/// Pages in `db_remote`'s footprint at full size (about 44k rows × 90 B).
const DB_PAGES: u64 = 1_000;

/// Accesses per visit to a page. The database workloads make about 60
/// `MemSpace` calls per operation and walk the page table on about one in
/// 40 of them, so the micro rows revisit each page for a run of accesses
/// too, rather than missing the TLB and caches on every call.
const PAGE_RUN: u64 = 32;

/// Word addresses over `pages` pages of virtual memory from 0x1000: a
/// random page, then [`PAGE_RUN`] random words within it, and so on.
fn addrs(pages: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mut page = 0;
    (0..4_096u64)
        .map(|i| {
            if i.is_multiple_of(PAGE_RUN) {
                page = 1 + rng.below(pages);
            }
            page * 4096 + rng.below(512) * 8
        })
        .collect()
}

/// `(metric name, nanoseconds per call)` for every micro row.
pub fn run() -> Vec<(&'static str, f64)> {
    let cfg = ClusterConfig::prototype();
    let mut out = Vec::new();

    // Event queue at mesh_closed's depth (a few hundred pending events)
    // with its delay mix: hop-scale, service-scale and think-scale.
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..512u64 {
        q.schedule(SimTime::ZERO + SimDuration::ns(i % 400), i);
    }
    let mut i = 0u64;
    out.push((
        "sim.queue_ns",
        bench_quiet("queue", || {
            let (at, _, v) = q.pop_entry().expect("queue stays populated");
            let dly = [80u64, 80, 160, 45, 600][(i % 5) as usize];
            q.schedule(at + SimDuration::ns(dly), v);
            i += 1;
        })
        .median_ns,
    ));

    // One forwarding step across the 16×16 mesh.
    let mesh = Topology::Mesh2D {
        width: 16,
        height: 16,
    };
    let mut fabric = Fabric::new(mesh, FabricConfig::default());
    let (src, dst) = (NodeId::new(1), NodeId::new(256));
    let msg = Message::new(src, dst, MsgKind::ReadReq { bytes: 64 }, 1);
    let mut now = SimTime::ZERO;
    out.push((
        "fabric.step_ns",
        bench_quiet("step", || {
            now += SimDuration::ns(100);
            black_box(fabric.step(now, src, &msg));
        })
        .median_ns,
    ));

    // Client RMC: submit a read, then take its response.
    let mut rmc = RmcClient::new(src, cfg.rmc);
    let mut now = SimTime::ZERO;
    out.push((
        "rmc.submit_ns",
        bench_quiet("submit", || {
            now += SimDuration::us(1);
            if let Submit::Accepted { msg, inject_at } =
                rmc.submit(now, dst, MsgKind::ReadReq { bytes: 64 }, 0x40)
            {
                black_box(rmc.on_response(inject_at, &msg.reply(MsgKind::ReadResp { bytes: 64 })));
            }
        })
        .median_ns,
    ));

    // CPU cache hierarchy over db_remote's footprint.
    let mut cache = CacheHierarchy::new(cfg.l1, cfg.cache);
    let a = addrs(DB_PAGES, 1);
    let mut k = 0usize;
    out.push((
        "mem.cache_access_ns",
        bench_quiet("cache", || {
            black_box(cache.access(a[k % a.len()], k.is_multiple_of(4)));
            k += 1;
        })
        .median_ns,
    ));

    // Functional store: alternate u64 writes and reads over the footprint.
    let mut store = SparseStore::new();
    let mut k = 0usize;
    out.push((
        "mem.store_ns",
        bench_quiet("store", || {
            let va = a[k % a.len()];
            if k.is_multiple_of(2) {
                store.write_u64(va, k as u64);
            } else {
                black_box(store.read_u64(va));
            }
            k += 1;
        })
        .median_ns,
    ));

    // Page table and TLB over the footprint's mapped pages.
    let mut pt = PageTable::new(cfg.tlb);
    for vpn in 1..=DB_PAGES {
        pt.map(vpn, vpn * 4096);
    }
    let mut k = 0usize;
    out.push((
        "os.translate_ns",
        bench_quiet("translate", || {
            black_box(pt.translate(a[k % a.len()]));
            k += 1;
        })
        .median_ns,
    ));

    // Swap page cache holding a fifth of the footprint, as in db_swap.
    let mut pc = PageCache::new((DB_PAGES / 5) as usize);
    let mut k = 0usize;
    out.push((
        "os.page_touch_ns",
        bench_quiet("touch", || {
            black_box(pc.touch(a[k % a.len()] / 4096, k.is_multiple_of(4)));
            k += 1;
        })
        .median_ns,
    ));

    // One blocking remote transaction on the 4×4 prototype: client RMC,
    // fabric hops each way, server RMC and DRAM.
    let mut w = World::new(cfg);
    let (client, server) = (NodeId::new(1), NodeId::new(16));
    let resv = w.reserve_remote(client, 1_024, Some(server));
    let span = resv.frames * 4096;
    let mut at = SimTime::ZERO;
    let mut off = 0u64;
    out.push((
        "core.remote_tx_ns",
        bench_quiet("remote_tx", || {
            let addr = resv.prefixed_base + off;
            at = w.blocking_transaction(at, client, server, MsgKind::ReadReq { bytes: 64 }, addr);
            off = (off + 64) % span;
        })
        .median_ns,
    ));

    out
}
