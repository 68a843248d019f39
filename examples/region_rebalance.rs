//! Dynamic memory regions — Figure 1 of the paper, acted out.
//!
//! Five nodes of the cluster reshape their memory regions at run time:
//! region 3 (node C) grows into its neighbors B and D, region 5 grows into
//! D too, and later region 3 shrinks back, returning the borrowed zones.
//! Each donor's frame allocator and every region's segment list are the
//! only records of a reservation; the free memory the cluster directory
//! reports for a node is read from that node's allocator, so the two stay
//! consistent throughout — the OS-side choreography the paper summarizes
//! in Section III.
//!
//! ```sh
//! cargo run --release --example region_rebalance
//! ```

use cohfree::core::world::World;
use cohfree::{ClusterConfig, NodeId};

fn show(w: &World, label: &str) {
    println!("--- {label} ---");
    for i in [2u16, 3, 4, 5] {
        let node = NodeId::new(i);
        let r = w.region(node);
        let lenders = r.lenders();
        println!(
            "region {i}: {:>6} MiB total ({:>5} MiB borrowed{}), node has {:>6} MiB of pool free",
            r.total_bytes() >> 20,
            r.borrowed_bytes() >> 20,
            if lenders.is_empty() {
                String::new()
            } else {
                format!(" from {lenders:?}")
            },
            (w.free_frames(node) * 4096) >> 20,
        );
    }
    println!();
}

fn main() {
    let mut w = World::new(ClusterConfig::prototype());
    let gib = |g: u64| g << 18; // GiB in 4 KiB frames

    show(
        &w,
        "boot: every region confined to its own node (Fig. 1, region 1)",
    );

    // Region 3 expands into B (node 2) and D (node 4).
    let r3b = w.reserve_remote(NodeId::new(3), gib(2), Some(NodeId::new(2)));
    let r3d = w.reserve_remote(NodeId::new(3), gib(1), Some(NodeId::new(4)));
    show(
        &w,
        "region 3 borrowed 2 GiB from node 2 and 1 GiB from node 4",
    );

    // Region 5 expands into D as well: two foreign regions coexist in D's
    // memory, each still a separate coherency domain.
    let r5d = w.reserve_remote(NodeId::new(5), gib(3), Some(NodeId::new(4)));
    show(
        &w,
        "region 5 borrowed 3 GiB from node 4 (regions 3 and 5 coexist in D)",
    );

    // The workload on node 3 finishes: shrink region 3, returning both zones.
    w.release_remote(NodeId::new(3), r3b);
    w.release_remote(NodeId::new(3), r3d);
    show(
        &w,
        "region 3 shrank back; node 2 and node 4 recovered the frames",
    );

    // And region 5 eventually releases too.
    w.release_remote(NodeId::new(5), r5d);
    show(&w, "all regions back to the default configuration");

    println!(
        "Note: throughout all of this, no cache outside the owning node ever\n\
         held data from a region — growing a region never grew the coherency\n\
         domain. That is the paper's core claim."
    );
}
