//! Cluster free-memory directory.
//!
//! The paper's Section III lists "augmenting the OS services so that
//! knowledge of the location of free memory across the cluster is achieved"
//! as a required component. This module is the donor choice that knowledge
//! serves: the nearest node with room. It keeps no record of its own; what
//! a node can lend is read from that node's [`crate::FrameAllocator`] by
//! the caller (`cohfree-core`'s `World::free_frames`), so no count can
//! drift from the grants.

use cohfree_fabric::{NodeId, Topology};

/// Choose a donor able to lend `frames` to `asker` (never `asker`
/// itself), where `free(node)` is what `node` can lend now: the closest
/// such node in fabric hops, ties broken by lower node id, which minimizes
/// remote-access latency. Returns `None` if no node can.
pub fn nearest_donor(
    topo: &Topology,
    asker: NodeId,
    frames: u64,
    free: impl Fn(NodeId) -> u64,
) -> Option<NodeId> {
    (1..=topo.num_nodes())
        .map(NodeId::new)
        .filter(|&n| n != asker && free(n) >= frames)
        .min_by_key(|&n| (topo.hops(asker, n), n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    /// The donor choice over per-node free counts (`free[i]` is node
    /// `i + 1`).
    fn choose(free: &[u64; 16], asker: NodeId, frames: u64) -> Option<NodeId> {
        nearest_donor(&Topology::prototype(), asker, frames, |d| free[d.index()])
    }

    #[test]
    fn nearest_prefers_neighbors() {
        // From corner node 1, neighbors are 2 and 5 (both 1 hop); lower id wins.
        assert_eq!(choose(&[100; 16], n(1), 10), Some(n(2)));
    }

    #[test]
    fn nearest_skips_exhausted_neighbors() {
        let mut free = [100; 16];
        free[n(2).index()] = 0;
        assert_eq!(choose(&free, n(1), 10), Some(n(5)));
        free[n(5).index()] = 5;
        // 5 has only 5 left; need 10 -> next ring: 3, 6, 9 (2 hops).
        assert_eq!(choose(&free, n(1), 10), Some(n(3)));
    }

    #[test]
    fn asker_never_chosen() {
        let mut free = [0; 16];
        free[n(1).index()] = 100;
        // Only the asker has frames left, and at 0 hops it is nearest.
        assert_eq!(choose(&free, n(1), 1), None);
    }
}
