//! Cluster free-memory directory.
//!
//! The paper's Section III lists "augmenting the OS services so that
//! knowledge of the location of free memory across the cluster is achieved"
//! as a required component. This module is that service: a (logically
//! distributed, here centralized-for-determinism) view of how many pool
//! frames every node still has free, and the donor choice it serves: the
//! nearest node with room.

use cohfree_fabric::{NodeId, Topology};

/// The directory of free pool frames per node.
#[derive(Debug)]
pub struct Directory {
    topo: Topology,
    free: Vec<u64>,
}

impl Directory {
    /// Build a directory where every node starts with `frames_per_node`
    /// free pool frames.
    pub fn new(topo: Topology, frames_per_node: u64) -> Directory {
        Directory {
            free: vec![frames_per_node; topo.num_nodes() as usize],
            topo,
        }
    }

    /// Free frames recorded for `node`.
    pub fn free_frames(&self, node: NodeId) -> u64 {
        self.free[node.index()]
    }

    /// Total free frames across the cluster.
    pub fn total_free(&self) -> u64 {
        self.free.iter().sum()
    }

    /// Choose a donor able to lend `frames` to `asker` (never `asker`
    /// itself): the closest such node in fabric hops, ties broken by lower
    /// node id, which minimizes remote-access latency. Returns `None` if no
    /// node can.
    pub fn choose_donor(&self, asker: NodeId, frames: u64) -> Option<NodeId> {
        (1..=self.topo.num_nodes())
            .map(NodeId::new)
            .filter(|&n| n != asker && self.free[n.index()] >= frames)
            .min_by_key(|&n| (self.topo.hops(asker, n), n.get()))
    }

    /// Record that `donor` lent `frames`.
    ///
    /// # Panics
    /// Panics if the directory believes `donor` lacks the frames — callers
    /// must go through [`Directory::choose_donor`] or verify first.
    pub fn debit(&mut self, donor: NodeId, frames: u64) {
        let f = &mut self.free[donor.index()];
        assert!(*f >= frames, "directory underflow for {donor}");
        *f -= frames;
    }

    /// Record that `donor` got `frames` back.
    pub fn credit(&mut self, donor: NodeId, frames: u64) {
        self.free[donor.index()] += frames;
    }

    /// Overwrite `node`'s free-frame count. Failure handling uses this to
    /// zero a crashed donor (its pool is gone, grants and all) and to
    /// re-seed a restarted one.
    pub fn set_free(&mut self, node: NodeId, frames: u64) {
        self.free[node.index()] = frames;
    }

    /// Serializable view: total free frames and the per-node free counts
    /// (array index `i` is node `i + 1`).
    pub fn snapshot(&self) -> cohfree_sim::Json {
        use cohfree_sim::Json;
        Json::obj([
            ("total_free_frames", Json::from(self.total_free())),
            ("free_frames_per_node", Json::from(self.free.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn dir() -> Directory {
        Directory::new(Topology::prototype(), 100)
    }

    #[test]
    fn nearest_prefers_neighbors() {
        let d = dir();
        // From corner node 1, neighbors are 2 and 5 (both 1 hop); lower id wins.
        assert_eq!(d.choose_donor(n(1), 10), Some(n(2)));
    }

    #[test]
    fn nearest_skips_exhausted_neighbors() {
        let mut d = dir();
        d.debit(n(2), 100);
        assert_eq!(d.choose_donor(n(1), 10), Some(n(5)));
        d.debit(n(5), 95);
        // 5 has only 5 left; need 10 -> next ring: 3, 6, 9 (2 hops).
        assert_eq!(d.choose_donor(n(1), 10), Some(n(3)));
    }

    #[test]
    fn asker_never_chosen() {
        let mut d = dir();
        for i in 2..=16 {
            d.debit(n(i), 100);
        }
        // Only the asker has frames left, and at 0 hops it is nearest.
        assert_eq!(d.choose_donor(n(1), 1), None);
    }

    #[test]
    fn accounting_round_trips() {
        let mut d = dir();
        assert_eq!(d.total_free(), 1600);
        d.debit(n(4), 25);
        assert_eq!(d.free_frames(n(4)), 75);
        d.credit(n(4), 25);
        assert_eq!(d.total_free(), 1600);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn over_debit_panics() {
        dir().debit(n(2), 101);
    }
}
