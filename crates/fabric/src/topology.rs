//! Cluster topologies and minimal deterministic routing.
//!
//! The prototype wires its 16 nodes as a 4×4 2D mesh using four of the six
//! HTX-card connectors. We additionally provide a torus and a
//! fully-connected fabric for the topology ablation (the paper notes that
//! HT-over-Ethernet / HT-over-InfiniBand would allow indirect fabrics).
//!
//! Routing is **dimension-order (X then Y)** for mesh and torus — minimal and
//! deadlock-free — and direct on a fully-connected fabric. All routes are
//! deterministic, which the DES requires.

use crate::msg::NodeId;

/// A cluster interconnect topology.
///
/// ```
/// use cohfree_fabric::{NodeId, Topology};
///
/// let mesh = Topology::prototype(); // the paper's 4x4 mesh
/// let (a, b) = (NodeId::new(1), NodeId::new(16));
/// assert_eq!(mesh.hops(a, b), 6); // opposite corners
/// assert_eq!(mesh.route(a, b).len(), 6); // dimension-order, minimal
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `width × height` 2D mesh, dimension-order routed (the prototype:
    /// `Mesh2D { width: 4, height: 4 }`).
    Mesh2D {
        /// Nodes per row.
        width: u16,
        /// Rows.
        height: u16,
    },
    /// `width × height` 2D torus with wraparound links, dimension-order
    /// routed taking the shorter way around each dimension (ties go the
    /// positive direction).
    Torus2D {
        /// Nodes per row.
        width: u16,
        /// Rows.
        height: u16,
    },
    /// Every pair of nodes directly linked (models an ideal crossbar /
    /// indirect switch).
    FullyConnected {
        /// Nodes in the clique.
        nodes: u16,
    },
}

impl Topology {
    /// The prototype fabric: a 4×4 mesh of 16 nodes.
    pub fn prototype() -> Topology {
        Topology::Mesh2D {
            width: 4,
            height: 4,
        }
    }

    /// Number of nodes in the topology.
    pub fn num_nodes(&self) -> u16 {
        match *self {
            Topology::Mesh2D { width, height } | Topology::Torus2D { width, height } => {
                width * height
            }
            Topology::FullyConnected { nodes } => nodes,
        }
    }

    /// True if `n` is a valid node of this topology.
    pub fn contains(&self, n: NodeId) -> bool {
        n.get() <= self.num_nodes()
    }

    /// (x, y) grid coordinates for mesh/torus nodes (row-major, node 1 at
    /// (0,0)); for a fully-connected fabric, `(index, 0)`.
    pub fn coords(&self, n: NodeId) -> (u16, u16) {
        debug_assert!(self.contains(n), "{n} outside topology");
        match *self {
            Topology::Mesh2D { width, .. } | Topology::Torus2D { width, .. } => {
                let i = n.index() as u16;
                (i % width, i / width)
            }
            _ => (n.index() as u16, 0),
        }
    }

    /// Node at grid coordinates (mesh/torus only).
    pub fn node_at(&self, x: u16, y: u16) -> NodeId {
        match *self {
            Topology::Mesh2D { width, height } | Topology::Torus2D { width, height } => {
                assert!(x < width && y < height, "coords ({x},{y}) out of grid");
                NodeId::from_index((y * width + x) as usize)
            }
            _ => panic!("node_at() is only defined for grid topologies"),
        }
    }

    /// The next node on the (deterministic, minimal) route from `from`
    /// toward `to`. Returns `to` itself when directly connected.
    ///
    /// # Panics
    /// Panics if `from == to` (there is no hop to take).
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        assert_ne!(from, to, "next_hop called with from == to");
        debug_assert!(self.contains(from) && self.contains(to));
        match *self {
            Topology::Mesh2D { .. } => {
                let (fx, fy) = self.coords(from);
                let (tx, ty) = self.coords(to);
                // Dimension order: correct X first, then Y.
                if fx != tx {
                    let nx = if tx > fx { fx + 1 } else { fx - 1 };
                    self.node_at(nx, fy)
                } else {
                    let ny = if ty > fy { fy + 1 } else { fy - 1 };
                    self.node_at(fx, ny)
                }
            }
            Topology::Torus2D { width, height } => {
                let (fx, fy) = self.coords(from);
                let (tx, ty) = self.coords(to);
                if fx != tx {
                    let nx = Self::torus_step(fx, tx, width);
                    self.node_at(nx, fy)
                } else {
                    let ny = Self::torus_step(fy, ty, height);
                    self.node_at(fx, ny)
                }
            }
            Topology::FullyConnected { .. } => to,
        }
    }

    /// One torus step from `f` toward `t` in a dimension of extent `n`,
    /// taking the shorter way (ties break positive).
    fn torus_step(f: u16, t: u16, n: u16) -> u16 {
        let fwd = (t + n - f) % n; // steps going +1
        let bwd = (f + n - t) % n; // steps going -1
        if fwd <= bwd {
            (f + 1) % n
        } else {
            (f + n - 1) % n
        }
    }

    /// Number of hops on the route from `a` to `b` (0 when equal).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        match *self {
            Topology::Mesh2D { .. } => {
                let (ax, ay) = self.coords(a);
                let (bx, by) = self.coords(b);
                (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
            }
            Topology::Torus2D { width, height } => {
                let (ax, ay) = self.coords(a);
                let (bx, by) = self.coords(b);
                let dx = ax.abs_diff(bx).min(width - ax.abs_diff(bx));
                let dy = ay.abs_diff(by).min(height - ay.abs_diff(by));
                (dx + dy) as u32
            }
            Topology::FullyConnected { .. } => 1,
        }
    }

    /// All nodes exactly `d` hops from `from` (useful for placing memory
    /// servers at a chosen distance, as the paper's Fig. 7 does).
    pub fn nodes_at_distance(&self, from: NodeId, d: u32) -> Vec<NodeId> {
        (1..=self.num_nodes())
            .map(NodeId::new)
            .filter(|&n| n != from && self.hops(from, n) == d)
            .collect()
    }

    /// The full route from `a` to `b` (excluding `a`, including `b`).
    pub fn route(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = a;
        while cur != b {
            cur = self.next_hop(cur, b);
            path.push(cur);
            assert!(
                path.len() <= self.num_nodes() as usize,
                "routing loop from {a} to {b}"
            );
        }
        path
    }

    /// Directed neighbor pairs `(u, v)` for which a physical link exists.
    pub fn links(&self) -> Vec<(NodeId, NodeId)> {
        let n = self.num_nodes();
        let mut out = Vec::new();
        match *self {
            Topology::Mesh2D { width, height } | Topology::Torus2D { width, height } => {
                let wrap = matches!(self, Topology::Torus2D { .. });
                for y in 0..height {
                    for x in 0..width {
                        let u = self.node_at(x, y);
                        let mut push = |v: NodeId| {
                            out.push((u, v));
                        };
                        if x + 1 < width {
                            push(self.node_at(x + 1, y));
                        } else if wrap && width > 1 {
                            push(self.node_at(0, y));
                        }
                        if x > 0 {
                            push(self.node_at(x - 1, y));
                        } else if wrap && width > 1 {
                            push(self.node_at(width - 1, y));
                        }
                        if y + 1 < height {
                            push(self.node_at(x, y + 1));
                        } else if wrap && height > 1 {
                            push(self.node_at(x, 0));
                        }
                        if y > 0 {
                            push(self.node_at(x, y - 1));
                        } else if wrap && height > 1 {
                            push(self.node_at(x, height - 1));
                        }
                    }
                }
            }
            Topology::FullyConnected { .. } => {
                for u in 1..=n {
                    for v in 1..=n {
                        if u != v {
                            out.push((NodeId::new(u), NodeId::new(v)));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn prototype_is_4x4() {
        let t = Topology::prototype();
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.coords(n(1)), (0, 0));
        assert_eq!(t.coords(n(4)), (3, 0));
        assert_eq!(t.coords(n(5)), (0, 1));
        assert_eq!(t.coords(n(16)), (3, 3));
        assert_eq!(t.node_at(3, 3), n(16));
    }

    #[test]
    fn mesh_hops_are_manhattan() {
        let t = Topology::prototype();
        assert_eq!(t.hops(n(1), n(1)), 0);
        assert_eq!(t.hops(n(1), n(2)), 1);
        assert_eq!(t.hops(n(1), n(16)), 6);
        assert_eq!(t.hops(n(4), n(13)), 6);
        assert_eq!(t.hops(n(6), n(11)), 2);
    }

    #[test]
    fn mesh_route_is_x_then_y() {
        let t = Topology::prototype();
        // 1 (0,0) -> 11 (2,2): expect x-steps to (2,0) then y-steps.
        let route = t.route(n(1), n(11));
        assert_eq!(route, vec![n(2), n(3), n(7), n(11)]);
    }

    #[test]
    fn mesh_routes_are_minimal() {
        let t = Topology::prototype();
        for a in 1..=16 {
            for b in 1..=16 {
                if a == b {
                    continue;
                }
                let (a, b) = (n(a), n(b));
                assert_eq!(t.route(a, b).len() as u32, t.hops(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn torus_wraps() {
        let t = Topology::Torus2D {
            width: 4,
            height: 4,
        };
        // (0,0) -> (3,0) is 1 hop the short way around.
        assert_eq!(t.hops(n(1), n(4)), 1);
        assert_eq!(t.next_hop(n(1), n(4)), n(4));
        // Opposite corner: 2 + 2 = 4 hops.
        assert_eq!(t.hops(n(1), n(11)), 4);
    }

    #[test]
    fn torus_routes_are_minimal() {
        let t = Topology::Torus2D {
            width: 4,
            height: 4,
        };
        for a in 1..=16 {
            for b in 1..=16 {
                if a == b {
                    continue;
                }
                let (a, b) = (n(a), n(b));
                assert_eq!(t.route(a, b).len() as u32, t.hops(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn fully_connected_is_one_hop() {
        let t = Topology::FullyConnected { nodes: 16 };
        for a in 1..=16 {
            for b in 1..=16 {
                if a != b {
                    assert_eq!(t.hops(n(a), n(b)), 1);
                    assert_eq!(t.next_hop(n(a), n(b)), n(b));
                }
            }
        }
    }

    #[test]
    fn nodes_at_distance() {
        let t = Topology::prototype();
        // From corner node 1: exactly two nodes at distance 1 (n2, n5).
        let d1 = t.nodes_at_distance(n(1), 1);
        assert_eq!(d1, vec![n(2), n(5)]);
        // Farthest corner is alone at distance 6.
        assert_eq!(t.nodes_at_distance(n(1), 6), vec![n(16)]);
        // Distances partition the other 15 nodes.
        let total: usize = (1..=6).map(|d| t.nodes_at_distance(n(1), d).len()).sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn mesh_links_count() {
        // 4x4 mesh: 2 * (3*4 + 3*4) = 48 directed links.
        assert_eq!(Topology::prototype().links().len(), 48);
        // Torus adds wraparounds: every node has 4 out-links -> 64.
        assert_eq!(
            Topology::Torus2D {
                width: 4,
                height: 4
            }
            .links()
            .len(),
            64
        );
        assert_eq!(Topology::FullyConnected { nodes: 4 }.links().len(), 12);
    }

    #[test]
    fn links_are_between_adjacent_nodes() {
        let t = Topology::prototype();
        for (u, v) in t.links() {
            assert_eq!(t.hops(u, v), 1, "link {u}->{v} not unit distance");
        }
    }

    #[test]
    #[should_panic(expected = "from == to")]
    fn next_hop_same_node_panics() {
        Topology::prototype().next_hop(n(1), n(1));
    }
}
