//! Packet forwarding with link contention.
//!
//! [`Fabric`] holds one FIFO-contended serializer per directed physical link
//! plus a fixed router traversal delay per hop. The owning event loop drives
//! a message across the network by repeatedly calling [`Fabric::step`]:
//!
//! ```text
//! inject at src ── step(src) ──▶ Forward{next, arrive}
//!                  step(next) ─▶ Forward{...}
//!                  step(dst)  ─▶ Deliver           (hand to the local RMC)
//! ```
//!
//! Each `step` charges the router delay, then queues the message's wire bytes
//! on the outgoing link's serializer (FIFO among all traffic sharing that
//! link) and adds the propagation latency. Because steps happen in global
//! simulated-time order, link FIFO order is exact.
//!
//! ## Hop fast path
//!
//! A healthy hop never calls [`Topology::next_hop`]. [`Fabric::new`]
//! precomputes every router's grid coordinates and, in each router's row,
//! the index of its link in each direction (+x, −x, +y, −y). A mesh or
//! torus hop is then a few coordinate compares and one indexed load; a
//! ring router has one link and a clique row is indexed by destination
//! id. The serialization time of small wire sizes is memoised. While an
//! outage is active the BFS route table and a scan of the row replace
//! all of this.
//!
//! Loss draws are per-link (seeded from the link's endpoints), not from one
//! global stream: each link's drop pattern depends only on its own traffic
//! order.

use crate::msg::{Message, NodeId};
use crate::topology::Topology;
use cohfree_sim::queueing::FifoServer;
use cohfree_sim::stats::Counter;
use cohfree_sim::{FastMap, FastSet, SimDuration, SimTime};
use std::collections::VecDeque;

/// Physical-layer timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Fixed switch/router traversal time per hop (FPGA-class by default).
    pub router_delay: SimDuration,
    /// Signal propagation + SerDes latency per link.
    pub link_latency: SimDuration,
    /// Link payload bandwidth in bytes per nanosecond (16-bit HT link
    /// ≈ 8 B/ns per direction at prototype clocks).
    pub bytes_per_ns: f64,
    /// Probability that a link traversal loses the message (bit error /
    /// buffer overrun). 0.0 (default) models the prototype's reliable
    /// board-to-board links; non-zero values drive the reliability study
    /// (`abl_reliability`), with recovery by RMC timeout/retransmission.
    pub loss_rate: f64,
    /// Seed for the deterministic loss process.
    pub loss_seed: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            router_delay: SimDuration::ns(60),
            link_latency: SimDuration::ns(20),
            bytes_per_ns: 8.0,
            loss_rate: 0.0,
            loss_seed: 0x10551055,
        }
    }
}

impl FabricConfig {
    /// Time to clock `bytes` onto a link.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::ns_f64(bytes as f64 / self.bytes_per_ns)
    }
}

/// Outcome of one routing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The message has reached its destination router; hand it to the local
    /// endpoint (RMC / OS) at the contained instant.
    Deliver {
        /// Delivery instant at the destination router.
        at: SimTime,
    },
    /// The message leaves on a link; call `step` again at `arrive` with
    /// position `next`.
    Forward {
        /// Router the message travels to.
        next: NodeId,
        /// Arrival instant at that router.
        arrive: SimTime,
    },
    /// The message is gone: the link lost it (non-zero
    /// [`FabricConfig::loss_rate`]), or no live route toward the
    /// destination exists (link/node outage). Recovery is the requester's
    /// problem either way.
    Dropped,
}

/// Per-directed-link state and statistics.
#[derive(Debug, Clone)]
struct Link {
    server: FifoServer,
    messages: Counter,
    bytes: Counter,
    /// Deterministic per-link loss stream. Seeded from the link's endpoints
    /// so a link's drop pattern depends only on its own traffic order.
    loss: cohfree_sim::Rng,
}

impl Link {
    fn new(cfg: &FabricConfig, u: NodeId, v: NodeId) -> Link {
        let lane = ((u.get() as u64) << 16) | v.get() as u64;
        let seed = cfg
            .loss_seed
            .wrapping_add(lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Link {
            server: FifoServer::new(),
            messages: Counter::new(),
            bytes: Counter::new(),
            loss: cohfree_sim::Rng::new(seed),
        }
    }
}

/// Grid directions, in the order [`FabricRow::dir`] stores them.
const PX: usize = 0;
const MX: usize = 1;
const PY: usize = 2;
const MY: usize = 3;
/// [`FabricRow::dir`] entry for a direction routing never takes.
const NO_LINK: u8 = u8::MAX;

/// Wire sizes below this many bytes are served from the serialization memo
/// in [`FabricShared`]; larger ones (whole pages) are computed per hop.
const SER_MEMO: u32 = 512;

/// The outgoing links of one source router, sorted by destination, so
/// snapshots enumerate links in `(from, to)` order without sorting.
///
/// A healthy mesh or torus hop finds its link through `dir`, precomputed by
/// [`Fabric::new`]; the degraded (rerouted) path and the per-link getters
/// find it by a short linear scan (router degree is ≤ 4 on the grids).
#[derive(Debug, Clone)]
struct FabricRow {
    links: Vec<(NodeId, Link)>,
    /// Index into `links` of the link leaving toward +x, −x, +y and −y;
    /// `NO_LINK` where routing never leaves that way (a mesh edge, or −x
    /// on a 2-wide torus, whose x-neighbor is reached going +x). The
    /// 2-wide torus lists that neighbor twice; the first entry wins, as in
    /// [`FabricRow::link_index`]. Unused on rings and cliques.
    dir: [u8; 4],
}

impl FabricRow {
    /// Index of the first link toward `v`, if any.
    #[inline]
    fn link_index(&self, v: NodeId) -> Option<usize> {
        self.links.iter().position(|&(n, _)| n == v)
    }

    #[inline]
    fn link(&self, v: NodeId) -> Option<&Link> {
        self.link_index(v).map(|i| &self.links[i].1)
    }

    /// Largest time-to-drain backlog across this router's outgoing links.
    fn max_backlog(&self, now: SimTime) -> SimDuration {
        self.links
            .iter()
            .map(|(_, l)| l.server.backlog(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Global delivery counters.
#[derive(Debug, Clone, Copy, Default)]
struct FabricCounters {
    delivered: Counter,
    total_hops: Counter,
    dropped: Counter,
    rerouted: Counter,
    unroutable: Counter,
}

/// Topology, timing and routing state: read-only while messages move,
/// mutated only by fault handling.
#[derive(Debug, Clone)]
struct FabricShared {
    topo: Topology,
    cfg: FabricConfig,
    /// Directed links administratively down (both directions of a failed
    /// cable appear here; a direction that is not a physical link is
    /// harmless dead weight).
    down_links: FastSet<(NodeId, NodeId)>,
    /// Routers that are down; every incident link is unusable.
    down_nodes: FastSet<NodeId>,
    /// Live next-hop table, rebuilt by BFS whenever the outage set changes.
    /// Empty while the fabric is healthy (dimension-order routing applies).
    routes: FastMap<(NodeId, NodeId), NodeId>,
    /// Grid coordinates of every router, indexed by node id (entry 0 is a
    /// placeholder); what a healthy grid hop compares instead of dividing.
    coords: Vec<(u16, u16)>,
    /// `cfg.serialization(b)` for every wire size `b < SER_MEMO`.
    ser: Box<[SimDuration]>,
}

impl FabricShared {
    /// True while any link or node outage is active.
    fn degraded(&self) -> bool {
        !self.down_links.is_empty() || !self.down_nodes.is_empty()
    }

    /// [`FabricConfig::serialization`], memoised for the small wire sizes
    /// of request, acknowledgement and cache-line messages.
    #[inline]
    fn serialization(&self, wire: u32) -> SimDuration {
        match self.ser.get(wire as usize) {
            Some(&d) => d,
            None => self.cfg.serialization(wire),
        }
    }

    /// Index in `row` (router `at`'s links) of the healthy dimension-order
    /// link toward `dst != at`: the link to [`Topology::next_hop`]`(at,
    /// dst)`, found by coordinate compares and one indexed load instead of
    /// dividing ids and scanning the row.
    #[inline]
    fn healthy_link(&self, row: &FabricRow, at: NodeId, dst: NodeId) -> usize {
        match self.grid_dir(at, dst) {
            Some(d) => row.dir[d] as usize,
            // A ring router has exactly one outgoing link.
            None if matches!(self.topo, Topology::Ring { .. }) => 0,
            // A clique row lists every other router in id order.
            None => dst.index() - usize::from(dst > at),
        }
    }

    /// Direction (`PX`, `MX`, `PY` or `MY`) of the dimension-order hop from
    /// `at` toward `dst != at` on a mesh or torus: X first, then Y; `None`
    /// on a ring or clique.
    #[inline]
    fn grid_dir(&self, at: NodeId, dst: NodeId) -> Option<usize> {
        let (width, height, wrap) = match self.topo {
            Topology::Mesh2D { width, height } => (width, height, false),
            Topology::Torus2D { width, height } => (width, height, true),
            Topology::Ring { .. } | Topology::FullyConnected { .. } => return None,
        };
        let (fx, fy) = self.coords[at.get() as usize];
        let (tx, ty) = self.coords[dst.get() as usize];
        Some(if fx != tx {
            if forward(fx, tx, width, wrap) {
                PX
            } else {
                MX
            }
        } else if forward(fy, ty, height, wrap) {
            PY
        } else {
            MY
        })
    }

    /// A directed link is usable iff it is physically present, not
    /// administratively down, and neither endpoint router is down.
    fn usable(&self, u: NodeId, v: NodeId) -> bool {
        !self.down_links.contains(&(u, v))
            && !self.down_nodes.contains(&u)
            && !self.down_nodes.contains(&v)
    }
}

/// True if dimension-order routing moves from grid coordinate `f` toward
/// `t != f` in the positive direction. On a mesh that is `t > f`; on a
/// torus dimension of extent `n` it is the shorter way round, ties going
/// positive, as [`Topology::next_hop`] decides.
#[inline]
fn forward(f: u16, t: u16, n: u16, wrap: bool) -> bool {
    if !wrap {
        return t > f;
    }
    let (f, t, n) = (u32::from(f), u32::from(t), u32::from(n));
    let steps_up = if t > f { t - f } else { t + n - f };
    2 * steps_up <= n
}

/// The interconnect: topology + contended links.
#[derive(Debug)]
pub struct Fabric {
    shared: FabricShared,
    counters: FabricCounters,
    /// `rows[u]` holds router `u`'s outgoing links, one row per node of the
    /// topology (`rows[0]` is an unused placeholder).
    rows: Vec<FabricRow>,
}

impl Fabric {
    /// Build a fabric over `topo` with physical parameters `cfg`, including
    /// the healthy-routing tables: per-router coordinates and, per row, the
    /// link in each grid direction (O(nodes × degree) work).
    pub fn new(topo: Topology, cfg: FabricConfig) -> Fabric {
        let n = topo.num_nodes();
        let mut rows: Vec<FabricRow> = (0..=n)
            .map(|_| FabricRow {
                links: Vec::new(),
                dir: [NO_LINK; 4],
            })
            .collect();
        let mut links = topo.links();
        links.sort_unstable_by_key(|&(u, v)| (u.get(), v.get()));
        for (u, v) in links {
            rows[u.get() as usize]
                .links
                .push((v, Link::new(&cfg, u, v)));
        }
        let shared = FabricShared {
            topo,
            cfg,
            down_links: FastSet::default(),
            down_nodes: FastSet::default(),
            routes: FastMap::default(),
            coords: std::iter::once((0, 0))
                .chain((1..=n).map(|i| topo.coords(NodeId::new(i))))
                .collect(),
            ser: (0..SER_MEMO).map(|b| cfg.serialization(b)).collect(),
        };
        // A grid link's direction is the one the fast path routes in toward
        // its far end. Where a row lists a neighbor twice (the 2-wide
        // torus), the first entry wins, as in the scan.
        for (u, row) in rows.iter_mut().enumerate().skip(1) {
            let u = NodeId::new(u as u16);
            for (i, &(v, _)) in row.links.iter().enumerate() {
                if let Some(d) = shared.grid_dir(u, v).filter(|&d| row.dir[d] == NO_LINK) {
                    row.dir[d] = i as u8;
                }
            }
        }
        Fabric {
            shared,
            counters: FabricCounters::default(),
            rows,
        }
    }

    /// Shared state of the directed link `u -> v`, if it physically exists.
    #[inline]
    fn link(&self, u: NodeId, v: NodeId) -> Option<&Link> {
        self.rows.get(u.get() as usize)?.link(v)
    }

    /// All physical directed links in `(from, to)` order.
    fn links_iter(&self) -> impl Iterator<Item = (NodeId, NodeId, &Link)> {
        // Row 0 is an empty placeholder, so `u.max(1)` never names a link.
        self.rows.iter().enumerate().flat_map(|(u, row)| {
            let u = NodeId::new(u.max(1) as u16);
            row.links.iter().map(move |(v, l)| (u, *v, l))
        })
    }

    /// Recompute shortest live routes: one BFS per destination over the
    /// usable reverse adjacency. Neighbor expansion is ordered by `NodeId`
    /// (the adjacency is index-based and built from the sorted physical
    /// link list), so among equal-cost detours the smallest-id next hop
    /// always wins — the table is a pure function of the outage set,
    /// independent of outage arrival order and hash-map iteration order.
    fn rebuild_routes(&mut self) {
        let sh = &mut self.shared;
        sh.routes.clear();
        if !sh.degraded() {
            return; // healthy fabric: dimension-order routing, no table.
        }
        let mut links = sh.topo.links();
        links.sort_unstable_by_key(|&(u, v)| (u.get(), v.get()));
        let n = sh.topo.num_nodes() as usize;
        // Reverse adjacency over usable links: radj[x] = all w with w -> x,
        // ascending by construction (links are sorted source-major).
        let mut radj: Vec<Vec<NodeId>> = vec![Vec::new(); n + 1];
        for &(u, v) in &links {
            if sh.usable(u, v) {
                radj[v.get() as usize].push(u);
            }
        }
        debug_assert!(radj
            .iter()
            .all(|p| p.windows(2).all(|w| w[0].get() < w[1].get())));
        let mut seen = vec![false; n + 1];
        for dst_i in 1..=n {
            let dst = NodeId::new(dst_i as u16);
            seen.iter_mut().for_each(|s| *s = false);
            seen[dst_i] = true;
            let mut q = VecDeque::from([dst]);
            while let Some(x) = q.pop_front() {
                for &w in &radj[x.get() as usize] {
                    if !seen[w.get() as usize] {
                        seen[w.get() as usize] = true;
                        sh.routes.insert((w, dst), x);
                        q.push_back(w);
                    }
                }
            }
        }
    }

    /// Take the bidirectional link between `a` and `b` down; traffic
    /// reroutes over the surviving topology (or drops as unroutable).
    ///
    /// # Panics
    /// Panics if `a -> b` is not a physical link of the topology.
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId) {
        assert!(
            self.shared.topo.links().contains(&(a, b)),
            "no physical link {a}->{b} to take down"
        );
        self.shared.down_links.insert((a, b));
        self.shared.down_links.insert((b, a));
        self.rebuild_routes();
    }

    /// Restore the bidirectional link between `a` and `b`.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId) {
        self.shared.down_links.remove(&(a, b));
        self.shared.down_links.remove(&(b, a));
        self.rebuild_routes();
    }

    /// Take a router down: every incident link becomes unusable and no
    /// message can be delivered to or forwarded through the node.
    /// Independent link outages are tracked separately and survive a later
    /// [`Fabric::set_node_up`].
    pub fn set_node_down(&mut self, node: NodeId) {
        self.shared.down_nodes.insert(node);
        self.rebuild_routes();
    }

    /// Bring a router back; only links downed via [`Fabric::set_link_down`]
    /// stay down.
    pub fn set_node_up(&mut self, node: NodeId) {
        self.shared.down_nodes.remove(&node);
        self.rebuild_routes();
    }

    /// True if `node`'s router is currently down.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.shared.down_nodes.contains(&node)
    }

    /// Number of bidirectional links currently forced down (node outages
    /// not included).
    pub fn links_down(&self) -> usize {
        self.shared.down_links.len() / 2
    }

    /// The topology this fabric implements.
    pub fn topology(&self) -> Topology {
        self.shared.topo
    }

    /// The physical configuration.
    pub fn config(&self) -> FabricConfig {
        self.shared.cfg
    }

    /// The smallest possible time between a send at one router and any
    /// consequence at another: one router traversal plus one link flight
    /// (serialization and queueing only add to it).
    pub fn min_hop_latency(&self) -> SimDuration {
        self.shared.cfg.router_delay + self.shared.cfg.link_latency
    }

    /// Advance `msg`, currently at router `at` at time `now`, by one step.
    ///
    /// With an active outage ([`Fabric::set_link_down`] /
    /// [`Fabric::set_node_down`]) the live BFS route table replaces
    /// dimension-order routing; a destination with no surviving path drops
    /// the message (`unroutable`) without charging any link.
    ///
    /// # Panics
    /// Panics if the route requires a link that does not exist (would
    /// indicate a routing bug — property tests pin this down).
    pub fn step(&mut self, now: SimTime, at: NodeId, msg: &Message) -> Step {
        self.step_traced(now, at, msg).0
    }

    /// [`Fabric::step`] plus the FIFO wait the message spent queued behind
    /// other traffic on the link serializer (zero for `Deliver`/`Dropped`
    /// outcomes and uncontended links). The span tracer uses the wait to
    /// split each hop into its wire and fabric-queue phases.
    pub fn step_traced(&mut self, now: SimTime, at: NodeId, msg: &Message) -> (Step, SimDuration) {
        let (shared, counters) = (&self.shared, &mut self.counters);
        let row = self
            .rows
            .get_mut(at.get() as usize)
            .unwrap_or_else(|| panic!("router {at} has no link row"));
        if at == msg.dst {
            counters.delivered.inc();
            return (Step::Deliver { at: now }, SimDuration::ZERO);
        }
        let idx = if shared.degraded() {
            let next = match shared.routes.get(&(at, msg.dst)) {
                Some(&hop) => {
                    if hop != shared.topo.next_hop(at, msg.dst) {
                        counters.rerouted.inc();
                    }
                    hop
                }
                None => {
                    counters.unroutable.inc();
                    counters.dropped.inc();
                    return (Step::Dropped, SimDuration::ZERO);
                }
            };
            row.link_index(next)
                .unwrap_or_else(|| panic!("no physical link {at}->{next}"))
        } else {
            shared.healthy_link(row, at, msg.dst)
        };
        let wire = msg.wire_bytes();
        let ser = shared.serialization(wire);
        let enq = now + shared.cfg.router_delay;
        let (next, link) = &mut row.links[idx];
        let next = *next;
        // Router traversal, then FIFO on the link serializer, then flight time.
        let depart = link.server.accept(enq, ser);
        let queued = depart.saturating_since(enq).saturating_sub(ser);
        link.messages.inc();
        link.bytes.add(wire as u64);
        counters.total_hops.inc();
        if shared.cfg.loss_rate > 0.0 && link.loss.chance(shared.cfg.loss_rate) {
            counters.dropped.inc();
            return (Step::Dropped, queued);
        }
        (
            Step::Forward {
                next,
                arrive: depart + shared.cfg.link_latency,
            },
            queued,
        )
    }

    /// Unloaded end-to-end traversal time for a message of `wire_bytes`
    /// over `hops` hops (no queueing). Used by the analytic model and as a
    /// lower bound in tests.
    pub fn unloaded_latency(&self, wire_bytes: u32, hops: u32) -> SimDuration {
        let per_hop = self.shared.cfg.router_delay
            + self.shared.cfg.serialization(wire_bytes)
            + self.shared.cfg.link_latency;
        per_hop * hops as u64
    }

    /// Messages delivered to their destination so far.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered.get()
    }

    /// Total link traversals (sum of per-message hop counts).
    pub fn total_hops(&self) -> u64 {
        self.counters.total_hops.get()
    }

    /// Messages lost so far (link errors plus unroutable drops).
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.get()
    }

    /// Hops taken that differ from the healthy dimension-order route
    /// (outage-induced detours).
    pub fn rerouted(&self) -> u64 {
        self.counters.rerouted.get()
    }

    /// Messages dropped because no live route to their destination existed.
    pub fn unroutable(&self) -> u64 {
        self.counters.unroutable.get()
    }

    /// Bytes carried by the directed link `u -> v` so far.
    pub fn link_bytes(&self, u: NodeId, v: NodeId) -> u64 {
        self.link(u, v).map_or(0, |l| l.bytes.get())
    }

    /// Messages carried by the directed link `u -> v` so far.
    pub fn link_messages(&self, u: NodeId, v: NodeId) -> u64 {
        self.link(u, v).map_or(0, |l| l.messages.get())
    }

    /// Utilization of the busiest directed link over `[0, horizon]`.
    pub fn max_link_utilization(&self, horizon: SimTime) -> f64 {
        self.links_iter()
            .map(|(_, _, l)| l.server.utilization(horizon))
            .fold(0.0, f64::max)
    }

    /// Largest time-to-drain backlog across links as seen at `now`.
    pub fn max_link_backlog(&self, now: SimTime) -> SimDuration {
        self.rows
            .iter()
            .map(|r| r.max_backlog(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Largest time-to-drain backlog across `node`'s *outgoing* links as
    /// seen at `now` — the recovery manager's fabric-pressure watermark
    /// signal for one router.
    pub fn node_link_backlog(&self, now: SimTime, node: NodeId) -> SimDuration {
        self.rows
            .get(node.get() as usize)
            .map_or(SimDuration::ZERO, |r| r.max_backlog(now))
    }

    /// Per-node isolation map under the current outage set: `out[id]` is
    /// true iff the node is down or every one of its incident links is
    /// unusable (a correlated link partition cut it off). Index 0 is an
    /// unused placeholder, mirroring the row layout.
    pub fn isolated_nodes(&self) -> Vec<bool> {
        let n = self.shared.topo.num_nodes() as usize;
        let mut isolated = vec![true; n + 1];
        isolated[0] = false;
        for (u, v) in self.shared.topo.links() {
            if self.shared.usable(u, v) {
                isolated[u.get() as usize] = false;
                isolated[v.get() as usize] = false;
            }
        }
        for &d in self.shared.down_nodes.iter() {
            if let Some(slot) = isolated.get_mut(d.get() as usize) {
                *slot = true;
            }
        }
        isolated
    }

    /// Mean queueing wait on the directed link `u -> v`.
    pub fn link_mean_wait(&self, u: NodeId, v: NodeId) -> SimDuration {
        self.link(u, v)
            .map_or(SimDuration::ZERO, |l| l.server.mean_wait())
    }

    /// Serializable view of delivery counters and per-link statistics, with
    /// utilization computed against `horizon`. Links are sorted by
    /// `(from, to)` so the output is stable across runs.
    pub fn snapshot(&self, horizon: SimTime) -> cohfree_sim::Json {
        use cohfree_sim::Json;
        let mut max_util = 0.0f64;
        // Rows are in ascending node order and each row is sorted by
        // destination, so this is already (from, to) order.
        let links = self
            .links_iter()
            .map(|(u, v, l)| {
                let util = l.server.utilization(horizon);
                max_util = max_util.max(util);
                Json::obj([
                    ("from", Json::from(u.get() as u64)),
                    ("to", Json::from(v.get() as u64)),
                    ("messages", l.messages.snapshot()),
                    ("bytes", l.bytes.snapshot()),
                    ("utilization", Json::from(util)),
                    ("mean_wait_ns", Json::from(l.server.mean_wait().as_ns_f64())),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("delivered", self.counters.delivered.snapshot()),
            ("total_hops", self.counters.total_hops.snapshot()),
            ("dropped", self.counters.dropped.snapshot()),
            ("rerouted", self.counters.rerouted.snapshot()),
            ("unroutable", self.counters.unroutable.snapshot()),
            ("links_down", Json::from(self.links_down() as u64)),
            (
                "nodes_down",
                Json::from(self.shared.down_nodes.len() as u64),
            ),
            ("max_link_utilization", Json::from(max_util)),
            ("links", Json::Arr(links)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn mk_fabric() -> Fabric {
        Fabric::new(Topology::prototype(), FabricConfig::default())
    }

    /// Walk a message all the way to delivery, returning (delivery time, hops).
    fn walk(f: &mut Fabric, start: SimTime, msg: Message) -> (SimTime, u32) {
        let mut at = msg.src;
        let mut now = start;
        let mut hops = 0;
        loop {
            match f.step(now, at, &msg) {
                Step::Deliver { at: t } => return (t, hops),
                Step::Forward { next, arrive } => {
                    at = next;
                    now = arrive;
                    hops += 1;
                }
                Step::Dropped => panic!("unexpected drop on a lossless fabric"),
            }
        }
    }

    #[test]
    fn delivery_time_matches_unloaded_model_when_idle() {
        let mut f = mk_fabric();
        let msg = Message::new(n(1), n(16), MsgKind::ReadReq { bytes: 64 }, 0);
        let (t, hops) = walk(&mut f, SimTime::ZERO, msg);
        assert_eq!(hops, 6);
        let expected = f.unloaded_latency(msg.wire_bytes(), 6);
        assert_eq!(t, SimTime::ZERO + expected);
        assert_eq!(f.delivered(), 1);
        assert_eq!(f.total_hops(), 6);
    }

    #[test]
    fn latency_grows_with_distance() {
        // Core of the paper's Fig. 6: farther servers -> higher latency.
        let mut prev = SimDuration::ZERO;
        for dst in [2u16, 3, 4, 8, 12, 16] {
            let mut f = mk_fabric();
            let msg = Message::new(n(1), n(dst), MsgKind::ReadReq { bytes: 64 }, 0);
            let (t, _) = walk(&mut f, SimTime::ZERO, msg);
            let lat = t.since(SimTime::ZERO);
            assert!(lat > prev, "dst {dst}: {lat} !> {prev}");
            prev = lat;
        }
    }

    #[test]
    fn contention_on_shared_link_serializes() {
        let mut f = mk_fabric();
        let m1 = Message::new(n(1), n(2), MsgKind::ReadResp { bytes: 4096 }, 1);
        let m2 = Message::new(n(1), n(2), MsgKind::ReadResp { bytes: 4096 }, 2);
        let (t1, _) = walk(&mut f, SimTime::ZERO, m1);
        let (t2, _) = walk(&mut f, SimTime::ZERO, m2);
        // Second message waits for the first's ~513ns serialization.
        let ser = f.config().serialization(m1.wire_bytes());
        assert_eq!(t2.since(t1), ser);
        assert_eq!(f.link_messages(n(1), n(2)), 2);
        assert_eq!(f.link_bytes(n(1), n(2)), 2 * m1.wire_bytes() as u64);
    }

    #[test]
    fn disjoint_links_do_not_interfere() {
        let mut f = mk_fabric();
        let m1 = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 1);
        let m2 = Message::new(n(5), n(6), MsgKind::ReadReq { bytes: 64 }, 2);
        let (t1, _) = walk(&mut f, SimTime::ZERO, m1);
        let (t2, _) = walk(&mut f, SimTime::ZERO, m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn responses_travel_the_reverse_path() {
        let mut f = mk_fabric();
        let req = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 7);
        let (t_req, _) = walk(&mut f, SimTime::ZERO, req);
        let resp = req.reply(MsgKind::ReadResp { bytes: 64 });
        let (t_resp, hops) = walk(&mut f, t_req, resp);
        assert_eq!(hops, 2);
        assert!(t_resp > t_req);
        // Request used 1->2->3; response uses 3->2->1.
        assert_eq!(f.link_messages(n(1), n(2)), 1);
        assert_eq!(f.link_messages(n(3), n(2)), 1);
        assert_eq!(f.link_messages(n(2), n(1)), 1);
    }

    #[test]
    fn utilization_reflects_traffic() {
        let mut f = mk_fabric();
        let horizon = SimTime::ZERO + SimDuration::us(10);
        for tag in 0..50 {
            let m = Message::new(n(1), n(2), MsgKind::ReadResp { bytes: 4096 }, tag);
            walk(&mut f, SimTime::ZERO, m);
        }
        let u = f.max_link_utilization(horizon);
        assert!(u > 0.1, "utilization {u} unexpectedly low");
        assert!(f.link_mean_wait(n(1), n(2)) > SimDuration::ZERO);
    }

    #[test]
    fn unloaded_latency_is_linear_in_hops() {
        let f = mk_fabric();
        let one = f.unloaded_latency(76, 1);
        let six = f.unloaded_latency(76, 6);
        assert_eq!(six, one * 6);
    }

    #[test]
    fn min_hop_latency_is_a_true_lower_bound() {
        let f = mk_fabric();
        let w = f.min_hop_latency();
        assert_eq!(w, f.config().router_delay + f.config().link_latency);
        // Any real hop (which adds serialization) takes at least W.
        assert!(f.unloaded_latency(1, 1) >= w);
        assert!(w > SimDuration::ZERO);
    }

    #[test]
    fn total_loss_drops_everything() {
        let cfg = FabricConfig {
            loss_rate: 1.0,
            ..FabricConfig::default()
        };
        let mut f = Fabric::new(Topology::prototype(), cfg);
        let msg = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 0);
        assert_eq!(f.step(SimTime::ZERO, n(1), &msg), Step::Dropped);
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.delivered(), 0);
    }

    #[test]
    fn partial_loss_is_deterministic_and_partial() {
        let run = || {
            let cfg = FabricConfig {
                loss_rate: 0.3,
                ..FabricConfig::default()
            };
            let mut f = Fabric::new(Topology::prototype(), cfg);
            let mut outcomes = Vec::new();
            for tag in 0..200 {
                let msg = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, tag);
                outcomes.push(matches!(f.step(SimTime::ZERO, n(1), &msg), Step::Dropped));
            }
            (outcomes, f.dropped())
        };
        let (o1, d1) = run();
        let (o2, d2) = run();
        assert_eq!(o1, o2, "loss process must be deterministic");
        assert_eq!(d1, d2);
        assert!(d1 > 20 && d1 < 120, "drop count {d1} implausible for p=0.3");
    }

    #[test]
    fn loss_streams_are_per_link_and_order_independent() {
        // A link's drop pattern must depend only on its own traffic order,
        // not on global interleaving. Interleave traffic on a second link
        // and check the first link's pattern is unchanged.
        let cfg = FabricConfig {
            loss_rate: 0.3,
            ..FabricConfig::default()
        };
        let pattern = |interleave: bool| {
            let mut f = Fabric::new(Topology::prototype(), cfg);
            let mut outcomes = Vec::new();
            for tag in 0..100 {
                if interleave {
                    let other = Message::new(n(5), n(6), MsgKind::ReadReq { bytes: 64 }, tag);
                    let _ = f.step(SimTime::ZERO, n(5), &other);
                }
                let msg = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, tag);
                outcomes.push(matches!(f.step(SimTime::ZERO, n(1), &msg), Step::Dropped));
            }
            outcomes
        };
        assert_eq!(pattern(false), pattern(true));
    }

    #[test]
    fn traffic_reroutes_around_a_downed_mesh_link() {
        let mut f = mk_fabric();
        f.set_link_down(n(1), n(2));
        // Healthy route 1->2->3 is cut; the detour still delivers.
        let msg = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 0);
        let (_, hops) = walk(&mut f, SimTime::ZERO, msg);
        assert_eq!(hops, 4, "shortest detour on the mesh is 4 hops");
        assert_eq!(f.delivered(), 1);
        assert!(f.rerouted() > 0, "detour must be counted as rerouted");
        assert_eq!(f.unroutable(), 0);
        assert_eq!(f.links_down(), 1);
        // Restoring the link restores dimension-order routing.
        f.set_link_up(n(1), n(2));
        let msg2 = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 1);
        let before = f.rerouted();
        let (_, hops2) = walk(&mut f, SimTime::ZERO, msg2);
        assert_eq!(hops2, 2);
        assert_eq!(f.rerouted(), before);
        assert_eq!(f.links_down(), 0);
    }

    #[test]
    fn reroute_tie_break_is_deterministic_and_history_independent() {
        // The BFS route table must be a pure function of the outage set:
        // identical whether an outage arrived directly or via a history of
        // other faults, and identical across repeated rebuilds. Downstream
        // timestamps depend on this.
        let direct = {
            let mut f = mk_fabric();
            f.set_link_down(n(6), n(7));
            f.shared.routes.clone()
        };
        let with_history = {
            let mut f = mk_fabric();
            f.set_node_down(n(11));
            f.set_link_down(n(1), n(2));
            f.set_link_up(n(1), n(2));
            f.set_node_up(n(11));
            f.set_link_down(n(6), n(7));
            f.shared.routes.clone()
        };
        assert_eq!(direct.len(), with_history.len());
        for (k, v) in &direct {
            assert_eq!(with_history.get(k), Some(v), "route {k:?} diverged");
        }
        // Equal-cost detours resolve to the smallest-id neighbor: from 6
        // toward 7 with 6->7 cut, both 2 (up) and 10 (down) give 3-hop
        // detours on the 4x4 mesh; the BFS must pick 2 every time.
        assert_eq!(direct.get(&(n(6), n(7))), Some(&n(2)));
        for _ in 0..5 {
            let mut f = mk_fabric();
            f.set_link_down(n(6), n(7));
            assert_eq!(f.shared.routes, direct);
        }
    }

    #[test]
    fn severed_destination_is_unroutable() {
        // A unidirectional ring has exactly one path; cutting it strands
        // the downstream neighbor.
        let mut f = Fabric::new(Topology::Ring { nodes: 5 }, FabricConfig::default());
        f.set_link_down(n(1), n(2));
        let msg = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 0);
        assert_eq!(f.step(SimTime::ZERO, n(1), &msg), Step::Dropped);
        assert_eq!(f.unroutable(), 1);
        assert_eq!(f.dropped(), 1);
        // The rest of the ring still works: 2 -> 1 rides 2->3->4->5->1.
        let msg2 = Message::new(n(2), n(1), MsgKind::ReadReq { bytes: 64 }, 1);
        let (_, hops) = walk(&mut f, SimTime::ZERO, msg2);
        assert_eq!(hops, 4);
    }

    #[test]
    fn node_down_blocks_delivery_and_transit_until_restored() {
        let mut f = mk_fabric();
        f.set_node_down(n(2));
        assert!(f.node_is_down(n(2)));
        // Messages *to* the dead router drop as unroutable.
        let to_dead = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 0);
        assert_eq!(f.step(SimTime::ZERO, n(1), &to_dead), Step::Dropped);
        assert!(f.unroutable() > 0);
        // Messages *through* it detour and deliver.
        let through = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 1);
        let (_, hops) = walk(&mut f, SimTime::ZERO, through);
        assert_eq!(hops, 4);
        // Restart heals everything; no residual link outages remain.
        f.set_node_up(n(2));
        assert!(!f.node_is_down(n(2)));
        let again = Message::new(n(1), n(2), MsgKind::ReadReq { bytes: 64 }, 2);
        let (_, hops) = walk(&mut f, SimTime::ZERO, again);
        assert_eq!(hops, 1);
    }

    #[test]
    fn node_restart_preserves_independent_link_outages() {
        let mut f = mk_fabric();
        f.set_link_down(n(5), n(6));
        f.set_node_down(n(2));
        f.set_node_up(n(2));
        // The cable cut predates (and outlives) the node crash.
        assert_eq!(f.links_down(), 1);
        let msg = Message::new(n(5), n(6), MsgKind::ReadReq { bytes: 64 }, 0);
        let (_, hops) = walk(&mut f, SimTime::ZERO, msg);
        assert!(hops > 1, "5->6 must detour around the cut cable");
    }

    #[test]
    fn reroute_counters_accumulate_across_repeated_link_flaps() {
        let mut f = mk_fabric();
        let mut expected_rerouted = 0;
        for flap in 0..5u64 {
            f.set_link_down(n(1), n(2));
            // Down: 1->3 detours (healthy route is 1->2->3, 4 hops around),
            // and every detour hop that differs from dimension-order counts.
            let msg = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, flap * 2);
            let before = f.rerouted();
            let (_, hops) = walk(&mut f, SimTime::ZERO, msg);
            assert_eq!(hops, 4, "flap {flap}: detour must be 4 hops");
            let gained = f.rerouted() - before;
            assert!(gained > 0, "flap {flap}: detour not counted");
            expected_rerouted += gained;
            assert_eq!(f.links_down(), 1);
            // Up: dimension-order routing returns, counter stays flat.
            f.set_link_up(n(1), n(2));
            let msg = Message::new(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, flap * 2 + 1);
            let before = f.rerouted();
            let (_, hops) = walk(&mut f, SimTime::ZERO, msg);
            assert_eq!(hops, 2, "flap {flap}: healthy route must return");
            assert_eq!(f.rerouted(), before, "flap {flap}: healthy hop counted");
            assert_eq!(f.links_down(), 0);
        }
        assert_eq!(f.rerouted(), expected_rerouted);
        assert_eq!(f.unroutable(), 0);
        assert_eq!(f.dropped(), 0);
        assert_eq!(f.delivered(), 10);
        // Flapping must not leak route-table state: a healthy fabric keeps
        // an empty table and the same counters as a never-flapped one.
        assert!(!f.shared.degraded());
        assert!(f.shared.routes.is_empty());
    }

    #[test]
    fn single_node_fabric_delivers_to_itself() {
        // A topology with no links still has a row for its one router.
        for topo in [
            Topology::Mesh2D {
                width: 1,
                height: 1,
            },
            Topology::Torus2D {
                width: 1,
                height: 1,
            },
            Topology::FullyConnected { nodes: 1 },
        ] {
            assert!(topo.links().is_empty(), "{topo:?}");
            let mut f = Fabric::new(topo, FabricConfig::default());
            let msg = Message::new(n(1), n(1), MsgKind::ReadReq { bytes: 64 }, 0);
            let now = SimTime::ZERO + SimDuration::ns(5);
            assert_eq!(f.step(now, n(1), &msg), Step::Deliver { at: now });
            assert_eq!(f.delivered(), 1);
            assert_eq!(f.node_link_backlog(now, n(1)), SimDuration::ZERO);
            assert_eq!(f.isolated_nodes(), vec![false, true]);
        }
    }

    #[test]
    fn fast_path_matches_next_hop_and_the_link_scan() {
        // Every shape the fast path distinguishes: 1-wide and odd meshes,
        // the 2-wide torus (one neighbor listed both ways), odd and even
        // tori, rings and a clique.
        let mesh = |width, height| Topology::Mesh2D { width, height };
        let torus = |width, height| Topology::Torus2D { width, height };
        let topologies = [
            mesh(1, 3),
            mesh(3, 1),
            mesh(5, 3),
            mesh(4, 4),
            mesh(16, 16),
            torus(2, 2),
            torus(3, 3),
            torus(4, 4),
            Topology::Ring { nodes: 2 },
            Topology::Ring { nodes: 5 },
            Topology::FullyConnected { nodes: 16 },
        ];
        for topo in topologies {
            let f = Fabric::new(topo, FabricConfig::default());
            let nodes = topo.num_nodes();
            for at in (1..=nodes).map(n) {
                let row = &f.rows[at.get() as usize];
                for dst in (1..=nodes).map(n).filter(|&d| d != at) {
                    let idx = f.shared.healthy_link(row, at, dst);
                    let want = topo.next_hop(at, dst);
                    assert_eq!(row.links[idx].0, want, "{topo:?}: {at}->{dst}");
                    // The same entry the scan finds: the first one toward
                    // `want`, which matters where a row lists it twice.
                    assert_eq!(Some(idx), row.link_index(want), "{topo:?}: {at}->{dst}");
                }
            }
        }
        // The 2-wide torus really does list each neighbor twice.
        let f = Fabric::new(
            Topology::Torus2D {
                width: 2,
                height: 2,
            },
            FabricConfig::default(),
        );
        let dests: Vec<NodeId> = f.rows[1].links.iter().map(|&(v, _)| v).collect();
        assert_eq!(dests, vec![n(2), n(2), n(3), n(3)]);
        assert_eq!(f.rows[1].dir, [0, NO_LINK, 2, NO_LINK]);
    }

    #[test]
    fn fast_path_resumes_after_a_link_flip() {
        let topo = Topology::prototype();
        let mut f = mk_fabric();
        let pairs: Vec<(NodeId, NodeId)> = (1..=16u16)
            .flat_map(|a| (1..=16u16).map(move |b| (n(a), n(b))))
            .filter(|(a, b)| a != b)
            .collect();
        let send_all = |f: &mut Fabric, base: u64| {
            for (tag, &(a, b)) in pairs.iter().enumerate() {
                let msg = Message::new(a, b, MsgKind::ReadReq { bytes: 64 }, base + tag as u64);
                walk(f, SimTime::ZERO, msg);
            }
        };
        f.set_link_down(n(6), n(7));
        send_all(&mut f, 0);
        let rerouted = f.rerouted();
        assert!(rerouted > 0);
        // Reference: the counters after the outage plus one charge per
        // link of every `Topology::route` once the link is back.
        let mut want: FastMap<(NodeId, NodeId), u64> = topo
            .links()
            .into_iter()
            .map(|(u, v)| ((u, v), f.link_messages(u, v)))
            .collect();
        for &(a, b) in &pairs {
            let mut cur = a;
            for hop in topo.route(a, b) {
                *want.get_mut(&(cur, hop)).expect("route uses a link") += 1;
                cur = hop;
            }
        }
        f.set_link_up(n(6), n(7));
        assert!(!f.shared.degraded());
        send_all(&mut f, 1_000);
        for (u, v) in topo.links() {
            let msgs = f.link_messages(u, v);
            assert_eq!(msgs, want[&(u, v)], "link {u}->{v}");
            assert_eq!(f.link_bytes(u, v), msgs * 12, "link {u}->{v}");
        }
        assert_eq!(f.rerouted(), rerouted, "healthy hops counted as detours");
        assert_eq!(f.delivered(), 2 * pairs.len() as u64);
    }

    #[test]
    fn memoised_serialization_is_the_config_function() {
        for bytes_per_ns in [8.0, 3.3, 0.7] {
            let cfg = FabricConfig {
                bytes_per_ns,
                ..FabricConfig::default()
            };
            let f = Fabric::new(Topology::prototype(), cfg);
            for wire in 0..2 * SER_MEMO {
                assert_eq!(f.shared.serialization(wire), cfg.serialization(wire));
            }
        }
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut f = mk_fabric();
        for tag in 0..100 {
            let msg = Message::new(n(1), n(16), MsgKind::ReadReq { bytes: 64 }, tag);
            walk(&mut f, SimTime::ZERO, msg);
        }
        assert_eq!(f.dropped(), 0);
        assert_eq!(f.delivered(), 100);
    }
}
