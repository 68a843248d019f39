//! Local DRAM timing.
//!
//! Each prototype node has four sockets, each socket owning a DDR2-800
//! memory controller for its 4 GiB of locally attached DIMMs. Physical
//! memory is split across sockets in contiguous ranges (the Opteron BAR
//! scheme of Fig. 2a). Each controller is a FIFO server: an access pays the
//! fixed DRAM access latency plus queueing behind earlier accesses to the
//! same controller, plus a per-burst occupancy while data is clocked out.

use cohfree_sim::queueing::FifoServer;
use cohfree_sim::stats::{Counter, LatencyHistogram};
use cohfree_sim::{SimDuration, SimTime};

/// DRAM controller timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct DramConfig {
    /// Sockets (= independent controllers) per node.
    pub sockets: u32,
    /// Bytes of memory attached to each socket.
    pub bytes_per_socket: u64,
    /// Fixed access latency (row activate + CAS + controller overhead).
    pub access_latency: SimDuration,
    /// Controller occupancy per 64-byte burst (limits throughput).
    pub burst_occupancy: SimDuration,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            sockets: 4,
            bytes_per_socket: 4 << 30, // 4 GiB, as in the prototype
            access_latency: SimDuration::ns(55),
            burst_occupancy: SimDuration::ns(10),
        }
    }
}

impl DramConfig {
    /// Total bytes of physical memory on the node.
    pub fn node_bytes(&self) -> u64 {
        self.bytes_per_socket * self.sockets as u64
    }

    /// Unloaded latency of a `bytes`-sized access (no queueing): one burst
    /// occupancy per 64 bytes plus the array access latency.
    pub fn unloaded_latency(&self, bytes: u32) -> SimDuration {
        let bursts = bytes.div_ceil(64).max(1) as u64;
        self.burst_occupancy * bursts + self.access_latency
    }
}

/// The node's local memory controllers.
#[derive(Debug)]
pub struct NodeMemory {
    cfg: DramConfig,
    controllers: Vec<FifoServer>,
    accesses: Counter,
    latency: LatencyHistogram,
}

impl NodeMemory {
    /// Build the controllers for one node.
    pub fn new(cfg: DramConfig) -> NodeMemory {
        assert!(cfg.sockets >= 1, "node needs at least one socket");
        NodeMemory {
            controllers: (0..cfg.sockets).map(|_| FifoServer::new()).collect(),
            cfg,
            accesses: Counter::new(),
            latency: LatencyHistogram::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Which socket's controller owns local physical address `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is beyond the node's physical memory — callers must
    /// pass only local addresses.
    pub fn socket_of(&self, addr: u64) -> u32 {
        let s = addr / self.cfg.bytes_per_socket;
        assert!(
            s < self.cfg.sockets as u64,
            "local address {addr:#x} beyond node memory"
        );
        s as u32
    }

    /// Perform a timed access of `bytes` at local physical `addr` starting
    /// at `now`; returns the completion instant.
    pub fn access(&mut self, now: SimTime, addr: u64, bytes: u32) -> SimTime {
        let socket = self.socket_of(addr) as usize;
        let bursts = bytes.div_ceil(64).max(1) as u64;
        let occupancy = self.cfg.burst_occupancy * bursts;
        // Queue for the controller, then pay the array access latency.
        let served = self.controllers[socket].accept(now, occupancy);
        let done = served + self.cfg.access_latency;
        self.accesses.inc();
        self.latency.record(done.since(now));
        done
    }

    /// Unloaded latency for a `bytes`-sized access (no queueing) — the
    /// analytic model's `L_local`.
    pub fn unloaded_latency(&self, bytes: u32) -> SimDuration {
        self.cfg.unloaded_latency(bytes)
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }

    /// Observed access-latency distribution.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Largest time-to-drain backlog across controllers as seen at `now`.
    pub fn max_backlog(&self, now: SimTime) -> SimDuration {
        self.controllers
            .iter()
            .map(|c| c.backlog(now))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Utilization of the busiest controller over `[0, horizon]`.
    pub fn max_utilization(&self, horizon: SimTime) -> f64 {
        self.controllers
            .iter()
            .map(|c| c.utilization(horizon))
            .fold(0.0, f64::max)
    }

    /// Serializable view of access counters, the latency distribution and
    /// per-socket controller statistics, with utilization computed against
    /// `horizon`.
    pub fn snapshot(&self, horizon: SimTime) -> cohfree_sim::Json {
        use cohfree_sim::Json;
        let controllers = self
            .controllers
            .iter()
            .map(|c| c.snapshot(horizon))
            .collect::<Vec<_>>();
        Json::obj([
            ("accesses", self.accesses.snapshot()),
            ("latency", self.latency.snapshot()),
            ("max_utilization", Json::from(self.max_utilization(horizon))),
            ("controllers", Json::Arr(controllers)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> NodeMemory {
        NodeMemory::new(DramConfig::default())
    }

    #[test]
    fn socket_ranges() {
        let m = mem();
        let per = DramConfig::default().bytes_per_socket;
        assert_eq!(m.socket_of(0), 0);
        assert_eq!(m.socket_of(per - 1), 0);
        assert_eq!(m.socket_of(per), 1);
        assert_eq!(m.socket_of(3 * per + 5), 3);
    }

    #[test]
    #[should_panic(expected = "beyond node memory")]
    fn out_of_range_address_panics() {
        mem().socket_of(DramConfig::default().node_bytes());
    }

    #[test]
    fn single_access_pays_unloaded_latency() {
        let mut m = mem();
        let t = m.access(SimTime::ZERO, 0, 64);
        assert_eq!(t.since(SimTime::ZERO), m.unloaded_latency(64));
        assert_eq!(m.accesses(), 1);
    }

    #[test]
    fn same_socket_accesses_queue() {
        let mut m = mem();
        let t1 = m.access(SimTime::ZERO, 0, 64);
        let t2 = m.access(SimTime::ZERO, 64, 64);
        // Second access starts its burst after the first's occupancy.
        assert_eq!(t2.since(t1), DramConfig::default().burst_occupancy);
    }

    #[test]
    fn different_sockets_run_in_parallel() {
        let mut m = mem();
        let per = DramConfig::default().bytes_per_socket;
        let t1 = m.access(SimTime::ZERO, 0, 64);
        let t2 = m.access(SimTime::ZERO, per, 64);
        assert_eq!(t1, t2);
    }

    #[test]
    fn large_access_occupies_longer() {
        let m = mem();
        let small = m.unloaded_latency(64);
        let page = m.unloaded_latency(4096);
        assert!(page > small);
        // 4096/64 = 64 bursts.
        assert_eq!(page - small, DramConfig::default().burst_occupancy * 63);
    }

    #[test]
    fn latency_histogram_records() {
        let mut m = mem();
        for i in 0..10 {
            m.access(SimTime::ZERO, i * 64, 64);
        }
        assert_eq!(m.latency().count(), 10);
        assert!(m.latency().mean_ns() >= m.unloaded_latency(64).as_ns_f64());
    }

    #[test]
    fn utilization_grows_with_load() {
        let mut m = mem();
        let horizon = SimTime::ZERO + SimDuration::us(1);
        for i in 0..50 {
            m.access(SimTime::ZERO, i * 64, 64);
        }
        assert!(m.max_utilization(horizon) > 0.4);
    }
}
