//! Server-side (home-node) RMC datapath.
//!
//! When a request message reaches the home node, its RMC (1) spends
//! front-end processing time, (2) clears the 14 prefix bits, and (3) replays
//! the access against a local memory controller by generating the
//! appropriate HyperTransport message. Once the memory controller responds,
//! the RMC spends front-end time again and injects the response into the
//! fabric. The single shared front-end engine is what congests in the
//! paper's Fig. 8 when many clients stress one memory server.

use crate::addr::strip_prefix;
use crate::RmcConfig;
use cohfree_fabric::{Message, MsgKind, NodeId};
use cohfree_sim::queueing::FifoServer;
use cohfree_sim::stats::{Counter, LatencyHistogram};
use cohfree_sim::{SimDuration, SimTime};

/// The RMC instruction to the home node's memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemIssue {
    /// Local (prefix-stripped) physical address to access.
    pub local_addr: u64,
    /// Bytes to transfer.
    pub bytes: u32,
    /// True for stores.
    pub is_write: bool,
    /// Instant the access may start (after front-end processing).
    pub issue_at: SimTime,
}

/// The server-side Remote Memory Controller of one node.
#[derive(Debug)]
pub struct RmcServer {
    cfg: RmcConfig,
    node: NodeId,
    engine: FifoServer,
    requests: Counter,
    probes: Counter,
    stalls: Counter,
    service: LatencyHistogram,
}

impl RmcServer {
    /// The RMC serving memory of `node`.
    pub fn new(node: NodeId, cfg: RmcConfig) -> RmcServer {
        RmcServer {
            cfg,
            node,
            engine: FifoServer::new(),
            requests: Counter::new(),
            probes: Counter::new(),
            stalls: Counter::new(),
            service: LatencyHistogram::new(),
        }
    }

    /// The node whose memory this RMC serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A request message arrived from the fabric at `now`; returns the local
    /// memory access to perform.
    ///
    /// # Panics
    /// Panics if the message is not addressed to this node or is not a
    /// memory request: responses and snoop probes never reach the datapath.
    pub fn on_request(&mut self, now: SimTime, msg: &Message) -> MemIssue {
        assert_eq!(msg.dst, self.node, "misrouted message at server RMC");
        let (bytes, is_write) = match msg.kind {
            MsgKind::ReadReq { bytes } => (bytes, false),
            MsgKind::WriteReq { bytes } => (bytes, true),
            MsgKind::PageReq { bytes } => (bytes, false),
            MsgKind::PageWrite { bytes } => (bytes, true),
            MsgKind::CohReadReq { bytes } => (bytes, false),
            other => panic!("server RMC datapath got {other:?}"),
        };
        self.requests.inc();
        let issue_at = self.engine.accept(now, self.cfg.server_proc_time);
        MemIssue {
            local_addr: strip_prefix(msg.addr),
            bytes,
            is_write,
            issue_at,
        }
    }

    /// The local memory access for `req` finished at `now`; returns the
    /// response message and the instant it enters the fabric.
    pub fn on_mem_done(
        &mut self,
        now: SimTime,
        req: &Message,
        arrived_at: SimTime,
    ) -> (Message, SimTime) {
        let resp_kind = match req.kind {
            MsgKind::ReadReq { bytes } | MsgKind::CohReadReq { bytes } => {
                MsgKind::ReadResp { bytes }
            }
            MsgKind::WriteReq { .. } => MsgKind::WriteAck,
            MsgKind::PageReq { bytes } => MsgKind::PageResp { bytes },
            MsgKind::PageWrite { .. } => MsgKind::PageWriteAck,
            other => panic!("server RMC completing non-memory message {other:?}"),
        };
        let inject_at = self.engine.accept(now, self.cfg.server_proc_time);
        self.service.record(inject_at.since(arrived_at));
        (req.reply(resp_kind), inject_at)
    }

    /// Handle a snoop probe from a coherent-DSM home node: the member RMC
    /// spends a front-end pass checking its node's caches and answers.
    /// Returns the response and its fabric-injection instant.
    ///
    /// This is the per-member tax of extending coherency across nodes: every
    /// miss **anywhere** in the domain costs **every** member a front-end
    /// pass — the scalability wall the paper's architecture removes.
    pub fn on_probe(&mut self, now: SimTime, msg: &Message) -> (Message, SimTime) {
        assert_eq!(msg.kind, MsgKind::ProbeReq, "on_probe expects a ProbeReq");
        assert_eq!(msg.dst, self.node, "misrouted probe");
        self.probes.inc();
        let inject_at = self.engine.accept(now, self.cfg.server_proc_time);
        (msg.reply(MsgKind::ProbeResp), inject_at)
    }

    /// A probe response arrived back at this (home) node: the front-end
    /// spends a pass collating it. Returns when that pass completes.
    pub fn on_probe_response(&mut self, now: SimTime) -> SimTime {
        self.engine.accept(now, self.cfg.server_proc_time)
    }

    /// Inject a fault: the front-end engine goes busy for `duration`
    /// starting at `now` (firmware hiccup, ECC scrub storm, thermal
    /// throttle). All queued and subsequently arriving work waits it out —
    /// clients see it as a latency spike, possibly long enough to trip
    /// their loss timers.
    pub fn stall(&mut self, now: SimTime, duration: SimDuration) {
        self.stalls.inc();
        self.engine.accept(now, duration);
    }

    /// Injected front-end stalls so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Snoop probes served so far (coherent-DSM baseline only).
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Distribution of request residence time in this server (arrival to
    /// response injection).
    pub fn service_time(&self) -> &LatencyHistogram {
        &self.service
    }

    /// Front-end engine utilization over `[0, horizon]` — the congestion
    /// signal of Fig. 8.
    pub fn engine_utilization(&self, horizon: SimTime) -> f64 {
        self.engine.utilization(horizon)
    }

    /// Mean front-end queueing wait.
    pub fn mean_engine_wait(&self) -> cohfree_sim::SimDuration {
        self.engine.mean_wait()
    }

    /// Time-to-drain of the front-end engine's backlog as seen at `now`.
    pub fn engine_backlog(&self, now: SimTime) -> cohfree_sim::SimDuration {
        self.engine.backlog(now)
    }

    /// Serializable view of this server's counters, engine state and
    /// service-time distribution, with utilization computed against
    /// `horizon`.
    pub fn snapshot(&self, horizon: SimTime) -> cohfree_sim::Json {
        cohfree_sim::Json::obj([
            ("requests", self.requests.snapshot()),
            ("probes", self.probes.snapshot()),
            ("stalls", self.stalls.snapshot()),
            ("engine", self.engine.snapshot(horizon)),
            ("service", self.service.snapshot()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::encode;
    use cohfree_sim::SimDuration;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn server() -> RmcServer {
        RmcServer::new(n(3), RmcConfig::default())
    }

    fn read_req(addr: u64) -> Message {
        Message::with_addr(n(1), n(3), MsgKind::ReadReq { bytes: 64 }, 42, addr)
    }

    #[test]
    fn request_strips_prefix_and_pays_processing() {
        let mut s = server();
        let addr = encode(n(3), 0x4100_0000);
        let issue = s.on_request(SimTime::ZERO, &read_req(addr));
        assert_eq!(issue.local_addr, 0x4100_0000);
        assert_eq!(issue.bytes, 64);
        assert!(!issue.is_write);
        assert_eq!(
            issue.issue_at.since(SimTime::ZERO),
            RmcConfig::default().server_proc_time
        );
        assert_eq!(s.requests(), 1);
    }

    #[test]
    fn write_request_flagged() {
        let mut s = server();
        let addr = encode(n(3), 64);
        let msg = Message::with_addr(n(1), n(3), MsgKind::WriteReq { bytes: 64 }, 1, addr);
        let issue = s.on_request(SimTime::ZERO, &msg);
        assert!(issue.is_write);
    }

    #[test]
    fn completion_builds_matching_response() {
        let mut s = server();
        let req = read_req(encode(n(3), 128));
        let arrived = SimTime::ZERO;
        let issue = s.on_request(arrived, &req);
        let mem_done = issue.issue_at + SimDuration::ns(65);
        let (resp, inject_at) = s.on_mem_done(mem_done, &req, arrived);
        assert_eq!(resp.kind, MsgKind::ReadResp { bytes: 64 });
        assert_eq!(resp.src, n(3));
        assert_eq!(resp.dst, n(1));
        assert_eq!(resp.tag, req.tag);
        assert_eq!(inject_at, mem_done + RmcConfig::default().server_proc_time);
        assert_eq!(s.service_time().count(), 1);
    }

    #[test]
    fn page_messages_map_to_page_responses() {
        let mut s = server();
        let req = Message::with_addr(
            n(1),
            n(3),
            MsgKind::PageReq { bytes: 4096 },
            9,
            encode(n(3), 0x1000),
        );
        let issue = s.on_request(SimTime::ZERO, &req);
        assert_eq!(issue.bytes, 4096);
        let (resp, _) = s.on_mem_done(issue.issue_at, &req, SimTime::ZERO);
        assert_eq!(resp.kind, MsgKind::PageResp { bytes: 4096 });

        let wr = Message::with_addr(
            n(1),
            n(3),
            MsgKind::PageWrite { bytes: 4096 },
            10,
            encode(n(3), 0x2000),
        );
        let issue = s.on_request(SimTime::ZERO, &wr);
        assert!(issue.is_write);
        let (ack, _) = s.on_mem_done(issue.issue_at, &wr, SimTime::ZERO);
        assert_eq!(ack.kind, MsgKind::PageWriteAck);
    }

    #[test]
    fn back_to_back_requests_congest_the_engine() {
        let mut s = server();
        let proc = RmcConfig::default().server_proc_time;
        let a = s.on_request(SimTime::ZERO, &read_req(encode(n(3), 0)));
        let b = s.on_request(SimTime::ZERO, &read_req(encode(n(3), 64)));
        assert_eq!(a.issue_at.since(SimTime::ZERO), proc);
        assert_eq!(b.issue_at.since(SimTime::ZERO), proc * 2);
        assert!(s.mean_engine_wait() > SimDuration::ZERO);
    }

    #[test]
    fn stall_delays_subsequent_requests() {
        let mut s = server();
        let proc = RmcConfig::default().server_proc_time;
        let stall = SimDuration::us(5);
        s.stall(SimTime::ZERO, stall);
        assert_eq!(s.stalls(), 1);
        // A request arriving mid-stall queues behind the fault.
        let issue = s.on_request(
            SimTime::ZERO + SimDuration::ns(10),
            &read_req(encode(n(3), 0)),
        );
        assert_eq!(issue.issue_at, SimTime::ZERO + stall + proc);
    }

    #[test]
    #[should_panic(expected = "misrouted")]
    fn misrouted_message_panics() {
        let mut s = server();
        let msg = Message::with_addr(n(1), n(4), MsgKind::ReadReq { bytes: 64 }, 0, 0);
        s.on_request(SimTime::ZERO, &msg);
    }

    #[test]
    #[should_panic(expected = "server RMC datapath got")]
    fn os_message_rejected_by_datapath() {
        // Only memory requests reach the datapath; a response is refused.
        let mut s = server();
        let msg = Message::new(n(1), n(3), MsgKind::WriteAck, 0);
        s.on_request(SimTime::ZERO, &msg);
    }
}
