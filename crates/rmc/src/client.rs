//! Client-side RMC datapath.
//!
//! The requesting node's RMC accepts load/store transactions whose address
//! carries a non-zero node prefix, turns each into a fabric message, and
//! matches responses back to the issuing core by tag.
//!
//! Two properties of the prototype are modelled faithfully because the
//! paper's Fig. 7 and Fig. 8 hinge on them:
//!
//! 1. **A single front-end engine** processes *both* outgoing requests and
//!    incoming responses, each costing [`crate::RmcConfig::proc_time`]. A
//!    read transaction therefore consumes two engine passes at the client —
//!    which is why the client RMC saturates at roughly the demand of two
//!    cores, and why a saturated client is *insensitive to server distance*
//!    (Fig. 7's counter-intuitive right-hand group: throughput is pinned by
//!    the engine, not the path).
//! 2. **Bounded request slots** with NACK/retry arbitration: an offer made
//!    while all slots are held is rejected and the core must re-offer after
//!    [`crate::RmcConfig::retry_interval`].

use crate::RmcConfig;
use cohfree_fabric::{Message, MsgKind, NodeId};
use cohfree_sim::queueing::FifoServer;
use cohfree_sim::stats::{Counter, LatencyHistogram};
use cohfree_sim::{FastSet, SimDuration, SimTime};

/// Outcome of offering a transaction to the client RMC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// Accepted: inject `msg` into the fabric at `inject_at`.
    Accepted {
        /// The fabric message to inject.
        msg: Message,
        /// Instant the message enters the fabric.
        inject_at: SimTime,
    },
    /// All request slots busy; re-offer no earlier than `retry_at`.
    Nacked {
        /// Earliest instant to re-offer.
        retry_at: SimTime,
    },
}

/// A completed transaction, reported when the response has been processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Tag of the original request.
    pub tag: u64,
    /// Instant the issuing core observes completion.
    pub done_at: SimTime,
    /// End-to-end latency from submission to completion.
    pub latency: SimDuration,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    submitted_at: SimTime,
}

/// The client-side Remote Memory Controller of one node.
#[derive(Debug)]
pub struct RmcClient {
    cfg: RmcConfig,
    node: NodeId,
    engine: FifoServer,
    /// Pending transactions as `(tag, info)` pairs. The slot count is tiny
    /// (the prototype arbitration bound), so a linear scan over a flat
    /// vector beats a hash map and allocates nothing per transaction after
    /// the first few submissions.
    in_flight: Vec<(u64, InFlight)>,
    next_tag: u64,
    nacks: Counter,
    reads: Counter,
    writes: Counter,
    completions: Counter,
    retransmissions: Counter,
    duplicates: Counter,
    aborted: Counter,
    suspects: FastSet<NodeId>,
    /// Accesses the OS deferred because the recovery manager load-shed
    /// their home; the manager's set is the one record of which homes are
    /// shed.
    shed_deferrals: Counter,
    latency: LatencyHistogram,
}

impl RmcClient {
    /// The RMC installed in `node`.
    ///
    /// Tags issued by this client are made globally unique by folding the
    /// node id into the high bits, so responses arriving at a shared
    /// dispatcher can never collide across nodes.
    pub fn new(node: NodeId, cfg: RmcConfig) -> RmcClient {
        RmcClient {
            cfg,
            node,
            engine: FifoServer::new(),
            in_flight: Vec::new(),
            next_tag: (node.get() as u64) << 48,
            nacks: Counter::new(),
            reads: Counter::new(),
            writes: Counter::new(),
            completions: Counter::new(),
            retransmissions: Counter::new(),
            duplicates: Counter::new(),
            aborted: Counter::new(),
            suspects: FastSet::default(),
            shed_deferrals: Counter::new(),
            latency: LatencyHistogram::new(),
        }
    }

    /// The node this RMC lives in.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Offer a transaction at `now`: a `kind` access to prefixed physical
    /// address `addr` homed at `dst`.
    ///
    /// # Panics
    /// Panics if `dst` is this node — loopback traffic indicates a broken
    /// reservation (see [`crate::addr`]).
    pub fn submit(&mut self, now: SimTime, dst: NodeId, kind: MsgKind, addr: u64) -> Submit {
        assert_ne!(
            dst, self.node,
            "client RMC asked to reach its own node (loopback)"
        );
        if self.in_flight.len() >= self.cfg.request_slots {
            self.nacks.inc();
            return Submit::Nacked {
                retry_at: now + self.cfg.retry_interval,
            };
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        self.in_flight.push((tag, InFlight { submitted_at: now }));
        match kind {
            MsgKind::ReadReq { .. } | MsgKind::PageReq { .. } | MsgKind::CohReadReq { .. } => {
                self.reads.inc()
            }
            MsgKind::WriteReq { .. } | MsgKind::PageWrite { .. } => self.writes.inc(),
            _ => {}
        }
        let inject_at = self.engine.accept(now, self.cfg.proc_time);
        Submit::Accepted {
            msg: Message::with_addr(self.node, dst, kind, tag, addr),
            inject_at,
        }
    }

    /// A response message arrived from the fabric at `now`.
    ///
    /// Returns `None` for a duplicate response — possible under loss
    /// recovery, when a retransmitted request races a response that was
    /// merely slow (the engine still spends a processing pass discarding
    /// it, as real hardware would).
    ///
    /// # Panics
    /// Panics if the message is not a response kind.
    pub fn on_response(&mut self, now: SimTime, msg: &Message) -> Option<Completion> {
        assert!(
            msg.kind.is_response(),
            "client RMC received non-response {:?}",
            msg.kind
        );
        let Some(idx) = self.in_flight.iter().position(|&(t, _)| t == msg.tag) else {
            self.duplicates.inc();
            self.engine.accept(now, self.cfg.proc_time);
            return None;
        };
        let (_, info) = self.in_flight.swap_remove(idx);
        let done_at = self.engine.accept(now, self.cfg.proc_time);
        let latency = done_at.since(info.submitted_at);
        self.completions.inc();
        self.latency.record(latency);
        Some(Completion {
            tag: msg.tag,
            done_at,
            latency,
        })
    }

    /// Retransmit a still-pending request after a loss-recovery timeout:
    /// the engine spends a processing pass rebuilding the packet; the
    /// original slot and tag stay allocated. Returns the re-injection time.
    ///
    /// # Panics
    /// Panics if `tag` is not in flight (completed transactions must not be
    /// retransmitted — the caller checks first).
    pub fn retransmit(&mut self, now: SimTime, tag: u64) -> SimTime {
        assert!(
            self.is_pending(tag),
            "retransmit of non-pending tag {tag:#x}"
        );
        self.retransmissions.inc();
        self.engine.accept(now, self.cfg.proc_time)
    }

    /// Abort a pending transaction: the retry budget to its home node is
    /// exhausted and failure detection has given up on it. Frees the slot
    /// without a completion; a response that arrives later is discarded as
    /// a duplicate. Returns `true` if the tag was pending.
    pub fn abort(&mut self, tag: u64) -> bool {
        if let Some(idx) = self.in_flight.iter().position(|&(t, _)| t == tag) {
            self.in_flight.swap_remove(idx);
            self.aborted.inc();
            true
        } else {
            false
        }
    }

    /// Mark `node` as suspect after exhausting the retry budget; the OS
    /// fails accesses to it fast instead of burning retransmissions.
    pub fn mark_suspect(&mut self, node: NodeId) {
        self.suspects.insert(node);
    }

    /// Clear a suspicion (the node restarted).
    pub fn clear_suspect(&mut self, node: NodeId) {
        self.suspects.remove(&node);
    }

    /// True if `node` is currently declared suspect by this client.
    pub fn is_suspect(&self, node: NodeId) -> bool {
        self.suspects.contains(&node)
    }

    /// Record one access deferred by admission control.
    pub fn note_shed_deferral(&mut self) {
        self.shed_deferrals.add(1);
    }

    /// Accesses deferred by admission control so far.
    pub fn shed_deferrals(&self) -> u64 {
        self.shed_deferrals.get()
    }

    /// Transactions aborted by failure detection so far.
    pub fn aborted(&self) -> u64 {
        self.aborted.get()
    }

    /// True if `tag` is still awaiting its response.
    pub fn is_pending(&self, tag: u64) -> bool {
        self.in_flight.iter().any(|&(t, _)| t == tag)
    }

    /// Transactions currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// NACKed offers so far.
    pub fn nacks(&self) -> u64 {
        self.nacks.get()
    }

    /// Completed transactions so far.
    pub fn completions(&self) -> u64 {
        self.completions.get()
    }

    /// Loss-recovery retransmissions so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions.get()
    }

    /// Duplicate responses discarded so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates.get()
    }

    /// Read-class submissions so far.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Write-class submissions so far.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// End-to-end transaction latency distribution.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Front-end engine utilization over `[0, horizon]`.
    pub fn engine_utilization(&self, horizon: SimTime) -> f64 {
        self.engine.utilization(horizon)
    }

    /// Time-to-drain of the front-end engine's backlog as seen at `now`.
    pub fn engine_backlog(&self, now: SimTime) -> SimDuration {
        self.engine.backlog(now)
    }

    /// Serializable view of this client's counters, engine state and
    /// latency distribution, with utilization computed against `horizon`.
    /// `shed_targets` is the number of homes currently load-shed, which
    /// the recovery manager records for every client alike.
    pub fn snapshot(&self, horizon: SimTime, shed_targets: usize) -> cohfree_sim::Json {
        cohfree_sim::Json::obj([
            ("reads", self.reads.snapshot()),
            ("writes", self.writes.snapshot()),
            ("completions", self.completions.snapshot()),
            ("nacks", self.nacks.snapshot()),
            ("retransmissions", self.retransmissions.snapshot()),
            ("duplicates", self.duplicates.snapshot()),
            ("aborted", self.aborted.snapshot()),
            ("suspects", cohfree_sim::Json::from(self.suspects.len())),
            ("shed_targets", cohfree_sim::Json::from(shed_targets)),
            ("shed_deferrals", self.shed_deferrals.snapshot()),
            ("in_flight", cohfree_sim::Json::from(self.in_flight.len())),
            ("engine", self.engine.snapshot(horizon)),
            ("latency", self.latency.snapshot()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn client() -> RmcClient {
        RmcClient::new(n(1), RmcConfig::default())
    }

    fn read64() -> MsgKind {
        MsgKind::ReadReq { bytes: 64 }
    }

    #[test]
    fn accepted_request_pays_processing_time() {
        let mut c = client();
        match c.submit(SimTime::ZERO, n(2), read64(), 123) {
            Submit::Accepted { msg, inject_at } => {
                assert_eq!(msg.src, n(1));
                assert_eq!(msg.dst, n(2));
                assert_eq!(msg.addr, 123);
                assert_eq!(
                    inject_at.since(SimTime::ZERO),
                    RmcConfig::default().proc_time
                );
            }
            Submit::Nacked { .. } => panic!("idle RMC must accept"),
        }
        assert_eq!(c.in_flight(), 1);
        assert_eq!(c.reads(), 1);
    }

    #[test]
    fn tags_are_unique_and_node_scoped() {
        let mut c1 = RmcClient::new(n(1), RmcConfig::default());
        let mut c2 = RmcClient::new(n(2), RmcConfig::default());
        let m1 = match c1.submit(SimTime::ZERO, n(3), read64(), 0) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        let m2 = match c2.submit(SimTime::ZERO, n(3), read64(), 0) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        assert_ne!(m1.tag, m2.tag);
        assert_eq!(m1.tag >> 48, 1);
        assert_eq!(m2.tag >> 48, 2);
    }

    #[test]
    fn full_slots_nack_with_retry_hint() {
        let cfg = RmcConfig {
            request_slots: 2,
            ..RmcConfig::default()
        };
        let mut c = RmcClient::new(n(1), cfg);
        c.submit(SimTime::ZERO, n(2), read64(), 0);
        c.submit(SimTime::ZERO, n(2), read64(), 64);
        match c.submit(SimTime::ZERO, n(2), read64(), 128) {
            Submit::Nacked { retry_at } => {
                assert_eq!(retry_at.since(SimTime::ZERO), cfg.retry_interval);
            }
            Submit::Accepted { .. } => panic!("third offer must NACK"),
        }
        assert_eq!(c.nacks(), 1);
        assert_eq!(c.in_flight(), 2);
    }

    #[test]
    fn nacks_do_not_consume_engine_time() {
        // An arbitration reject happens at the bus interface; the engine
        // must stay available for in-flight work.
        let cfg = RmcConfig {
            request_slots: 1,
            ..RmcConfig::default()
        };
        let mut c = RmcClient::new(n(1), cfg);
        c.submit(SimTime::ZERO, n(2), read64(), 0);
        let horizon = SimTime::ZERO + SimDuration::us(2);
        let before = c.engine_utilization(horizon);
        for _ in 0..10 {
            c.submit(SimTime::ZERO, n(2), read64(), 0);
        }
        assert_eq!(c.engine_utilization(horizon), before);
        assert_eq!(c.nacks(), 10);
    }

    #[test]
    fn response_completes_and_measures_latency() {
        let mut c = client();
        let msg = match c.submit(SimTime::ZERO, n(2), read64(), 77) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        let resp = msg.reply(MsgKind::ReadResp { bytes: 64 });
        let arrive = SimTime::ZERO + SimDuration::ns(1_000);
        let done = c
            .on_response(arrive, &resp)
            .expect("first response completes");
        assert_eq!(done.tag, msg.tag);
        assert_eq!(done.done_at, arrive + RmcConfig::default().proc_time);
        assert_eq!(done.latency, done.done_at.since(SimTime::ZERO));
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.completions(), 1);
        assert_eq!(c.latency().count(), 1);
    }

    #[test]
    fn request_and_response_share_the_engine() {
        // Submit a request, then deliver a response for it at the same
        // instant a second request is submitted: the two must serialize on
        // the single front-end engine.
        let mut c = client();
        let proc = RmcConfig::default().proc_time;
        let m1 = match c.submit(SimTime::ZERO, n(2), read64(), 0) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        let t = SimTime::ZERO + SimDuration::us(1);
        let done = c
            .on_response(t, &m1.reply(MsgKind::ReadResp { bytes: 64 }))
            .expect("completes");
        let second = c.submit(t, n(2), read64(), 64);
        match second {
            Submit::Accepted { inject_at, .. } => {
                assert_eq!(inject_at, done.done_at + proc, "must queue behind response");
            }
            _ => panic!("slot is free, must accept"),
        }
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_submission_panics() {
        client().submit(SimTime::ZERO, n(1), read64(), 0);
    }

    #[test]
    fn duplicate_response_is_discarded_not_fatal() {
        let mut c = client();
        let msg = match c.submit(SimTime::ZERO, n(2), read64(), 0) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        let resp = msg.reply(MsgKind::ReadResp { bytes: 64 });
        let t = SimTime::ZERO + SimDuration::us(1);
        assert!(c.on_response(t, &resp).is_some());
        // The same response arrives again (loss-recovery race).
        assert!(c.on_response(t + SimDuration::us(1), &resp).is_none());
        assert_eq!(c.duplicates(), 1);
        assert_eq!(c.completions(), 1);
    }

    #[test]
    fn retransmit_keeps_slot_and_counts() {
        let mut c = client();
        let msg = match c.submit(SimTime::ZERO, n(2), read64(), 0) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        assert!(c.is_pending(msg.tag));
        let t = SimTime::ZERO + SimDuration::us(30);
        let reinject = c.retransmit(t, msg.tag);
        assert!(reinject >= t + RmcConfig::default().proc_time);
        assert_eq!(c.retransmissions(), 1);
        assert_eq!(c.in_flight(), 1, "slot stays allocated");
        // The (late) response still completes it.
        assert!(c
            .on_response(
                t + SimDuration::us(5),
                &msg.reply(MsgKind::ReadResp { bytes: 64 })
            )
            .is_some());
        assert!(!c.is_pending(msg.tag));
    }

    #[test]
    #[should_panic(expected = "non-pending tag")]
    fn retransmit_of_completed_tag_panics() {
        let mut c = client();
        let msg = match c.submit(SimTime::ZERO, n(2), read64(), 0) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        c.on_response(
            SimTime::ZERO + SimDuration::us(1),
            &msg.reply(MsgKind::ReadResp { bytes: 64 }),
        );
        c.retransmit(SimTime::ZERO + SimDuration::us(2), msg.tag);
    }

    #[test]
    fn abort_frees_slot_and_late_response_is_duplicate() {
        let cfg = RmcConfig {
            request_slots: 1,
            ..RmcConfig::default()
        };
        let mut c = RmcClient::new(n(1), cfg);
        let m = match c.submit(SimTime::ZERO, n(2), read64(), 0) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        assert!(c.abort(m.tag));
        assert!(!c.is_pending(m.tag));
        assert_eq!(c.aborted(), 1);
        assert_eq!(c.in_flight(), 0, "abort releases the slot");
        // Aborting twice is a no-op.
        assert!(!c.abort(m.tag));
        assert_eq!(c.aborted(), 1);
        // A straggler response for the aborted tag is discarded, not fatal.
        let t = SimTime::ZERO + SimDuration::us(50);
        assert!(c
            .on_response(t, &m.reply(MsgKind::ReadResp { bytes: 64 }))
            .is_none());
        assert_eq!(c.duplicates(), 1);
        assert_eq!(c.completions(), 0);
        // The freed slot accepts new work.
        assert!(matches!(
            c.submit(t, n(2), read64(), 0),
            Submit::Accepted { .. }
        ));
    }

    #[test]
    fn suspects_are_marked_and_cleared() {
        let mut c = client();
        assert!(!c.is_suspect(n(2)));
        c.mark_suspect(n(2));
        assert!(c.is_suspect(n(2)));
        assert!(!c.is_suspect(n(3)));
        c.clear_suspect(n(2));
        assert!(!c.is_suspect(n(2)));
    }

    #[test]
    fn shed_deferrals_are_counted_apart_from_suspicion() {
        let mut c = client();
        c.note_shed_deferral();
        c.note_shed_deferral();
        assert_eq!(c.shed_deferrals(), 2);
        assert!(!c.is_suspect(n(2)), "shedding is not suspicion");
        let doc = c.snapshot(SimTime::ZERO, 3);
        assert_eq!(doc.get("shed_targets").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("shed_deferrals").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn slot_frees_after_completion() {
        let cfg = RmcConfig {
            request_slots: 1,
            ..RmcConfig::default()
        };
        let mut c = RmcClient::new(n(1), cfg);
        let m = match c.submit(SimTime::ZERO, n(2), read64(), 0) {
            Submit::Accepted { msg, .. } => msg,
            _ => unreachable!(),
        };
        assert!(matches!(
            c.submit(SimTime::ZERO, n(2), read64(), 0),
            Submit::Nacked { .. }
        ));
        let t = SimTime::ZERO + SimDuration::us(1);
        c.on_response(t, &m.reply(MsgKind::ReadResp { bytes: 64 }));
        assert!(matches!(
            c.submit(t, n(2), read64(), 0),
            Submit::Accepted { .. }
        ));
    }
}
