//! Per-transaction span tracing with phase-level latency attribution.
//!
//! The aggregate statistics in [`crate::stats`] answer "how loaded is this
//! component?"; they cannot answer "where did *this* access's 1.2 µs go?".
//! This module provides the missing layer: a [`TraceSink`] collects
//! [`SpanRecord`]s — one per phase a transaction passes through — keyed by a
//! causal transaction id, and can render the result as a Chrome
//! trace-event document loadable in Perfetto.
//!
//! Naming note: this module is deliberately called `span`, not `trace` —
//! `cohfree-core` already has a `trace` module that means something else
//! entirely (workload *operation* record/replay).
//!
//! ## Phase taxonomy
//!
//! A remote memory transaction decomposes into the phases of [`Phase`]:
//! serialization stall (the paper's one-outstanding-request quirk: the
//! requester holds the access until an RMC request slot frees), client RMC
//! queue + issue pass, per-hop wire time and fabric-link queueing, server
//! RMC queue, memory service, the reply passes, and loss-recovery
//! retry/backoff. OS-level reservation and evacuation protocol rounds are
//! traced as standalone single-span transactions.
//!
//! ## Exact tiling
//!
//! Instrumentation sites append raw spans while a transaction is in
//! flight; [`TraceSink::finish`] *normalizes* them into a gapless,
//! non-overlapping tiling of `[t_begin, t_end]`: spans are sorted, overlaps
//! are clipped (overlap can only arise from duplicate in-flight attempts
//! under loss recovery), spans are cut off at `t_end` (a transaction that
//! fails may have measurements scheduled past that instant), and uncovered
//! residue — time spent waiting for a loss-recovery timeout, or in flight
//! on an attempt that was later superseded — is attributed to
//! [`Phase::Retry`]. The invariant that the per-phase spans of a
//! transaction sum *exactly* to its end-to-end latency therefore holds by
//! construction, and in the common lossless case every span is the
//! unmodified measurement.
//!
//! Both traced modes run this one accounting path, so their phase
//! histograms agree on every run. Aggregate keeps only the histograms;
//! Full also keeps each tiling piece in the span ring, on an export lane.
//!
//! The per-phase [`LatencyHistogram`]s hold **per-transaction phase
//! totals**: a 3-hop read contributes one `Wire` sample covering all six
//! hop traversals, so a phase's `count()` is the number of transactions
//! that touched it and `total_ns()` is aggregate time in the phase.

use crate::fxhash::FastMap;
use crate::snapshot::Json;
use crate::stats::{Counter, LatencyHistogram};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One phase of a traced transaction's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Top-level envelope: the whole transaction, first offer to completion.
    Tx = 0,
    /// Serialization stall: the requester holds a ready access while all
    /// RMC request slots are busy (NACK/re-offer loop).
    Stall = 1,
    /// Queue wait for the client RMC's single front-end engine.
    ClientQueue = 2,
    /// Client RMC front-end pass building and injecting the request.
    Issue = 3,
    /// Wire time on one hop: router traversal, serialization, flight.
    Wire = 4,
    /// FIFO wait behind other messages on a fabric link serializer.
    FabricQueue = 5,
    /// Queue wait for the server RMC's front-end engine.
    ServerQueue = 6,
    /// Server-side service: front-end pass plus the local memory access.
    Service = 7,
    /// Response-side front-end passes (server inject, client match/retire).
    Reply = 8,
    /// Loss-recovery backoff: waiting out a timeout, retransmit passes, and
    /// time on in-flight attempts that a retransmission superseded.
    Retry = 9,
    /// OS reservation of a zone (one `OsTiming::reservation` charge).
    Resv = 10,
    /// OS evacuation protocol: re-homing a zone after a failure.
    Evac = 11,
    /// Recovery-manager admission control: an access deferred (or failed)
    /// because its target is load-shed.
    Shed = 12,
    /// Recovery-manager live migration: proactively re-homing a zone off a
    /// suspected or overloaded donor that is still up.
    Migrate = 13,
}

/// Number of distinct [`Phase`] values (array-index space).
pub const PHASE_COUNT: usize = 14;

impl Phase {
    /// All phases, in index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Tx,
        Phase::Stall,
        Phase::ClientQueue,
        Phase::Issue,
        Phase::Wire,
        Phase::FabricQueue,
        Phase::ServerQueue,
        Phase::Service,
        Phase::Reply,
        Phase::Retry,
        Phase::Resv,
        Phase::Evac,
        Phase::Shed,
        Phase::Migrate,
    ];

    /// Stable machine-readable name (snapshot keys, Chrome event names).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Tx => "tx",
            Phase::Stall => "stall",
            Phase::ClientQueue => "client_queue",
            Phase::Issue => "issue",
            Phase::Wire => "wire",
            Phase::FabricQueue => "fabric_queue",
            Phase::ServerQueue => "server_queue",
            Phase::Service => "service",
            Phase::Reply => "reply",
            Phase::Retry => "retry",
            Phase::Resv => "resv",
            Phase::Evac => "evac",
            Phase::Shed => "shed",
            Phase::Migrate => "migrate",
        }
    }

    /// Component category the phase executes on (Chrome `cat` field).
    pub fn category(self) -> &'static str {
        match self {
            Phase::Tx => "tx",
            Phase::Stall | Phase::ClientQueue | Phase::Issue | Phase::Reply | Phase::Retry => {
                "client_rmc"
            }
            Phase::Wire | Phase::FabricQueue => "fabric",
            Phase::ServerQueue | Phase::Service => "server_rmc",
            Phase::Resv | Phase::Evac | Phase::Shed | Phase::Migrate => "os",
        }
    }
}

/// Tracing level, selected by `ClusterConfig::trace` in `cohfree-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing work at all (the default).
    #[default]
    Off,
    /// Per-phase latency histograms only; individual spans are folded into
    /// the aggregates at transaction completion and discarded.
    Aggregate,
    /// Aggregates plus the complete span stream in the bounded ring.
    Full,
}

impl TraceMode {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Aggregate => "aggregate",
            TraceMode::Full => "full",
        }
    }
}

/// One completed span: a phase interval of one traced transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Causal transaction id (the RMC transaction tag, or a synthetic id
    /// for standalone protocol spans).
    pub tx_id: u64,
    /// Which phase of the transaction this interval covers.
    pub phase: Phase,
    /// Node the phase executed on (1-based; the issuing node for
    /// client-side phases, the home node for server-side ones).
    pub node: u16,
    /// Node that began the transaction and owns its export lane. Lanes are
    /// allocated per origin node, so `(origin, lane)` — not `(node, lane)`
    /// — is the overlap-free track coordinate: server-side spans of
    /// transactions from different clients may coincide in time.
    pub origin: u16,
    /// Inclusive start of the interval.
    pub t_start: SimTime,
    /// Exclusive end of the interval; `>= t_start` (equal only for the
    /// zero-length envelope of a transaction that failed fast).
    pub t_end: SimTime,
    /// Small key/value annotations (hop index, attempt number, export
    /// track id, ...).
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.t_end.saturating_since(self.t_start)
    }

    /// Value of an attribute, if present.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// A raw (pre-normalization) phase measurement buffered on a pending
/// transaction.
#[derive(Debug, Clone, Copy)]
struct RawSpan {
    phase: Phase,
    node: u16,
    t0: SimTime,
    t1: SimTime,
    attr: Option<(&'static str, u64)>,
}

/// Bookkeeping for a transaction that has begun but not yet finished.
#[derive(Debug)]
struct PendingTx {
    node: u16,
    /// Export lane (Full mode only; 0 in Aggregate).
    lane: u32,
    t_begin: SimTime,
    /// Raw spans awaiting exact-tiling normalization.
    spans: Vec<RawSpan>,
}

/// Per-node export-lane state: which transaction currently owns the lane
/// and the latest span end ever placed on it (lanes are only reused for
/// transactions starting after that instant, keeping every exported track
/// overlap-free).
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    owner: Option<u64>,
    last_end: SimTime,
}

/// Bounded collector of transaction spans.
///
/// The ring holds at most `capacity` [`SpanRecord`]s; once full, the oldest
/// records are evicted and counted in [`TraceSink::dropped`]. Per-phase
/// [`LatencyHistogram`]s are maintained regardless of ring occupancy (they
/// are the Aggregate view).
#[derive(Debug)]
pub struct TraceSink {
    mode: TraceMode,
    capacity: usize,
    spans: VecDeque<SpanRecord>,
    dropped: Counter,
    phases: [LatencyHistogram; PHASE_COUNT],
    /// The open transactions.
    pending: FastMap<u64, PendingTx>,
    lanes: FastMap<u16, Vec<Lane>>,
    completed: Counter,
    failed: Counter,
    next_proto_id: u64,
}

/// Default span-ring capacity: enough for every span of ~20k transactions.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Export-lane namespace per origin node in Chrome-trace `tid`s
/// (`tid = origin * stride + lane`). A node needs one lane per transaction
/// it has simultaneously in flight, so 256 is far beyond any workload here.
pub const TID_LANE_STRIDE: u64 = 256;

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new(TraceMode::Off, DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceSink {
    /// A sink in the given mode with the given ring capacity (spans).
    pub fn new(mode: TraceMode, capacity: usize) -> TraceSink {
        TraceSink {
            mode,
            capacity: capacity.max(1),
            spans: VecDeque::new(),
            dropped: Counter::new(),
            phases: std::array::from_fn(|_| LatencyHistogram::new()),
            pending: FastMap::default(),
            lanes: FastMap::default(),
            completed: Counter::new(),
            failed: Counter::new(),
            next_proto_id: 1,
        }
    }

    /// Selected tracing mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// True when any tracing work should be done.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    /// True when `tx_id` has begun and not yet finished.
    #[inline]
    pub fn is_traced(&self, tx_id: u64) -> bool {
        self.enabled() && self.pending.contains_key(&tx_id)
    }

    /// Open a transaction. `t_begin` may lie before the call's event time
    /// (the serialization stall is discovered retroactively at slot
    /// acceptance). No-op when tracing is off or the id is already open.
    pub fn begin(&mut self, tx_id: u64, node: u16, t_begin: SimTime) {
        if !self.enabled() || self.is_traced(tx_id) {
            return;
        }
        // Export lanes only matter for the Full-mode span stream.
        let lane = if self.mode == TraceMode::Full {
            self.alloc_lane(node, tx_id, t_begin)
        } else {
            0
        };
        self.pending.insert(
            tx_id,
            PendingTx {
                node,
                lane,
                t_begin,
                spans: Vec::new(),
            },
        );
    }

    /// Append a phase measurement to an open transaction. Ignored when the
    /// id is not open (untraced transaction, probe traffic) or the interval
    /// is empty.
    #[inline]
    pub fn push(&mut self, tx_id: u64, phase: Phase, node: u16, t0: SimTime, t1: SimTime) {
        self.push_attr(tx_id, phase, node, t0, t1, None);
    }

    /// [`TraceSink::push`] with one attribute attached.
    pub fn push_attr(
        &mut self,
        tx_id: u64,
        phase: Phase,
        node: u16,
        t0: SimTime,
        t1: SimTime,
        attr: Option<(&'static str, u64)>,
    ) {
        if t1 <= t0 {
            return;
        }
        if let Some(p) = self.pending.get_mut(&tx_id) {
            p.spans.push(RawSpan {
                phase,
                node,
                t0,
                t1,
                attr,
            });
        }
    }

    /// Close a transaction at `t_end`, normalize its spans into an exact
    /// tiling of `[t_begin, t_end]`, fold the phase durations into the
    /// aggregate histograms and (in Full mode) the span ring.
    pub fn finish(&mut self, tx_id: u64, t_end: SimTime, failed: bool) {
        let Some(pending) = self.pending.remove(&tx_id) else {
            return;
        };
        if failed {
            self.failed.inc();
        } else {
            self.completed.inc();
        }
        let node = pending.node;
        let lane = pending.lane;
        let t_begin = pending.t_begin;
        let t_end = t_end.max(t_begin);
        let full = self.mode == TraceMode::Full;
        if full {
            self.release_lane(node, lane, tx_id, t_end);
        }

        if t_end > t_begin {
            self.phases[Phase::Tx as usize].record(t_end.saturating_since(t_begin));
        }
        if full {
            let mut attrs = vec![("track", lane as u64)];
            if failed {
                attrs.push(("failed", 1));
            }
            self.ring_push(SpanRecord {
                tx_id,
                phase: Phase::Tx,
                node,
                origin: node,
                t_start: t_begin,
                t_end,
                attrs,
            });
        }

        // Each phase's total over the transaction becomes ONE histogram
        // sample — the histograms answer "how much wire time does a
        // transaction spend", not "how long is one hop".
        //
        // Normalize: sort (only needed under loss-recovery reordering),
        // clip overlaps, attribute uncovered residue to loss recovery. The
        // emitted pieces tile [t_begin, t_end] exactly.
        let mut spans = pending.spans;
        if !spans.is_sorted_by_key(|s| (s.t0, s.t1)) {
            spans.sort_unstable_by_key(|s| (s.t0, s.t1));
        }
        let mut totals = [SimDuration::ZERO; PHASE_COUNT];
        let mut cursor = t_begin;
        for &s in &spans {
            let s0 = s.t0.max(cursor);
            let s1 = s.t1.min(t_end);
            if s1 <= s0 {
                continue;
            }
            if s0 > cursor {
                totals[Phase::Retry as usize] += s0.saturating_since(cursor);
                self.emit_piece(
                    tx_id,
                    Phase::Retry,
                    node,
                    node,
                    cursor,
                    s0,
                    None,
                    lane,
                    full,
                );
            }
            totals[s.phase as usize] += s1.saturating_since(s0);
            self.emit_piece(tx_id, s.phase, s.node, node, s0, s1, s.attr, lane, full);
            cursor = s1;
        }
        if cursor < t_end {
            totals[Phase::Retry as usize] += t_end.saturating_since(cursor);
            self.emit_piece(
                tx_id,
                Phase::Retry,
                node,
                node,
                cursor,
                t_end,
                None,
                lane,
                full,
            );
        }
        for (h, d) in self.phases.iter_mut().zip(totals) {
            if d > SimDuration::ZERO {
                h.record(d);
            }
        }
    }

    /// Append one normalized tiling piece to the Full-mode span ring (a
    /// no-op in Aggregate mode, where only the phase totals survive).
    #[allow(clippy::too_many_arguments)]
    fn emit_piece(
        &mut self,
        tx_id: u64,
        phase: Phase,
        node: u16,
        origin: u16,
        t0: SimTime,
        t1: SimTime,
        attr: Option<(&'static str, u64)>,
        lane: u32,
        full: bool,
    ) {
        if full {
            let mut attrs = vec![("track", lane as u64)];
            if let Some(kv) = attr {
                attrs.push(kv);
            }
            self.ring_push(SpanRecord {
                tx_id,
                phase,
                node,
                origin,
                t_start: t0,
                t_end: t1,
                attrs,
            });
        }
    }

    /// Record a transaction that failed before it could even be submitted
    /// (its home node is already declared failed): a zero-length failed
    /// envelope, so failure accounting and envelope counts stay aligned.
    pub fn fail_fast(&mut self, node: u16, t: SimTime) {
        if !self.enabled() {
            return;
        }
        let tx_id = u64::MAX - self.next_proto_id;
        self.next_proto_id += 1;
        self.begin(tx_id, node, t);
        self.finish(tx_id, t, true);
    }

    /// Discard an open transaction without recording anything (its issuing
    /// node crashed; failure accounting happens in bulk elsewhere).
    pub fn abandon(&mut self, tx_id: u64) {
        if let Some(p) = self.pending.remove(&tx_id) {
            if self.mode == TraceMode::Full {
                self.release_lane(p.node, p.lane, tx_id, p.t_begin);
            }
        }
    }

    /// Record a standalone single-span protocol transaction (reservation
    /// round, evacuation). These do not produce a [`Phase::Tx`] envelope, so
    /// they never count as memory transactions.
    pub fn standalone(&mut self, phase: Phase, node: u16, t0: SimTime, t1: SimTime) {
        if !self.enabled() || t1 <= t0 {
            return;
        }
        let tx_id = u64::MAX - self.next_proto_id;
        self.next_proto_id += 1;
        self.phases[phase as usize].record(t1.saturating_since(t0));
        if self.mode == TraceMode::Full {
            let lane = self.alloc_lane(node, tx_id, t0);
            self.release_lane(node, lane, tx_id, t1);
            self.ring_push(SpanRecord {
                tx_id,
                phase,
                node,
                origin: node,
                t_start: t0,
                t_end: t1,
                attrs: vec![("track", lane as u64)],
            });
        }
    }

    fn ring_push(&mut self, span: SpanRecord) {
        if self.spans.len() >= self.capacity {
            self.spans.pop_front();
            self.dropped.inc();
        }
        self.spans.push_back(span);
    }

    /// Lowest lane on `node` that is unoccupied and whose previous content
    /// ended at or before `t_begin` (so exported tracks never overlap).
    fn alloc_lane(&mut self, node: u16, tx_id: u64, t_begin: SimTime) -> u32 {
        let lanes = self.lanes.entry(node).or_default();
        for (i, lane) in lanes.iter_mut().enumerate() {
            if lane.owner.is_none() && lane.last_end <= t_begin {
                lane.owner = Some(tx_id);
                return i as u32;
            }
        }
        lanes.push(Lane {
            owner: Some(tx_id),
            last_end: SimTime::ZERO,
        });
        (lanes.len() - 1) as u32
    }

    fn release_lane(&mut self, node: u16, lane: u32, tx_id: u64, t_end: SimTime) {
        if let Some(lanes) = self.lanes.get_mut(&node) {
            if let Some(l) = lanes.get_mut(lane as usize) {
                if l.owner == Some(tx_id) {
                    l.owner = None;
                    l.last_end = l.last_end.max(t_end);
                }
            }
        }
    }

    /// Completed (successfully finished) traced transactions.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Traced transactions that finished as failures.
    pub fn failed(&self) -> u64 {
        self.failed.get()
    }

    /// Spans evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Spans currently held in the ring.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The retained span stream, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// Aggregate latency histogram for one phase. Each sample is one
    /// transaction's *total* time in that phase (a 3-hop read contributes
    /// one `Wire` sample covering all six hop traversals), so `count()` is
    /// the number of transactions that touched the phase.
    pub fn phase_hist(&self, phase: Phase) -> &LatencyHistogram {
        &self.phases[phase as usize]
    }

    /// Total nanoseconds attributed to `phase` across all finished
    /// transactions.
    pub fn phase_total_ns(&self, phase: Phase) -> f64 {
        self.phase_hist(phase).total_ns()
    }

    /// Serializable aggregate view: mode, ring occupancy/drops, transaction
    /// counts and the per-phase histograms (phases with samples only).
    pub fn snapshot(&self) -> Json {
        let mut phases = Vec::new();
        for p in Phase::ALL {
            let h = self.phase_hist(p);
            if h.count() > 0 {
                phases.push((p.name(), h.snapshot()));
            }
        }
        Json::obj([
            ("mode", Json::from(self.mode.name())),
            ("spans", Json::from(self.spans.len() as u64)),
            ("dropped", Json::from(self.dropped.get())),
            ("completed", Json::from(self.completed.get())),
            ("failed", Json::from(self.failed.get())),
            (
                "phases",
                Json::Obj(
                    phases
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                ),
            ),
        ])
    }

    /// Chrome trace-event list for the retained spans.
    ///
    /// Events are complete (`"ph": "X"`) with `pid = pid_base + node` and
    /// `tid = origin * TID_LANE_STRIDE + lane` — lanes are overlap-free per
    /// *origin* node, so namespacing the tid by origin keeps every track
    /// overlap-free even where server-side spans of transactions from
    /// different clients share a pid. Process-name metadata labels each pid
    /// as `"{proc_prefix}node N"`. Timestamps are microseconds per the
    /// trace format; sub-ns precision is preserved as fractions.
    pub fn chrome_events(&self, pid_base: u64, proc_prefix: &str) -> Vec<Json> {
        let mut events = Vec::with_capacity(self.spans.len() + 16);
        let mut pids: Vec<u16> = Vec::new();
        for span in &self.spans {
            if !pids.contains(&span.node) {
                pids.push(span.node);
            }
            let ts_us = span.t_start.as_ns() as f64 / 1000.0;
            let dur_us = span.duration().as_ns_f64() / 1000.0;
            let tid = span.origin as u64 * TID_LANE_STRIDE + span.attr("track").unwrap_or(0);
            let mut args: Vec<(String, Json)> = vec![("tx".to_string(), Json::from(span.tx_id))];
            for &(k, v) in &span.attrs {
                if k != "track" {
                    args.push((k.to_string(), Json::from(v)));
                }
            }
            events.push(Json::obj([
                ("name", Json::from(span.phase.name())),
                ("cat", Json::from(span.phase.category())),
                ("ph", Json::from("X")),
                ("ts", Json::from(ts_us)),
                ("dur", Json::from(dur_us)),
                ("pid", Json::from(pid_base + span.node as u64)),
                ("tid", Json::from(tid)),
                ("args", Json::Obj(args)),
            ]));
        }
        for node in pids {
            events.push(Json::obj([
                ("name", Json::from("process_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(pid_base + node as u64)),
                ("tid", Json::from(0u64)),
                (
                    "args",
                    Json::obj([("name", Json::from(format!("{proc_prefix}node {node}")))]),
                ),
            ]));
        }
        events
    }

    /// A complete Chrome trace-event JSON document for the retained spans.
    pub fn chrome_trace(&self) -> Json {
        Json::obj([
            ("traceEvents", Json::Arr(self.chrome_events(0, ""))),
            ("displayTimeUnit", Json::from("ns")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::ns(ns)
    }

    #[test]
    fn off_mode_does_no_work() {
        let mut sink = TraceSink::new(TraceMode::Off, 64);
        sink.begin(1, 1, t(0));
        sink.push(1, Phase::Issue, 1, t(0), t(10));
        sink.finish(1, t(10), false);
        assert!(!sink.is_traced(1));
        assert_eq!(sink.completed(), 0);
        assert!(sink.is_empty());
    }

    #[test]
    fn clean_transaction_tiles_exactly() {
        let mut sink = TraceSink::new(TraceMode::Full, 1024);
        sink.begin(7, 3, t(0));
        sink.push(7, Phase::ClientQueue, 3, t(0), t(5));
        sink.push(7, Phase::Issue, 3, t(5), t(10));
        sink.push(7, Phase::Wire, 3, t(10), t(40));
        sink.push(7, Phase::ServerQueue, 5, t(40), t(50));
        sink.push(7, Phase::Service, 5, t(50), t(80));
        sink.push(7, Phase::Wire, 3, t(80), t(110));
        sink.push(7, Phase::Reply, 3, t(110), t(120));
        sink.finish(7, t(120), false);

        assert_eq!(sink.completed(), 1);
        let spans: Vec<_> = sink.spans().collect();
        // 1 Tx envelope + 7 phase spans, no Retry filler.
        assert_eq!(spans.len(), 8);
        assert!(spans.iter().all(|s| s.phase != Phase::Retry));
        let sum: u64 = spans
            .iter()
            .filter(|s| s.phase != Phase::Tx)
            .map(|s| s.duration().as_ns())
            .sum();
        assert_eq!(sum, 120);
        assert_eq!(sink.phase_hist(Phase::Tx).count(), 1);
        // Histograms hold per-transaction phase totals: the two wire
        // crossings fold into one 60 ns sample.
        assert_eq!(sink.phase_hist(Phase::Wire).count(), 1);
        assert_eq!(sink.phase_hist(Phase::Wire).total_ns(), 60.0);
    }

    #[test]
    fn gaps_and_overlaps_normalize_to_exact_tiling() {
        let run = |mode| {
            let mut sink = TraceSink::new(mode, 1024);
            sink.begin(9, 2, t(0));
            sink.push(9, Phase::Issue, 2, t(0), t(10));
            // Gap [10, 30): a lost attempt's timeout wait.
            sink.push(9, Phase::Wire, 2, t(30), t(60));
            // Overlapping duplicate-attempt span gets clipped.
            sink.push(9, Phase::Wire, 2, t(50), t(70));
            // A measurement running past the failure instant is cut off.
            sink.push(9, Phase::Reply, 2, t(90), t(120));
            sink.finish(9, t(100), true);
            sink
        };
        let sink = run(TraceMode::Full);

        let phase_sum: u64 = sink
            .spans()
            .filter(|s| s.phase != Phase::Tx)
            .map(|s| s.duration().as_ns())
            .sum();
        assert_eq!(phase_sum, 100, "tiling must cover begin..end exactly");
        // Residue went to Retry: [10,30) and [70,90).
        let retry: u64 = sink
            .spans()
            .filter(|s| s.phase == Phase::Retry)
            .map(|s| s.duration().as_ns())
            .sum();
        assert_eq!(retry, 40);
        // Aggregate mode books the same phase totals.
        let phases = |s: &TraceSink| s.snapshot().get("phases").cloned();
        assert_eq!(phases(&run(TraceMode::Aggregate)), phases(&sink));
        // No two spans on one (node, track) overlap.
        let mut by_track: HashMap<(u16, u64), Vec<(u64, u64)>> = HashMap::new();
        for s in sink.spans().filter(|s| s.phase != Phase::Tx) {
            by_track
                .entry((s.node, s.attr("track").unwrap()))
                .or_default()
                .push((s.t_start.as_ns(), s.t_end.as_ns()));
        }
        for spans in by_track.values_mut() {
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {w:?}");
            }
        }
    }

    #[test]
    fn concurrent_transactions_get_distinct_lanes() {
        let mut sink = TraceSink::new(TraceMode::Full, 1024);
        sink.begin(1, 1, t(0));
        sink.begin(2, 1, t(5));
        sink.push(1, Phase::Issue, 1, t(0), t(20));
        sink.push(2, Phase::Issue, 1, t(5), t(25));
        sink.finish(1, t(20), false);
        sink.finish(2, t(25), false);
        let tx_spans: Vec<_> = sink.spans().filter(|s| s.phase == Phase::Tx).collect();
        assert_eq!(tx_spans.len(), 2);
        assert_ne!(tx_spans[0].attr("track"), tx_spans[1].attr("track"));
        // A later transaction can reuse lane 0 once it is past the old end.
        sink.begin(3, 1, t(30));
        sink.finish(3, t(40), false);
        let last = sink
            .spans()
            .filter(|s| s.phase == Phase::Tx)
            .last()
            .unwrap();
        assert_eq!(last.attr("track"), Some(0));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut sink = TraceSink::new(TraceMode::Full, 4);
        for i in 0..4u64 {
            sink.begin(i, 1, t(i * 100));
            sink.push(i, Phase::Issue, 1, t(i * 100), t(i * 100 + 10));
            sink.finish(i, t(i * 100 + 10), false);
        }
        // 4 txs × 2 spans = 8 produced; capacity 4 keeps the newest 4.
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 4);
        assert_eq!(sink.completed(), 4, "aggregates unaffected by eviction");
        assert_eq!(sink.phase_hist(Phase::Issue).count(), 4);
    }

    #[test]
    fn failed_transactions_counted_separately() {
        let mut sink = TraceSink::new(TraceMode::Aggregate, 64);
        sink.begin(1, 1, t(0));
        sink.push(1, Phase::Issue, 1, t(0), t(10));
        sink.finish(1, t(50), true);
        assert_eq!(sink.failed(), 1);
        assert_eq!(sink.completed(), 0);
        // Aggregate mode retains no spans.
        assert!(sink.is_empty());
        // Abort residue [10,50) shows up as Retry.
        assert_eq!(sink.phase_hist(Phase::Retry).count(), 1);
    }

    #[test]
    fn standalone_protocol_spans_have_no_tx_envelope() {
        let mut sink = TraceSink::new(TraceMode::Full, 64);
        sink.standalone(Phase::Resv, 4, t(0), t(200));
        sink.standalone(Phase::Evac, 4, t(300), t(700));
        assert_eq!(sink.phase_hist(Phase::Resv).count(), 1);
        assert_eq!(sink.phase_hist(Phase::Evac).count(), 1);
        assert_eq!(sink.phase_hist(Phase::Tx).count(), 0);
        assert_eq!(sink.spans().filter(|s| s.phase == Phase::Tx).count(), 0);
    }

    #[test]
    fn chrome_trace_parses_and_is_well_formed() {
        let mut sink = TraceSink::new(TraceMode::Full, 1024);
        sink.begin(1, 2, t(0));
        sink.push(1, Phase::Issue, 2, t(0), t(10));
        sink.push(1, Phase::Wire, 2, t(10), t(40));
        sink.finish(1, t(40), false);
        let doc = sink.chrome_trace();
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 3); // tx + issue + wire
        for e in &xs {
            assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() > 0.0);
            assert_eq!(e.get("pid").and_then(|v| v.as_u64()), Some(2));
        }
        // Metadata names the process.
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")));
    }
}
