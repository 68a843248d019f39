//! The discrete-event cluster.
//!
//! [`World`] owns every timed component — fabric, per-node DRAM, RMC client
//! and server datapaths, frame allocators — and the event loop that moves
//! transactions through them:
//!
//! ```text
//! core ──submit──▶ client RMC ──▶ fabric hops ──▶ server RMC ──▶ DRAM
//!   ▲                                                             │
//!   └── completion ◀── client RMC ◀── fabric hops ◀── response ◀──┘
//! ```
//!
//! Two driving modes:
//!
//! * **Blocking** ([`World::blocking_transaction`]) — one transaction at a
//!   time, used by the synchronous [`crate::backend::MemSpace`] backends
//!   (the prototype binds memory-hungry processes to a single core with one
//!   outstanding RMC request, so this is not a simplification — it *is* the
//!   machine).
//! * **Traffic threads** ([`World::spawn_thread`] / [`World::run`]) — the
//!   multi-client random-access generators of Figs. 7 and 8, including
//!   NACK/retry behaviour.
//!
//! Reservation (software, off the access path) is performed functionally via
//! [`World::reserve_remote`], which updates the donor's frame allocator, the
//! directory and the borrower's region, and charges the configured
//! reservation latency to the caller's clock.

use crate::config::ClusterConfig;
use crate::exec::{self, Cursor};
use crate::fault::{EvacuationPolicy, FaultEvent};
use cohfree_fabric::{Fabric, Message, MsgKind, NodeId};
use cohfree_mem::NodeMemory;
use cohfree_os::directory::Directory;
use cohfree_os::frames::FrameAllocator;
use cohfree_os::manager::{ManagerAction, NodeObservation, RecoveryManager};
use cohfree_os::region::{Region, Segment};
use cohfree_os::resv::{Reservation, ResvDonor, ResvRequester};
use cohfree_rmc::{RmcClient, RmcServer, Submit};
use cohfree_sim::rng::Zipf;
use cohfree_sim::span::{Phase, TraceSink};
use cohfree_sim::stats::LatencyHistogram;
use cohfree_sim::{EventQueue, FastMap, FaultLog, Json, Rng, SimDuration, SimTime};
use std::fmt;

/// Per-node timed components.
pub(crate) struct NodeCtx {
    pub(crate) mem: NodeMemory,
    pub(crate) client: RmcClient,
    pub(crate) server: RmcServer,
    pub(crate) frames: FrameAllocator,
    pub(crate) requester: ResvRequester,
    pub(crate) donor: ResvDonor,
    pub(crate) region: Region,
}

/// Events moving through the cluster.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// `msg` is at router `at` (first hop: its source node).
    Hop { msg: Message, at: NodeId },
    /// The home node's DRAM finished serving `msg` (which arrived at the
    /// server RMC at `arrived`).
    MemDone { msg: Message, arrived: SimTime },
    /// A traffic thread should take its next step.
    ThreadWake { id: usize },
    /// Loss-recovery timer for transaction `tag` fired (armed only on a
    /// lossy fabric or under a fault plan). Stale if the transaction
    /// completed or was already retransmitted (`attempt` mismatch).
    Timeout { tag: u64, attempt: u32 },
    /// Periodic metrics-sampling probe (armed by [`World::enable_sampling`]).
    /// Re-arms itself only while other events remain queued, so a draining
    /// run still terminates.
    Sample,
    /// A scheduled fault (or repair) from the configuration's
    /// [`crate::FaultPlan`] strikes.
    Fault(FaultEvent),
    /// `observer`'s client RMC exhausted its retry budget against `dead`
    /// and declares it failed. Declaration touches cluster-wide state
    /// (directory, evacuation, doomed-transaction sweep), so it runs as a
    /// global event one minimum hop latency after the exhaustion.
    Suspect {
        /// The node giving up.
        observer: NodeId,
        /// The node being declared failed.
        dead: NodeId,
    },
    /// Recovery-manager control-loop tick ([`crate::ManagerConfig`]):
    /// observe the cluster, decide, act. Touches cluster-wide state
    /// (directory, regions, per-client shed sets), so it runs as a global
    /// event. Re-arms only while threads are unfinished or transactions are in
    /// flight, so a draining run still terminates.
    Manager,
}

/// One observation of the periodic sampling probe.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Capture instant.
    pub at: SimTime,
    /// In-flight RMC transactions per node (index `i` is node `i + 1`).
    pub client_in_flight: Vec<usize>,
    /// Server RMC front-end time-to-drain backlog per node, in nanoseconds.
    pub server_backlog_ns: Vec<f64>,
    /// Busiest DRAM controller time-to-drain backlog per node, in ns.
    pub mem_backlog_ns: Vec<f64>,
    /// Busiest fabric link time-to-drain backlog, in nanoseconds.
    pub max_link_backlog_ns: f64,
    /// Events pending in the engine queue (excluding this probe).
    pub events_queued: usize,
    /// Cumulative client RMC completions per node (index `i` is node
    /// `i + 1`) — differencing consecutive samples yields the throughput
    /// timeline the failover experiments plot.
    pub completions: Vec<u64>,
}

/// Periodic queue-depth/occupancy recorder driven by [`Ev::Sample`].
struct Sampler {
    interval: SimDuration,
    samples: Vec<Sample>,
}

/// Assemble one [`Sample`]. `nodes[i]` is node `i + 1`; `events_queued` is
/// the engine-queue depth excluding the probe itself.
fn build_sample(
    at: SimTime,
    nodes: &[NodeCtx],
    max_link_backlog_ns: f64,
    events_queued: usize,
) -> Sample {
    Sample {
        at,
        client_in_flight: nodes.iter().map(|n| n.client.in_flight()).collect(),
        server_backlog_ns: nodes
            .iter()
            .map(|n| n.server.engine_backlog(at).as_ns_f64())
            .collect(),
        mem_backlog_ns: nodes
            .iter()
            .map(|n| n.mem.max_backlog(at).as_ns_f64())
            .collect(),
        max_link_backlog_ns,
        events_queued,
        completions: nodes.iter().map(|n| n.client.completions()).collect(),
    }
}

/// A point-in-time serializable view of every timed component in the
/// cluster, plus the sampling probe's time series when enabled.
///
/// Produced by [`World::snapshot`]; the [`ClusterSnapshot::doc`] field holds
/// the full JSON document (see that method for the schema).
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Instant the snapshot was taken (the engine clock).
    pub at: SimTime,
    /// The complete document.
    pub doc: Json,
}

impl ClusterSnapshot {
    /// Consume the snapshot, yielding the JSON document.
    pub fn into_json(self) -> Json {
        self.doc
    }
}

/// A [`World`] configuration request that cannot be honoured.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldConfigError {
    /// The coherent-DSM baseline cannot run over a fabric that loses
    /// messages: its probe choreography has no loss recovery.
    LossyCoherentDomain {
        /// The configured per-traversal loss probability.
        loss_rate: f64,
    },
    /// The coherent baseline has no failure handling either; a coherency
    /// domain cannot be combined with a non-empty fault plan.
    FaultyCoherentDomain,
    /// The fault plan names a node the topology does not contain; the
    /// event could never strike and the plan is almost certainly a typo.
    UnknownFaultNode {
        /// The nonexistent node.
        node: NodeId,
    },
    /// The fault plan names a link that is not a physical link of the
    /// topology (in either direction).
    UnknownFaultLink {
        /// One claimed endpoint.
        a: NodeId,
        /// The other claimed endpoint.
        b: NodeId,
    },
}

impl fmt::Display for WorldConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldConfigError::LossyCoherentDomain { loss_rate } => write!(
                f,
                "the coherent baseline requires a lossless fabric (loss_rate = {loss_rate})"
            ),
            WorldConfigError::FaultyCoherentDomain => write!(
                f,
                "the coherent baseline cannot run under a fault plan (no failure recovery)"
            ),
            WorldConfigError::UnknownFaultNode { node } => write!(
                f,
                "fault plan names node {node}, which the topology does not contain"
            ),
            WorldConfigError::UnknownFaultLink { a, b } => write!(
                f,
                "fault plan names link {a} <-> {b}, which is not a physical link of the topology"
            ),
        }
    }
}

impl std::error::Error for WorldConfigError {}

/// Outcome of one access driven through [`World::try_blocking_transaction`]:
/// either it completed, or its home node was declared failed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access completed; the issuing core observes it at `at`.
    Completed {
        /// Completion instant.
        at: SimTime,
    },
    /// The home node was declared failed (retry budget exhausted or
    /// crashed) before the access could complete.
    Failed {
        /// The home node that was given up on.
        node: NodeId,
        /// When the access was abandoned.
        at: SimTime,
    },
    /// The recovery manager is load-shedding the home node (admission
    /// control): the access was not admitted. The caller may retry once
    /// pressure clears — the manager re-admits with hysteresis.
    Shed {
        /// The overloaded home node.
        node: NodeId,
        /// When the access was turned away.
        at: SimTime,
    },
}

/// Who is waiting on a transaction tag.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Owner {
    Thread(usize),
    Sync,
    /// Nobody waits: a posted write — the core already moved on.
    Posted,
}

/// Bookkeeping for an in-flight transaction (needed for loss recovery).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingTx {
    pub(crate) owner: Owner,
    pub(crate) msg: Message,
    pub(crate) attempt: u32,
}

/// Home-side state of one coherent-DSM transaction (baseline model): the
/// response may only leave once the DRAM read *and* every snoop response
/// have arrived.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CohState {
    pub(crate) awaiting_probes: usize,
    pub(crate) mem_done: Option<SimTime>,
    pub(crate) req: Message,
    pub(crate) arrived: SimTime,
}

/// Specification of one traffic-generator thread (Figs. 7–8 style).
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Node whose core runs the thread.
    pub node: NodeId,
    /// Remote zones to target: (prefixed base, length in bytes). Each access
    /// picks a zone uniformly, then a 64-byte-aligned offset uniformly.
    pub zones: Vec<(u64, u64)>,
    /// Total accesses to perform.
    pub accesses: u64,
    /// Bytes per access (typically one cache line).
    pub bytes: u32,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// CPU time between completing one access and issuing the next.
    pub think: SimDuration,
    /// Thread-private PRNG seed.
    pub seed: u64,
}

/// How a serving thread ([`World::spawn_serving_thread`]) picks target
/// addresses within its zones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Uniform over all slots (the Figs. 7–8 generator's default).
    Uniform,
    /// Stream the zones end-to-end in address order, wrapping — the
    /// columnar-scan shape: each request reads the next chunk of the table.
    Sequential,
    /// Zipf-popularity slot pick with the given exponent (rank 0 hottest) —
    /// the KV/DB point-lookup shape over a skewed working set.
    Zipf(f64),
}

pub(crate) struct Thread {
    pub(crate) spec: ThreadSpec,
    pub(crate) rng: Rng,
    /// Stream the zones in address order instead of uniformly at random
    /// (models the read-only parallel phases of Section IV-B).
    pub(crate) sequential: bool,
    /// Issue coherent-DSM reads (the 3Leaf-style baseline) instead of the
    /// paper's non-coherent reads.
    pub(crate) coherent: bool,
    pub(crate) issued: u64,
    pub(crate) completed: u64,
    /// Accesses abandoned because their home node was declared failed (or
    /// because this thread's own node crashed).
    pub(crate) failed: u64,
    /// Open-loop requests dropped by admission control — the third terminal
    /// outcome next to completed and failed. Always 0 for closed-loop
    /// threads, which park shed accesses and retry instead.
    pub(crate) shed: u64,
    /// Accesses re-issued against a new home after an evacuation.
    pub(crate) evacuated_retries: u64,
    /// Access generated but NACKed, awaiting retry.
    pub(crate) pending: Option<(NodeId, MsgKind, u64)>,
    /// When the pending access was *first* offered (serialization-stall
    /// start for the span tracer). `None` for evacuation re-aims: their new
    /// trace starts at the re-issue, while the request's end-to-end latency
    /// still runs from `inflight_since`.
    pub(crate) pending_since: Option<SimTime>,
    /// Open-loop arrival schedule: absolute instant request `k` enters the
    /// system (sorted, one per access). Empty = closed loop (the next
    /// access issues `think` after the previous one resolves).
    pub(crate) arrivals: Vec<SimTime>,
    /// Zipf slot sampler over the combined zone slots (serving threads with
    /// [`AccessPattern::Zipf`] only).
    pub(crate) zipf: Option<Zipf>,
    /// Arrival instant of the in-flight request (serving threads only), so
    /// completion can record the end-to-end latency a user would see.
    pub(crate) inflight_since: Option<SimTime>,
    /// Per-request end-to-end latency (arrival to completion), recorded for
    /// serving threads only.
    pub(crate) latency: Option<Box<LatencyHistogram>>,
    pub(crate) started: SimTime,
    pub(crate) finished: Option<SimTime>,
    pub(crate) nack_retries: u64,
}

/// How one access of a traffic thread ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Resolution {
    Completed,
    /// Its home node was declared failed (or no evacuation took it in).
    Failed,
    /// Admission control dropped an open-loop request.
    Shed,
}

impl Thread {
    /// Terminal outcomes recorded so far; the thread is finished when this
    /// reaches its access budget.
    pub(crate) fn resolved(&self) -> u64 {
        self.completed + self.failed + self.shed
    }

    /// Record one terminal outcome at `now`: bump its counter, close the
    /// in-flight request (a completion records the end-to-end latency a
    /// user sees, for serving threads), then either finish the thread or
    /// return the instant of its next wake. `None` means finished; the
    /// caller schedules the wake through its own context.
    pub(crate) fn resolve(&mut self, now: SimTime, how: Resolution) -> Option<SimTime> {
        let since = self.inflight_since.take();
        match how {
            Resolution::Completed => {
                self.completed += 1;
                if let (Some(since), Some(h)) = (since, self.latency.as_deref_mut()) {
                    h.record(now.since(since));
                }
            }
            Resolution::Failed => self.failed += 1,
            Resolution::Shed => self.shed += 1,
        }
        if self.resolved() == self.spec.accesses {
            self.finished = Some(now);
            None
        } else {
            Some(self.next_issue_at(now))
        }
    }

    /// Earliest instant the thread may offer its next fresh access after
    /// resolving one at `now`: closed-loop threads rest `think`; open-loop
    /// threads additionally wait for the next scheduled arrival (and are
    /// never early — a backed-up lane naturally queues arrivals).
    pub(crate) fn next_issue_at(&self, now: SimTime) -> SimTime {
        let rest = now + self.spec.think;
        match self.arrivals.get(self.issued as usize) {
            Some(&arrival) => rest.max(arrival),
            None => rest,
        }
    }
}

/// The simulated cluster.
///
/// ```
/// use cohfree_core::{ClusterConfig, MsgKind, NodeId, SimTime, World};
///
/// let mut w = World::new(ClusterConfig::prototype());
/// // Node 1 borrows 4 MiB from node 2 and reads the first line of it.
/// let resv = w.reserve_remote(NodeId::new(1), 1024, Some(NodeId::new(2)));
/// let done = w.blocking_transaction(
///     SimTime::ZERO,
///     NodeId::new(1),
///     NodeId::new(2),
///     MsgKind::ReadReq { bytes: 64 },
///     resv.prefixed_base,
/// );
/// assert!(done.as_ns() > 800, "a remote read is ~1 us on the prototype");
/// ```
pub struct World {
    pub(crate) cfg: ClusterConfig,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) fabric: Fabric,
    pub(crate) nodes: Vec<NodeCtx>,
    pub(crate) directory: Directory,
    pub(crate) threads: Vec<Thread>,
    pub(crate) pending: FastMap<u64, PendingTx>,
    /// How the blocking driver's transaction (`Owner::Sync`) ended:
    /// completed at `Ok(at)` or failed at `Err(at)`.
    pub(crate) sync: Option<Result<SimTime, SimTime>>,
    /// Members of the (single, experiment-wide) inter-node coherency domain
    /// for the coherent-DSM baseline; empty = the paper's architecture.
    pub(crate) coherent_domain: Vec<NodeId>,
    pub(crate) coh: FastMap<u64, CohState>,
    sampler: Option<Sampler>,
    /// Crash state per node (index `i` is node `i + 1`).
    pub(crate) dead: Vec<bool>,
    /// Suspect state per node (index `i` is node `i + 1`): true once any
    /// client's failure detector declared the node failed; cleared on
    /// restart. The recovery manager reads this instead of scanning every
    /// client's suspect set each tick.
    suspected: Vec<bool>,
    /// The online recovery manager (present iff
    /// [`crate::ManagerConfig::enabled`]).
    manager: Option<RecoveryManager>,
    /// Chronological record of faults, detections and recoveries.
    fault_log: FaultLog,
    /// Frames per donor node (index `i` is node `i + 1`) whose grants were
    /// dropped without a directory credit: the donor was unreachable when
    /// its zone was force-migrated away, so its debited capacity is lost
    /// until it restarts. The chaos frame-conservation oracle balances
    /// `free + hosted + lost == pool` with this.
    lost_frames: Vec<u64>,
    /// Zones successfully re-homed after a donor failure.
    evacuations: u64,
    /// Per owner node: `(old_base, new_base, frames)` of evacuated zones,
    /// so interrupted and not-yet-issued accesses can be re-aimed.
    pub(crate) evac_remaps: Vec<Vec<(u64, u64, u64)>>,
    /// Per-transaction span tracer (mode per [`crate::TraceConfig`]).
    pub(crate) trace: TraceSink,
    /// Sequence number for global keys ([`World::sched`] outside lane
    /// events).
    pub(crate) gseq: u64,
    /// The lane event executing now, if any (see [`Cursor`]).
    pub(crate) cur: Cursor,
    /// Lane events executed so far per lane (index `i` is node `i + 1`); an
    /// event's per-lane ordinal feeds its children's ordering keys, so these
    /// counts decide same-instant tie-breaks: changing how they advance
    /// changes every report and the pinned golden fingerprints.
    exec_counts: Vec<u64>,
}

impl World {
    /// Build a cluster per `cfg`.
    ///
    /// # Panics
    /// Panics when the fault plan names a node or link the topology does
    /// not contain; [`World::try_new`] reports that as a typed error.
    pub fn new(cfg: ClusterConfig) -> World {
        World::try_new(cfg).unwrap_or_else(|e| panic!("invalid cluster config: {e}"))
    }

    /// Build a cluster per `cfg`, validating the fault plan against the
    /// topology first.
    ///
    /// # Errors
    /// [`WorldConfigError::UnknownFaultNode`] /
    /// [`WorldConfigError::UnknownFaultLink`] when the plan schedules an
    /// event against a node or link that does not exist — such an event
    /// could never strike, which always indicates a mis-built experiment.
    pub fn try_new(cfg: ClusterConfig) -> Result<World, WorldConfigError> {
        for ev in cfg.faults.events() {
            match ev {
                FaultEvent::NodeCrash { node, .. }
                | FaultEvent::NodeRestart { node, .. }
                | FaultEvent::ServerStall { node, .. } => {
                    if !cfg.topology.contains(node) {
                        return Err(WorldConfigError::UnknownFaultNode { node });
                    }
                }
                FaultEvent::LinkDown { a, b, .. } | FaultEvent::LinkUp { a, b, .. } => {
                    let physical = cfg
                        .topology
                        .links()
                        .iter()
                        .any(|&(u, v)| (u, v) == (a, b) || (u, v) == (b, a));
                    if !physical {
                        return Err(WorldConfigError::UnknownFaultLink { a, b });
                    }
                }
            }
        }
        Ok(World::build(cfg))
    }

    fn build(cfg: ClusterConfig) -> World {
        cfg.validate();
        let n = cfg.topology.num_nodes();
        let nodes = (1..=n)
            .map(|i| {
                let id = NodeId::new(i);
                NodeCtx {
                    mem: NodeMemory::new(cfg.dram),
                    client: RmcClient::new(id, cfg.rmc),
                    server: RmcServer::new(id, cfg.rmc),
                    frames: FrameAllocator::new(cfg.private_bytes, cfg.pool_bytes),
                    requester: ResvRequester::new(id),
                    donor: ResvDonor::new(id),
                    region: Region::new(id, cfg.dram.node_bytes() / 4096),
                }
            })
            .collect();
        let mut world = World {
            fabric: Fabric::new(cfg.topology, cfg.fabric),
            nodes,
            directory: Directory::new(cfg.topology, cfg.pool_frames_per_node(), cfg.donor_policy),
            threads: Vec::new(),
            pending: FastMap::default(),
            sync: None,
            coherent_domain: Vec::new(),
            coh: FastMap::default(),
            sampler: None,
            dead: vec![false; n as usize],
            suspected: vec![false; n as usize],
            manager: cfg
                .manager
                .enabled
                .then(|| RecoveryManager::new(cfg.manager, n)),
            fault_log: FaultLog::new(),
            lost_frames: vec![0; n as usize],
            evacuations: 0,
            evac_remaps: vec![Vec::new(); n as usize],
            trace: TraceSink::new(cfg.trace.mode, cfg.trace.capacity),
            queue: EventQueue::new(),
            gseq: 0,
            cur: Cursor::default(),
            exec_counts: vec![0; n as usize],
            cfg,
        };
        let faults: Vec<FaultEvent> = world.cfg.faults.events().collect();
        for ev in faults {
            world.sched(ev.at(), Ev::Fault(ev));
        }
        if world.manager.is_some() {
            let tick = world.cfg.manager.tick;
            world.sched(SimTime::ZERO + tick, Ev::Manager);
        }
        world
    }

    /// Arm the periodic sampling probe: every `interval` of simulated time,
    /// record queue depths and occupancy across the cluster (see [`Sample`]).
    /// The probe only re-arms while other events remain queued, so
    /// [`World::run`] still drains. Call before spawning threads.
    ///
    /// # Panics
    /// Panics on a zero interval.
    pub fn enable_sampling(&mut self, interval: SimDuration) {
        assert!(
            interval > SimDuration::ZERO,
            "sampling interval must be positive"
        );
        self.sampler = Some(Sampler {
            interval,
            samples: Vec::new(),
        });
        let at = self.queue.now() + interval;
        self.sched(at, Ev::Sample);
    }

    /// Observations recorded by the sampling probe so far (empty unless
    /// [`World::enable_sampling`] was called).
    pub fn samples(&self) -> &[Sample] {
        self.sampler.as_ref().map_or(&[], |s| &s.samples)
    }

    fn take_sample(&mut self, now: SimTime) {
        if self.sampler.is_none() {
            return;
        }
        let sample = build_sample(
            now,
            &self.nodes,
            self.fabric.max_link_backlog(now).as_ns_f64(),
            self.queue.len(),
        );
        let sampler = self.sampler.as_mut().expect("checked above");
        let interval = sampler.interval;
        sampler.samples.push(sample);
        // Re-arm only while the cluster still has work in flight; when this
        // probe is the only queued event, sampling would keep the run alive
        // forever.
        if !self.queue.is_empty() {
            self.sched(now + interval, Ev::Sample);
        }
    }

    /// Configure the coherent-DSM baseline: every `CohReadReq` transaction
    /// makes its home node snoop all of `domain`'s other members before
    /// answering, modelling Opteron-style broadcast coherence stretched
    /// across the fabric (the 3Leaf/Aqua approach of Section II).
    ///
    /// # Errors
    /// The baseline's probe choreography has no loss or failure recovery
    /// (the real aggregating chipsets assumed reliable links too), so this
    /// rejects a lossy fabric and any non-empty fault plan with a
    /// [`WorldConfigError`].
    pub fn set_coherent_domain(&mut self, domain: Vec<NodeId>) -> Result<(), WorldConfigError> {
        if self.cfg.fabric.loss_rate > 0.0 {
            return Err(WorldConfigError::LossyCoherentDomain {
                loss_rate: self.cfg.fabric.loss_rate,
            });
        }
        if !self.cfg.faults.is_empty() {
            return Err(WorldConfigError::FaultyCoherentDomain);
        }
        self.coherent_domain = domain;
        Ok(())
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Current simulated time of the event engine.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events processed by the engine since construction. The benchmark
    /// divides this by wall time for an events/second throughput figure.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// The interconnect (for statistics).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The cluster free-memory directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Mutable directory access (experiments pin donor orders through it).
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.directory
    }

    /// The client RMC of `node` (statistics).
    pub fn client(&self, node: NodeId) -> &RmcClient {
        &self.nodes[node.index()].client
    }

    /// The server RMC of `node` (statistics).
    pub fn server(&self, node: NodeId) -> &RmcServer {
        &self.nodes[node.index()].server
    }

    /// The DRAM of `node` (statistics).
    pub fn memory(&self, node: NodeId) -> &NodeMemory {
        &self.nodes[node.index()].mem
    }

    /// The memory region of `node`.
    pub fn region(&self, node: NodeId) -> &Region {
        &self.nodes[node.index()].region
    }

    // ------------------------------------------------------------------
    // Reservation (software path, functional)
    // ------------------------------------------------------------------

    /// Reserve `frames` pool frames for `asker` from `donor` (or let the
    /// directory pick one when `None`). Grows the asker's region. Returns
    /// the reservation; the caller charges
    /// [`crate::config::OsTiming::reservation`] to its own clock.
    ///
    /// # Panics
    /// Panics if no donor can satisfy the request (callers size experiments
    /// within the pool) or on protocol violations.
    pub fn reserve_remote(
        &mut self,
        asker: NodeId,
        frames: u64,
        donor: Option<NodeId>,
    ) -> Reservation {
        let donor_id = donor
            .or_else(|| self.directory.choose_donor(asker, frames))
            .unwrap_or_else(|| panic!("no donor can lend {frames} frames to {asker}"));
        assert_ne!(donor_id, asker, "reservation donor must differ from asker");
        // Requester kernel -> donor kernel messages (functional).
        let req_msg = self.nodes[asker.index()]
            .requester
            .request(donor_id, frames);
        let ack = {
            let donor_ctx = &mut self.nodes[donor_id.index()];
            donor_ctx
                .donor
                .on_request(&req_msg, &mut donor_ctx.frames)
                .unwrap_or_else(|e| panic!("donor {donor_id} failed: {e}"))
        };
        let resv = self.nodes[asker.index()]
            .requester
            .on_ack(&ack)
            .expect("fresh ack");
        self.directory.debit(donor_id, frames);
        self.nodes[asker.index()].region.extend(Segment {
            home: donor_id,
            base: resv.prefixed_base,
            frames,
        });
        // The reservation round is off the access path; the caller charges
        // `OsTiming::reservation` to its own clock starting now.
        let t0 = self.queue.now();
        self.trace
            .standalone(Phase::Resv, asker.get(), t0, t0 + self.cfg.os.reservation);
        resv
    }

    /// Release a reservation previously granted to `asker`.
    pub fn release_remote(&mut self, asker: NodeId, resv: Reservation) {
        let rel = self.nodes[asker.index()].requester.release(resv);
        let freed = {
            let donor_ctx = &mut self.nodes[resv.home.index()];
            donor_ctx
                .donor
                .on_release(&rel, &mut donor_ctx.frames)
                .expect("release of unknown grant")
        };
        self.directory.credit(resv.home, freed);
        self.nodes[asker.index()]
            .region
            .shrink(resv.prefixed_base)
            .expect("region segment missing on release");
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Dispatch one popped event. A lane event first becomes the cursor,
    /// so the events its handler schedules get lane keys derived from it.
    fn handle(&mut self, now: SimTime, key: u128, ev: Ev) {
        let lane = exec::key_lane(key);
        if lane != exec::GLOBAL_LANE {
            // One ordinal per dispatched lane event, dropped ones included.
            let idx = &mut self.exec_counts[lane as usize - 1];
            self.cur = Cursor {
                now,
                lane,
                gen: exec::key_gen(key),
                key,
                idx: *idx,
                child: 0,
            };
            *idx += 1;
        }
        match ev {
            Ev::Sample => self.take_sample(now),
            Ev::Fault(fault) => self.apply_fault(now, fault),
            Ev::Suspect { observer, dead } => self.on_suspect(now, observer, dead),
            Ev::Manager => self.manager_tick(now),
            // A message at a crashed router vanishes with the router.
            Ev::Hop { at, .. } if self.dead[at.index()] => {}
            Ev::Hop { msg, at } => self.hop(now, msg, at),
            // The DRAM completion of a node that crashed mid-service.
            Ev::MemDone { msg, .. } if self.dead[msg.dst.index()] => {}
            Ev::MemDone { msg, arrived } => self.mem_done(now, msg, arrived),
            Ev::ThreadWake { id } => self.thread_step(now, id),
            Ev::Timeout { tag, attempt } => self.on_timeout(now, tag, attempt),
        }
        self.cur.lane = exec::GLOBAL_LANE;
    }

    /// Fire a timeout handler directly (test hook for stale-timer races).
    #[cfg(test)]
    fn fire_timeout(&mut self, now: SimTime, tag: u64, attempt: u32) {
        let key = exec::make_key((tag >> 48) as u16, 0, 0, self.gseq, 0);
        self.gseq += 1;
        self.handle(now, key, Ev::Timeout { tag, attempt });
    }

    // ------------------------------------------------------------------
    // Failure detection and recovery
    // ------------------------------------------------------------------

    /// `observer`'s client RMC gave up on `dead` ([`Ev::Suspect`]): mark it
    /// suspect, zero its directory capacity, evacuate zones homed there, and
    /// abort every outstanding transaction aimed at it. Idempotent — a
    /// duplicate declaration (several requesters timing out on the same
    /// home) only sweeps an empty doomed set.
    fn on_suspect(&mut self, now: SimTime, observer: NodeId, dead: NodeId) {
        if !self.nodes[observer.index()].client.is_suspect(dead) {
            self.nodes[observer.index()].client.mark_suspect(dead);
            self.suspected[dead.index()] = true;
            self.fault_log.record(
                now,
                "suspect",
                format!("node {observer} declares node {dead} failed (retry budget exhausted)"),
            );
            self.directory.set_free(dead, 0);
            self.evacuate(now, observer, dead);
        }
        self.fail_pending(now, |m| m.src == observer && m.dst == dead);
    }

    /// Remove every in-flight transaction whose message matches `pred` and
    /// abort it at its issuing client. The sweep runs in tag order: the
    /// map's iteration order depends on insertion history and must not leak
    /// into output.
    fn take_pending(&mut self, pred: impl Fn(&Message) -> bool) -> Vec<PendingTx> {
        let mut taken: Vec<PendingTx> = self
            .pending
            .values()
            .filter(|p| pred(&p.msg))
            .copied()
            .collect();
        taken.sort_unstable_by_key(|p| p.msg.tag);
        for p in &taken {
            self.pending.remove(&p.msg.tag);
            self.nodes[p.msg.src.index()].client.abort(p.msg.tag);
        }
        taken
    }

    /// Fail every in-flight transaction whose message matches `pred` at
    /// `now` (its home was declared failed or is unreachable): close its
    /// trace and tell its owner. A thread re-aims the access through an
    /// evacuation remap or records it failed, the blocking driver returns
    /// it failed, and nobody waits on a posted write.
    fn fail_pending(&mut self, now: SimTime, pred: impl Fn(&Message) -> bool) {
        for p in self.take_pending(pred) {
            self.trace.finish(p.msg.tag, now, true);
            match p.owner {
                Owner::Thread(id) => self.thread_abort(now, id, p.msg),
                Owner::Sync => self.sync = Some(Err(now)),
                Owner::Posted => {}
            }
        }
    }

    /// Re-home every zone of `owner`'s region whose home is `dead`
    /// (directory-assisted re-reservation on a donor with capacity and a
    /// zone-base rewrite), or drop it when no donor can take it / policy is
    /// [`EvacuationPolicy::Fail`]. The owner's threads keep running: their
    /// zone tables are rewritten and interrupted accesses re-aimed through
    /// the recorded remap.
    fn evacuate(&mut self, now: SimTime, owner: NodeId, dead: NodeId) {
        let doomed: Vec<Segment> = self.nodes[owner.index()]
            .region
            .segments()
            .iter()
            .filter(|s| s.home == dead)
            .copied()
            .collect();
        for seg in doomed {
            self.nodes[owner.index()]
                .region
                .shrink(seg.base)
                .expect("doomed segment exists");
            // Discard the stale grant; the release message goes nowhere —
            // its donor is dead.
            let stale = self.nodes[owner.index()]
                .requester
                .held()
                .iter()
                .copied()
                .find(|r| r.home == dead && r.prefixed_base == seg.base);
            if let Some(r) = stale {
                let _ = self.nodes[owner.index()].requester.release(r);
            }
            let new_donor = match self.cfg.recovery.evacuation {
                EvacuationPolicy::Rehome => {
                    self.recovery_donor(now, owner, seg.frames, dead, self.manager.as_ref())
                }
                EvacuationPolicy::Fail => None,
            };
            let Some(new_donor) = new_donor else {
                self.fault_log.record(
                    now,
                    "evacuation_failed",
                    format!(
                        "zone {:#x} ({} frames) on dead node {dead} dropped (no donor; \
                         accesses to it fail)",
                        seg.base, seg.frames
                    ),
                );
                continue;
            };
            self.rehome_zone(now, owner, seg, new_donor, dead, Phase::Evac);
        }
    }

    /// Move `owner`'s zone `seg`, whose grant on `from` is already dropped
    /// or released, to `donor`: reserve it there, rewrite the owner's
    /// thread zone tables, and record the remap that re-aims interrupted
    /// and not-yet-issued accesses. `phase` is [`Phase::Evac`] for an
    /// evacuation after a failure declaration and [`Phase::Migrate`] for a
    /// recovery-manager migration; it also picks the fault-log entry.
    fn rehome_zone(
        &mut self,
        now: SimTime,
        owner: NodeId,
        seg: Segment,
        donor: NodeId,
        from: NodeId,
        phase: Phase,
    ) {
        let new = self.reserve_remote(owner, seg.frames, Some(donor));
        for th in self.threads.iter_mut().filter(|th| th.spec.node == owner) {
            for z in th.spec.zones.iter_mut().filter(|z| z.0 == seg.base) {
                z.0 = new.prefixed_base;
            }
        }
        self.evac_remaps[owner.index()].push((seg.base, new.prefixed_base, seg.frames));
        self.evacuations += 1;
        self.trace
            .standalone(phase, owner.get(), now, now + self.cfg.os.reservation);
        let (kind, moved) = if phase == Phase::Evac {
            ("evacuation", "re-homed")
        } else {
            ("migration", "migrated")
        };
        self.fault_log.record(
            now,
            kind,
            format!(
                "zone {:#x} ({} frames) {moved} from node {from} to node {}",
                seg.base, seg.frames, new.home
            ),
        );
    }

    /// Pick a donor for a recovery re-reservation of `frames` frames for
    /// `asker`, never `avoid`. With a recovery manager `mgr` this is
    /// load-aware (most free frames, lowest pressure, excluding dead /
    /// isolated / suspected / shed nodes); otherwise — or when the manager
    /// has no viable candidate — it falls back to the static directory
    /// policy.
    fn recovery_donor(
        &self,
        now: SimTime,
        asker: NodeId,
        frames: u64,
        avoid: NodeId,
        mgr: Option<&RecoveryManager>,
    ) -> Option<NodeId> {
        let managed = mgr.and_then(|mgr| {
            let obs = self.observe(now);
            mgr.choose_recovery_donor(asker, frames, &obs)
        });
        managed
            .filter(|&d| d != avoid && self.directory.free_frames(d) >= frames)
            .or_else(|| {
                self.directory
                    .choose_donor(asker, frames)
                    .filter(|&d| d != avoid)
            })
    }

    /// Build the per-node observation vector the recovery manager consumes:
    /// liveness, reachability, suspicion, queue pressure, spare capacity and
    /// whether anyone's zones are homed on the node.
    fn observe(&self, now: SimTime) -> Vec<NodeObservation> {
        let isolated = self.fabric.isolated_nodes();
        (1..=self.cfg.topology.num_nodes())
            .map(|i| {
                let id = NodeId::new(i);
                let hosts_zones = self.nodes.iter().enumerate().any(|(j, nc)| {
                    j != id.index() && nc.region.segments().iter().any(|s| s.home == id)
                });
                NodeObservation {
                    node: id,
                    dead: self.dead[id.index()],
                    isolated: isolated[i as usize],
                    suspected: self.suspected[id.index()],
                    server_backlog: self.nodes[id.index()].server.engine_backlog(now),
                    link_backlog: self.fabric.node_link_backlog(now, id),
                    free_frames: self.directory.free_frames(id),
                    hosts_zones,
                }
            })
            .collect()
    }

    /// One recovery-manager control-loop tick ([`Ev::Manager`]): observe the
    /// cluster, let the pure policy engine decide, apply its actions, and
    /// re-arm. The tick re-arms only while threads are unfinished or
    /// transactions are in flight — never on a non-empty event queue, which
    /// would keep the sampler and the manager alive through each other
    /// forever.
    fn manager_tick(&mut self, now: SimTime) {
        let Some(mut mgr) = self.manager.take() else {
            return;
        };
        let obs = self.observe(now);
        let tick = self.cfg.manager.tick;
        for action in mgr.tick(&obs) {
            match action {
                ManagerAction::Shed { target } => {
                    for nc in &mut self.nodes {
                        nc.client.set_shed(target);
                    }
                    self.trace
                        .standalone(Phase::Shed, target.get(), now, now + tick);
                    self.fault_log.record(
                        now,
                        "shed",
                        format!("node {target} load-shed (admission control engaged)"),
                    );
                }
                ManagerAction::Readmit { target } => {
                    for nc in &mut self.nodes {
                        nc.client.clear_shed(target);
                    }
                    self.fault_log.record(
                        now,
                        "readmit",
                        format!("node {target} re-admitted (pressure below hysteresis floor)"),
                    );
                }
                ManagerAction::Rehome { from } => self.manager_rehome(now, from, &mgr),
            }
        }
        self.manager = Some(mgr);
        if self.threads.iter().any(|t| t.finished.is_none()) || !self.pending.is_empty() {
            self.sched(now + tick, Ev::Manager);
        }
    }

    /// Proactively migrate every zone homed on `from` to a load-aware donor
    /// — the manager's fast path around the retry-budget detection latency.
    /// For a dead or isolated `from` the stale grant is dropped (its data
    /// is already gone); for a live-but-overloaded `from` the zone is
    /// released back properly (live migration). In-flight transactions
    /// aimed at an unreachable `from` are aborted so their threads re-aim
    /// through the recorded remap immediately instead of burning their
    /// retry budgets.
    fn manager_rehome(&mut self, now: SimTime, from: NodeId, mgr: &RecoveryManager) {
        let from_gone =
            self.dead[from.index()] || self.fabric.isolated_nodes()[from.get() as usize];
        let owners: Vec<NodeId> = (1..=self.cfg.topology.num_nodes())
            .map(NodeId::new)
            .filter(|&o| o != from && !self.dead[o.index()])
            .collect();
        for owner in owners {
            let doomed: Vec<Segment> = self.nodes[owner.index()]
                .region
                .segments()
                .iter()
                .filter(|s| s.home == from)
                .copied()
                .collect();
            for seg in doomed {
                let held = self.nodes[owner.index()]
                    .requester
                    .held()
                    .iter()
                    .copied()
                    .find(|r| r.home == from && r.prefixed_base == seg.base);
                let Some(r) = held else { continue };
                let Some(donor) = self.recovery_donor(now, owner, seg.frames, from, Some(mgr))
                else {
                    self.fault_log.record(
                        now,
                        "rehome_failed",
                        format!(
                            "zone {:#x} ({} frames) on node {from} stays put (no donor)",
                            seg.base, seg.frames
                        ),
                    );
                    continue;
                };
                if from_gone {
                    // The grant is stale: drop it without crediting the
                    // directory (the crash/partition already zeroed or
                    // stranded that capacity).
                    self.nodes[owner.index()]
                        .region
                        .shrink(seg.base)
                        .expect("doomed segment exists");
                    let _ = self.nodes[owner.index()].requester.release(r);
                    self.lost_frames[from.index()] += seg.frames;
                } else {
                    self.release_remote(owner, r);
                }
                self.rehome_zone(now, owner, seg, donor, from, Phase::Migrate);
            }
        }
        if from_gone {
            // Abort in-flight traffic aimed at the unreachable node so its
            // issuers re-aim through the remaps now.
            self.fail_pending(now, |m| m.dst == from);
        }
    }

    /// Thread `id`'s in-flight access `msg` was aborted because its home
    /// died. If the zone was evacuated, re-aim the access at the new home
    /// (charging the re-reservation — and optionally re-fetch — latency);
    /// otherwise record it as failed.
    fn thread_abort(&mut self, now: SimTime, id: usize, msg: Message) {
        let node = self.threads[id].spec.node;
        let Some((dst, addr)) = self.remap(node, msg.addr) else {
            self.resolve(now, id, Resolution::Failed);
            return;
        };
        let th = &mut self.threads[id];
        th.pending = Some((dst, msg.kind, addr));
        th.evacuated_retries += 1;
        let mut delay = self.cfg.os.reservation;
        if self.cfg.recovery.refetch {
            delay += self.cfg.os.fault_overhead;
        }
        self.sched(now + delay, Ev::ThreadWake { id });
    }

    /// Apply one scheduled fault (or repair) to the cluster.
    fn apply_fault(&mut self, now: SimTime, fault: FaultEvent) {
        match fault {
            FaultEvent::NodeCrash { node, .. } => {
                if self.dead[node.index()] {
                    return;
                }
                self.dead[node.index()] = true;
                self.fabric.set_node_down(node);
                self.directory.set_free(node, 0);
                self.fault_log
                    .record(now, "node_crash", format!("node {node} crashed"));
                // Threads on the node die with their remaining work failed.
                for i in 0..self.threads.len() {
                    let th = &mut self.threads[i];
                    if th.spec.node == node && th.finished.is_none() {
                        let remaining = th.spec.accesses - th.resolved();
                        th.failed += remaining;
                        th.finished = Some(now);
                        // Keep the trace's tx accounting consistent with the
                        // thread accounting: each bulk-failed access gets a
                        // zero-length failed envelope.
                        for _ in 0..remaining {
                            self.trace.fail_fast(node.get(), now);
                        }
                    }
                }
                // Transactions issued by the dead node vanish with it.
                for p in self.take_pending(|m| m.src == node) {
                    let tag = p.msg.tag;
                    match p.owner {
                        // The thread's bulk-fail above already accounted for
                        // this access; drop the half-built trace silently.
                        Owner::Thread(_) => self.trace.abandon(tag),
                        Owner::Sync => {
                            self.trace.finish(tag, now, true);
                            self.sync = Some(Err(now));
                        }
                        Owner::Posted => self.trace.finish(tag, now, true),
                    }
                }
            }
            FaultEvent::NodeRestart { node, .. } => {
                if !self.dead[node.index()] {
                    return;
                }
                self.dead[node.index()] = false;
                self.fabric.set_node_up(node);
                let ctx = &mut self.nodes[node.index()];
                ctx.frames = FrameAllocator::new(self.cfg.private_bytes, self.cfg.pool_bytes);
                ctx.donor = ResvDonor::new(node);
                self.directory
                    .set_free(node, self.cfg.pool_frames_per_node());
                for peer in &mut self.nodes {
                    peer.client.clear_suspect(node);
                }
                self.suspected[node.index()] = false;
                self.lost_frames[node.index()] = 0;
                self.fault_log.record(
                    now,
                    "node_restart",
                    format!("node {node} rejoined with a cold pool"),
                );
            }
            FaultEvent::LinkDown { a, b, .. } => {
                self.fabric.set_link_down(a, b);
                self.fault_log
                    .record(now, "link_down", format!("link {a} <-> {b} down"));
            }
            FaultEvent::LinkUp { a, b, .. } => {
                self.fabric.set_link_up(a, b);
                self.fault_log
                    .record(now, "link_up", format!("link {a} <-> {b} repaired"));
            }
            FaultEvent::ServerStall { node, duration, .. } => {
                if !self.dead[node.index()] {
                    self.nodes[node.index()].server.stall(now, duration);
                    self.fault_log.record(
                        now,
                        "server_stall",
                        format!("server RMC on node {node} wedged for {duration}"),
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Blocking (single-outstanding) transactions
    // ------------------------------------------------------------------

    /// Run one remote transaction to completion and return the instant the
    /// issuing core observes it. `start` must not precede the engine clock.
    ///
    /// Models the prototype's access path exactly: one outstanding request
    /// per core to the RMC range, NACK/retry included.
    ///
    /// # Panics
    /// Panics if traffic threads are concurrently active (blocking mode is
    /// for single-core processes; drive concurrent load with threads), or if
    /// the home node is declared failed mid-access — fault-tolerant callers
    /// use [`World::try_blocking_transaction`].
    pub fn blocking_transaction(
        &mut self,
        start: SimTime,
        src: NodeId,
        dst: NodeId,
        kind: MsgKind,
        addr: u64,
    ) -> SimTime {
        match self.try_blocking_transaction(start, src, dst, kind, addr) {
            AccessOutcome::Completed { at } => at,
            AccessOutcome::Failed { node, .. } => {
                panic!("blocking transaction failed: home node {node} declared dead")
            }
            AccessOutcome::Shed { node, .. } => {
                panic!("blocking transaction refused: home node {node} is load-shed")
            }
        }
    }

    /// Like [`World::blocking_transaction`], but a home-node failure is
    /// reported as [`AccessOutcome::Failed`] instead of retrying forever:
    /// after the retry budget ([`crate::RecoveryConfig::max_retries`]) is
    /// exhausted the node is declared suspect and the access aborted.
    /// Accesses to an already-suspect node fail immediately.
    ///
    /// # Panics
    /// Panics if traffic threads are concurrently active.
    pub fn try_blocking_transaction(
        &mut self,
        start: SimTime,
        src: NodeId,
        dst: NodeId,
        kind: MsgKind,
        addr: u64,
    ) -> AccessOutcome {
        assert!(
            self.threads.iter().all(|t| t.finished.is_some()),
            "blocking_transaction while traffic threads are active"
        );
        let mut t = start.max(self.queue.now());
        let t_first = t;
        loop {
            if self.nodes[src.index()].client.is_suspect(dst) {
                self.trace.fail_fast(src.get(), t);
                return AccessOutcome::Failed { node: dst, at: t };
            }
            if self.nodes[src.index()].client.is_shed(dst) {
                self.nodes[src.index()].client.note_shed_deferral();
                return AccessOutcome::Shed { node: dst, at: t };
            }
            match self.nodes[src.index()].client.submit(t, dst, kind, addr) {
                Submit::Accepted { msg, inject_at } => {
                    self.launch(Owner::Sync, msg, inject_at, t_first, t);
                    break;
                }
                Submit::Nacked { retry_at } => {
                    // Slots may be held by in-flight posted writes; pump the
                    // queue up to the retry instant so they can drain.
                    self.pump_until(retry_at);
                    t = retry_at;
                }
            }
        }
        loop {
            match self.sync.take() {
                Some(Ok(at)) => return AccessOutcome::Completed { at },
                Some(Err(at)) => return AccessOutcome::Failed { node: dst, at },
                None => {}
            }
            let (at, key, ev) = self
                .queue
                .pop_entry()
                .expect("blocking transaction lost (queue drained)");
            self.handle(at, key, ev);
        }
    }

    /// Issue a *posted* transaction: the core is released as soon as the
    /// RMC accepts the write (HyperTransport posted semantics); the
    /// transaction still occupies a request slot, the fabric and the home
    /// node until its acknowledgement returns. Returns the instant the core
    /// may continue.
    ///
    /// Pending posted traffic drains whenever the event queue is pumped; a
    /// backend that needs everything settled calls
    /// [`World::drain_background`].
    pub fn posted_transaction(
        &mut self,
        start: SimTime,
        src: NodeId,
        dst: NodeId,
        kind: MsgKind,
        addr: u64,
    ) -> SimTime {
        let mut t = start.max(self.queue.now());
        let t_first = t;
        loop {
            match self.nodes[src.index()].client.submit(t, dst, kind, addr) {
                Submit::Accepted { msg, inject_at } => {
                    self.launch(Owner::Posted, msg, inject_at, t_first, t);
                    return inject_at;
                }
                // All slots busy: even a posted write stalls at the
                // interface until a slot frees. Pump the queue so slots can
                // actually free while we wait.
                Submit::Nacked { retry_at } => {
                    self.pump_until(retry_at);
                    t = retry_at;
                }
            }
        }
    }

    /// Run every queued event due at or before `t` (a NACKed driver waiting
    /// for a request slot to free).
    fn pump_until(&mut self, t: SimTime) {
        while self.queue.peek_time().is_some_and(|pt| pt <= t) {
            let (at, key, ev) = self.queue.pop_entry().expect("peeked");
            self.handle(at, key, ev);
        }
    }

    /// Run the event queue dry (no sync waiter may be outstanding): settles
    /// all posted traffic. Returns the instant the last event fired.
    pub fn drain_background(&mut self) -> SimTime {
        assert!(self.sync.is_none(), "drain during a blocking transaction");
        while let Some((at, key, ev)) = self.queue.pop_entry() {
            self.handle(at, key, ev);
        }
        self.queue.now()
    }

    /// Timed *local* access on `node` (used by backends for non-remote
    /// physical addresses).
    pub fn local_access(&mut self, now: SimTime, node: NodeId, addr: u64, bytes: u32) -> SimTime {
        self.nodes[node.index()].mem.access(now, addr, bytes)
    }

    /// Allocate one frame from `node`'s private region (local OS memory).
    pub fn alloc_private_frame(&mut self, node: NodeId) -> Option<u64> {
        self.nodes[node.index()].frames.alloc_private()
    }

    /// Unloaded estimate of a remote read round trip from `src` to `dst`
    /// fetching `bytes` (used by the prefetcher's readiness model and the
    /// analytic equations; ignores queueing).
    pub fn estimate_remote_read_latency(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
    ) -> SimDuration {
        let hops = self.cfg.topology.hops(src, dst);
        let req = MsgKind::ReadReq { bytes };
        let resp = MsgKind::ReadResp { bytes };
        self.cfg.rmc.proc_time * 2
            + self.cfg.rmc.server_proc_time * 2
            + self.fabric.unloaded_latency(req.wire_bytes(), hops)
            + self.fabric.unloaded_latency(resp.wire_bytes(), hops)
            + self.nodes[dst.index()].mem.unloaded_latency(bytes)
    }

    // ------------------------------------------------------------------
    // Traffic threads (Figs. 7-8)
    // ------------------------------------------------------------------

    /// Spawn a traffic thread; it begins issuing at `start`.
    pub fn spawn_thread(&mut self, spec: ThreadSpec, start: SimTime) -> usize {
        self.spawn(spec, start, false)
    }

    /// Spawn a thread whose reads go through the coherent-DSM baseline
    /// (every miss snoops the domain set via [`World::set_coherent_domain`]).
    /// Reads only; the study isolates the protocol's cost, not write races.
    pub fn spawn_coherent_thread(&mut self, spec: ThreadSpec, start: SimTime) -> usize {
        assert!(
            !self.coherent_domain.is_empty(),
            "call set_coherent_domain() before spawning coherent threads"
        );
        let id = self.spawn(spec, start, false);
        self.threads[id].coherent = true;
        id
    }

    /// Spawn a thread that streams its zones *sequentially* by line —
    /// the access pattern of a read-only parallel phase (Section IV-B:
    /// after a flush, several threads may scan shared data with no
    /// coherency traffic).
    pub fn spawn_sequential_thread(&mut self, spec: ThreadSpec, start: SimTime) -> usize {
        self.spawn(spec, start, true)
    }

    fn spawn(&mut self, spec: ThreadSpec, start: SimTime, sequential: bool) -> usize {
        assert!(
            !spec.zones.is_empty(),
            "thread needs at least one target zone"
        );
        assert!(spec.accesses > 0, "thread needs at least one access");
        let id = self.threads.len();
        let rng = Rng::new(spec.seed);
        self.threads.push(Thread {
            rng,
            spec,
            sequential,
            coherent: false,
            issued: 0,
            completed: 0,
            failed: 0,
            shed: 0,
            evacuated_retries: 0,
            pending: None,
            pending_since: None,
            arrivals: Vec::new(),
            zipf: None,
            inflight_since: None,
            latency: None,
            started: start,
            finished: None,
            nack_retries: 0,
        });
        self.sched(start, Ev::ThreadWake { id });
        id
    }

    /// Spawn an **open-loop serving thread**: request `k` enters the system
    /// at `arrivals[k]` regardless of when earlier requests finish (the
    /// lane serves them in order, so a backed-up lane queues arrivals and
    /// the queueing delay lands in the request's stall phase and end-to-end
    /// latency). Admission-control shedding *drops* the request — the third
    /// terminal outcome, counted by [`World::thread_shed`] — instead of
    /// parking it the way closed-loop threads do, because an open-loop
    /// client cannot hold back its arrival stream. Per-request end-to-end
    /// latency (arrival to completion) is recorded into the deterministic
    /// histogram returned by [`World::thread_latency`].
    ///
    /// `arrivals` must be sorted and hold exactly `spec.accesses` instants;
    /// `spec.think` models per-request service preparation on the core
    /// (applied between a resolution and the next offer).
    ///
    /// # Panics
    /// Panics if `arrivals` is unsorted or its length disagrees with
    /// `spec.accesses`.
    pub fn spawn_serving_thread(
        &mut self,
        spec: ThreadSpec,
        arrivals: Vec<SimTime>,
        pattern: AccessPattern,
    ) -> usize {
        assert_eq!(
            arrivals.len() as u64,
            spec.accesses,
            "serving thread needs one arrival per access"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "serving arrivals must be sorted"
        );
        let start = arrivals[0];
        let id = self.spawn(spec, start, pattern == AccessPattern::Sequential);
        let th = &mut self.threads[id];
        if let AccessPattern::Zipf(s) = pattern {
            let slots_of = |len: u64| (len / th.spec.bytes as u64).max(1);
            let total: u64 = th.spec.zones.iter().map(|&(_, l)| slots_of(l)).sum();
            th.zipf = Some(Zipf::new(total as usize, s));
        }
        th.arrivals = arrivals;
        th.latency = Some(Box::new(LatencyHistogram::new()));
        id
    }

    /// Run the event loop until every event has drained (all threads done).
    ///
    /// # Panics
    /// Panics if the loop exceeds a safety limit proportional to the total
    /// work (indicates a livelock bug).
    pub fn run(&mut self) {
        let total_accesses: u64 = self.threads.iter().map(|t| t.spec.accesses).sum();
        // Generous bound: hops + retries per access.
        let limit = 1_000 + total_accesses.saturating_mul(2_000);
        while let Some((at, key, ev)) = self.queue.pop_entry() {
            self.handle(at, key, ev);
            assert!(
                self.queue.processed() <= limit,
                "event budget exceeded: livelock at {at}"
            );
        }
        // Close the time series with a drain-time sample so the tail of the
        // run (after the last whole interval) is represented too.
        let now = self.queue.now();
        let needs_final = self
            .sampler
            .as_ref()
            .is_some_and(|s| s.samples.last().map(|x| x.at) != Some(now));
        if needs_final {
            self.take_sample(now);
        }
    }

    /// Wall-clock (simulated) duration of thread `id`, once [`World::run`]
    /// has drained.
    ///
    /// # Panics
    /// Panics if the thread has not finished.
    pub fn thread_elapsed(&self, id: usize) -> SimDuration {
        let th = &self.threads[id];
        th.finished
            .expect("thread not finished; call run() first")
            .since(th.started)
    }

    /// NACK retries suffered by thread `id`.
    pub fn thread_nacks(&self, id: usize) -> u64 {
        self.threads[id].nack_retries
    }

    /// Number of traffic threads spawned so far (ids are `0..this`).
    pub fn threads_spawned(&self) -> usize {
        self.threads.len()
    }

    /// The access budget thread `id` was spawned with.
    pub fn thread_accesses(&self, id: usize) -> u64 {
        self.threads[id].spec.accesses
    }

    /// Accesses of thread `id` that completed.
    pub fn thread_completed(&self, id: usize) -> u64 {
        self.threads[id].completed
    }

    /// Accesses of thread `id` abandoned because their home node (or the
    /// thread's own node) was declared failed.
    pub fn thread_failed(&self, id: usize) -> u64 {
        self.threads[id].failed
    }

    /// Open-loop requests of thread `id` dropped by admission control
    /// (always 0 for closed-loop threads, which defer instead). Together
    /// with completed and failed this conserves the request count:
    /// `completed + failed + shed == accesses` once the run drains.
    pub fn thread_shed(&self, id: usize) -> u64 {
        self.threads[id].shed
    }

    /// Per-request end-to-end latency histogram (arrival to completion) of
    /// serving thread `id`; `None` for closed-loop threads. Deterministic.
    pub fn thread_latency(&self, id: usize) -> Option<&LatencyHistogram> {
        self.threads[id].latency.as_deref()
    }

    /// Accesses of thread `id` re-issued against a new home after an
    /// evacuation.
    pub fn thread_evacuated_retries(&self, id: usize) -> u64 {
        self.threads[id].evacuated_retries
    }

    /// Zones successfully re-homed after donor failures.
    pub fn evacuations(&self) -> u64 {
        self.evacuations
    }

    /// The chronological fault/detection/recovery log.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// The per-transaction span tracer (inert unless
    /// [`crate::TraceConfig`] enables it).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// True while `node` is crashed.
    pub fn node_is_dead(&self, node: NodeId) -> bool {
        self.dead[node.index()]
    }

    /// True once any client's failure detector declared `node` failed and it
    /// has not restarted since. Suspicion zeroes the node's directory
    /// capacity, so the chaos frame-conservation oracle exempts suspected
    /// nodes from its equality check.
    pub fn node_is_suspected(&self, node: NodeId) -> bool {
        self.suspected[node.index()]
    }

    /// Pool frames of `node` stranded by grants dropped while it was
    /// unreachable (debited from the directory, never credited back).
    pub fn lost_frames(&self, node: NodeId) -> u64 {
        self.lost_frames[node.index()]
    }

    /// Transactions currently in flight (accepted by a client RMC, not yet
    /// completed or aborted). Zero once [`World::run`] has drained — the
    /// chaos oracles assert exactly that.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The online recovery manager, when [`crate::ManagerConfig::enabled`].
    pub fn manager(&self) -> Option<&RecoveryManager> {
        self.manager.as_ref()
    }

    /// Capture a cluster-wide metrics snapshot at the current engine clock.
    ///
    /// Document schema:
    ///
    /// ```text
    /// { "at_ns": <clock>,
    ///   "nodes": [ { "node": 1,
    ///                "rmc_client": {...}, "rmc_server": {...},
    ///                "dram": {...} }, ... ],
    ///   "fabric": { "delivered": .., "dropped": .., "links": [...] },
    ///   "directory": { "total_free_frames": .., ... },
    ///   "evacuations": ..,
    ///   "faults": [ { "t_ns": .., "kind": .., "detail": .. }, ... ],
    ///   "manager": { "ticks": .., "sheds": .., ... },       // if enabled
    ///   "samples": { "interval_ns": .., "series": [...] }   // if enabled
    /// }
    /// ```
    ///
    /// Utilizations are computed against the current clock as the horizon.
    pub fn snapshot(&self) -> ClusterSnapshot {
        let now = self.queue.now();
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Json::obj([
                    ("node", Json::from((i + 1) as u64)),
                    ("rmc_client", n.client.snapshot(now)),
                    ("rmc_server", n.server.snapshot(now)),
                    ("dram", n.mem.snapshot(now)),
                ])
            })
            .collect::<Vec<_>>();
        let mut fields = vec![
            ("at_ns".to_string(), Json::from(now.as_ns())),
            ("nodes".to_string(), Json::Arr(nodes)),
            ("fabric".to_string(), self.fabric.snapshot(now)),
            ("directory".to_string(), self.directory.snapshot()),
            ("evacuations".to_string(), Json::from(self.evacuations)),
            ("faults".to_string(), self.fault_log.snapshot()),
        ];
        if let Some(mgr) = &self.manager {
            fields.push(("manager".to_string(), mgr.snapshot()));
        }
        if self.trace.enabled() {
            fields.push(("trace".to_string(), self.trace.snapshot()));
        }
        if let Some(sampler) = &self.sampler {
            let series = sampler
                .samples
                .iter()
                .map(|s| {
                    Json::obj([
                        ("t_ns", Json::from(s.at.as_ns())),
                        ("client_in_flight", Json::from(s.client_in_flight.clone())),
                        ("server_backlog_ns", Json::from(s.server_backlog_ns.clone())),
                        ("mem_backlog_ns", Json::from(s.mem_backlog_ns.clone())),
                        ("max_link_backlog_ns", Json::from(s.max_link_backlog_ns)),
                        ("events_queued", Json::from(s.events_queued)),
                        ("completions", Json::from(s.completions.clone())),
                    ])
                })
                .collect::<Vec<_>>();
            fields.push((
                "samples".to_string(),
                Json::obj([
                    ("interval_ns", Json::from(sampler.interval.as_ns())),
                    ("series", Json::Arr(series)),
                ]),
            ));
        }
        ClusterSnapshot {
            at: now,
            doc: Json::Obj(fields),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn world() -> World {
        World::new(ClusterConfig::prototype())
    }

    #[test]
    fn reservation_grows_region_and_debits_directory() {
        let mut w = world();
        let before = w.directory().free_frames(n(2));
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        assert_eq!(resv.home, n(2));
        assert_eq!(w.directory().free_frames(n(2)), before - 1024);
        assert_eq!(w.region(n(1)).borrowed_bytes(), 1024 * 4096);
        // The zone base carries node 2's prefix above the pool base.
        assert_eq!(resv.prefixed_base >> 34, 2);
        w.release_remote(n(1), resv);
        assert_eq!(w.directory().free_frames(n(2)), before);
        assert_eq!(w.region(n(1)).borrowed_bytes(), 0);
    }

    #[test]
    fn directory_policy_used_when_no_explicit_donor() {
        let mut w = world();
        // Nearest policy from corner node 1 picks node 2.
        let resv = w.reserve_remote(n(1), 16, None);
        assert_eq!(resv.home, n(2));
    }

    #[test]
    fn blocking_read_round_trip_makes_sense() {
        let mut w = world();
        let resv = w.reserve_remote(n(1), 16, Some(n(2)));
        let done = w.blocking_transaction(
            SimTime::ZERO,
            n(1),
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base,
        );
        let lat = done.since(SimTime::ZERO);
        // Must cover at least: 4 RMC passes + 2 fabric traversals + DRAM.
        let floor = w.config().rmc.proc_time * 2 + w.config().rmc.server_proc_time * 2;
        assert!(lat > floor, "latency {lat} below component floor {floor}");
        assert!(lat < SimDuration::us(20), "latency {lat} absurdly high");
        assert_eq!(w.client(n(1)).completions(), 1);
        assert_eq!(w.server(n(2)).requests(), 1);
        assert_eq!(w.memory(n(2)).accesses(), 1);
    }

    #[test]
    fn blocking_latency_grows_with_hops() {
        // Fig. 6's core property, now through the full stack.
        let mut prev = SimDuration::ZERO;
        for dst in [2u16, 3, 4, 8, 12, 16] {
            let mut w = world();
            let resv = w.reserve_remote(n(1), 16, Some(n(dst)));
            let done = w.blocking_transaction(
                SimTime::ZERO,
                n(1),
                n(dst),
                MsgKind::ReadReq { bytes: 64 },
                resv.prefixed_base,
            );
            let lat = done.since(SimTime::ZERO);
            assert!(lat > prev, "dst {dst}: {lat} !> {prev}");
            prev = lat;
        }
    }

    #[test]
    fn consecutive_blocking_transactions_are_serial() {
        let mut w = world();
        let resv = w.reserve_remote(n(1), 16, Some(n(2)));
        let t1 = w.blocking_transaction(
            SimTime::ZERO,
            n(1),
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base,
        );
        let t2 = w.blocking_transaction(
            t1,
            n(1),
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base + 64,
        );
        assert!(
            t2.since(t1) >= t1.since(SimTime::ZERO) / 2,
            "second txn unreasonably fast"
        );
        assert_eq!(w.client(n(1)).completions(), 2);
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let mut w = world();
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 100,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 7,
            },
            SimTime::ZERO,
        );
        w.run();
        let elapsed = w.thread_elapsed(id);
        assert!(
            elapsed > SimDuration::us(50),
            "100 remote reads in {elapsed}?"
        );
        assert_eq!(w.client(n(1)).completions(), 100);
        assert_eq!(w.server(n(2)).requests(), 100);
    }

    #[test]
    fn two_threads_roughly_halve_time() {
        // Fig. 7 left group, 1 -> 2 threads: "the required time ... becomes
        // half the time".
        let total = 400u64;
        let elapsed_for = |threads: u64| {
            let mut w = world();
            let resv = w.reserve_remote(n(1), 2048, Some(n(2)));
            let ids: Vec<usize> = (0..threads)
                .map(|k| {
                    w.spawn_thread(
                        ThreadSpec {
                            node: n(1),
                            zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                            accesses: total / threads,
                            bytes: 64,
                            write_fraction: 0.0,
                            think: SimDuration::ns(5),
                            seed: 100 + k,
                        },
                        SimTime::ZERO,
                    )
                })
                .collect();
            w.run();
            ids.iter().map(|&i| w.thread_elapsed(i)).max().unwrap()
        };
        let t1 = elapsed_for(1);
        let t2 = elapsed_for(2);
        let ratio = t2.as_ns_f64() / t1.as_ns_f64();
        assert!(
            (0.45..0.70).contains(&ratio),
            "2-thread ratio {ratio} not near half (t1={t1}, t2={t2})"
        );
    }

    #[test]
    fn four_threads_hit_the_client_rmc_wall() {
        // Fig. 7: "the time does not get reduced in the expected proportion"
        // for four threads.
        let total = 800u64;
        let elapsed_for = |threads: u64| {
            let mut w = world();
            let resv = w.reserve_remote(n(1), 2048, Some(n(2)));
            let ids: Vec<usize> = (0..threads)
                .map(|k| {
                    w.spawn_thread(
                        ThreadSpec {
                            node: n(1),
                            zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                            accesses: total / threads,
                            bytes: 64,
                            write_fraction: 0.0,
                            think: SimDuration::ns(5),
                            seed: 200 + k,
                        },
                        SimTime::ZERO,
                    )
                })
                .collect();
            w.run();
            ids.iter().map(|&i| w.thread_elapsed(i)).max().unwrap()
        };
        let t2 = elapsed_for(2);
        let t4 = elapsed_for(4);
        let ratio = t4.as_ns_f64() / t2.as_ns_f64();
        assert!(
            ratio > 0.7,
            "4 threads should NOT halve again (t4/t2 = {ratio})"
        );
    }

    #[test]
    fn writes_are_acknowledged() {
        let mut w = world();
        let resv = w.reserve_remote(n(1), 16, Some(n(2)));
        let done = w.blocking_transaction(
            SimTime::ZERO,
            n(1),
            n(2),
            MsgKind::WriteReq { bytes: 64 },
            resv.prefixed_base,
        );
        assert!(done > SimTime::ZERO);
        assert_eq!(w.client(n(1)).writes(), 1);
    }

    #[test]
    #[should_panic(expected = "no donor")]
    fn impossible_reservation_panics() {
        let mut w = world();
        w.reserve_remote(n(1), u64::MAX / 4096, None);
    }

    #[test]
    fn scales_to_a_64_node_cluster() {
        // The architecture is not tied to the 4x4 prototype: an 8x8 mesh
        // builds, reserves across the diagonal, and transacts correctly.
        let mut cfg = ClusterConfig::prototype();
        cfg.topology = cohfree_fabric::Topology::Mesh2D {
            width: 8,
            height: 8,
        };
        let mut w = World::new(cfg);
        let client = n(1);
        let server = n(64); // opposite corner: 14 hops
        assert_eq!(cfg.topology.hops(client, server), 14);
        let resv = w.reserve_remote(client, 1024, Some(server));
        assert_eq!(resv.prefixed_base >> 34, 64);
        let near = w.reserve_remote(client, 1024, Some(n(2)));
        let t_far = w.blocking_transaction(
            SimTime::ZERO,
            client,
            server,
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base,
        );
        let t0 = t_far;
        let t_near = w.blocking_transaction(
            t0,
            client,
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            near.prefixed_base,
        );
        assert!(
            t_far.since(SimTime::ZERO) > t_near.since(t0) * 2,
            "14 hops must cost far more than 1"
        );
        assert_eq!(
            w.directory().total_free(),
            64 * cfg.pool_frames_per_node() - 2048
        );
    }

    fn coherent_run(domain_nodes: &[u16], accesses: u64) -> (SimDuration, u64) {
        let mut w = world();
        let domain: Vec<NodeId> = domain_nodes.iter().map(|&i| n(i)).collect();
        w.set_coherent_domain(domain).unwrap();
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        let id = w.spawn_coherent_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 99,
            },
            SimTime::ZERO,
        );
        w.run();
        let probes: u64 = (1..=16).map(|i| w.server(n(i)).probes()).sum();
        (w.thread_elapsed(id), probes)
    }

    #[test]
    fn coherent_baseline_completes_and_probes_every_member() {
        // Domain {1, 2, 5, 6}: home 2 must probe 5 and 6 per miss (not the
        // requester 1, not itself).
        let (elapsed, probes) = coherent_run(&[1, 2, 5, 6], 100);
        assert_eq!(probes, 200, "2 members probed per access");
        assert!(elapsed > SimDuration::ZERO);
    }

    #[test]
    fn coherency_overhead_grows_with_domain_size() {
        // THE paper's thesis, quantified: the same single-node application
        // pays more per access as the coherency domain grows — while the
        // non-coherent architecture is flat by construction.
        let (d2, _) = coherent_run(&[1, 2], 200);
        let (d8, _) = coherent_run(&[1, 2, 3, 4, 5, 6, 7, 8], 200);
        let (d16, _) = coherent_run(&(1..=16).collect::<Vec<u16>>(), 200);
        assert!(
            d8.as_ns_f64() > d2.as_ns_f64() * 1.1,
            "8-node domain {d8} must cost more than 2-node {d2}"
        );
        assert!(
            d16.as_ns_f64() > d8.as_ns_f64() * 1.05,
            "16-node domain {d16} must cost more than 8-node {d8}"
        );
        // And the minimal coherent domain is itself no cheaper than the
        // paper's non-coherent access (extra protocol state, same path).
        let mut w = world();
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 200,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 99,
            },
            SimTime::ZERO,
        );
        w.run();
        let noncoh = w.thread_elapsed(id);
        assert!(
            d2.as_ns_f64() >= noncoh.as_ns_f64() * 0.99,
            "coh {d2} vs noncoh {noncoh}"
        );
    }

    #[test]
    #[should_panic(expected = "set_coherent_domain")]
    fn coherent_thread_requires_a_domain() {
        let mut w = world();
        let resv = w.reserve_remote(n(1), 64, Some(n(2)));
        w.spawn_coherent_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 1,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 1,
            },
            SimTime::ZERO,
        );
    }

    fn lossy_world(loss_rate: f64) -> World {
        let mut cfg = ClusterConfig::prototype();
        cfg.fabric.loss_rate = loss_rate;
        World::new(cfg)
    }

    #[test]
    fn lossy_fabric_still_completes_every_transaction() {
        let mut w = lossy_world(0.05); // brutal: 5% per link traversal
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 300,
                bytes: 64,
                write_fraction: 0.3,
                think: SimDuration::ns(5),
                seed: 5150,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.client(n(1)).completions(), 300, "all must complete");
        assert!(w.fabric().dropped() > 0, "losses must actually occur at 5%");
        assert!(w.client(n(1)).retransmissions() > 0, "recovery must engage");
        assert!(w.thread_elapsed(id) > SimDuration::ZERO);
    }

    #[test]
    fn loss_increases_mean_latency() {
        let run = |loss: f64| {
            let mut w = lossy_world(loss);
            let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
            let id = w.spawn_thread(
                ThreadSpec {
                    node: n(1),
                    zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                    accesses: 400,
                    bytes: 64,
                    write_fraction: 0.0,
                    think: SimDuration::ns(5),
                    seed: 6,
                },
                SimTime::ZERO,
            );
            w.run();
            w.thread_elapsed(id)
        };
        let clean = run(0.0);
        let lossy = run(0.02);
        assert!(
            lossy.as_ns_f64() > clean.as_ns_f64() * 1.05,
            "2% loss must cost time: {clean} vs {lossy}"
        );
    }

    #[test]
    fn blocking_transactions_survive_loss() {
        let mut w = lossy_world(0.1);
        let resv = w.reserve_remote(n(1), 64, Some(n(2)));
        let mut t = SimTime::ZERO;
        for i in 0..50 {
            t = w.blocking_transaction(
                t,
                n(1),
                n(2),
                MsgKind::ReadReq { bytes: 64 },
                resv.prefixed_base + i * 64,
            );
        }
        assert_eq!(w.client(n(1)).completions(), 50);
    }

    #[test]
    fn sequential_walk_respects_per_zone_sizes() {
        // Regression: the walk position used to be split by the FIRST zone's
        // slot count for every zone, so different-sized zones were visited
        // with the wrong share of accesses. With one pass over the combined
        // slot space, each home node must serve exactly its zone's slots.
        let mut w = world();
        let small = w.reserve_remote(n(1), 1, Some(n(2))); // 1 frame = 64 slots
        let large = w.reserve_remote(n(1), 2, Some(n(3))); // 2 frames = 128 slots
        let zones = vec![
            (small.prefixed_base, small.frames * 4096),
            (large.prefixed_base, large.frames * 4096),
        ];
        let total_slots = 64 + 128;
        w.spawn_sequential_thread(
            ThreadSpec {
                node: n(1),
                zones,
                accesses: total_slots,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 11,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.server(n(2)).requests(), 64, "small zone walked once");
        assert_eq!(w.server(n(3)).requests(), 128, "large zone walked once");
    }

    #[test]
    fn sequential_walk_wraps_across_zones() {
        // Two full passes over both zones: every slot visited exactly twice.
        let mut w = world();
        let a = w.reserve_remote(n(1), 1, Some(n(2)));
        let b = w.reserve_remote(n(1), 3, Some(n(5)));
        let zones = vec![
            (a.prefixed_base, a.frames * 4096),
            (b.prefixed_base, b.frames * 4096),
        ];
        w.spawn_sequential_thread(
            ThreadSpec {
                node: n(1),
                zones,
                accesses: 2 * (64 + 192),
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 12,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.server(n(2)).requests(), 128);
        assert_eq!(w.server(n(5)).requests(), 384);
    }

    #[test]
    fn sampling_records_time_series_and_run_still_drains() {
        let mut w = world();
        w.enable_sampling(SimDuration::ns(500));
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 200,
                bytes: 64,
                write_fraction: 0.2,
                think: SimDuration::ns(5),
                seed: 13,
            },
            SimTime::ZERO,
        );
        w.run();
        let samples = w.samples();
        assert!(samples.len() >= 10, "only {} samples", samples.len());
        // Time series is strictly increasing at the configured cadence.
        for pair in samples.windows(2) {
            assert_eq!(pair[1].at.since(pair[0].at), SimDuration::ns(500));
        }
        // The probe saw in-flight work at some point.
        assert!(
            samples.iter().any(|s| s.client_in_flight[0] > 0),
            "sampler never observed in-flight transactions"
        );
        assert_eq!(w.client(n(1)).completions(), 200, "run() drained normally");
    }

    #[test]
    fn snapshot_document_reflects_the_cluster() {
        let mut w = world();
        w.enable_sampling(SimDuration::ns(500));
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 150,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 14,
            },
            SimTime::ZERO,
        );
        w.run();
        let snap = w.snapshot();
        assert_eq!(snap.at, w.now());
        // Round-trip through the serialized form, then inspect.
        let doc = Json::parse(&snap.doc.to_string()).expect("snapshot serializes to valid JSON");
        let nodes = doc.get("nodes").unwrap().as_array().unwrap();
        assert_eq!(nodes.len(), 16);
        let n1 = &nodes[0];
        assert_eq!(n1.get("node").unwrap().as_u64(), Some(1));
        let client = n1.get("rmc_client").unwrap();
        assert_eq!(client.get("completions").unwrap().as_u64(), Some(150));
        assert!(
            client
                .get("engine")
                .unwrap()
                .get("utilization")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        let n2 = &nodes[1];
        assert_eq!(
            n2.get("rmc_server")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_u64(),
            Some(150)
        );
        assert!(
            n2.get("dram")
                .unwrap()
                .get("accesses")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0,
            "home node DRAM must have served accesses"
        );
        let fabric = doc.get("fabric").unwrap();
        assert_eq!(fabric.get("delivered").unwrap().as_u64(), Some(300));
        assert!(!fabric.get("links").unwrap().as_array().unwrap().is_empty());
        let series = doc
            .get("samples")
            .unwrap()
            .get("series")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(series.len() >= 10);
        assert!(series[0].get("t_ns").unwrap().as_u64().unwrap() > 0);
        let dir = doc.get("directory").unwrap();
        assert!(dir.get("total_free_frames").unwrap().as_u64().unwrap() > 0);
    }

    // ------------------------------------------------------------------
    // Fault injection, detection, and recovery
    // ------------------------------------------------------------------

    use crate::fault::FaultPlan;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::us(us)
    }

    #[test]
    fn stale_timeout_after_retransmission_is_ignored() {
        // Regression for the retransmit `attempt`-mismatch race: a timer
        // armed for attempt k must be a no-op once attempt k+1 is in flight,
        // and any timer must be a no-op after the transaction is aborted.
        let mut w = lossy_world(0.5);
        let resv = w.reserve_remote(n(1), 16, Some(n(2)));
        let t0 = w.posted_transaction(
            SimTime::ZERO,
            n(1),
            n(2),
            MsgKind::WriteReq { bytes: 64 },
            resv.prefixed_base,
        );
        let (&tag, p) = w.pending.iter().next().expect("one pending tx");
        assert_eq!(p.attempt, 0);
        // The attempt-0 timer fires: one retransmission, attempt becomes 1.
        w.fire_timeout(t0 + SimDuration::us(30), tag, 0);
        assert_eq!(w.client(n(1)).retransmissions(), 1);
        assert_eq!(w.pending[&tag].attempt, 1);
        // The same stale timer firing again must not retransmit: the
        // transaction now belongs to the attempt-1 timer.
        w.fire_timeout(t0 + SimDuration::us(60), tag, 0);
        assert_eq!(w.client(n(1)).retransmissions(), 1);
        assert_eq!(w.pending[&tag].attempt, 1);
        // After an abort even the current-attempt timer is a no-op.
        w.pending.remove(&tag);
        assert!(w.nodes[n(1).index()].client.abort(tag));
        w.fire_timeout(t0 + SimDuration::us(120), tag, 1);
        assert_eq!(w.client(n(1)).retransmissions(), 1);
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_access_and_marks_suspect() {
        let mut cfg = ClusterConfig::prototype();
        cfg.fabric.loss_rate = 1.0; // nothing ever gets through
        cfg.recovery.max_retries = 4;
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 16, Some(n(2)));
        let out = w.try_blocking_transaction(
            SimTime::ZERO,
            n(1),
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base,
        );
        match out {
            AccessOutcome::Failed { node, at } => {
                assert_eq!(node, n(2));
                assert!(at > SimTime::ZERO, "detection takes time");
            }
            AccessOutcome::Completed { .. } | AccessOutcome::Shed { .. } => {
                panic!("must fail under total loss")
            }
        }
        assert_eq!(w.client(n(1)).retransmissions(), 4, "the full budget");
        assert_eq!(w.client(n(1)).aborted(), 1);
        assert!(w.client(n(1)).is_suspect(n(2)));
        assert_eq!(w.fault_log().count("suspect"), 1);
        // Accesses to an already-suspect home fail immediately, without
        // burning another budget.
        let out2 = w.try_blocking_transaction(
            w.now(),
            n(1),
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base,
        );
        assert!(matches!(out2, AccessOutcome::Failed { .. }));
        assert_eq!(w.client(n(1)).retransmissions(), 4);
    }

    #[test]
    fn saturated_backoff_with_large_retry_budget_terminates() {
        // Regression: the retry backoff was computed as `timeout << attempt`,
        // which wraps past attempt 63 — the delay collapsed to (near) zero
        // and the engine hot-spun through timers at one instant. The delay
        // now clamps the shift and saturates the multiply: with a retry
        // budget past 64, every retry is still scheduled strictly later,
        // the timer instants stay finite, and the run terminates with the
        // access failed and the home suspect.
        let mut cfg = ClusterConfig::prototype();
        cfg.fabric.loss_rate = 1.0; // nothing ever gets through
        cfg.recovery.max_retries = 80;
        cfg.recovery.backoff_cap = 80;
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 16, Some(n(2)));
        let out = w.try_blocking_transaction(
            SimTime::ZERO,
            n(1),
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base,
        );
        match out {
            AccessOutcome::Failed { node, at } => {
                assert_eq!(node, n(2));
                assert!(at < SimTime::MAX, "timer instants must stay finite");
            }
            AccessOutcome::Completed { .. } | AccessOutcome::Shed { .. } => {
                panic!("must fail under total loss")
            }
        }
        assert_eq!(w.client(n(1)).retransmissions(), 80, "the full budget");
        assert!(w.client(n(1)).is_suspect(n(2)));
    }

    #[test]
    fn link_outage_reroutes_traffic_until_repair() {
        let mut cfg = ClusterConfig::prototype();
        cfg.faults = FaultPlan::new()
            .with(FaultEvent::LinkDown {
                at: t(5),
                a: n(1),
                b: n(2),
            })
            .with(FaultEvent::LinkUp {
                at: t(200),
                a: n(1),
                b: n(2),
            });
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 300,
                bytes: 64,
                write_fraction: 0.2,
                think: SimDuration::ns(5),
                seed: 31,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.thread_completed(id), 300, "the mesh routes around it");
        assert_eq!(w.thread_failed(id), 0);
        assert!(w.fabric().rerouted() > 0, "traffic must have detoured");
        assert_eq!(w.fault_log().count("link_down"), 1);
        assert_eq!(w.fault_log().count("link_up"), 1);
    }

    #[test]
    fn donor_crash_evacuates_the_zone_and_accesses_follow_it() {
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.max_retries = 4; // quick detection
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: t(50),
            node: n(2),
        });
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 300,
                bytes: 64,
                write_fraction: 0.2,
                think: SimDuration::ns(5),
                seed: 42,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(
            w.thread_completed(id) + w.thread_failed(id),
            300,
            "every access accounted for"
        );
        assert_eq!(w.evacuations(), 1, "the zone must have been re-homed");
        assert!(
            w.thread_evacuated_retries(id) >= 1,
            "the interrupted access must follow the zone"
        );
        assert_eq!(w.thread_failed(id), 0, "a spare donor exists; nothing lost");
        assert_eq!(w.fault_log().count("suspect"), 1);
        assert_eq!(w.fault_log().count("evacuation"), 1);
        assert!(w.node_is_dead(n(2)));
        // The replacement home actually served the remaining traffic.
        let served_elsewhere: u64 = (3..=16).map(|i| w.server(n(i)).requests()).sum();
        assert!(served_elsewhere > 0, "accesses continued on the new home");
    }

    #[test]
    fn donor_crash_without_spare_capacity_fails_accesses() {
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.max_retries = 2;
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: t(50),
            node: n(2),
        });
        let mut w = World::new(cfg);
        // No node but the (doomed) donor has any pool capacity left.
        for i in 3..=16 {
            w.directory_mut().set_free(n(i), 0);
        }
        w.directory_mut().set_free(n(1), 0);
        let resv = w.reserve_remote(n(1), 256, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 200,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 43,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.thread_completed(id) + w.thread_failed(id), 200);
        assert!(w.thread_failed(id) > 0, "dropped zone accesses must fail");
        assert_eq!(w.evacuations(), 0);
        assert_eq!(w.fault_log().count("evacuation_failed"), 1);
        assert!(w.region(n(1)).borrowed_bytes() == 0, "dead zone dropped");
    }

    #[test]
    fn re_aimed_serving_request_keeps_its_arrival_time() {
        // Regression: an open-loop request interrupted by its donor's crash
        // and re-aimed at the evacuated zone recorded only the time after
        // the re-aim (936 ns) instead of the whole wait since its arrival.
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.max_retries = 4;
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: SimTime::ZERO + SimDuration::ns(500),
            node: n(2),
        });
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 16, Some(n(2)));
        let id = w.spawn_serving_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 1,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ZERO,
                seed: 45,
            },
            vec![SimTime::ZERO],
            AccessPattern::Uniform,
        );
        w.run();
        assert_eq!(w.thread_completed(id), 1);
        assert_eq!(
            w.thread_evacuated_retries(id),
            1,
            "the request was re-aimed"
        );
        let elapsed = w.thread_elapsed(id);
        assert!(
            elapsed > SimDuration::ms(1),
            "retry budget spent: {elapsed}"
        );
        let h = w.thread_latency(id).expect("serving thread");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_ns(), elapsed.as_ns_f64(), "latency from arrival");
    }

    #[test]
    fn crashed_node_restarts_with_a_cold_pool() {
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.max_retries = 2;
        cfg.faults = FaultPlan::new()
            .with(FaultEvent::NodeCrash {
                at: t(30),
                node: n(2),
            })
            .with(FaultEvent::NodeRestart {
                at: t(2_000),
                node: n(2),
            });
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 256, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 100,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 44,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.thread_completed(id) + w.thread_failed(id), 100);
        assert!(!w.node_is_dead(n(2)));
        assert!(!w.client(n(1)).is_suspect(n(2)), "suspicion cleared");
        assert_eq!(
            w.directory().free_frames(n(2)),
            w.config().pool_frames_per_node(),
            "rejoined with a full, cold pool"
        );
        assert_eq!(w.fault_log().count("node_restart"), 1);
        let _ = id;
    }

    #[test]
    fn server_stall_delays_but_loses_nothing() {
        let mut cfg = ClusterConfig::prototype();
        cfg.faults = FaultPlan::new().with(FaultEvent::ServerStall {
            at: t(20),
            node: n(2),
            duration: SimDuration::us(40),
        });
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 200,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 45,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.thread_completed(id), 200, "a stall is not a loss");
        assert_eq!(w.thread_failed(id), 0);
        assert_eq!(w.server(n(2)).stalls(), 1);
        assert_eq!(w.fault_log().count("server_stall"), 1);
    }

    #[test]
    fn coherent_domain_rejects_loss_and_fault_plans() {
        let mut w = lossy_world(0.01);
        assert_eq!(
            w.set_coherent_domain(vec![n(1), n(2)]),
            Err(WorldConfigError::LossyCoherentDomain { loss_rate: 0.01 })
        );
        let mut cfg = ClusterConfig::prototype();
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: t(1),
            node: n(2),
        });
        let mut w2 = World::new(cfg);
        assert_eq!(
            w2.set_coherent_domain(vec![n(1), n(2)]),
            Err(WorldConfigError::FaultyCoherentDomain)
        );
        let mut w3 = world();
        assert!(w3.set_coherent_domain(vec![n(1), n(2)]).is_ok());
    }

    #[test]
    fn snapshot_carries_fault_log_and_evacuations() {
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.max_retries = 2;
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: t(40),
            node: n(2),
        });
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 256, Some(n(2)));
        w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 150,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 46,
            },
            SimTime::ZERO,
        );
        w.run();
        let doc = Json::parse(&w.snapshot().doc.to_string()).expect("valid JSON");
        assert_eq!(doc.get("evacuations").unwrap().as_u64(), Some(1));
        let faults = doc.get("faults").unwrap().as_array().unwrap();
        assert!(faults.len() >= 3, "crash + suspect + evacuation at least");
        assert!(faults
            .iter()
            .any(|f| f.get("kind").unwrap().as_str() == Some("node_crash")));
        // Per-node client snapshots expose the abort count.
        let nodes = doc.get("nodes").unwrap().as_array().unwrap();
        let client = nodes[0].get("rmc_client").unwrap();
        assert!(client.get("aborted").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn duplicate_responses_are_harmless() {
        // With heavy loss and an aggressively short timeout, retransmitted
        // requests race their own slow responses; duplicates must be
        // discarded, not double-completed.
        let mut cfg = ClusterConfig::prototype();
        cfg.fabric.loss_rate = 0.05;
        cfg.rmc.timeout = SimDuration::ns(1_000); // shorter than the 6-hop RTT
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 1024, Some(n(16))); // 6 hops: long RTT
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 200,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 7,
            },
            SimTime::ZERO,
        );
        w.run();
        let _ = id;
        assert_eq!(
            w.client(n(1)).completions(),
            200,
            "exactly one completion each"
        );
        assert!(
            w.client(n(1)).duplicates() > 0,
            "the short timeout should have produced duplicate responses"
        );
    }

    #[test]
    fn fault_plan_naming_unknown_node_or_link_is_rejected() {
        // Regression: a typo'd fault plan used to build a world whose faults
        // could never strike; it now fails construction with a typed error.
        let mut cfg = ClusterConfig::prototype();
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: t(10),
            node: n(77),
        });
        assert!(matches!(
            World::try_new(cfg),
            Err(WorldConfigError::UnknownFaultNode { node }) if node == n(77)
        ));
        let mut cfg = ClusterConfig::prototype();
        // 1 <-> 7 is not a physical link of the 4x4 mesh (1's neighbours
        // are 2 and 5).
        cfg.faults = FaultPlan::new().with(FaultEvent::LinkDown {
            at: t(10),
            a: n(1),
            b: n(7),
        });
        let err = World::try_new(cfg).err().expect("diagonal link rejected");
        assert!(matches!(err, WorldConfigError::UnknownFaultLink { a, b }
            if a == n(1) && b == n(7)));
        assert!(err.to_string().contains("not a physical link"));
        // A well-formed plan (existing node, physical link) still builds.
        let mut cfg = ClusterConfig::prototype();
        cfg.faults = FaultPlan::new()
            .with(FaultEvent::ServerStall {
                at: t(10),
                node: n(3),
                duration: SimDuration::us(5),
            })
            .with(FaultEvent::LinkUp {
                at: t(20),
                a: n(2),
                b: n(1), // reversed endpoint order must also be accepted
            });
        assert!(World::try_new(cfg).is_ok());
    }

    #[test]
    fn shed_home_defers_blocking_accesses_without_burning_retries() {
        let mut w = world();
        let resv = w.reserve_remote(n(1), 64, Some(n(2)));
        w.nodes[n(1).index()].client.set_shed(n(2));
        let out = w.try_blocking_transaction(
            SimTime::ZERO,
            n(1),
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base,
        );
        assert!(matches!(out, AccessOutcome::Shed { node, .. } if node == n(2)));
        assert_eq!(w.client(n(1)).retransmissions(), 0);
        assert_eq!(w.client(n(1)).shed_deferrals(), 1);
        // Re-admission makes the same access complete normally.
        w.nodes[n(1).index()].client.clear_shed(n(2));
        let out = w.try_blocking_transaction(
            w.now(),
            n(1),
            n(2),
            MsgKind::ReadReq { bytes: 64 },
            resv.prefixed_base,
        );
        assert!(matches!(out, AccessOutcome::Completed { .. }));
    }

    #[test]
    fn manager_migrates_zones_off_a_crashed_donor_before_detection() {
        let mut cfg = ClusterConfig::prototype();
        cfg.manager = crate::ManagerConfig::enabled();
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: t(50),
            node: n(2),
        });
        let mut w = World::new(cfg);
        let resv = w.reserve_remote(n(1), 1024, Some(n(2)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 300,
                bytes: 64,
                write_fraction: 0.2,
                think: SimDuration::ns(5),
                seed: 42,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.thread_completed(id) + w.thread_failed(id), 300);
        assert_eq!(w.thread_failed(id), 0, "migration must lose nothing");
        assert_eq!(w.evacuations(), 1, "the zone moved once");
        assert_eq!(w.fault_log().count("migration"), 1);
        // The manager's tick (2 us) beats the retry-budget detection path
        // (default budget: 16 retries with exponential backoff, ~ms): no
        // client ever had to declare the node suspect.
        assert_eq!(w.fault_log().count("suspect"), 0);
        assert!(w.manager().expect("enabled").rehomes() >= 1);
        assert_eq!(w.pending_count(), 0);
    }

    #[test]
    fn manager_sheds_a_stalled_server_and_readmits_it_after_drain() {
        let mut cfg = ClusterConfig::prototype();
        cfg.manager = crate::ManagerConfig::enabled();
        cfg.manager.migrate_after = 0; // isolate admission control
        cfg.faults = FaultPlan::new().with(FaultEvent::ServerStall {
            at: t(20),
            node: n(2),
            duration: SimDuration::us(40),
        });
        let mut w = World::new(cfg);
        let resv2 = w.reserve_remote(n(1), 1024, Some(n(2)));
        // A second zone on a healthy node keeps the thread issuing during
        // the stall (accesses aimed at the shed node defer; the others
        // proceed) instead of sitting blocked behind one queued request.
        let resv3 = w.reserve_remote(n(1), 1024, Some(n(3)));
        let id = w.spawn_thread(
            ThreadSpec {
                node: n(1),
                zones: vec![
                    (resv2.prefixed_base, resv2.frames * 4096),
                    (resv3.prefixed_base, resv3.frames * 4096),
                ],
                accesses: 400,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 45,
            },
            SimTime::ZERO,
        );
        w.run();
        assert_eq!(w.thread_completed(id), 400, "shedding defers, never fails");
        assert!(
            w.fault_log().count("shed") >= 1,
            "the 40 us stall (>> 3 us watermark) must trip admission control"
        );
        assert!(
            w.fault_log().count("readmit") >= 1,
            "the node must be re-admitted once the stall drains"
        );
        assert!(
            w.client(n(1)).shed_deferrals() > 0,
            "accesses were actually deferred"
        );
        assert!(
            !w.client(n(1)).is_shed(n(2)),
            "no node stays shed after the run"
        );
        let mgr = w.manager().expect("enabled");
        assert!(mgr.sheds() >= 1 && mgr.readmits() >= 1);
        assert_eq!(mgr.currently_shed(), 0);
    }

    #[test]
    fn manager_snapshot_appears_only_when_enabled() {
        let w = world();
        assert!(w.snapshot().doc.get("manager").is_none());
        assert!(w.manager().is_none());
        let mut cfg = ClusterConfig::prototype();
        cfg.manager = crate::ManagerConfig::enabled();
        let w = World::new(cfg);
        let doc = w.snapshot().doc;
        let mgr = doc.get("manager").expect("manager stats present");
        assert_eq!(mgr.get("ticks").unwrap().as_u64(), Some(0));
    }

    /// The recovery manager's idle cost on a healthy cluster, measured in
    /// engine events (deterministic, host-independent): enabling it on a
    /// fault-free world must stay under 3% extra events — the periodic
    /// observation tick plus nothing else, since no Shed/Readmit/Rehome
    /// ever fires without a fault.
    #[test]
    fn manager_overhead_on_a_fault_free_world_is_under_three_percent() {
        let events = |manager: bool| {
            let mut cfg = ClusterConfig::prototype();
            if manager {
                cfg.manager = crate::ManagerConfig::enabled();
            }
            let mut w = World::new(cfg);
            let client = n(1);
            let resv = w.reserve_remote(client, 2_048, Some(n(16)));
            for k in 0..4u64 {
                w.spawn_thread(
                    ThreadSpec {
                        node: client,
                        zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                        accesses: 2_000,
                        bytes: 64,
                        write_fraction: 0.2,
                        think: SimDuration::ns(5),
                        seed: 4_400 + k,
                    },
                    SimTime::ZERO,
                );
            }
            w.run();
            (w.events_processed(), w.now())
        };
        let (off, t_off) = events(false);
        let (on, t_on) = events(true);
        // The final manager tick drains after the last workload event, so
        // the end time may trail by at most one tick period.
        assert!(
            t_on >= t_off && t_on.since(t_off) <= SimDuration::us(2),
            "an idle manager must not perturb the workload ({t_on:?} vs {t_off:?})"
        );
        let overhead = on as f64 / off as f64 - 1.0;
        assert!(
            overhead < 0.03,
            "manager adds {:.2}% events on a fault-free world ({on} vs {off})",
            overhead * 100.0
        );
    }
}
