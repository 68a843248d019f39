//! Execution of *lane* events.
//!
//! The world's events fall into two classes:
//!
//! * **Lane events** (`Hop`, `MemDone`, `ThreadWake`, `Timeout`) touch the
//!   state of exactly one node — the event's *lane* — plus cluster-shared
//!   read-only state. They are handled here, against a [`LaneCtx`] that
//!   borrows the world's fields.
//! * **Global events** (`Sample`, `Fault`, `Suspect`, `Manager`) may touch
//!   anything. They stay ordinary `&mut World` methods in `crate::world`.
//!
//! ## Content-determined event keys
//!
//! Events pop in `(time, key)` order, and the *key* of an event is a pure
//! function of the computation — never of the order in which the queue
//! happened to receive it. [`make_key`] packs, from most to least
//! significant:
//!
//! ```text
//! [ lane:16 | gen:8 | parent lane:16 | parent index:48 | child ordinal:16 ]
//! ```
//!
//! * `lane` — the node that will process the event (`0` for globals), so at
//!   one instant all global events sort before all lane events, and lanes
//!   sort by node id.
//! * `gen` — same-instant causality depth: an event scheduled at its
//!   parent's own instant *on the parent's own lane* carries `parent gen +
//!   1`, so it sorts after the parent's siblings of the same generation.
//! * `parent lane`/`parent index` — which event scheduled this one: the
//!   parent's lane and its per-lane execution ordinal (or `0`/a global
//!   sequence number for setup- and global-context scheduling).
//! * `child ordinal` — position among the parent's same-call children.
//!
//! This layout decides every same-instant tie-break, so changing it (or the
//! per-lane ordinals in `World::exec_counts`, or [`suspect_delay`]) changes
//! every report and the pinned golden fingerprints.

use crate::config::ClusterConfig;
use crate::world::{CohState, Ev, NodeCtx, Owner, PendingTx, Resolution, Thread};
use cohfree_fabric::{
    step_row, FabricCounters, FabricRow, FabricShared, Message, MsgKind, NodeId, Step,
};
use cohfree_rmc::{Completion, Submit};
use cohfree_sim::span::{Phase, TraceSink};
use cohfree_sim::{EventQueue, FastMap, SimDuration, SimTime};

/// Lane number of global (whole-world) events; sorts before every node lane.
/// Part of the `(time, key)` tie-break order: changing it changes every
/// report and the pinned golden fingerprints.
pub(crate) const GLOBAL_LANE: u16 = 0;

/// Pack a content-determined event ordering key (see the module docs). The
/// layout decides every same-instant tie-break: changing it changes every
/// report and the pinned golden fingerprints.
#[inline]
pub(crate) fn make_key(lane: u16, gen: u8, parent_lane: u16, parent_idx: u64, child: u16) -> u128 {
    debug_assert!(parent_idx < 1 << 48, "per-lane execution ordinal overflow");
    ((lane as u128) << 88)
        | ((gen as u128) << 80)
        | ((parent_lane as u128) << 64)
        | ((parent_idx as u128) << 16)
        | child as u128
}

/// The processing lane encoded in a key.
#[inline]
pub(crate) fn key_lane(key: u128) -> u16 {
    (key >> 88) as u16
}

/// The same-instant causality generation encoded in a key.
#[inline]
pub(crate) fn key_gen(key: u128) -> u8 {
    (key >> 80) as u8
}

/// The largest single loss-recovery backoff delay: one simulated second.
///
/// Real recovery stacks cap their exponential backoff at a maximum delay;
/// here the ceiling also keeps absolute timer *instants* representable. The
/// clock counts picoseconds in a `u64` (~213 simulated days), so an uncapped
/// exponential — default 30 µs timeout doubled a few dozen times — reaches
/// per-retry delays of ~2e18 ps and walks the clock to `SimTime::MAX` within
/// tens of retries, after which the retransmission path does arithmetic on a
/// saturated clock. At 1 s per retry, even a million-retry budget sums to
/// well inside the clock's range.
pub(crate) const BACKOFF_CEILING: SimDuration = SimDuration::secs(1);

/// Exponential loss-recovery backoff for the `attempt`-th retry of the
/// transaction tagged `tag`:
/// `min(timeout * 2^min(attempt, backoff_cap) * (1 + j), BACKOFF_CEILING)`
/// where `j ∈ [0, retry_jitter)` is a deterministic per-(tag, attempt)
/// fraction. The shift is clamped and the multiply saturates so a retry
/// budget of 64+ cannot wrap the delay to (near) zero and hot-spin the
/// event queue, and the absolute ceiling keeps timer instants finite (see
/// [`BACKOFF_CEILING`]).
///
/// The jitter is a pure function of `(cluster seed, tag, attempt)`, so
/// retries replay exactly from the seed. Tags encode the issuing node in
/// their high bits, so
/// clients whose retries a shared outage synchronized spread back out
/// instead of re-saturating the restored fabric in one wave.
#[inline]
pub(crate) fn backoff_delay(cfg: &ClusterConfig, tag: u64, attempt: u32) -> SimDuration {
    let shift = attempt.min(cfg.recovery.backoff_cap).min(63);
    let base = cfg.rmc.timeout.saturating_mul(1u64 << shift);
    let jitter = cfg.recovery.retry_jitter;
    if jitter <= 0.0 {
        return base.min(BACKOFF_CEILING);
    }
    // SplitMix64-style scramble of (seed, tag, attempt) -> fraction in [0,1).
    let mut h = cfg
        .seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    let extra = SimDuration::ns_f64(base.min(BACKOFF_CEILING).as_ns_f64() * jitter * frac);
    (base.min(BACKOFF_CEILING) + extra).min(BACKOFF_CEILING)
}

/// Delay between a requester exhausting its retry budget and the suspect
/// declaration taking effect cluster-wide ([`Ev::Suspect`]): one minimum hop
/// latency (1 ns on a zero-latency fabric), so the declaration is a
/// strictly-future global event. The deferral decides where the declaration
/// lands among other events: changing it changes every fault-plan report
/// and the pinned golden fingerprints.
#[inline]
pub(crate) fn suspect_delay(shared: &FabricShared) -> SimDuration {
    let w = shared.min_hop_latency();
    if w.is_zero() {
        SimDuration::ns(1)
    } else {
        w
    }
}

// ---------------------------------------------------------------------------
// Lane context
// ---------------------------------------------------------------------------

/// Mutable view of the world's per-node state plus the cluster-shared state
/// a lane event may touch, built by `World::handle` for each lane event.
pub(crate) struct LaneCtx<'a> {
    pub(crate) cfg: &'a ClusterConfig,
    /// Per-node state (index `node.index()`).
    pub(crate) nodes: &'a mut [NodeCtx],
    pub(crate) threads: &'a mut [Thread],
    /// In-flight transactions.
    pub(crate) pending: &'a mut FastMap<u64, PendingTx>,
    /// Per-node evacuation remap tables (index `node.index()`).
    pub(crate) evac_remaps: &'a mut [Vec<(u64, u64, u64)>],
    /// Fabric router rows (index `node.get()`; row 0 is a placeholder).
    pub(crate) rows: &'a mut [FabricRow],
    pub(crate) fab_shared: &'a FabricShared,
    pub(crate) fab_counters: &'a mut FabricCounters,
    /// Cluster-wide crash flags (index `node.index()`).
    pub(crate) dead: &'a [bool],
    /// Coherent-DSM baseline: per-transaction home state and the domain.
    pub(crate) coh: &'a mut FastMap<u64, CohState>,
    pub(crate) coh_domain: &'a [NodeId],
    pub(crate) trace: &'a mut TraceSink,
    pub(crate) queue: &'a mut EventQueue<Ev>,
    /// Blocking-driver completion slot (`Owner::Sync`); failure declaration
    /// is global-only, so there is no failure slot here.
    pub(crate) sync_done: &'a mut Option<(u64, SimTime)>,
    // --- currently executing event (set by `exec_event`) ---
    pub(crate) now: SimTime,
    pub(crate) cur_lane: u16,
    pub(crate) cur_gen: u8,
    pub(crate) cur_key: u128,
    /// Per-lane execution ordinal of the current event.
    pub(crate) cur_idx: u64,
    /// Children scheduled by the current event so far.
    pub(crate) child: u16,
}

impl LaneCtx<'_> {
    #[inline]
    fn node_mut(&mut self, id: NodeId) -> &mut NodeCtx {
        &mut self.nodes[id.index()]
    }

    /// Schedule `ev` on `lane` at `at` under its content-determined key.
    fn sched(&mut self, at: SimTime, lane: u16, ev: Ev) {
        let gen = if at == self.now && lane == self.cur_lane {
            debug_assert!(self.cur_gen < u8::MAX, "same-instant causality too deep");
            self.cur_gen.wrapping_add(1)
        } else {
            0
        };
        let key = make_key(lane, gen, self.cur_lane, self.cur_idx, self.child);
        self.child += 1;
        // The canonical order must be executable: a same-instant child may
        // never sort before the event that scheduled it.
        debug_assert!(
            at > self.now || key > self.cur_key,
            "same-instant event scheduled into the past of the canonical order"
        );
        self.queue.schedule_keyed(at, key, ev);
    }
}

// ---------------------------------------------------------------------------
// Lane-event execution
// ---------------------------------------------------------------------------

/// Execute one lane event against `ctx`. `key` must be the event's own
/// ordering key and `idx` its per-lane execution ordinal.
pub(crate) fn exec_event(ctx: &mut LaneCtx<'_>, now: SimTime, key: u128, idx: u64, ev: Ev) {
    ctx.now = now;
    ctx.cur_lane = key_lane(key);
    ctx.cur_gen = key_gen(key);
    ctx.cur_key = key;
    ctx.cur_idx = idx;
    ctx.child = 0;
    match ev {
        // A message at a crashed router vanishes with the router.
        Ev::Hop { at, .. } if ctx.dead[at.index()] => {}
        Ev::Hop { msg, at } => hop(ctx, now, msg, at),
        // The DRAM completion of a node that crashed mid-service.
        Ev::MemDone { msg, .. } if ctx.dead[msg.dst.index()] => {}
        Ev::MemDone { msg, arrived } => mem_done(ctx, now, msg, arrived),
        Ev::ThreadWake { id } => thread_step(ctx, now, id),
        Ev::Timeout { tag, attempt } => on_timeout(ctx, now, tag, attempt),
        Ev::Sample | Ev::Fault(_) | Ev::Suspect { .. } | Ev::Manager => {
            unreachable!("global event dispatched to a lane context")
        }
    }
}

fn hop(ctx: &mut LaneCtx<'_>, now: SimTime, msg: Message, at: NodeId) {
    let (step, queued) = step_row(
        ctx.fab_shared,
        ctx.fab_counters,
        &mut ctx.rows[at.get() as usize],
        now,
        at,
        &msg,
    );
    if let Step::Forward { arrive, .. } = step {
        trace_hop(ctx, &msg, at, now, arrive, queued);
    }
    match step {
        Step::Forward { next, arrive } => {
            ctx.sched(arrive, next.get(), Ev::Hop { msg, at: next });
        }
        // Lost on a link; the requester's timeout recovers it.
        Step::Dropped => {}
        Step::Deliver { at: t } => match msg.kind {
            // --- coherent-DSM baseline choreography ---
            MsgKind::ProbeReq => {
                let (resp, inject_at) = ctx.node_mut(msg.dst).server.on_probe(t, &msg);
                ctx.sched(
                    inject_at,
                    resp.src.get(),
                    Ev::Hop {
                        msg: resp,
                        at: resp.src,
                    },
                );
            }
            MsgKind::ProbeResp => {
                let done = ctx.node_mut(msg.dst).server.on_probe_response(t);
                let st = ctx
                    .coh
                    .get_mut(&msg.tag)
                    .expect("probe response for unknown coherent transaction");
                st.awaiting_probes -= 1;
                try_finish_coherent(ctx, msg.tag, done);
            }
            MsgKind::CohReadReq { .. } => {
                let home = msg.dst;
                let node = ctx.node_mut(home);
                let issue = node.server.on_request(t, &msg);
                let done = node
                    .mem
                    .access(issue.issue_at, issue.local_addr, issue.bytes);
                ctx.sched(done, home.get(), Ev::MemDone { msg, arrived: t });
                // Broadcast snoops to every other domain member.
                let members: Vec<NodeId> = ctx
                    .coh_domain
                    .iter()
                    .copied()
                    .filter(|&m| m != home && m != msg.src)
                    .collect();
                ctx.coh.insert(
                    msg.tag,
                    CohState {
                        awaiting_probes: members.len(),
                        mem_done: None,
                        req: msg,
                        arrived: t,
                    },
                );
                for m in members {
                    let probe = Message::with_addr(home, m, MsgKind::ProbeReq, msg.tag, msg.addr);
                    ctx.sched(
                        issue.issue_at,
                        home.get(),
                        Ev::Hop {
                            msg: probe,
                            at: home,
                        },
                    );
                }
            }
            // --- ordinary (non-coherent) paths ---
            _ if msg.kind.is_response() => {
                // None = duplicate response under loss recovery.
                if let Some(comp) = ctx.node_mut(msg.dst).client.on_response(t, &msg) {
                    if ctx.trace.enabled() {
                        let node = msg.dst.get();
                        let svc_start = comp.done_at - ctx.cfg.rmc.proc_time;
                        ctx.trace
                            .push(comp.tag, Phase::ClientQueue, node, t, svc_start);
                        ctx.trace.push(
                            comp.tag,
                            Phase::Reply,
                            node,
                            svc_start.max(t),
                            comp.done_at,
                        );
                    }
                    complete(ctx, comp);
                }
            }
            _ => {
                let home = msg.dst;
                let node = ctx.node_mut(home);
                let issue = node.server.on_request(t, &msg);
                let done = node
                    .mem
                    .access(issue.issue_at, issue.local_addr, issue.bytes);
                if ctx.trace.enabled() {
                    let svc_start = issue.issue_at - ctx.cfg.rmc.server_proc_time;
                    ctx.trace
                        .push(msg.tag, Phase::ServerQueue, home.get(), t, svc_start);
                    ctx.trace
                        .push(msg.tag, Phase::Service, home.get(), svc_start.max(t), done);
                }
                ctx.sched(done, home.get(), Ev::MemDone { msg, arrived: t });
            }
        },
    }
}

fn mem_done(ctx: &mut LaneCtx<'_>, now: SimTime, msg: Message, arrived: SimTime) {
    if matches!(msg.kind, MsgKind::CohReadReq { .. }) {
        let st = ctx
            .coh
            .get_mut(&msg.tag)
            .expect("memory completion for unknown coherent transaction");
        st.mem_done = Some(now);
        try_finish_coherent(ctx, msg.tag, now);
    } else {
        let (resp, inject_at) = ctx.node_mut(msg.dst).server.on_mem_done(now, &msg, arrived);
        if ctx.trace.enabled() {
            let home = msg.dst.get();
            let svc_start = inject_at - ctx.cfg.rmc.server_proc_time;
            ctx.trace
                .push(msg.tag, Phase::ServerQueue, home, now, svc_start);
            ctx.trace
                .push(msg.tag, Phase::Reply, home, svc_start.max(now), inject_at);
        }
        ctx.sched(
            inject_at,
            resp.src.get(),
            Ev::Hop {
                msg: resp,
                at: resp.src,
            },
        );
    }
}

/// Release a coherent response once both the DRAM read and every snoop
/// response are in.
fn try_finish_coherent(ctx: &mut LaneCtx<'_>, tag: u64, now: SimTime) {
    let st = ctx.coh.get(&tag).expect("coherent state exists");
    if st.awaiting_probes != 0 || st.mem_done.is_none() {
        return;
    }
    let st = ctx.coh.remove(&tag).expect("checked above");
    let (resp, inject_at) = ctx
        .node_mut(st.req.dst)
        .server
        .on_mem_done(now, &st.req, st.arrived);
    ctx.sched(
        inject_at,
        resp.src.get(),
        Ev::Hop {
            msg: resp,
            at: resp.src,
        },
    );
}

fn complete(ctx: &mut LaneCtx<'_>, comp: Completion) {
    ctx.trace.finish(comp.tag, comp.done_at, false);
    match ctx.pending.remove(&comp.tag).map(|p| p.owner) {
        Some(Owner::Thread(id)) => resolve(ctx, comp.done_at, id, Resolution::Completed),
        Some(Owner::Sync) => {
            *ctx.sync_done = Some((comp.tag, comp.done_at));
        }
        Some(Owner::Posted) => {} // fire-and-forget acknowledged
        None => panic!("completion for unowned tag {:#x}", comp.tag),
    }
}

/// Arm the loss-recovery timer for `tag` if messages can be lost — a lossy
/// fabric, or any fault plan (crashes and outages swallow traffic even over
/// lossless links).
fn arm_timeout(ctx: &mut LaneCtx<'_>, injected_at: SimTime, tag: u64, attempt: u32) {
    if ctx.cfg.fabric.loss_rate > 0.0 || !ctx.cfg.faults.is_empty() {
        let delay = backoff_delay(ctx.cfg, tag, attempt);
        ctx.sched(
            injected_at.saturating_add(delay),
            (tag >> 48) as u16,
            Ev::Timeout { tag, attempt },
        );
    }
}

fn on_timeout(ctx: &mut LaneCtx<'_>, now: SimTime, tag: u64, attempt: u32) {
    let Some(p) = ctx.pending.get_mut(&tag) else {
        return; // completed or aborted; stale timer
    };
    if p.attempt != attempt {
        return; // already retransmitted; a newer timer is armed
    }
    if p.attempt >= ctx.cfg.recovery.max_retries {
        // Retry budget exhausted: the home node is unresponsive. Failure
        // declaration touches cluster-wide state (directory, evacuation),
        // so it is deferred one lookahead window as a global event; the
        // pending transaction stays in place until the declaration sweeps
        // it up, keeping further timers stale-safe.
        let (observer, dead) = (p.msg.src, p.msg.dst);
        let at = now.saturating_add(suspect_delay(ctx.fab_shared));
        ctx.sched(at, GLOBAL_LANE, Ev::Suspect { observer, dead });
        return;
    }
    p.attempt += 1;
    let (msg, new_attempt) = (p.msg, p.attempt);
    let src = msg.src;
    let inject_at = ctx.node_mut(src).client.retransmit(now, tag);
    // The retransmit pass is loss-recovery work; the wait that led to this
    // timeout becomes Retry too, via gap-filling at finish().
    ctx.trace.push_attr(
        tag,
        Phase::Retry,
        src.get(),
        now,
        inject_at,
        Some(("attempt", new_attempt as u64)),
    );
    ctx.sched(inject_at, src.get(), Ev::Hop { msg, at: src });
    arm_timeout(ctx, inject_at, tag, new_attempt);
}

/// Record one terminal outcome of thread `id` at `now` and schedule its
/// next wake, unless that was its last access.
fn resolve(ctx: &mut LaneCtx<'_>, now: SimTime, id: usize, how: Resolution) {
    let th = &mut ctx.threads[id];
    let node = th.spec.node;
    if let Some(wake) = th.resolve(now, how) {
        ctx.sched(wake, node.get(), Ev::ThreadWake { id });
    }
}

fn thread_step(ctx: &mut LaneCtx<'_>, now: SimTime, id: usize) {
    // A wake-up for a thread that died (its node crashed) or already
    // finished (e.g. its last access failed) is stale.
    let node = {
        let th = &mut ctx.threads[id];
        if th.finished.is_some() {
            return;
        }
        th.spec.node
    };
    if ctx.dead[node.index()] {
        return;
    }
    // Take the pending (NACKed or evacuated) access or generate a fresh one.
    let (dst, kind, addr) = {
        let th = &mut ctx.threads[id];
        if let Some(p) = th.pending.take() {
            p
        } else {
            if th.issued == th.spec.accesses {
                return; // nothing left to issue
            }
            th.issued += 1;
            // Open-loop serving threads stamp the request's scheduled
            // arrival as its first offer: wake-ups never run early
            // (`next_issue_at` clamps to the arrival), so on a backed-up
            // lane the arrival precedes `now` and the queueing delay lands
            // in the stall phase and the end-to-end latency.
            if let Some(&arrival) = th.arrivals.get((th.issued - 1) as usize) {
                th.pending_since = Some(arrival);
            }
            let slots_of = |len: u64| (len / th.spec.bytes as u64).max(1);
            let (base, len, slot) = if th.sequential {
                // Walk all zones end-to-end in order, wrapping. Each zone
                // contributes its own slot count — zones may differ in
                // size, so the walk position is resolved against the
                // cumulative slot total, not the first zone's.
                let total: u64 = th.spec.zones.iter().map(|&(_, l)| slots_of(l)).sum();
                let mut off = (th.issued - 1) % total;
                let mut zi = 0usize;
                while off >= slots_of(th.spec.zones[zi].1) {
                    off -= slots_of(th.spec.zones[zi].1);
                    zi += 1;
                }
                let (base, len) = th.spec.zones[zi];
                (base, len, off)
            } else if th.zipf.is_some() {
                // Zipf rank over the combined slot space (rank 0 hottest),
                // resolved against cumulative per-zone slot counts exactly
                // like the sequential walk.
                let mut off = th.zipf.as_ref().expect("checked above").sample(&mut th.rng) as u64;
                let mut zi = 0usize;
                while off >= slots_of(th.spec.zones[zi].1) {
                    off -= slots_of(th.spec.zones[zi].1);
                    zi += 1;
                }
                let (base, len) = th.spec.zones[zi];
                (base, len, off)
            } else {
                let zi = if th.spec.zones.len() == 1 {
                    0
                } else {
                    th.rng.below(th.spec.zones.len() as u64) as usize
                };
                let (base, len) = th.spec.zones[zi];
                (base, len, th.rng.below(slots_of(len)))
            };
            let _ = len;
            let addr = base + slot * th.spec.bytes as u64;
            let write = !th.coherent && th.rng.chance(th.spec.write_fraction);
            let kind = if th.coherent {
                MsgKind::CohReadReq {
                    bytes: th.spec.bytes,
                }
            } else if write {
                MsgKind::WriteReq {
                    bytes: th.spec.bytes,
                }
            } else {
                MsgKind::ReadReq {
                    bytes: th.spec.bytes,
                }
            };
            let (prefix, _) = cohfree_rmc::addr::split(addr);
            (NodeId::new(prefix), kind, addr)
        }
    };
    // The instant the access was *first* offered to the RMC — NACK wake-ups
    // re-offer the same access, and the serialization stall is measured from
    // the very first attempt.
    let first_offer = ctx.threads[id].pending_since.take().unwrap_or(now);
    // Accesses into an evacuated zone follow it to its new home
    // (pre-evacuation NACKed pendings, pre-rewrite generated addresses).
    let (dst, addr) = match ctx.evac_remaps[node.index()]
        .iter()
        .copied()
        .find(|&(old, _, frames)| addr >= old && addr < old + frames * 4096)
    {
        Some((old, new, _)) => {
            let a = new + (addr - old);
            let (prefix, _) = cohfree_rmc::addr::split(a);
            (NodeId::new(prefix), a)
        }
        None => (dst, addr),
    };
    // An access aimed at a declared-failed home (no evacuation took it in)
    // fails instead of burning a retry budget each time.
    if ctx.node_mut(node).client.is_suspect(dst) {
        ctx.trace.fail_fast(node.get(), now);
        resolve(ctx, now, id, Resolution::Failed);
        return;
    }
    // Admission control: the recovery manager has load-shed this target.
    // Defer the access one manager tick instead of piling onto the
    // overload; the preserved `pending_since` keeps the deferral inside
    // the transaction's eventual Stall phase, and re-admission is
    // guaranteed because backlogs are time-to-drain values that decay.
    // Lane code only *reads* the shed set here — it is mutated solely by
    // global manager events.
    if ctx.node_mut(node).client.is_shed(dst) {
        // Open-loop serving threads drop the request instead of deferring:
        // an arrival-driven client cannot hold back load, so shedding is a
        // terminal outcome (counted, never retried). Closed-loop threads
        // keep the defer-and-retry discipline.
        if !ctx.threads[id].arrivals.is_empty() {
            ctx.trace.fail_fast(node.get(), now);
            resolve(ctx, now, id, Resolution::Shed);
            return;
        }
        let wake = now + ctx.cfg.manager.tick.max(SimDuration::ns(1));
        {
            let th = &mut ctx.threads[id];
            th.pending = Some((dst, kind, addr));
            th.pending_since = Some(first_offer);
        }
        ctx.node_mut(node).client.note_shed_deferral();
        ctx.sched(wake, node.get(), Ev::ThreadWake { id });
        return;
    }
    match ctx.node_mut(node).client.submit(now, dst, kind, addr) {
        Submit::Accepted { msg, inject_at } => {
            {
                let th = &mut ctx.threads[id];
                if th.latency.is_some() {
                    // End-to-end serving latency runs from the request's
                    // first offer (its arrival, for open-loop threads).
                    th.inflight_since = Some(first_offer);
                }
            }
            ctx.pending.insert(
                msg.tag,
                PendingTx {
                    owner: Owner::Thread(id),
                    msg,
                    attempt: 0,
                },
            );
            trace_submitted(
                ctx.trace,
                ctx.cfg.rmc.proc_time,
                first_offer,
                now,
                &msg,
                inject_at,
            );
            ctx.sched(inject_at, node.get(), Ev::Hop { msg, at: node });
            arm_timeout(ctx, inject_at, msg.tag, 0);
        }
        Submit::Nacked { retry_at } => {
            let th = &mut ctx.threads[id];
            th.pending = Some((dst, kind, addr));
            th.pending_since = Some(first_offer);
            th.nack_retries += 1;
            ctx.sched(retry_at, node.get(), Ev::ThreadWake { id });
        }
    }
}

/// Open a trace for an accepted submission and attribute its stall,
/// client-queue and issue phases. `first_offer` is when the core first
/// wanted the access out (may precede `accepted_at` by NACK rounds);
/// `proc_time` is the client RMC's per-request processing time.
pub(crate) fn trace_submitted(
    trace: &mut TraceSink,
    proc_time: SimDuration,
    first_offer: SimTime,
    accepted_at: SimTime,
    msg: &Message,
    inject_at: SimTime,
) {
    if !trace.enabled() {
        return;
    }
    let node = msg.src.get();
    let tag = msg.tag;
    trace.begin(tag, node, first_offer);
    trace.push(tag, Phase::Stall, node, first_offer, accepted_at);
    let svc_start = inject_at - proc_time;
    trace.push(tag, Phase::ClientQueue, node, accepted_at, svc_start);
    trace.push(
        tag,
        Phase::Issue,
        node,
        svc_start.max(accepted_at),
        inject_at,
    );
}

/// Attribute one forwarded hop to its wire and fabric-queue phases. Probe
/// traffic shares its parent's tag and is not part of the requester-observed
/// critical path, so it is excluded.
fn trace_hop(
    ctx: &mut LaneCtx<'_>,
    msg: &Message,
    at: NodeId,
    now: SimTime,
    arrive: SimTime,
    queued: SimDuration,
) {
    if matches!(msg.kind, MsgKind::ProbeReq | MsgKind::ProbeResp) || !ctx.trace.enabled() {
        return;
    }
    let node = at.get();
    let tag = msg.tag;
    if queued.is_zero() {
        ctx.trace.push(tag, Phase::Wire, node, now, arrive);
    } else {
        // Router pass, FIFO wait on the link serializer, then serialization
        // + flight: three sub-intervals that tile the hop.
        let enq = now + ctx.cfg.fabric.router_delay;
        ctx.trace.push(tag, Phase::Wire, node, now, enq);
        ctx.trace
            .push(tag, Phase::FabricQueue, node, enq, enq + queued);
        ctx.trace.push(tag, Phase::Wire, node, enq + queued, arrive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delay_is_monotone_and_never_wraps() {
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.backoff_cap = u32::MAX; // worst case: no config clamp
        cfg.recovery.retry_jitter = 0.0; // monotonicity holds without jitter
        let mut prev = SimDuration::ZERO;
        for attempt in 0..200 {
            let d = backoff_delay(&cfg, 7, attempt);
            assert!(d >= cfg.rmc.timeout, "attempt {attempt} collapsed");
            assert!(d >= prev, "attempt {attempt} shrank the backoff");
            prev = d;
        }
        // The plateau is the absolute ceiling, which leaves ~1.8e7 retries
        // of headroom before the picosecond clock can saturate.
        assert_eq!(prev, BACKOFF_CEILING);
        assert!(prev.as_ps() < u64::MAX / 1_000_000);
    }

    #[test]
    fn backoff_delay_respects_the_config_cap() {
        let mut cfg = ClusterConfig::prototype();
        cfg.recovery.backoff_cap = 3;
        cfg.recovery.retry_jitter = 0.0;
        assert_eq!(backoff_delay(&cfg, 7, 5), backoff_delay(&cfg, 7, 3));
        assert_eq!(
            backoff_delay(&cfg, 7, 2).as_ns(),
            cfg.rmc.timeout.as_ns() * 4
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_capped() {
        let cfg = ClusterConfig::prototype(); // default jitter 0.25
        for attempt in 0..8 {
            for tag in [1u64 << 48, (2u64 << 48) + 3, 9] {
                let d = backoff_delay(&cfg, tag, attempt);
                assert_eq!(d, backoff_delay(&cfg, tag, attempt), "deterministic");
                let floor = {
                    let mut c = cfg;
                    c.recovery.retry_jitter = 0.0;
                    backoff_delay(&c, tag, attempt)
                };
                assert!(d >= floor, "jitter only ever delays");
                let ceil_ns = floor.as_ns_f64() * (1.0 + cfg.recovery.retry_jitter);
                assert!(
                    d.as_ns_f64() <= ceil_ns + 1.0,
                    "jitter bounded by the fraction"
                );
                assert!(d <= BACKOFF_CEILING);
            }
        }
    }

    #[test]
    fn backoff_jitter_spreads_synchronized_clients() {
        // N clients whose retries a shared outage synchronized: their tags
        // encode their node ids, so the first-retry delays must spread out
        // rather than land on one instant.
        let cfg = ClusterConfig::prototype();
        let delays: Vec<SimDuration> = (1..=8u64)
            .map(|node| backoff_delay(&cfg, node << 48, 1))
            .collect();
        let distinct: std::collections::BTreeSet<u64> = delays.iter().map(|d| d.as_ps()).collect();
        assert!(
            distinct.len() >= 6,
            "8 synchronized clients must spread to >= 6 distinct first-retry delays, got {distinct:?}"
        );
    }

    #[test]
    fn key_layout_orders_globals_first_and_lanes_by_node() {
        let g = make_key(GLOBAL_LANE, 0, 0, 7, 0);
        let l1 = make_key(1, 0, 2, 9, 3);
        let l2 = make_key(2, 0, 1, 0, 0);
        assert!(g < l1 && l1 < l2);
        assert_eq!(key_lane(g), GLOBAL_LANE);
        assert_eq!(key_lane(l2), 2);
        assert_eq!(key_gen(make_key(4, 5, 1, 1, 1)), 5);
        // Same-instant children of deeper generations sort after shallower
        // ones on the same lane.
        assert!(make_key(3, 1, 3, 0, 0) > make_key(3, 0, 9, u64::MAX >> 16, u16::MAX));
    }
}
