//! Event execution: content-determined ordering keys, the one scheduler,
//! and the handlers of lane events.
//!
//! Every event runs on a *lane*. `Hop`, `MemDone`, `ThreadWake` and
//! `Timeout` run on the node whose state they touch (plus cluster-shared
//! state); `Sample`, `Fault`, `Suspect` and `Manager` may touch anything
//! and run on the global lane. The lane-event handlers are the `World`
//! methods in this file; the global ones live in `crate::world`.
//!
//! Everything is scheduled through [`World::sched`], and "lane" or
//! "global" also names the class of key it hands out. While a lane event
//! runs, the world's [`Cursor`] names it, and each event it schedules gets
//! a *lane key* derived from it. Anything scheduled outside a lane event
//! (setup, the blocking and posted drivers, global handlers) gets a
//! *global key* from a sequence number.
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
//!   parent's lane and its dispatch ordinal, the queue's count of popped
//!   events when it ran (or `0`/a global sequence number for setup- and
//!   global-context scheduling). Two children that tie on everything
//!   before the index have parents on one lane, and the queue's count
//!   orders those parents as a per-lane count would.
//! * `child ordinal` — position among the parent's same-call children.
//!
//! This layout decides every same-instant tie-break, so changing it (or
//! the order the parent index gives, or [`suspect_delay`]) changes every
//! report and the pinned golden fingerprints.

use crate::config::ClusterConfig;
use crate::world::{CohState, Ev, Owner, PendingTx, Pick, Resolution, World};
use cohfree_fabric::{Fabric, Message, MsgKind, NodeId, Step};
use cohfree_os::manager::TICK;
use cohfree_rmc::{Completion, Submit};
use cohfree_sim::span::Phase;
use cohfree_sim::{SimDuration, SimTime};

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
/// here the ceiling also keeps absolute timer *instants* representable
/// whatever `RmcConfig::timeout` is. The clock counts picoseconds in a
/// `u64` (~213 simulated days); a timeout large enough that 16 of them
/// saturate the delay would walk the clock to `SimTime::MAX` within a few
/// retries, after which the retransmission path does arithmetic on a
/// saturated clock. At 1 s per retry, even a million-retry budget sums to
/// well inside the clock's range. With the prototype's 30 µs timeout the
/// ceiling never binds.
pub(crate) const BACKOFF_CEILING: SimDuration = SimDuration::secs(1);

/// Retries after which the loss-recovery backoff stops doubling: the k-th
/// retry waits `timeout * 2^min(k, BACKOFF_CAP)` before jitter.
pub(crate) const BACKOFF_CAP: u32 = 4;

/// Deterministic jitter fraction on retry backoff: the k-th retry of a
/// transaction waits its exponential delay plus up to this fraction of it.
pub(crate) const RETRY_JITTER: f64 = 0.25;

/// Exponential loss-recovery backoff for the `attempt`-th retry of the
/// transaction tagged `tag`:
/// `min(timeout * 2^min(attempt, BACKOFF_CAP) * (1 + j), BACKOFF_CEILING)`
/// where `j ∈ [0, RETRY_JITTER)` is a deterministic per-(tag, attempt)
/// fraction. The multiply saturates and the absolute ceiling keeps timer
/// instants finite whatever the timeout (see [`BACKOFF_CEILING`]).
///
/// The jitter is a pure function of `(cluster seed, tag, attempt)`, so
/// retries replay exactly from the seed. Tags encode the issuing node in
/// their high bits, so clients whose retries a shared outage synchronized
/// spread back out instead of re-saturating the restored fabric in one
/// wave.
#[inline]
pub(crate) fn backoff_delay(cfg: &ClusterConfig, tag: u64, attempt: u32) -> SimDuration {
    let base = cfg
        .rmc
        .timeout
        .saturating_mul(1u64 << attempt.min(BACKOFF_CAP))
        .min(BACKOFF_CEILING);
    // SplitMix64-style scramble of (seed, tag, attempt) -> fraction in [0,1).
    let mut h = cfg
        .seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    let extra = SimDuration::ns_f64(base.as_ns_f64() * RETRY_JITTER * frac);
    (base + extra).min(BACKOFF_CEILING)
}

/// Delay between a requester exhausting its retry budget and the suspect
/// declaration taking effect cluster-wide ([`Ev::Suspect`]): one minimum hop
/// latency (1 ns on a zero-latency fabric), so the declaration is a
/// strictly-future global event. The deferral decides where the declaration
/// lands among other events: changing it changes every fault-plan report
/// and the pinned golden fingerprints.
#[inline]
pub(crate) fn suspect_delay(fabric: &Fabric) -> SimDuration {
    let w = fabric.min_hop_latency();
    if w.is_zero() {
        SimDuration::ns(1)
    } else {
        w
    }
}

/// The lane event executing now, from which [`World::sched`] derives the
/// keys of the events it schedules. Its instant is the queue's clock, its
/// dispatch ordinal the queue's count of popped events, and its lane and
/// generation are bits of its key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    /// Key of the executing lane event; `None` outside lane events.
    pub(crate) key: Option<u128>,
    /// Events the executing event has scheduled so far.
    pub(crate) child: u16,
}

impl World {
    /// The node lane that processes `ev` ([`GLOBAL_LANE`] for globals).
    fn lane_of(&self, ev: &Ev) -> u16 {
        match ev {
            Ev::Hop { at, .. } => at.get(),
            Ev::MemDone { msg, .. } => msg.dst.get(),
            Ev::ThreadWake { id } => self.threads[*id].spec.node.get(),
            Ev::Timeout { tag, .. } => (tag >> 48) as u16,
            Ev::Sample | Ev::Fault(_) | Ev::Suspect { .. } | Ev::Manager => GLOBAL_LANE,
        }
    }

    /// Schedule `ev` at `at` on its lane under its content-determined key:
    /// a lane key derived from the executing lane event, or a global key
    /// from the global sequence outside one.
    pub(crate) fn sched(&mut self, at: SimTime, ev: Ev) {
        let lane = self.lane_of(&ev);
        let key = match self.cur.key {
            None => {
                let key = make_key(lane, 0, 0, self.gseq, 0);
                self.gseq += 1;
                key
            }
            Some(parent) => {
                let (now, parent_lane) = (self.queue.now(), key_lane(parent));
                let gen = if at == now && lane == parent_lane {
                    debug_assert!(key_gen(parent) < u8::MAX, "same-instant causality too deep");
                    key_gen(parent).wrapping_add(1)
                } else {
                    0
                };
                let idx = self.queue.processed();
                let key = make_key(lane, gen, parent_lane, idx, self.cur.child);
                self.cur.child += 1;
                // The canonical order must be executable: a same-instant child
                // may never sort before the event that scheduled it.
                debug_assert!(
                    at > now || key > parent,
                    "same-instant event scheduled into the past of the canonical order"
                );
                key
            }
        };
        self.queue.schedule_keyed(at, key, ev);
    }

    /// Move `msg`, at router `at`, one fabric step, and hand it to its
    /// endpoint on delivery.
    pub(crate) fn hop(&mut self, now: SimTime, msg: Message, at: NodeId) {
        let (step, queued) = self.fabric.step_traced(now, at, &msg);
        match step {
            Step::Forward { next, arrive } => {
                self.trace_hop(&msg, at, now, arrive, queued);
                self.sched(arrive, Ev::Hop { msg, at: next });
            }
            // Lost on a link; the requester's timeout recovers it.
            Step::Dropped => {}
            Step::Deliver { at: t } => match msg.kind {
                // --- coherent-DSM baseline choreography ---
                MsgKind::ProbeReq => {
                    let (resp, inject_at) = self.nodes[msg.dst.index()].server.on_probe(t, &msg);
                    self.sched(
                        inject_at,
                        Ev::Hop {
                            msg: resp,
                            at: resp.src,
                        },
                    );
                }
                MsgKind::ProbeResp => {
                    let done = self.nodes[msg.dst.index()].server.on_probe_response(t);
                    let st = self
                        .coh
                        .get_mut(&msg.tag)
                        .expect("probe response for unknown coherent transaction");
                    st.awaiting_probes -= 1;
                    self.try_finish_coherent(msg.tag, done);
                }
                MsgKind::CohReadReq { .. } => {
                    let home = msg.dst;
                    let node = &mut self.nodes[home.index()];
                    let issue = node.server.on_request(t, &msg);
                    let done = node
                        .mem
                        .access(issue.issue_at, issue.local_addr, issue.bytes);
                    self.sched(done, Ev::MemDone { msg, arrived: t });
                    // Broadcast snoops to every other domain member.
                    let members: Vec<NodeId> = self
                        .coherent_domain
                        .iter()
                        .copied()
                        .filter(|&m| m != home && m != msg.src)
                        .collect();
                    self.coh.insert(
                        msg.tag,
                        CohState {
                            awaiting_probes: members.len(),
                            mem_done: None,
                            req: msg,
                            arrived: t,
                        },
                    );
                    for m in members {
                        let probe =
                            Message::with_addr(home, m, MsgKind::ProbeReq, msg.tag, msg.addr);
                        self.sched(
                            issue.issue_at,
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
                    if let Some(comp) = self.nodes[msg.dst.index()].client.on_response(t, &msg) {
                        if self.trace.enabled() {
                            let node = msg.dst.get();
                            let svc_start = comp.done_at - self.cfg.rmc.proc_time;
                            self.trace
                                .push(comp.tag, Phase::ClientQueue, node, t, svc_start);
                            self.trace.push(
                                comp.tag,
                                Phase::Reply,
                                node,
                                svc_start.max(t),
                                comp.done_at,
                            );
                        }
                        self.complete(comp);
                    }
                }
                _ => {
                    let home = msg.dst;
                    let node = &mut self.nodes[home.index()];
                    let issue = node.server.on_request(t, &msg);
                    let done = node
                        .mem
                        .access(issue.issue_at, issue.local_addr, issue.bytes);
                    if self.trace.enabled() {
                        let svc_start = issue.issue_at - self.cfg.rmc.server_proc_time;
                        self.trace
                            .push(msg.tag, Phase::ServerQueue, home.get(), t, svc_start);
                        self.trace.push(
                            msg.tag,
                            Phase::Service,
                            home.get(),
                            svc_start.max(t),
                            done,
                        );
                    }
                    self.sched(done, Ev::MemDone { msg, arrived: t });
                }
            },
        }
    }

    /// The home DRAM finished serving `msg`, which reached the server RMC at
    /// `arrived`.
    pub(crate) fn mem_done(&mut self, now: SimTime, msg: Message, arrived: SimTime) {
        if matches!(msg.kind, MsgKind::CohReadReq { .. }) {
            let st = self
                .coh
                .get_mut(&msg.tag)
                .expect("memory completion for unknown coherent transaction");
            st.mem_done = Some(now);
            self.try_finish_coherent(msg.tag, now);
        } else {
            let (resp, inject_at) = self.nodes[msg.dst.index()]
                .server
                .on_mem_done(now, &msg, arrived);
            if self.trace.enabled() {
                let home = msg.dst.get();
                let svc_start = inject_at - self.cfg.rmc.server_proc_time;
                self.trace
                    .push(msg.tag, Phase::ServerQueue, home, now, svc_start);
                self.trace
                    .push(msg.tag, Phase::Reply, home, svc_start.max(now), inject_at);
            }
            self.sched(
                inject_at,
                Ev::Hop {
                    msg: resp,
                    at: resp.src,
                },
            );
        }
    }

    /// Release a coherent response once both the DRAM read and every snoop
    /// response are in.
    fn try_finish_coherent(&mut self, tag: u64, now: SimTime) {
        let st = self.coh.get(&tag).expect("coherent state exists");
        if st.awaiting_probes != 0 || st.mem_done.is_none() {
            return;
        }
        let st = self.coh.remove(&tag).expect("checked above");
        let (resp, inject_at) = self.nodes[st.req.dst.index()]
            .server
            .on_mem_done(now, &st.req, st.arrived);
        self.sched(
            inject_at,
            Ev::Hop {
                msg: resp,
                at: resp.src,
            },
        );
    }

    fn complete(&mut self, comp: Completion) {
        self.trace.finish(comp.tag, comp.done_at, false);
        match self.pending.remove(&comp.tag).map(|p| p.owner) {
            Some(Owner::Thread(id)) => self.resolve(comp.done_at, id, Resolution::Completed),
            Some(Owner::Sync) => self.sync = Some(Ok(comp.done_at)),
            Some(Owner::Posted) => {} // fire-and-forget acknowledged
            None => panic!("completion for unowned tag {:#x}", comp.tag),
        }
    }

    /// Put a submission its client RMC accepted at `accepted_at` in flight:
    /// record its owner, open its trace, schedule its first hop at the
    /// source router and arm its loss-recovery timer. `first_offer` is when
    /// the core first wanted the access out; NACK rounds may separate the
    /// two, and the trace charges that wait to the stall phase.
    pub(crate) fn launch(
        &mut self,
        owner: Owner,
        msg: Message,
        inject_at: SimTime,
        first_offer: SimTime,
        accepted_at: SimTime,
    ) {
        self.pending.insert(
            msg.tag,
            PendingTx {
                owner,
                msg,
                attempt: 0,
            },
        );
        if self.trace.enabled() {
            let (node, tag) = (msg.src.get(), msg.tag);
            let svc_start = inject_at - self.cfg.rmc.proc_time;
            self.trace.begin(tag, node, first_offer);
            self.trace
                .push(tag, Phase::Stall, node, first_offer, accepted_at);
            self.trace
                .push(tag, Phase::ClientQueue, node, accepted_at, svc_start);
            self.trace.push(
                tag,
                Phase::Issue,
                node,
                svc_start.max(accepted_at),
                inject_at,
            );
        }
        self.sched(inject_at, Ev::Hop { msg, at: msg.src });
        self.arm_timeout(inject_at, msg.tag, 0);
    }

    /// Arm the loss-recovery timer for `attempt` of `tag`, injected at
    /// `injected_at`, if messages can be lost — a lossy fabric, or any
    /// fault plan (crashes and outages swallow traffic even over lossless
    /// links). The delay is [`backoff_delay`].
    fn arm_timeout(&mut self, injected_at: SimTime, tag: u64, attempt: u32) {
        if self.cfg.fabric.loss_rate > 0.0 || !self.cfg.faults.is_empty() {
            let delay = backoff_delay(&self.cfg, tag, attempt);
            self.sched(
                injected_at.saturating_add(delay),
                Ev::Timeout { tag, attempt },
            );
        }
    }

    pub(crate) fn on_timeout(&mut self, now: SimTime, tag: u64, attempt: u32) {
        let Some(p) = self.pending.get_mut(&tag) else {
            return; // completed or aborted; stale timer
        };
        if p.attempt != attempt {
            return; // already retransmitted; a newer timer is armed
        }
        if p.attempt >= self.cfg.max_retries {
            // Retry budget exhausted: the home node is unresponsive. Failure
            // declaration touches cluster-wide state (suspect state, evacuation),
            // so it is deferred one lookahead window as a global event; the
            // pending transaction stays in place until the declaration sweeps
            // it up, keeping further timers stale-safe.
            let (observer, dead) = (p.msg.src, p.msg.dst);
            let at = now.saturating_add(suspect_delay(&self.fabric));
            self.sched(at, Ev::Suspect { observer, dead });
            return;
        }
        p.attempt += 1;
        let (msg, new_attempt) = (p.msg, p.attempt);
        let src = msg.src;
        let inject_at = self.nodes[src.index()].client.retransmit(now, tag);
        // The retransmit pass is loss-recovery work; the wait that led to this
        // timeout becomes Retry too, via gap-filling at finish().
        self.trace.push_attr(
            tag,
            Phase::Retry,
            src.get(),
            now,
            inject_at,
            Some(("attempt", new_attempt as u64)),
        );
        self.sched(inject_at, Ev::Hop { msg, at: src });
        self.arm_timeout(inject_at, tag, new_attempt);
    }

    /// Record one terminal outcome of thread `id` at `now` and schedule its
    /// next wake, unless that was its last access.
    pub(crate) fn resolve(&mut self, now: SimTime, id: usize, how: Resolution) {
        if let Some(wake) = self.threads[id].resolve(now, how) {
            self.sched(wake, Ev::ThreadWake { id });
        }
    }

    pub(crate) fn thread_step(&mut self, now: SimTime, id: usize) {
        // A wake-up for a thread that died (its node crashed) or already
        // finished (e.g. its last access failed) is stale.
        let node = self.threads[id].spec.node;
        if self.threads[id].finished.is_some() || self.dead[node.index()] {
            return;
        }
        // Re-offer the current (NACKed, deferred or re-aimed) access or
        // generate a fresh one.
        let th = &mut self.threads[id];
        let (zone, off, kind) = match th.access {
            Some(access) => access,
            None => {
                if th.issued == th.spec.accesses {
                    return; // nothing left to issue
                }
                th.issued += 1;
                // Open-loop serving threads stamp the request's scheduled
                // arrival as its first offer: wake-ups never run early
                // (`next_issue_at` clamps to the arrival), so on a backed-up
                // lane the arrival precedes `now` and the queueing delay lands
                // in the stall phase and the end-to-end latency.
                if let Some(arrival) = th.arrival(th.issued - 1) {
                    th.pending_since = Some(arrival);
                }
                // A sequential walk position or a Zipf rank (rank 0 hottest)
                // indexes the combined slot space of all zones, end to end.
                let rank = match &th.pick {
                    Pick::Uniform => None,
                    Pick::Sequential => Some((th.issued - 1) % th.spec.total_slots()),
                    Pick::Zipf(z) => Some(z.sample(&mut th.rng) as u64),
                };
                let (zone, slot) = match rank {
                    // Zones may differ in size, so the rank is resolved
                    // against the cumulative per-zone slot counts.
                    Some(mut off) => {
                        let mut zi = 0usize;
                        while off >= th.spec.slots(th.spec.zones[zi].1) {
                            off -= th.spec.slots(th.spec.zones[zi].1);
                            zi += 1;
                        }
                        (zi, off)
                    }
                    None => {
                        let zi = if th.spec.zones.len() == 1 {
                            0
                        } else {
                            th.rng.below(th.spec.zones.len() as u64) as usize
                        };
                        (zi, th.rng.below(th.spec.slots(th.spec.zones[zi].1)))
                    }
                };
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
                let access = (zone, slot * th.spec.bytes as u64, kind);
                th.access = Some(access);
                access
            }
        };
        // The zone table names the zone's home now, wherever an evacuation
        // or migration moved it since the access was generated.
        let addr = th.spec.zones[zone].0 + off;
        let dst = NodeId::new(cohfree_rmc::addr::split(addr).0);
        // The instant the access was *first* offered to the RMC — NACK wake-ups
        // re-offer the same access, and the serialization stall is measured from
        // the very first attempt.
        let first_offer = th.pending_since.take().unwrap_or(now);
        // An access aimed at a declared-failed home (no evacuation took it in)
        // fails instead of burning a retry budget each time.
        if self.nodes[node.index()].client.is_suspect(dst) {
            self.trace.fail_fast(node.get(), now);
            self.resolve(now, id, Resolution::Failed);
            return;
        }
        // Admission control: the recovery manager has load-shed this target.
        // Defer the access one manager tick instead of piling onto the
        // overload; the preserved `pending_since` keeps the deferral inside
        // the transaction's eventual Stall phase, and re-admission is
        // guaranteed because backlogs are time-to-drain values that decay.
        // Lane code only *reads* the manager's shed set, the one record of
        // shed targets; global manager events alone mutate it.
        if self.is_shed(dst) {
            // Open-loop serving threads drop the request instead of deferring:
            // an arrival-driven client cannot hold back load, so shedding is a
            // terminal outcome (counted, never retried). Closed-loop threads
            // keep the defer-and-retry discipline.
            if self.threads[id].open.is_some() {
                self.trace.fail_fast(node.get(), now);
                self.resolve(now, id, Resolution::Shed);
                return;
            }
            self.threads[id].pending_since = Some(first_offer);
            self.nodes[node.index()].client.note_shed_deferral();
            self.sched(now + TICK, Ev::ThreadWake { id });
            return;
        }
        match self.nodes[node.index()].client.submit(now, dst, kind, addr) {
            Submit::Accepted { msg, inject_at } => {
                if let Some(open) = self.threads[id].open.as_deref_mut() {
                    // End-to-end serving latency runs from the request's
                    // first offer (its arrival); a request re-aimed after
                    // an evacuation keeps the instant its first submission
                    // set.
                    open.inflight_since.get_or_insert(first_offer);
                }
                self.launch(Owner::Thread(id), msg, inject_at, first_offer, now);
            }
            Submit::Nacked { retry_at } => {
                let th = &mut self.threads[id];
                th.pending_since = Some(first_offer);
                th.nack_retries += 1;
                self.sched(retry_at, Ev::ThreadWake { id });
            }
        }
    }

    /// Attribute one forwarded hop to its wire and fabric-queue phases. Probe
    /// traffic shares its parent's tag and is not part of the
    /// requester-observed critical path, so it is excluded.
    fn trace_hop(
        &mut self,
        msg: &Message,
        at: NodeId,
        now: SimTime,
        arrive: SimTime,
        queued: SimDuration,
    ) {
        if matches!(msg.kind, MsgKind::ProbeReq | MsgKind::ProbeResp) || !self.trace.enabled() {
            return;
        }
        let node = at.get();
        let tag = msg.tag;
        if queued.is_zero() {
            self.trace.push(tag, Phase::Wire, node, now, arrive);
        } else {
            // Router pass, FIFO wait on the link serializer, then serialization
            // + flight: three sub-intervals that tile the hop.
            let enq = now + self.cfg.fabric.router_delay;
            self.trace.push(tag, Phase::Wire, node, now, enq);
            self.trace
                .push(tag, Phase::FabricQueue, node, enq, enq + queued);
            self.trace
                .push(tag, Phase::Wire, node, enq + queued, arrive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backoff before jitter: `timeout * 2^min(attempt, BACKOFF_CAP)`,
    /// clamped to the ceiling.
    fn unjittered(cfg: &ClusterConfig, attempt: u32) -> SimDuration {
        cfg.rmc
            .timeout
            .saturating_mul(1 << attempt.min(BACKOFF_CAP))
            .min(BACKOFF_CEILING)
    }

    #[test]
    fn backoff_delay_is_monotone_and_never_wraps() {
        // A 100 ms timeout reaches the ceiling by the cap (16 x 100 ms >
        // 1 s): the delay doubles (jitter adds less than that) and then
        // stays on the ceiling.
        let mut cfg = ClusterConfig::prototype();
        cfg.rmc.timeout = SimDuration::ms(100);
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
        // A timeout whose 16-fold multiple overflows the clock saturates
        // onto the ceiling instead of wrapping to a short delay.
        cfg.rmc.timeout = SimDuration::ps(u64::MAX / 4);
        for attempt in 0..200 {
            assert_eq!(backoff_delay(&cfg, 7, attempt), BACKOFF_CEILING);
        }
    }

    #[test]
    fn backoff_delay_stops_doubling_at_the_cap() {
        let cfg = ClusterConfig::prototype();
        let within = |attempt: u32, factor: u64| {
            let d = backoff_delay(&cfg, 7, attempt).as_ns_f64();
            let floor = (cfg.rmc.timeout.as_ns() * factor) as f64;
            d >= floor && d <= floor * (1.0 + RETRY_JITTER) + 1.0
        };
        assert!(within(2, 4));
        for attempt in [BACKOFF_CAP, BACKOFF_CAP + 1, 40] {
            assert!(within(attempt, 1 << BACKOFF_CAP), "attempt {attempt}");
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_capped() {
        let cfg = ClusterConfig::prototype();
        for attempt in 0..8 {
            for tag in [1u64 << 48, (2u64 << 48) + 3, 9] {
                let d = backoff_delay(&cfg, tag, attempt);
                assert_eq!(d, backoff_delay(&cfg, tag, attempt), "deterministic");
                let floor = unjittered(&cfg, attempt);
                assert!(d >= floor, "jitter only ever delays");
                let ceil_ns = floor.as_ns_f64() * (1.0 + RETRY_JITTER);
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
