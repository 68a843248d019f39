//! Fault injection and recovery policy.
//!
//! The paper defers "concerns related to communication reliability", but a
//! heap spanning borrowed memory makes a donor-node crash a failure mode
//! coherent SMP never had. This module declares *what goes wrong and when*
//! ([`FaultPlan`], a deterministic schedule carried by
//! [`crate::ClusterConfig`]); the cluster's response is set by the retry
//! budget [`crate::ClusterConfig::max_retries`]. The
//! [`crate::World`] event loop injects the events and drives detection and
//! recovery: a zone whose donor is declared dead is re-homed on another
//! donor with room (the recovery manager's load-aware pick when it runs,
//! else the nearest), or dropped when none has room. Every action lands in
//! the fault log ([`cohfree_sim::FaultLog`]) inside cluster snapshots.

use cohfree_fabric::NodeId;
use cohfree_sim::{SimDuration, SimTime};

/// One scheduled fault (or repair) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// `node` fails whole: its router, RMCs, DRAM and kernel all stop.
    /// Borrowed zones homed there lose their data; threads running on it
    /// die with their remaining accesses recorded as failed.
    NodeCrash {
        /// Crash instant.
        at: SimTime,
        /// The node that fails.
        node: NodeId,
    },
    /// A previously crashed `node` rejoins with a cold, empty pool; peers
    /// clear their suspicion of it. Pre-crash grants are *not* restored.
    NodeRestart {
        /// Restart instant.
        at: SimTime,
        /// The node that rejoins.
        node: NodeId,
    },
    /// The bidirectional link between `a` and `b` goes down; the fabric
    /// reroutes around it (or drops traffic whose destination becomes
    /// unreachable).
    LinkDown {
        /// Outage start.
        at: SimTime,
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
    },
    /// The link between `a` and `b` is repaired.
    LinkUp {
        /// Repair instant.
        at: SimTime,
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
    },
    /// `node`'s server RMC front-end stops processing for `duration`
    /// (firmware hiccup, ECC scrub storm). Requests queue behind it;
    /// clients see a latency spike that may trip their loss timers.
    ServerStall {
        /// Stall start.
        at: SimTime,
        /// The stalled memory server.
        node: NodeId,
        /// How long the front-end is wedged.
        duration: SimDuration,
    },
}

impl FaultEvent {
    /// The scheduled instant of this event.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::NodeCrash { at, .. }
            | FaultEvent::NodeRestart { at, .. }
            | FaultEvent::LinkDown { at, .. }
            | FaultEvent::LinkUp { at, .. }
            | FaultEvent::ServerStall { at, .. } => at,
        }
    }
}

/// Maximum events a [`FaultPlan`] can carry. Fixed so the plan (and thus
/// [`crate::ClusterConfig`]) stays `Copy`; experiments needing more than
/// this are scripting a disaster movie, not a fault study.
pub const MAX_FAULT_EVENTS: usize = 16;

/// A deterministic schedule of fault events, carried by
/// [`crate::ClusterConfig`] and injected by the [`crate::World`] event loop.
///
/// ```
/// use cohfree_core::{FaultEvent, FaultPlan, NodeId, SimDuration, SimTime};
///
/// let plan = FaultPlan::new().with(FaultEvent::NodeCrash {
///     at: SimTime::ZERO + SimDuration::us(50),
///     node: NodeId::new(2),
/// });
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    events: [Option<FaultEvent>; MAX_FAULT_EVENTS],
    len: usize,
}

impl FaultPlan {
    /// An empty plan (the default: nothing ever fails).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style append.
    ///
    /// # Panics
    /// Panics when the plan already holds [`MAX_FAULT_EVENTS`] events.
    pub fn with(mut self, ev: FaultEvent) -> FaultPlan {
        self.push(ev);
        self
    }

    /// Append an event.
    ///
    /// # Panics
    /// Panics when the plan already holds [`MAX_FAULT_EVENTS`] events.
    pub fn push(&mut self, ev: FaultEvent) {
        assert!(
            self.len < MAX_FAULT_EVENTS,
            "fault plan full ({MAX_FAULT_EVENTS} events)"
        );
        self.events[self.len] = Some(ev);
        self.len += 1;
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> impl Iterator<Item = FaultEvent> + '_ {
        self.events[..self.len]
            .iter()
            .map(|e| e.expect("within len"))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn plan_builds_and_iterates_in_order() {
        let t = |us| SimTime::ZERO + SimDuration::us(us);
        let plan = FaultPlan::new()
            .with(FaultEvent::LinkDown {
                at: t(10),
                a: n(1),
                b: n(2),
            })
            .with(FaultEvent::NodeCrash {
                at: t(20),
                node: n(3),
            })
            .with(FaultEvent::LinkUp {
                at: t(30),
                a: n(1),
                b: n(2),
            });
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        let ats: Vec<u64> = plan.events().map(|e| e.at().as_ns()).collect();
        assert_eq!(ats, vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn empty_plan_is_default() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.events().count(), 0);
    }

    #[test]
    #[should_panic(expected = "fault plan full")]
    fn overfull_plan_panics() {
        let mut plan = FaultPlan::new();
        for i in 0..=MAX_FAULT_EVENTS {
            plan.push(FaultEvent::NodeCrash {
                at: SimTime::ZERO + SimDuration::us(i as u64 + 1),
                node: n(2),
            });
        }
    }
}
