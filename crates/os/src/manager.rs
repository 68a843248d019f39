//! The online cluster recovery manager: a deterministic control-loop
//! policy engine over periodic cluster observations.
//!
//! The world's recovery *mechanisms* — retry budgets, zone evacuation,
//! fabric rerouting — each fire on a hard-coded, one-shot condition. This
//! module is the *policy* layer above them: a [`RecoveryManager`] that
//! consumes one [`NodeObservation`] per node every [`TICK`] of simulated
//! time and emits [`ManagerAction`]s:
//!
//! * **Rehome** — zones hosted on a dead or fabric-isolated donor are
//!   evacuated immediately (instead of waiting for every client to burn
//!   its full retry budget), and zones on a donor whose pressure has
//!   stayed above the high watermark for `MIGRATE_AFTER` (4) consecutive
//!   ticks are migrated *proactively* while the donor is still up (a
//!   rolling server stall looks exactly like this).
//! * **Shed / Readmit** — admission control with hysteresis: when a
//!   node's pressure (the max of its server-RMC backlog and its worst
//!   outgoing-link backlog, both time-to-drain figures) crosses
//!   `SHED_ON` (3 µs), new accesses targeting it are deferred; once
//!   pressure decays below `SHED_OFF` (1 µs) the target is re-admitted.
//!   Backlogs are time-to-drain values that shrink as simulated time
//!   passes, so a shed target always re-admits eventually.
//!
//! The manager is deliberately *pure*: it owns no simulator state and
//! performs no I/O — `cohfree-core` builds the observations, applies the
//! actions (rewriting zones, tracing each decision as a span) and
//! schedules the next tick. Its own shed set is the one record of which
//! nodes are load-shed: the world asks [`RecoveryManager::is_shed`] before
//! a thread or the blocking driver offers an access, and keeps no copy
//! per client. Purity keeps the decision rules unit-testable here and its
//! decisions a deterministic function of the observation sequence. A
//! world runs the manager when its `ClusterConfig::manager` is on; the
//! tick, the watermarks and the migration streak are constants.
//!
//! Donor selection for both reactive evacuation and proactive migration
//! goes through [`RecoveryManager::choose_recovery_donor`]: a load-aware
//! score (most free frames, then least pressure, then lowest node id)
//! over candidates that are alive, reachable, unsuspected and not
//! currently shed — in place of the directory's nearest-donor rule for
//! recovery decisions.

use cohfree_fabric::NodeId;
use cohfree_sim::{Json, SimDuration};

/// Control-loop tick interval (simulated time between observations).
pub const TICK: SimDuration = SimDuration::us(2);

/// High watermark: a node whose pressure (max of server-RMC backlog and
/// worst outgoing-link backlog) reaches this is load-shed.
const SHED_ON: SimDuration = SimDuration::us(3);

/// Low watermark for re-admission; below [`SHED_ON`] for hysteresis.
const SHED_OFF: SimDuration = SimDuration::us(1);

/// Consecutive hot ticks (pressure ≥ [`SHED_ON`]) after which zones are
/// proactively migrated off a still-alive donor.
const MIGRATE_AFTER: u32 = 4;

/// One node's state as seen by the manager at a tick (or at a donor
/// choice). Built by the world from its snapshot-grade component state.
#[derive(Debug, Clone, Copy)]
pub struct NodeObservation {
    /// The observed node.
    pub node: NodeId,
    /// Crashed (from the world's fault state).
    pub dead: bool,
    /// Cut off by the current link-outage set (no usable incident link).
    pub isolated: bool,
    /// Declared suspect by at least one client's failure detector.
    pub suspected: bool,
    /// Server-RMC engine backlog, time to drain at the observation instant.
    pub server_backlog: SimDuration,
    /// Worst outgoing fabric-link backlog, time to drain.
    pub link_backlog: SimDuration,
    /// Pool frames the node can lend: what its frame allocator holds
    /// free, or 0 while it is down or declared failed.
    pub free_frames: u64,
    /// True if any live reservation's zone is currently homed here.
    pub hosts_zones: bool,
}

impl NodeObservation {
    /// The scalar pressure signal the watermarks compare against.
    pub fn pressure(&self) -> SimDuration {
        self.server_backlog.max(self.link_backlog)
    }
}

/// One decision emitted by a manager tick, applied by the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerAction {
    /// Stop admitting new accesses targeting `target` (pressure crossed
    /// the high watermark).
    Shed {
        /// The overloaded target node.
        target: NodeId,
    },
    /// Resume admitting accesses targeting `target` (pressure decayed
    /// below the low watermark).
    Readmit {
        /// The recovered target node.
        target: NodeId,
    },
    /// Move every zone homed on `from` to healthier donors: reactive
    /// evacuation when `from` is dead or isolated, proactive live
    /// migration when it is merely persistently hot.
    Rehome {
        /// The donor to vacate.
        from: NodeId,
    },
}

/// The deterministic recovery-policy engine. See the module docs for the
/// decision rules.
#[derive(Debug, Clone)]
pub struct RecoveryManager {
    /// Current shed state per node id (index 0 unused).
    shed: Vec<bool>,
    /// Consecutive ticks each node has spent at or above [`SHED_ON`].
    hot_ticks: Vec<u32>,
    ticks: u64,
    sheds: u64,
    readmits: u64,
    rehomes: u64,
}

impl RecoveryManager {
    /// A manager for a cluster of `nodes` nodes (ids `1..=nodes`).
    pub fn new(nodes: u16) -> RecoveryManager {
        RecoveryManager {
            shed: vec![false; nodes as usize + 1],
            hot_ticks: vec![0; nodes as usize + 1],
            ticks: 0,
            sheds: 0,
            readmits: 0,
            rehomes: 0,
        }
    }

    /// Run one control-loop tick over the cluster observations (one entry
    /// per node, any order; decisions are made in ascending node-id order
    /// for determinism). Returns the actions for the world to apply.
    pub fn tick(&mut self, obs: &[NodeObservation]) -> Vec<ManagerAction> {
        self.ticks += 1;
        let mut sorted: Vec<&NodeObservation> = obs.iter().collect();
        sorted.sort_unstable_by_key(|o| o.node.get());
        let mut actions = Vec::new();
        for o in sorted {
            let id = o.node.get() as usize;
            let pressure = o.pressure();
            let hot = pressure >= SHED_ON;
            self.hot_ticks[id] = if hot { self.hot_ticks[id] + 1 } else { 0 };

            // Rehome: reactive on death/partition, proactive on sustained
            // pressure. Reset the hot streak so a still-alive donor is not
            // re-vacated every subsequent tick while it drains.
            let must_move = o.dead || o.isolated;
            let should_move = self.hot_ticks[id] >= MIGRATE_AFTER && !o.suspected;
            if o.hosts_zones && (must_move || should_move) {
                actions.push(ManagerAction::Rehome { from: o.node });
                self.rehomes += 1;
                self.hot_ticks[id] = 0;
            }

            // Admission control with hysteresis. Dead/isolated nodes are
            // the failure detector's problem (suspect + evacuate), not
            // admission control's; shedding them would only delay the
            // retries that drive detection.
            if !must_move {
                if !self.shed[id] && hot {
                    self.shed[id] = true;
                    self.sheds += 1;
                    actions.push(ManagerAction::Shed { target: o.node });
                } else if self.shed[id] && pressure <= SHED_OFF {
                    self.shed[id] = false;
                    self.readmits += 1;
                    actions.push(ManagerAction::Readmit { target: o.node });
                }
            } else if self.shed[id] {
                // A target that died while shed: lift the shed so clients
                // fail fast through the suspect path instead of deferring
                // against a node that will never drain.
                self.shed[id] = false;
                self.readmits += 1;
                actions.push(ManagerAction::Readmit { target: o.node });
            }
        }
        actions
    }

    /// Load-aware donor choice for a recovery move: among nodes that are
    /// alive, reachable, unsuspected, not shed, not `asker`, and have at
    /// least `frames` free, pick the one with the most free frames;
    /// break ties by lower pressure, then lower node id.
    pub fn choose_recovery_donor(
        &self,
        asker: NodeId,
        frames: u64,
        obs: &[NodeObservation],
    ) -> Option<NodeId> {
        obs.iter()
            .filter(|o| {
                o.node != asker
                    && !o.dead
                    && !o.isolated
                    && !o.suspected
                    && !self.shed[o.node.get() as usize]
                    && o.free_frames >= frames
            })
            .min_by_key(|o| (u64::MAX - o.free_frames, o.pressure(), o.node.get()))
            .map(|o| o.node)
    }

    /// True if the manager currently load-sheds accesses to `node`.
    pub fn is_shed(&self, node: NodeId) -> bool {
        self.shed[node.get() as usize]
    }

    /// Number of nodes currently load-shed.
    pub fn currently_shed(&self) -> usize {
        self.shed.iter().filter(|&&s| s).count()
    }

    /// Control-loop ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Shed decisions made so far.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Re-admissions made so far.
    pub fn readmits(&self) -> u64 {
        self.readmits
    }

    /// Rehome decisions (reactive + proactive) made so far.
    pub fn rehomes(&self) -> u64 {
        self.rehomes
    }

    /// Serializable decision counters for the cluster snapshot.
    pub fn snapshot(&self) -> Json {
        Json::obj([
            ("ticks", Json::from(self.ticks)),
            ("sheds", Json::from(self.sheds)),
            ("readmits", Json::from(self.readmits)),
            ("rehomes", Json::from(self.rehomes)),
            ("currently_shed", Json::from(self.currently_shed())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn quiet(id: u16) -> NodeObservation {
        NodeObservation {
            node: n(id),
            dead: false,
            isolated: false,
            suspected: false,
            server_backlog: SimDuration::ZERO,
            link_backlog: SimDuration::ZERO,
            free_frames: 1_000,
            hosts_zones: false,
        }
    }

    fn mgr() -> RecoveryManager {
        RecoveryManager::new(4)
    }

    #[test]
    fn shed_and_readmit_follow_the_hysteresis_band() {
        let mut m = mgr();
        let hot = NodeObservation {
            server_backlog: SimDuration::us(5),
            ..quiet(2)
        };
        assert_eq!(
            m.tick(&[quiet(1), hot, quiet(3), quiet(4)]),
            vec![ManagerAction::Shed { target: n(2) }]
        );
        assert!(m.is_shed(n(2)));
        // In the band between the watermarks: no flapping either way.
        let warm = NodeObservation {
            server_backlog: SimDuration::us(2),
            ..quiet(2)
        };
        assert!(m.tick(&[quiet(1), warm, quiet(3), quiet(4)]).is_empty());
        assert!(m.is_shed(n(2)));
        // Below the low watermark: re-admitted.
        assert_eq!(
            m.tick(&[quiet(1), quiet(2), quiet(3), quiet(4)]),
            vec![ManagerAction::Readmit { target: n(2) }]
        );
        assert!(!m.is_shed(n(2)));
        assert_eq!((m.sheds(), m.readmits()), (1, 1));
    }

    #[test]
    fn dead_or_isolated_hosts_rehome_immediately_and_are_not_shed() {
        let mut m = mgr();
        let dead = NodeObservation {
            dead: true,
            hosts_zones: true,
            server_backlog: SimDuration::us(100),
            ..quiet(3)
        };
        assert_eq!(
            m.tick(&[quiet(1), quiet(2), dead, quiet(4)]),
            vec![ManagerAction::Rehome { from: n(3) }]
        );
        let isolated = NodeObservation {
            isolated: true,
            hosts_zones: true,
            ..quiet(4)
        };
        assert_eq!(
            m.tick(&[quiet(1), quiet(2), quiet(3), isolated]),
            vec![ManagerAction::Rehome { from: n(4) }]
        );
        assert_eq!(m.rehomes(), 2);
        assert_eq!(m.sheds(), 0, "dead nodes are never shed");
    }

    #[test]
    fn sustained_pressure_triggers_proactive_migration_once() {
        let mut m = RecoveryManager::new(2);
        let hot_host = NodeObservation {
            server_backlog: SimDuration::us(10),
            hosts_zones: true,
            ..quiet(2)
        };
        // Tick 1 sheds; ticks 1-3 are below the streak threshold.
        assert_eq!(
            m.tick(&[quiet(1), hot_host]),
            vec![ManagerAction::Shed { target: n(2) }]
        );
        for _ in 2..MIGRATE_AFTER {
            assert!(m.tick(&[quiet(1), hot_host]).is_empty());
        }
        // Tick 4 reaches the streak: migrate, and the streak resets so the
        // next hot tick does not re-vacate.
        assert_eq!(
            m.tick(&[quiet(1), hot_host]),
            vec![ManagerAction::Rehome { from: n(2) }]
        );
        assert!(m.tick(&[quiet(1), hot_host]).is_empty());
        assert_eq!(m.rehomes(), 1);
    }

    #[test]
    fn donor_choice_prefers_free_frames_then_pressure_then_id() {
        let m = mgr();
        let mut obs = vec![quiet(1), quiet(2), quiet(3), quiet(4)];
        obs[2].free_frames = 2_000; // node 3: most free wins
        assert_eq!(m.choose_recovery_donor(n(1), 500, &obs), Some(n(3)));
        // Equal frames: lower pressure wins.
        obs[2].free_frames = 1_000;
        obs[1].link_backlog = SimDuration::us(1);
        obs[2].link_backlog = SimDuration::ns(10);
        obs[3].link_backlog = SimDuration::us(1);
        assert_eq!(m.choose_recovery_donor(n(1), 500, &obs), Some(n(3)));
        // Fully equal: lowest id that is not the asker.
        for o in obs.iter_mut() {
            o.link_backlog = SimDuration::ZERO;
        }
        assert_eq!(m.choose_recovery_donor(n(1), 500, &obs), Some(n(2)));
        // Dead, isolated, suspected and too-small candidates are excluded.
        obs[1].dead = true;
        obs[2].suspected = true;
        obs[3].free_frames = 499;
        assert_eq!(m.choose_recovery_donor(n(1), 500, &obs), None);
    }

    #[test]
    fn shed_nodes_are_excluded_as_donors_until_readmitted() {
        let mut m = mgr();
        let hot = NodeObservation {
            server_backlog: SimDuration::us(5),
            ..quiet(2)
        };
        m.tick(&[quiet(1), hot, quiet(3), quiet(4)]);
        let obs = vec![quiet(1), quiet(2), quiet(3), quiet(4)];
        assert_eq!(
            m.choose_recovery_donor(n(1), 500, &obs),
            Some(n(3)),
            "shed node 2 must be skipped"
        );
        m.tick(&obs); // pressure cleared -> readmit
        assert_eq!(m.choose_recovery_donor(n(1), 500, &obs), Some(n(2)));
    }

    #[test]
    fn snapshot_reports_the_decision_counters() {
        let mut m = mgr();
        let hot = NodeObservation {
            server_backlog: SimDuration::us(5),
            ..quiet(2)
        };
        m.tick(&[quiet(1), hot, quiet(3), quiet(4)]);
        let s = m.snapshot();
        assert_eq!(s.get("ticks").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("sheds").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("currently_shed").and_then(Json::as_u64), Some(1));
    }
}
