//! Chaos campaign harness — survive continuous fault churn.
//!
//! Generates seeded, randomized [`FaultPlan`]s (crash/restart storms,
//! link partitions, rolling server stalls, mixes of all three), runs
//! thread-driven worlds under them — with and without the online recovery
//! manager — and checks **invariant oracles** after every run:
//!
//! 1. *Accounting*: every access of every thread either completed, failed
//!    or (open-loop serving threads only) was shed; no transaction is lost
//!    or double-completed; nothing is left in flight after the run drains.
//! 2. *Frame conservation*: for every node untouched by faults and never
//!    suspected, the frames it can lend plus frames hosted for other nodes
//!    (plus grants stranded while it was cut off) equal its pool size
//!    exactly; faulted nodes may only lose capacity, never mint it.
//! 3. *Snapshot self-consistency*: the JSON document agrees with the
//!    programmatic counters and its time series is monotonic.
//!
//! The `chaos` bin sweeps this over many seeds (`COHFREE_CHAOS_SEED`,
//! `COHFREE_CHAOS_RUNS`); the EXT-CHAOS experiment measures what the
//! recovery manager buys (availability, MTTR, shed rate) on the same
//! generator.

use cohfree_core::{
    ClusterConfig, FaultEvent, FaultPlan, NodeId, Rng, SimDuration, SimTime, ThreadSpec, World,
};

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

fn t(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::us(us)
}

/// A chaos scenario family: what kind of disaster the generator scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Several node crashes, some followed by restarts.
    CrashStorm,
    /// Correlated link outages cutting one node off the fabric, later
    /// partially repaired.
    Partition,
    /// Staggered server-RMC stalls rolling across the cluster.
    RollingStalls,
    /// All of the above at once, over a lossy fabric.
    Mixed,
}

impl Scenario {
    /// Every scenario family, in campaign order.
    pub const ALL: [Scenario; 4] = [
        Scenario::CrashStorm,
        Scenario::Partition,
        Scenario::RollingStalls,
        Scenario::Mixed,
    ];

    /// Stable name (used in reports and failure messages).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::CrashStorm => "crash_storm",
            Scenario::Partition => "partition",
            Scenario::RollingStalls => "rolling_stalls",
            Scenario::Mixed => "mixed",
        }
    }
}

/// The physical links incident to `node` on the prototype mesh.
pub fn links_of(cfg: &ClusterConfig, node: NodeId) -> Vec<(NodeId, NodeId)> {
    cfg.topology
        .links()
        .into_iter()
        .filter(|&(a, b)| a == node || b == node)
        .collect()
}

/// Generate the seeded fault plan for one `(scenario, seed)` cell. All
/// event times land inside the first ~300 us so faults strike while the
/// workload is hot; every named node and link exists (the plans are also a
/// standing regression for [`World::try_new`] validation).
pub fn scenario_plan(cfg: &ClusterConfig, scenario: Scenario, seed: u64) -> FaultPlan {
    let nodes = cfg.topology.num_nodes() as u64;
    let mut rng = Rng::new(seed ^ 0xC4A0_5EED);
    let mut plan = FaultPlan::new();
    match scenario {
        Scenario::CrashStorm => {
            let crashes = rng.range(2, 5);
            let mut victims: Vec<u16> = Vec::new();
            for _ in 0..crashes {
                let v = rng.range(2, nodes + 1) as u16;
                if victims.contains(&v) {
                    continue;
                }
                victims.push(v);
                let at = rng.range(20, 250);
                plan.push(FaultEvent::NodeCrash {
                    at: t(at),
                    node: n(v),
                });
                if rng.chance(0.5) {
                    plan.push(FaultEvent::NodeRestart {
                        at: t(at + rng.range(80, 300)),
                        node: n(v),
                    });
                }
            }
        }
        Scenario::Partition => {
            // Cut every link of one victim node (a correlated outage that
            // isolates it), then repair a random subset later.
            let victim = n(rng.range(2, nodes + 1) as u16);
            let cut_at = rng.range(20, 150);
            let heal_at = cut_at + rng.range(100, 300);
            for (a, b) in links_of(cfg, victim) {
                plan.push(FaultEvent::LinkDown {
                    at: t(cut_at),
                    a,
                    b,
                });
                if rng.chance(0.6) {
                    plan.push(FaultEvent::LinkUp {
                        at: t(heal_at),
                        a,
                        b,
                    });
                }
            }
        }
        Scenario::RollingStalls => {
            let stalls = rng.range(3, 6);
            for k in 0..stalls {
                plan.push(FaultEvent::ServerStall {
                    at: t(15 + k * rng.range(25, 60)),
                    node: n(rng.range(1, nodes + 1) as u16),
                    duration: SimDuration::us(rng.range(20, 80)),
                });
            }
        }
        Scenario::Mixed => {
            let victim = rng.range(2, nodes + 1) as u16;
            let at = rng.range(30, 150);
            plan.push(FaultEvent::NodeCrash {
                at: t(at),
                node: n(victim),
            });
            if rng.chance(0.5) {
                plan.push(FaultEvent::NodeRestart {
                    at: t(at + rng.range(100, 250)),
                    node: n(victim),
                });
            }
            let flap = links_of(cfg, n(rng.range(1, nodes + 1) as u16));
            if let Some(&(a, b)) = flap.first() {
                let down = rng.range(10, 120);
                plan.push(FaultEvent::LinkDown { at: t(down), a, b });
                plan.push(FaultEvent::LinkUp {
                    at: t(down + rng.range(40, 200)),
                    a,
                    b,
                });
            }
            for k in 0..rng.range(1, 3) {
                plan.push(FaultEvent::ServerStall {
                    at: t(20 + k * 70),
                    node: n(rng.range(1, nodes + 1) as u16),
                    duration: SimDuration::us(rng.range(20, 60)),
                });
            }
        }
    }
    plan
}

/// The cluster nodes a plan names (crash victims, stalled servers, link
/// endpoints) — the set the frame-conservation oracle exempts from its
/// equality check.
fn named_nodes(plan: &FaultPlan) -> Vec<NodeId> {
    let mut out = Vec::new();
    for ev in plan.events() {
        match ev {
            FaultEvent::NodeCrash { node, .. }
            | FaultEvent::NodeRestart { node, .. }
            | FaultEvent::ServerStall { node, .. } => out.push(node),
            FaultEvent::LinkDown { a, b, .. } | FaultEvent::LinkUp { a, b, .. } => {
                out.push(a);
                out.push(b);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// One chaos cell: scenario, seed, manager on/off.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Scenario family.
    pub scenario: Scenario,
    /// Generator seed.
    pub seed: u64,
    /// Whether the online recovery manager runs.
    pub manager: bool,
}

/// Build the world for a chaos cell (faults, threads, sampling) without
/// running it.
pub fn build_world(spec: ChaosSpec, accesses: u64) -> World {
    let mut cfg = ClusterConfig::prototype();
    cfg.faults = scenario_plan(&cfg, spec.scenario, spec.seed);
    if spec.scenario == Scenario::Mixed {
        cfg.fabric.loss_rate = 1e-3;
    }
    cfg.manager = spec.manager;
    let mut w = World::new(cfg);
    w.enable_sampling(SimDuration::us(5));
    let mut rng = Rng::new(spec.seed ^ 0x7117_EAD5);
    let threads = rng.range(3, 7);
    for k in 0..threads {
        let node = n(rng.range(1, 17) as u16);
        let donor = loop {
            let d = n(rng.range(1, 17) as u16);
            if d != node {
                break d;
            }
        };
        let resv = w.reserve_remote(node, 256, Some(donor));
        w.spawn_thread(
            ThreadSpec {
                node,
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: accesses / 2 + rng.below(accesses / 2 + 1),
                bytes: 64,
                write_fraction: rng.f64() * 0.5,
                think: SimDuration::ns(5),
                seed: rng.next_u64(),
            },
            SimTime::ZERO,
        );
        let _ = k;
    }
    w
}

/// Run the invariant oracles over a drained world. Returns every violation
/// found (empty = all oracles hold).
pub fn check_oracles(w: &World) -> Vec<String> {
    let mut violations = Vec::new();
    let cfg = w.config();
    let nodes = cfg.topology.num_nodes();

    // 1. Accounting: every access resolved, nothing still in flight,
    //    cluster-wide completions match thread completions exactly.
    let mut thread_completed = 0u64;
    for id in 0..w.threads_spawned() {
        let (c, f, s, acc) = (
            w.thread_completed(id),
            w.thread_failed(id),
            w.thread_shed(id),
            w.thread_accesses(id),
        );
        if c + f + s != acc {
            violations.push(format!(
                "thread {id}: completed {c} + failed {f} + shed {s} != accesses {acc}"
            ));
        }
        thread_completed += c;
    }
    if w.pending_count() != 0 {
        violations.push(format!(
            "{} transactions still in flight after drain",
            w.pending_count()
        ));
    }
    let client_completions: u64 = (1..=nodes).map(|i| w.client(n(i)).completions()).sum();
    if client_completions != thread_completed {
        violations.push(format!(
            "client completions {client_completions} != thread completions \
             {thread_completed} (lost or double-completed transactions)"
        ));
    }

    // 2. Frame conservation. `hosted[d]` = frames other nodes' regions say
    //    are homed on d.
    let mut hosted = vec![0u64; nodes as usize + 1];
    for i in 1..=nodes {
        for seg in w.region(n(i)).segments() {
            if seg.home != n(i) {
                hosted[seg.home.get() as usize] += seg.frames;
            }
        }
    }
    let pool = cfg.pool_frames_per_node();
    let exempt = named_nodes(&cfg.faults);
    for i in 1..=nodes {
        // Nodes the plan names break conservation by design: a crashed
        // donor lends nothing, and a restart resets its pool while
        // pre-crash grants may linger in owners' regions. Suspected nodes
        // likewise lend nothing once the failure detector declares them.
        if exempt.contains(&n(i)) || w.node_is_suspected(n(i)) {
            continue;
        }
        let free = w.free_frames(n(i));
        let lost = w.lost_frames(n(i));
        let total = free + hosted[i as usize] + lost;
        if total != pool {
            violations.push(format!(
                "node {i} (untouched by faults): free {free} + hosted {h} + lost {lost} \
                 != pool {pool}",
                h = hosted[i as usize]
            ));
        }
    }

    // 3. Snapshot self-consistency.
    let doc = w.snapshot().doc;
    let at_ns = doc.get("at_ns").and_then(|v| v.as_u64());
    if at_ns != Some(w.now().as_ns()) {
        violations.push(format!(
            "snapshot at_ns {at_ns:?} != engine clock {}",
            w.now()
        ));
    }
    let mut snap_completions = 0u64;
    match doc.get("nodes").and_then(|v| v.as_array()) {
        Some(node_docs) if node_docs.len() == nodes as usize => {
            for nd in node_docs {
                snap_completions += nd
                    .get("rmc_client")
                    .and_then(|c| c.get("completions"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0);
            }
        }
        _ => violations.push("snapshot nodes array missing or wrong length".to_string()),
    }
    if snap_completions != thread_completed {
        violations.push(format!(
            "snapshot completions {snap_completions} != thread completions {thread_completed}"
        ));
    }
    let series_ts: Vec<u64> = doc
        .get("samples")
        .and_then(|s| s.get("series"))
        .and_then(|s| s.as_array())
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("t_ns").and_then(|v| v.as_u64()))
                .collect()
        })
        .unwrap_or_default();
    if series_ts.windows(2).any(|w| w[0] > w[1]) {
        violations.push("sample time series is not monotonic".to_string());
    }
    if w.manager().is_none() && doc.get("manager").is_some() {
        violations.push("manager stats present with the manager disabled".to_string());
    }

    violations
}

/// Outcome of one chaos cell.
#[derive(Debug)]
pub struct CellOutcome {
    /// The cell that ran.
    pub spec: ChaosSpec,
    /// Oracle violations (empty = pass).
    pub violations: Vec<String>,
    /// Total completed accesses.
    pub completed: u64,
    /// Total failed accesses.
    pub failed: u64,
    /// Total shed deferrals across all clients.
    pub shed_deferrals: u64,
    /// Zone evacuations + migrations.
    pub evacuations: u64,
}

/// Run one chaos cell to drain and check the oracles.
pub fn run_cell(spec: ChaosSpec, accesses: u64) -> CellOutcome {
    let mut w = build_world(spec, accesses);
    w.run();
    let violations = check_oracles(&w);
    let nodes = w.config().topology.num_nodes();
    CellOutcome {
        spec,
        violations,
        completed: (0..w.threads_spawned())
            .map(|i| w.thread_completed(i))
            .sum(),
        failed: (0..w.threads_spawned()).map(|i| w.thread_failed(i)).sum(),
        shed_deferrals: (1..=nodes).map(|i| w.client(n(i)).shed_deferrals()).sum(),
        evacuations: w.evacuations(),
    }
}

/// Sweep the full campaign: every scenario × manager on/off × `runs`
/// seeds starting at `base_seed`, in parallel across worker threads.
/// Returns every cell outcome (callers decide how to report failures).
pub fn campaign(base_seed: u64, runs: u64, accesses: u64) -> Vec<CellOutcome> {
    let mut cells = Vec::new();
    for k in 0..runs {
        for scenario in Scenario::ALL {
            for manager in [false, true] {
                cells.push(ChaosSpec {
                    scenario,
                    seed: base_seed.wrapping_add(k),
                    manager,
                });
            }
        }
    }
    crate::parallel_map(cells, |spec| run_cell(spec, accesses))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic_and_valid() {
        let cfg = ClusterConfig::prototype();
        for scenario in Scenario::ALL {
            let a = scenario_plan(&cfg, scenario, 7);
            let b = scenario_plan(&cfg, scenario, 7);
            let evs_a: Vec<String> = a.events().map(|e| format!("{e:?}")).collect();
            let evs_b: Vec<String> = b.events().map(|e| format!("{e:?}")).collect();
            assert_eq!(evs_a, evs_b, "{} plan not deterministic", scenario.name());
            assert!(
                !a.is_empty(),
                "{} plan must schedule faults",
                scenario.name()
            );
            // Every plan must survive World::try_new validation.
            let mut c = cfg;
            c.faults = a;
            assert!(
                World::try_new(c).is_ok(),
                "{} plan names a nonexistent node or link",
                scenario.name()
            );
        }
    }

    #[test]
    fn partition_plans_isolate_the_victim() {
        let cfg = ClusterConfig::prototype();
        let plan = scenario_plan(&cfg, Scenario::Partition, 3);
        let downs = plan
            .events()
            .filter(|e| matches!(e, FaultEvent::LinkDown { .. }))
            .count();
        assert!(downs >= 2, "a mesh node has at least two links to cut");
    }

    #[test]
    fn oracles_hold_on_a_smoke_cell_with_and_without_manager() {
        for manager in [false, true] {
            let out = run_cell(
                ChaosSpec {
                    scenario: Scenario::CrashStorm,
                    seed: 1,
                    manager,
                },
                60,
            );
            assert!(
                out.violations.is_empty(),
                "oracle violations (manager={manager}): {:?}",
                out.violations
            );
            assert!(out.completed > 0);
        }
    }

    #[test]
    fn oracles_catch_a_cooked_world() {
        // Sanity that the oracles can actually fail: an undrained world
        // (threads still running) violates accounting.
        let w = build_world(
            ChaosSpec {
                scenario: Scenario::RollingStalls,
                seed: 2,
                manager: false,
            },
            40,
        );
        // Not run: threads have completed nothing.
        let v = check_oracles(&w);
        assert!(
            v.iter().any(|m| m.contains("!= accesses")),
            "undrained world must trip the accounting oracle: {v:?}"
        );
    }
}
