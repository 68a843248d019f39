//! EXT-CHAOS — what the online recovery manager buys under fault churn.
//!
//! Beyond the paper: EXT-FAILOVER measures one donor crash with static,
//! retry-budget-driven recovery. This experiment puts the same workload
//! (two node-1 threads hammering a zone borrowed from node 2) under three
//! chaos disruptions — a crash storm, a correlated link partition that
//! isolates the donor, and rolling server stalls — and compares **manager
//! off** (static worst-case provisioning: failures are found the slow way,
//! by exhausting the per-access retry budget) against **manager on** (the
//! [`cohfree_core::RecoveryManager`] control loop: periodic observation,
//! proactive migration, admission control). Metrics:
//!
//! * **availability** — fraction of sample intervals (between the first
//!   and last interval that made progress) in which node 1 completed at
//!   least one access,
//! * **mttr_us** — time from the disruption striking until node-1
//!   completions resume,
//! * **shed_deferrals** — accesses turned away (and later re-admitted) by
//!   admission control,
//! * **completed / failed / evacuations** — end-state accounting.
//!
//! The manager's tick (2 us) plus one re-reservation (~200 us) beats the
//! retry-budget detection path (16 exponentially backed-off retries, ~6 ms)
//! by more than an order of magnitude, which shows up directly in both
//! availability and MTTR.

use crate::table::Table;
use crate::Scale;
use cohfree_core::{ClusterConfig, FaultEvent, FaultPlan, SimDuration, SimTime, ThreadSpec, World};

/// Zone size (frames) borrowed from the disrupted donor.
const ZONE_FRAMES: u64 = 2_048;

/// The disruption hitting the donor (node 2) mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disruption {
    /// The donor crashes, with two more crashes elsewhere for storm flavor.
    CrashStorm,
    /// Every link of the donor goes down at once (correlated outage): the
    /// node is alive but unreachable.
    Partition,
    /// The donor's server RMC stalls repeatedly; nothing ever dies.
    RollingStalls,
}

impl Disruption {
    /// All disruptions, in table order.
    pub const ALL: [Disruption; 3] = [
        Disruption::CrashStorm,
        Disruption::Partition,
        Disruption::RollingStalls,
    ];

    /// Stable row label.
    pub fn name(self) -> &'static str {
        match self {
            Disruption::CrashStorm => "crash_storm",
            Disruption::Partition => "partition",
            Disruption::RollingStalls => "rolling_stalls",
        }
    }
}

fn plan(cfg: &ClusterConfig, disruption: Disruption, strike: SimTime) -> FaultPlan {
    let us = |d: SimDuration| strike + d;
    match disruption {
        Disruption::CrashStorm => FaultPlan::new()
            .with(FaultEvent::NodeCrash {
                at: strike,
                node: super::n(2),
            })
            .with(FaultEvent::NodeCrash {
                at: us(SimDuration::us(30)),
                node: super::n(11),
            })
            .with(FaultEvent::NodeCrash {
                at: us(SimDuration::us(55)),
                node: super::n(14),
            }),
        Disruption::Partition => {
            let mut p = FaultPlan::new();
            for (a, b) in crate::chaos::links_of(cfg, super::n(2)) {
                p.push(FaultEvent::LinkDown { at: strike, a, b });
            }
            p
        }
        Disruption::RollingStalls => FaultPlan::new()
            .with(FaultEvent::ServerStall {
                at: strike,
                node: super::n(2),
                duration: SimDuration::us(60),
            })
            .with(FaultEvent::ServerStall {
                at: us(SimDuration::us(90)),
                node: super::n(2),
                duration: SimDuration::us(60),
            }),
    }
}

/// One measured run.
pub struct Outcome {
    /// Row label.
    pub disruption: Disruption,
    /// Manager on?
    pub manager: bool,
    /// Fraction of progress-window sample intervals with >= 1 completion.
    pub availability: f64,
    /// Strike-to-resume latency (None if progress never resumed).
    pub mttr_us: Option<f64>,
    /// Accesses deferred by admission control.
    pub shed_deferrals: u64,
    /// Completed / failed accesses and zone moves.
    pub completed: u64,
    /// Accesses lost.
    pub failed: u64,
    /// Evacuations + proactive migrations.
    pub evacuations: u64,
}

fn run_one(
    scale: Scale,
    disruption: Disruption,
    manager: bool,
    strike: SimTime,
    accesses: u64,
    record: bool,
) -> Outcome {
    let mut cfg = ClusterConfig::prototype();
    cfg.faults = plan(&cfg, disruption, strike);
    cfg.manager = manager;
    let mut w = World::new(cfg);
    let resv = w.reserve_remote(super::n(1), ZONE_FRAMES, Some(super::n(2)));
    // For the stall rows, a second zone on a healthy donor keeps threads
    // issuing during the stall so admission control actually has traffic to
    // defer; for crash/partition rows a single zone keeps the recovery
    // signal clean (all node-1 progress stops until the zone moves).
    let zones = if disruption == Disruption::RollingStalls {
        let spare = w.reserve_remote(super::n(1), ZONE_FRAMES, Some(super::n(3)));
        vec![
            (resv.prefixed_base, resv.frames * 4096),
            (spare.prefixed_base, spare.frames * 4096),
        ]
    } else {
        vec![(resv.prefixed_base, resv.frames * 4096)]
    };
    w.enable_sampling(super::sample_interval(scale).min(SimDuration::us(5)));
    let ids: Vec<usize> = (0..2u64)
        .map(|k| {
            w.spawn_thread(
                ThreadSpec {
                    node: super::n(1),
                    zones: zones.clone(),
                    accesses: accesses / 2,
                    bytes: 64,
                    write_fraction: 0.1,
                    think: SimDuration::ns(5),
                    seed: 9_100 + k,
                },
                SimTime::ZERO,
            )
        })
        .collect();
    w.run();

    let samples = w.samples();
    let comp = |i: usize| samples[i].completions[0];
    let strike_i = samples
        .iter()
        .position(|s| s.at >= strike)
        .unwrap_or(samples.len() - 1);
    let t_strike = samples[strike_i].at.since(SimTime::ZERO).as_ns_f64() / 1_000.0;
    let rec_i = (strike_i + 1..samples.len()).find(|&i| comp(i) > comp(strike_i));
    let mttr_us =
        rec_i.map(|i| samples[i].at.since(SimTime::ZERO).as_ns_f64() / 1_000.0 - t_strike);
    // Availability over the progress window: intervals from the first to
    // the last one that completed anything (the drain tail past the final
    // completion is backoff-timer housekeeping, not unavailability).
    let progressing: Vec<usize> = (1..samples.len())
        .filter(|&i| comp(i) > comp(i - 1))
        .collect();
    let availability = match (progressing.first(), progressing.last()) {
        (Some(&a), Some(&b)) if b > a => progressing.len() as f64 / (b - a + 1) as f64,
        _ => 0.0,
    };
    if record {
        crate::report::record_snapshot(
            &format!("ext_chaos/{}_manager", disruption.name()),
            w.snapshot(),
        );
    }
    Outcome {
        disruption,
        manager,
        availability,
        mttr_us,
        shed_deferrals: (1..=16)
            .map(|i| w.client(super::n(i)).shed_deferrals())
            .sum(),
        completed: ids.iter().map(|&i| w.thread_completed(i)).sum(),
        failed: ids.iter().map(|&i| w.thread_failed(i)).sum(),
        evacuations: w.evacuations(),
    }
}

/// Run the full EXT-CHAOS grid (3 disruptions × manager off/on).
pub fn outcomes(scale: Scale) -> Vec<Outcome> {
    let accesses = scale.pick(4_000u64, 20_000, 100_000);
    // Strike while the workload is hot: past warmup, well before the end
    // (a clean smoke run of 4k accesses lasts ~2.7 ms).
    let strike = SimTime::ZERO + SimDuration::us(100);
    let grid: Vec<(Disruption, bool)> = Disruption::ALL
        .iter()
        .flat_map(|&d| [(d, false), (d, true)])
        .collect();
    crate::parallel_map(grid, |(d, m)| {
        run_one(
            scale,
            d,
            m,
            strike,
            accesses,
            m && d == Disruption::CrashStorm,
        )
    })
}

/// Build the EXT-CHAOS table.
pub fn table(scale: Scale) -> Table {
    let mut t = Table::new(
        "EXT-CHAOS — recovery manager vs static provisioning under fault churn",
        &[
            "disruption",
            "manager",
            "availability",
            "mttr_us",
            "shed_deferrals",
            "completed",
            "failed",
            "evacuations",
        ],
    );
    for o in outcomes(scale) {
        t.row(vec![
            o.disruption.name().to_string(),
            if o.manager { "on" } else { "off" }.to_string(),
            format!("{:.3}", o.availability),
            o.mttr_us.map_or("-".to_string(), |m| format!("{m:.1}")),
            o.shed_deferrals.to_string(),
            o.completed.to_string(),
            o.failed.to_string(),
            o.evacuations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_strictly_beats_static_provisioning_on_crash_and_partition() {
        let all = outcomes(Scale::Smoke);
        for d in [Disruption::CrashStorm, Disruption::Partition] {
            let off = all
                .iter()
                .find(|o| o.disruption == d && !o.manager)
                .unwrap();
            let on = all.iter().find(|o| o.disruption == d && o.manager).unwrap();
            assert!(
                on.availability > off.availability,
                "{}: manager availability {} must strictly beat static {}",
                d.name(),
                on.availability,
                off.availability
            );
            let (m_on, m_off) = (
                on.mttr_us.expect("manager run must resume"),
                off.mttr_us.expect("static run must eventually resume"),
            );
            assert!(
                m_on < m_off,
                "{}: manager MTTR {m_on} us must strictly beat static {m_off} us",
                d.name()
            );
            assert!(
                on.evacuations >= 1,
                "{}: the zone must have been migrated",
                d.name()
            );
            assert_eq!(
                on.completed + on.failed,
                off.completed + off.failed,
                "{}: both provisioning modes account for every access",
                d.name()
            );
        }
    }

    #[test]
    fn admission_control_engages_on_rolling_stalls() {
        let all = outcomes(Scale::Smoke);
        let on = all
            .iter()
            .find(|o| o.disruption == Disruption::RollingStalls && o.manager)
            .unwrap();
        assert!(
            on.shed_deferrals > 0,
            "stalled-server accesses must be deferred by admission control"
        );
        assert_eq!(on.failed, 0, "admission control defers, never drops");
        let off = all
            .iter()
            .find(|o| o.disruption == Disruption::RollingStalls && !o.manager)
            .unwrap();
        assert_eq!(off.shed_deferrals, 0, "no manager, no shedding");
    }
}
