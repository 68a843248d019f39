//! EXT-FAILOVER — throughput timeline across a mid-run donor crash.
//!
//! Beyond the paper: Section V defers "concerns related to communication
//! reliability", but a heap spanning borrowed memory makes a donor-node
//! crash a first-class failure mode. This experiment crashes the donor
//! while two client threads hammer its zone and measures the full
//! detect-evacuate-resume cycle:
//!
//! * **pre_tput_per_us** — client throughput before the crash,
//! * **mttr_us** — time from the crash until the first post-crash
//!   completion (detection via the retry budget + evacuation + re-issue),
//! * **post_tput_per_us** — throughput on the zone's new home,
//! * **failed** — accesses lost (only when no spare donor exists).
//!
//! The retry-budget sweep shows the paper-style tradeoff: a small budget
//! detects fast (low MTTR) but risks false positives on a merely lossy
//! fabric; a large budget is safe but slow to give up.

use crate::table::Table;
use crate::Scale;
use cohfree_core::{ClusterConfig, FaultEvent, FaultPlan, SimDuration, SimTime, ThreadSpec, World};

/// Zone size (frames) borrowed from the doomed donor.
const ZONE_FRAMES: u64 = 2_048;

fn base_cfg(budget: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::prototype();
    cfg.fabric.loss_rate = 1e-3; // detection must work *through* loss
    cfg.max_retries = budget;
    cfg
}

fn spawn_pair(w: &mut World, zone: (u64, u64), accesses: u64) -> Vec<usize> {
    (0..2u64)
        .map(|k| {
            w.spawn_thread(
                ThreadSpec {
                    node: super::n(1),
                    zones: vec![zone],
                    accesses: accesses / 2,
                    bytes: 64,
                    write_fraction: 0.1,
                    think: SimDuration::ns(5),
                    seed: 7_000 + k,
                },
                SimTime::ZERO,
            )
        })
        .collect()
}

/// Clean-run elapsed time (same loss, no faults), used to place the crash
/// at ~40% of the run so both phases have a measurable throughput.
fn calibrate(accesses: u64) -> SimDuration {
    let mut w = World::new(base_cfg(16));
    let resv = w.reserve_remote(super::n(1), ZONE_FRAMES, Some(super::n(2)));
    let ids = spawn_pair(&mut w, (resv.prefixed_base, resv.frames * 4096), accesses);
    w.run();
    ids.iter().map(|&i| w.thread_elapsed(i)).max().unwrap()
}

struct Outcome {
    budget: u32,
    spare: bool,
    pre_tput: f64,
    mttr_us: Option<f64>,
    post_tput: Option<f64>,
    evacuations: u64,
    completed: u64,
    failed: u64,
}

fn run_one(
    scale: Scale,
    budget: u32,
    spare: bool,
    crash_at: SimTime,
    accesses: u64,
    record: bool,
) -> Outcome {
    let mut cfg = base_cfg(budget);
    cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
        at: crash_at,
        node: super::n(2),
    });
    let mut w = World::new(cfg);
    if !spare {
        // Node 1 borrows every pool but the doomed donor's, so the
        // evacuation has nowhere to go.
        let pool = w.config().pool_frames_per_node();
        for i in 3..=16u16 {
            w.reserve_remote(super::n(1), pool, Some(super::n(i)));
        }
    }
    let resv = w.reserve_remote(super::n(1), ZONE_FRAMES, Some(super::n(2)));
    w.enable_sampling(super::sample_interval(scale));
    let ids = spawn_pair(&mut w, (resv.prefixed_base, resv.frames * 4096), accesses);
    w.run();

    // Reconstruct the throughput timeline from the sampling probe's
    // cumulative node-1 completion counts.
    let samples = w.samples();
    let comp = |i: usize| samples[i].completions[0];
    let crash_i = samples
        .iter()
        .position(|s| s.at >= crash_at)
        .unwrap_or(samples.len() - 1);
    let t_crash = samples[crash_i].at.since(SimTime::ZERO).as_ns_f64() / 1_000.0;
    let pre_tput = if t_crash > 0.0 {
        comp(crash_i) as f64 / t_crash
    } else {
        0.0
    };
    let rec_i = (crash_i + 1..samples.len()).find(|&i| comp(i) > comp(crash_i));
    let mttr_us = rec_i.map(|i| samples[i].at.since(SimTime::ZERO).as_ns_f64() / 1_000.0 - t_crash);
    // Post-recovery throughput up to the last sample that saw progress
    // (the queue keeps draining stale backoff timers after the last
    // completion; those idle samples must not dilute the rate).
    let post_tput = rec_i.and_then(|ri| {
        let last_inc = (ri..samples.len()).rev().find(|&i| comp(i) > comp(i - 1))?;
        let dt = samples[last_inc].at.since(samples[ri].at).as_ns_f64() / 1_000.0;
        (dt > 0.0).then(|| (comp(last_inc) - comp(ri)) as f64 / dt)
    });

    if record {
        crate::report::record_snapshot(&format!("ext_failover/budget{budget}"), w.snapshot());
        crate::report::record_slo(&format!("ext_failover/budget{budget}"), &w);
    }
    Outcome {
        budget,
        spare,
        pre_tput,
        mttr_us,
        post_tput,
        evacuations: w.evacuations(),
        completed: ids.iter().map(|&i| w.thread_completed(i)).sum(),
        failed: ids.iter().map(|&i| w.thread_failed(i)).sum(),
    }
}

/// Build the EXT-FAILOVER table: retry-budget sweep with a spare donor,
/// plus a no-spare-capacity row where the zone is simply lost.
pub fn table(scale: Scale) -> Table {
    let accesses = scale.pick(2_000u64, 20_000, 100_000);
    let clean = calibrate(accesses);
    let crash_at = SimTime::ZERO + SimDuration::ns(clean.as_ns() * 2 / 5);
    let runs: Vec<(u32, bool)> = vec![(2, true), (4, true), (8, true), (4, false)];
    let outcomes = crate::parallel_map(runs, |(budget, spare)| {
        run_one(
            scale,
            budget,
            spare,
            crash_at,
            accesses,
            budget == 4 && spare,
        )
    });
    let mut t = Table::new(
        "EXT-FAILOVER — mid-run donor crash: detection, evacuation, MTTR",
        &[
            "retry_budget",
            "spare_donor",
            "crash_at_us",
            "pre_tput_per_us",
            "mttr_us",
            "post_tput_per_us",
            "evacuations",
            "completed",
            "failed",
        ],
    );
    let crash_us = crash_at.since(SimTime::ZERO).as_ns_f64() / 1_000.0;
    for o in outcomes {
        t.row(vec![
            o.budget.to_string(),
            if o.spare { "yes" } else { "no" }.to_string(),
            format!("{crash_us:.1}"),
            format!("{:.3}", o.pre_tput),
            o.mttr_us.map_or("-".to_string(), |m| format!("{m:.1}")),
            o.post_tput.map_or("-".to_string(), |p| format!("{p:.3}")),
            o.evacuations.to_string(),
            o.completed.to_string(),
            o.failed.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_recovers_when_a_spare_donor_exists() {
        let t = table(Scale::Smoke);
        for r in &t.rows()[0..3] {
            assert!(
                r[6].parse::<u64>().unwrap() >= 1,
                "the zone must be evacuated (budget {})",
                r[0]
            );
            assert_eq!(
                r[8].parse::<u64>().unwrap(),
                0,
                "with a spare donor no access is lost (budget {})",
                r[0]
            );
            let pre: f64 = r[3].parse().unwrap();
            let post: f64 = r[5].parse().unwrap();
            assert!(
                post >= pre / 2.0,
                "post-recovery throughput {post} must be within 2x of pre-fault {pre}"
            );
        }
        // A larger retry budget detects the failure later.
        let m2: f64 = t.rows()[0][4].parse().unwrap();
        let m8: f64 = t.rows()[2][4].parse().unwrap();
        assert!(m8 > m2, "MTTR must grow with the budget: {m2} vs {m8}");
        // Without spare capacity the zone is lost and its accesses fail.
        let last = &t.rows()[3];
        assert_eq!(last[6].parse::<u64>().unwrap(), 0, "nowhere to evacuate");
        assert!(
            last[8].parse::<u64>().unwrap() > 0,
            "dropped-zone accesses must be recorded as failed"
        );
    }
}
