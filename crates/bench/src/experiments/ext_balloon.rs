//! EXT-BALLOON — elastic hot-plug vs. worst-case provisioning.
//!
//! The paper's introduction observes that administrators "provision each of
//! the computers in the cluster for its worst-case memory usage, what
//! usually leads to memory sizes much larger than required for most
//! applications". The architecture's fix is elasticity: borrow zones when a
//! phase needs them, return them after. This study drives four tenants
//! through staggered demand waves under two provisioning policies:
//!
//! * **static** — each tenant reserves its own peak demand up front and
//!   holds it for the whole run (worst-case provisioning, moved into the
//!   pool), and
//! * **balloon** — the [`cohfree_os::balloon`] watermark policy grows and
//!   shrinks zones as demand moves.
//!
//! Both serve every byte of demand; the balloon does it with a fraction of
//! the pool held at any instant, at the cost of a handful of reservation
//! round trips (software, off the access path).

use crate::table::Table;
use crate::Scale;
use cohfree_core::world::World;
use cohfree_core::NodeId;
use cohfree_os::balloon::{Balloon, BalloonAction};
use cohfree_os::region::Reservation;

/// One policy's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Policy label.
    pub policy: &'static str,
    /// Peak pool frames held across the cluster at any step.
    pub peak_pool_mib: f64,
    /// Mean pool frames held over the run.
    pub mean_pool_mib: f64,
    /// Reservation calls performed (grows + releases).
    pub reservation_ops: u64,
    /// Demand steps that could not be satisfied (must be zero).
    pub unmet: u64,
}

/// Tenant nodes (spread across the mesh).
const TENANTS: [u16; 4] = [1, 6, 11, 16];
/// Local frames each tenant's workload may use before borrowing.
const LOCAL_FRAMES: u64 = 40_000;
/// Zone granularity in frames.
const ZONE: u64 = 16_384;

/// Staggered bursty demand (frames used per step, per tenant): each tenant
/// idles at half its local memory except during its own burst window, when
/// demand ramps to `peak` and back — batch jobs taking turns, the scenario
/// where worst-case provisioning wastes the most.
fn demand(step: usize, tenant: usize, steps: usize, peak: u64) -> u64 {
    let window = (steps / TENANTS.len()).max(2);
    let start = tenant * window;
    if step >= start && step < start + window {
        let phase = step - start;
        let half = window / 2;
        let ramp = if phase <= half { phase } else { window - phase };
        LOCAL_FRAMES / 2 + peak * ramp as u64 / half.max(1) as u64
    } else {
        LOCAL_FRAMES / 2
    }
}

fn mib(frames: u64) -> f64 {
    (frames * 4096) as f64 / (1 << 20) as f64
}

/// Run one policy over the demand schedule.
fn run_policy(balloon_mode: bool, steps: usize, peak: u64) -> Row {
    let mut w = World::new(super::cluster());
    let mut balloons: Vec<Balloon> = TENANTS
        .iter()
        .map(|_| Balloon::new(ZONE, LOCAL_FRAMES))
        .collect();
    let mut held: Vec<Vec<Reservation>> = vec![Vec::new(); TENANTS.len()];
    let mut ops = 0u64;
    let mut unmet = 0u64;
    let mut peak_pool = 0u64;
    let mut pool_sum = 0u64;

    if !balloon_mode {
        // Static: reserve each tenant's peak borrow need up front.
        for (ti, &tn) in TENANTS.iter().enumerate() {
            let peak_demand = (0..steps)
                .map(|s| demand(s, ti, steps, peak))
                .max()
                .unwrap();
            let mut need = peak_demand.saturating_sub(LOCAL_FRAMES);
            // Round up to zones.
            need = need.div_ceil(ZONE) * ZONE;
            if need > 0 {
                held[ti].push(w.reserve_remote(NodeId::new(tn), need, None));
                ops += 1;
            }
        }
    }

    for step in 0..steps {
        for (ti, &tn) in TENANTS.iter().enumerate() {
            let used = demand(step, ti, steps, peak);
            if balloon_mode {
                loop {
                    match balloons[ti].decide(used) {
                        BalloonAction::Grow => {
                            held[ti].push(w.reserve_remote(NodeId::new(tn), ZONE, None));
                            balloons[ti].applied(BalloonAction::Grow);
                            ops += 1;
                        }
                        BalloonAction::Shrink => {
                            let r = held[ti].pop().expect("balloon zones tracked");
                            w.release_remote(NodeId::new(tn), r);
                            balloons[ti].applied(BalloonAction::Shrink);
                            ops += 1;
                        }
                        BalloonAction::Hold => break,
                    }
                }
                if balloons[ti].capacity() < used {
                    unmet += 1;
                }
            } else {
                let capacity = LOCAL_FRAMES + held[ti].iter().map(|r| r.frames).sum::<u64>();
                if capacity < used {
                    unmet += 1;
                }
            }
        }
        let pool_now: u64 = held.iter().flatten().map(|r| r.frames).sum();
        peak_pool = peak_pool.max(pool_now);
        pool_sum += pool_now;
    }
    Row {
        policy: if balloon_mode {
            "balloon"
        } else {
            "static peak"
        },
        peak_pool_mib: mib(peak_pool),
        mean_pool_mib: mib(pool_sum / steps as u64),
        reservation_ops: ops,
        unmet,
    }
}

/// Run both policies.
pub fn run(scale: Scale) -> Vec<Row> {
    let steps = scale.pick(16usize, 64, 256);
    let peak = scale.pick(100_000u64, 200_000, 400_000);
    vec![
        run_policy(false, steps, peak),
        run_policy(true, steps, peak),
    ]
}

/// Render the study as a table.
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "EXT-BALLOON — pool held: worst-case provisioning vs. hot-plug balloon",
        &[
            "policy",
            "peak_pool_mib",
            "mean_pool_mib",
            "reservation_ops",
            "unmet_steps",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.policy.into(),
            format!("{:.0}", r.peak_pool_mib),
            format!("{:.0}", r.mean_pool_mib),
            r.reservation_ops.to_string(),
            r.unmet.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balloon_serves_demand_with_less_pool() {
        let rows = run(Scale::Smoke);
        let stat = &rows[0];
        let ball = &rows[1];
        assert_eq!(stat.unmet, 0, "static must serve all demand");
        assert_eq!(ball.unmet, 0, "balloon must serve all demand");
        // Staggered peaks: the balloon holds much less pool on average…
        assert!(
            ball.mean_pool_mib < stat.mean_pool_mib * 0.6,
            "balloon mean {} vs static {}",
            ball.mean_pool_mib,
            stat.mean_pool_mib
        );
        // …and even its peak is below static's always-on reservation.
        assert!(
            ball.peak_pool_mib <= stat.peak_pool_mib * 1.01,
            "balloon peak {} vs static {}",
            ball.peak_pool_mib,
            stat.peak_pool_mib
        );
        // The cost: more (but bounded) reservation traffic.
        assert!(ball.reservation_ops > stat.reservation_ops);
        assert!(ball.reservation_ops < 1_000, "no churn explosion");
    }
}
