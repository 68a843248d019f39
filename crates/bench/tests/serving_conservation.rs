//! Request-conservation oracle for the open-loop serving generator under
//! chaos-harness fault plans: every generated request ends exactly one of
//! completed / shed / failed — for every tenant, under a crash storm.

use cohfree_bench::chaos::{self, Scenario};
use cohfree_core::{ClusterConfig, NodeId, SimDuration, SimTime, TraceMode, World};
use cohfree_workloads::serving::{self, ArrivalSpec, RequestMix, Tenant, TenantSpec};

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// Two serving tenants (zipf point-KV on node 1, columnar scan on node 2)
/// under a seeded crash-storm plan with the recovery manager live.
fn build(seed: u64) -> (World, Vec<Tenant>) {
    let mut cfg = ClusterConfig::prototype();
    cfg.faults = chaos::scenario_plan(&cfg, Scenario::CrashStorm, seed);
    cfg.manager = true;
    cfg.trace = TraceMode::Aggregate;
    let mut w = World::new(cfg);
    w.enable_sampling(SimDuration::us(10));
    let tenants = serving::install(
        &mut w,
        &[
            TenantSpec {
                name: "kv".into(),
                client: n(1),
                donors: vec![n(3), n(4)],
                frames_per_donor: 96,
                lanes: 3,
                requests: 900,
                mix: RequestMix::PointKv {
                    zipf_s: 0.9,
                    value_bytes: 64,
                },
                arrivals: ArrivalSpec {
                    users: 500_000,
                    rate_per_user_hz: 4.0,
                    diurnal: None,
                    seed: seed ^ 0xA11A,
                },
                write_fraction: 0.1,
                think: SimDuration::ns(5),
                start: SimTime::ZERO,
            },
            TenantSpec {
                name: "scan".into(),
                client: n(2),
                donors: vec![n(5)],
                frames_per_donor: 96,
                lanes: 1,
                requests: 250,
                mix: RequestMix::ColumnarScan { chunk_bytes: 4096 },
                arrivals: ArrivalSpec {
                    users: 125_000,
                    rate_per_user_hz: 4.0,
                    diurnal: None,
                    seed: seed ^ 0xB22B,
                },
                write_fraction: 0.0,
                think: SimDuration::ns(20),
                start: SimTime::ZERO,
            },
        ],
    );
    w.run();
    (w, tenants)
}

#[test]
fn serving_requests_conserved_under_crash_storm() {
    for seed in [0xDEAD_0001u64, 0xDEAD_0002, 0xDEAD_0003] {
        let (w, tenants) = build(seed);
        let violations = chaos::check_oracles(&w);
        assert!(
            violations.is_empty(),
            "seed {seed:#x}: oracle violations: {violations:?}"
        );
        for t in &tenants {
            assert!(
                t.conserved(&w),
                "seed {seed:#x}, tenant {}: {} completed + {} shed + {} failed != {} generated",
                t.name,
                t.completed(&w),
                t.shed(&w),
                t.failed(&w),
                t.generated
            );
            assert_eq!(t.latency(&w).count(), t.completed(&w));
        }
    }
}
