//! Golden fingerprints: every observable byte of a set of deliberately
//! hostile worlds — snapshot JSON, full span streams, samples, fault log,
//! per-thread outcomes — hashed and pinned.
//!
//! Most worlds here are thread-driven and combine cross-node traffic,
//! message loss, node crashes, link outages, evacuation, the recovery
//! manager, open-loop serving, sampling and Full tracing; one world is
//! driven by the blocking and posted transaction drivers instead. Any
//! change to event order, tie-breaking or accounting moves a hash; a
//! deliberate behaviour change re-pins the affected constants (the failure
//! message prints the new one).

use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{
    ClusterConfig, FaultEvent, FaultPlan, NodeId, SimDuration, SimTime, Topology, TraceMode,
};
use cohfree_sim::Rng;

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// A compact random thread description (node, donor, workload shape).
#[derive(Debug, Clone)]
struct Spec {
    node: u16,
    donor: u16,
    accesses: u64,
    write_fraction: f64,
    seed: u64,
}

fn arb_specs(rng: &mut Rng, nodes: u16, max_accesses: u64) -> Vec<Spec> {
    let count = rng.range(2, 8) as usize;
    (0..count)
        .map(|_| Spec {
            node: rng.range(1, nodes as u64 + 1) as u16,
            donor: rng.range(1, nodes as u64 + 1) as u16,
            accesses: rng.range(1, max_accesses),
            write_fraction: rng.f64(),
            seed: rng.next_u64(),
        })
        .collect()
}

/// Build the world, run it to drain, and return it.
fn run_world(cfg: ClusterConfig, specs: &[Spec], sample: bool) -> World {
    let nodes = cfg.topology.num_nodes();
    let mut w = World::new(cfg);
    if sample {
        w.enable_sampling(SimDuration::us(20));
    }
    for s in specs {
        let node = n(s.node);
        let donor = if s.donor == s.node {
            n(s.donor % nodes + 1)
        } else {
            n(s.donor)
        };
        let resv = w.reserve_remote(node, 256, Some(donor));
        w.spawn_thread(
            ThreadSpec {
                node,
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: s.accesses,
                bytes: 64,
                write_fraction: s.write_fraction,
                think: SimDuration::ns(5),
                seed: s.seed,
            },
            SimTime::ZERO,
        );
    }
    w.run();
    w
}

/// Every observable byte of a finished world: the snapshot document, the
/// complete span stream, the time series and the fault log.
fn fingerprint(w: &World, threads: usize) -> String {
    let mut out = String::new();
    out.push_str(&w.snapshot().doc.to_string());
    out.push('\n');
    out.push_str(&w.trace().chrome_trace().to_string());
    out.push('\n');
    for s in w.samples() {
        out.push_str(&format!(
            "{} {} {} {}\n",
            s.at.as_ns(),
            s.events_queued,
            s.client_in_flight.iter().sum::<usize>(),
            s.max_link_backlog_ns
        ));
    }
    out.push_str(&format!("{:?}\n", w.fault_log()));
    for id in 0..threads {
        out.push_str(&format!(
            "t{id}: {} {} {} {} {}",
            w.thread_completed(id),
            w.thread_failed(id),
            w.thread_shed(id),
            w.thread_nacks(id),
            w.thread_evacuated_retries(id)
        ));
        // Serving threads also carry an end-to-end latency histogram.
        if let Some(h) = w.thread_latency(id) {
            out.push_str(&format!(" lat {} {:?}", h.count(), h.bucket_counts()));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "now={} processed={}",
        w.now(),
        w.events_processed()
    ));
    out
}

/// 64-bit FNV-1a.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_golden(label: &str, w: &World, threads: usize, pinned: u64) {
    let got = fnv1a64(&fingerprint(w, threads));
    assert_eq!(
        got, pinned,
        "{label}: fingerprint hash {got:#018x} differs from the pinned {pinned:#018x}"
    );
}

fn assert_world(cfg: ClusterConfig, specs: &[Spec], sample: bool, label: &str, pinned: u64) {
    assert_golden(label, &run_world(cfg, specs, sample), specs.len(), pinned);
}

/// Fig. 6-like steady-state traffic on the 16-node prototype: lossless,
/// sampled, fully traced.
#[test]
fn fig6_like_world_matches_golden() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceMode::Full;
    let mut rng = Rng::new(0xF166);
    let specs = arb_specs(&mut rng, 16, 200);
    assert_world(cfg, &specs, true, "fig6-like", GOLDEN_FIG6_LIKE);
}

/// EXT-FAILOVER-like world: a node crash, a link outage and repair, lossy
/// links, a tight retry budget — detection, evacuation and fail-fast all
/// engage.
#[test]
fn failover_world_matches_golden() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceMode::Full;
    cfg.fabric.loss_rate = 1e-3;
    cfg.max_retries = 4;
    cfg.faults = FaultPlan::new()
        .with(FaultEvent::NodeCrash {
            at: SimTime::ZERO + SimDuration::us(40),
            node: n(6),
        })
        .with(FaultEvent::LinkDown {
            at: SimTime::ZERO + SimDuration::us(15),
            a: n(1),
            b: n(2),
        })
        .with(FaultEvent::LinkUp {
            at: SimTime::ZERO + SimDuration::us(120),
            a: n(1),
            b: n(2),
        });
    let mut rng = Rng::new(0xFA110);
    let specs = arb_specs(&mut rng, 16, 120);
    assert_world(cfg, &specs, true, "failover", GOLDEN_FAILOVER);
}

/// A 16×16 mesh (256 nodes) with traffic across the whole machine diameter.
#[test]
fn big_mesh_world_matches_golden() {
    let mut cfg = ClusterConfig::prototype();
    cfg.topology = Topology::Mesh2D {
        width: 16,
        height: 16,
    };
    let mut rng = Rng::new(0xB16);
    let mut specs = arb_specs(&mut rng, 256, 60);
    specs.push(Spec {
        node: 1,
        donor: 256,
        accesses: 50,
        write_fraction: 0.5,
        seed: 7,
    });
    assert_world(cfg, &specs, false, "big-mesh", GOLDEN_BIG_MESH);
}

/// Randomized sweep: seeded random worlds (loss, a random fault, sampling,
/// tracing level varied), one pinned hash per seed.
#[test]
fn randomized_worlds_match_golden() {
    for (seed, &pinned) in GOLDEN_RANDOMIZED.iter().enumerate() {
        let mut rng = Rng::new(0xD1FF + seed as u64);
        let mut cfg = ClusterConfig::prototype();
        if rng.chance(0.5) {
            cfg.fabric.loss_rate = 1e-3 + rng.f64() * 5e-3;
            cfg.max_retries = rng.range(2, 8) as u32;
        }
        cfg.trace = if rng.chance(0.5) {
            TraceMode::Full
        } else {
            TraceMode::Aggregate
        };
        if rng.chance(0.5) {
            cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
                at: SimTime::ZERO + SimDuration::us(rng.range(20, 120)),
                node: n(rng.range(1, 17) as u16),
            });
        }
        let sample = rng.chance(0.5);
        let specs = arb_specs(&mut rng, 16, 120);
        assert_world(
            cfg,
            &specs,
            sample,
            &format!("randomized seed {seed}"),
            pinned,
        );
    }
}

/// Fault churn: crash + restart + link flaps, a stall, loss and a tight
/// retry budget all at once, manager off.
#[test]
fn fault_churn_world_matches_golden() {
    let t = |us| SimTime::ZERO + SimDuration::us(us);
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceMode::Full;
    cfg.fabric.loss_rate = 2e-3;
    cfg.max_retries = 4;
    cfg.faults = FaultPlan::new()
        .with(FaultEvent::NodeCrash {
            at: t(30),
            node: n(6),
        })
        .with(FaultEvent::LinkDown {
            at: t(10),
            a: n(2),
            b: n(3),
        })
        .with(FaultEvent::ServerStall {
            at: t(20),
            node: n(11),
            duration: SimDuration::us(35),
        })
        .with(FaultEvent::NodeRestart {
            at: t(200),
            node: n(6),
        })
        .with(FaultEvent::LinkUp {
            at: t(90),
            a: n(2),
            b: n(3),
        })
        .with(FaultEvent::NodeCrash {
            at: t(260),
            node: n(16),
        });
    let mut rng = Rng::new(0xC4AC);
    let specs = arb_specs(&mut rng, 16, 150);
    assert_world(cfg, &specs, true, "fault-churn", GOLDEN_FAULT_CHURN);
}

/// Fault churn with the online recovery manager enabled: ticks, sheds,
/// re-admissions and proactive migrations.
#[test]
fn manager_enabled_fault_churn_world_matches_golden() {
    let t = |us| SimTime::ZERO + SimDuration::us(us);
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceMode::Full;
    cfg.manager = true;
    cfg.fabric.loss_rate = 1e-3;
    cfg.max_retries = 6;
    cfg.faults = FaultPlan::new()
        .with(FaultEvent::NodeCrash {
            at: t(40),
            node: n(7),
        })
        .with(FaultEvent::ServerStall {
            at: t(15),
            node: n(10),
            duration: SimDuration::us(40),
        })
        .with(FaultEvent::LinkDown {
            at: t(25),
            a: n(1),
            b: n(5),
        })
        .with(FaultEvent::LinkUp {
            at: t(110),
            a: n(1),
            b: n(5),
        })
        .with(FaultEvent::NodeRestart {
            at: t(220),
            node: n(7),
        });
    let mut rng = Rng::new(0x3A6E);
    let specs = arb_specs(&mut rng, 16, 150);
    let label = "manager fault-churn";
    assert_world(cfg, &specs, true, label, GOLDEN_MANAGER_FAULT_CHURN);
}

/// A fully connected fabric: every node is one hop from every other.
#[test]
fn fully_connected_world_matches_golden() {
    let mut cfg = ClusterConfig::prototype();
    cfg.topology = Topology::FullyConnected { nodes: 8 };
    cfg.trace = TraceMode::Full;
    let mut rng = Rng::new(0xFC01);
    let specs = arb_specs(&mut rng, 8, 120);
    assert_world(cfg, &specs, true, "fully-connected", GOLDEN_FULLY_CONNECTED);
}

/// The smallest legal world: two nodes, one link each way.
#[test]
fn tiny_two_node_world_matches_golden() {
    let mut cfg = ClusterConfig::prototype();
    cfg.topology = Topology::FullyConnected { nodes: 2 };
    cfg.trace = TraceMode::Full;
    let mut rng = Rng::new(0x2B0D);
    let specs = arb_specs(&mut rng, 2, 120);
    assert_world(cfg, &specs, true, "two-node", GOLDEN_TWO_NODE);
}

/// Seeded Poisson arrivals for the serving worlds below — the same shape
/// `cohfree_workloads::serving` generates, built here directly against the
/// core API (core tests cannot depend on the workloads crate).
fn poisson_arrivals(seed: u64, rate_hz: f64, count: usize) -> Vec<SimTime> {
    let mut rng = Rng::new(seed);
    let mut t = SimTime::ZERO;
    (0..count)
        .map(|_| {
            t += SimDuration::ps(((rng.exponential(rate_hz) * 1e12).round() as u64).max(1));
            t
        })
        .collect()
}

/// Build a mixed-tenant serving world: a zipf point-KV tenant on node 1
/// (donors 3 and 4) and a columnar sequential-scan tenant on node 2
/// (donor 5), both open loop, with the KV tenant's donor 3 crashing
/// mid-run. Exercises arrival-clamped wakes, shed drops (manager runs),
/// per-thread latency histograms and bulk-fail on crash.
fn run_serving_world(manager: bool, trace: TraceMode) -> World {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = trace;
    cfg.manager = manager;
    cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
        at: SimTime::ZERO + SimDuration::us(40),
        node: n(3),
    });
    let mut w = World::new(cfg);
    w.enable_sampling(SimDuration::us(20));
    // KV tenant: 2 lanes of zipf point reads/writes over two donors.
    let kv_zones = {
        let a = w.reserve_remote(n(1), 128, Some(n(3)));
        let b = w.reserve_remote(n(1), 128, Some(n(4)));
        vec![
            (a.prefixed_base, a.frames * 4096),
            (b.prefixed_base, b.frames * 4096),
        ]
    };
    for lane in 0..2u64 {
        let arrivals = poisson_arrivals(0x5E41 + lane, 2.0e6, 300);
        w.spawn_serving_thread(
            ThreadSpec {
                node: n(1),
                zones: kv_zones.clone(),
                accesses: arrivals.len() as u64,
                bytes: 64,
                write_fraction: 0.1,
                think: SimDuration::ns(5),
                seed: 0x5EED + lane,
            },
            arrivals,
            cohfree_core::AccessPattern::Zipf(0.9),
        );
    }
    // Columnar tenant: one lane of large sequential scan reads.
    let scan = w.reserve_remote(n(2), 128, Some(n(5)));
    let arrivals = poisson_arrivals(0xC01, 4.0e5, 120);
    w.spawn_serving_thread(
        ThreadSpec {
            node: n(2),
            zones: vec![(scan.prefixed_base, scan.frames * 4096)],
            accesses: arrivals.len() as u64,
            bytes: 4096,
            write_fraction: 0.0,
            think: SimDuration::ns(20),
            seed: 0xA11,
        },
        arrivals,
        cohfree_core::AccessPattern::Sequential,
    );
    w.run();
    w
}

/// Serving-workload world (mixed KV + columnar tenants, donor crash
/// mid-run), manager off and on. Re-pinned when a request re-aimed after
/// the crash began keeping its arrival time: its end-to-end latency used to
/// restart at the re-aim.
#[test]
fn serving_world_matches_golden() {
    for (manager, pinned) in [(false, GOLDEN_SERVING), (true, GOLDEN_SERVING_MANAGER)] {
        let w = run_serving_world(manager, TraceMode::Full);
        assert_golden(&format!("serving (manager={manager})"), &w, 3, pinned);
    }
}

/// The serving world really ends open-loop requests in all three terminal
/// states under the crash, and every generated request is accounted for.
#[test]
fn serving_world_conserves_requests_across_outcomes() {
    let w = run_serving_world(true, TraceMode::Full);
    let mut completed = 0;
    let mut resolved = 0;
    let mut generated = 0;
    for id in 0..3 {
        completed += w.thread_completed(id);
        resolved += w.thread_completed(id) + w.thread_failed(id) + w.thread_shed(id);
        generated += w.thread_accesses(id);
        let h = w
            .thread_latency(id)
            .expect("serving threads have histograms");
        assert_eq!(h.count(), w.thread_completed(id));
    }
    assert_eq!(
        resolved, generated,
        "generated == completed + failed + shed"
    );
    assert!(completed > 0);
}

/// Drive a world through the blocking and posted drivers instead of
/// threads: issuers 1 and 5 alternate a posted write and a blocking read
/// against their zones on donor 2, over 2 % loss with a retry budget of 4,
/// while donor 2 crashes at 400 µs and issuer 5 at 900 µs. Covers the
/// driver-owned transaction paths: submission, NACK pumping while posted
/// writes hold the request slots, loss recovery, suspect declaration, the
/// manager's re-home sweep and the crash sweep. Returns the drained world
/// and every value the drivers returned.
fn run_driver_world(manager: bool, trace: TraceMode) -> (World, String) {
    use cohfree_core::{AccessOutcome, MsgKind};
    let t = |us| SimTime::ZERO + SimDuration::us(us);
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = trace;
    cfg.fabric.loss_rate = 0.02;
    cfg.max_retries = 4;
    cfg.manager = manager;
    cfg.faults = FaultPlan::new()
        .with(FaultEvent::NodeCrash {
            at: t(400),
            node: n(2),
        })
        .with(FaultEvent::NodeCrash {
            at: t(900),
            node: n(5),
        });
    let mut w = World::new(cfg);
    w.enable_sampling(SimDuration::us(50));
    let issuers = [n(1), n(5)];
    let bases = issuers.map(|i| w.reserve_remote(i, 64, Some(n(2))).prefixed_base);
    let mut returned = String::new();
    let mut now = SimTime::ZERO;
    for k in 0..245u64 {
        let i = (k % 2) as usize;
        let (src, addr) = (issuers[i], bases[i] + (k / 2) * 128 % (64 * 4096));
        let released = w.posted_transaction(now, src, n(2), MsgKind::WriteReq { bytes: 64 }, addr);
        let outcome =
            w.try_blocking_transaction(released, src, n(2), MsgKind::ReadReq { bytes: 64 }, addr);
        returned.push_str(&format!("{k}: {} {outcome:?}\n", released.as_ns()));
        let (AccessOutcome::Completed { at }
        | AccessOutcome::Failed { at, .. }
        | AccessOutcome::Shed { at, .. }) = outcome;
        now = at + SimDuration::us(3);
    }
    w.drain_background();
    (w, returned)
}

/// Driver world (blocking reads and posted writes through two crashes),
/// manager off and on.
#[test]
fn driver_world_matches_golden() {
    for (manager, pinned) in [(false, GOLDEN_DRIVER), (true, GOLDEN_DRIVER_MANAGER)] {
        let (w, returned) = run_driver_world(manager, TraceMode::Full);
        let doc = format!(
            "{returned}{}\n{}\n{:?}",
            w.snapshot().doc,
            w.trace().chrome_trace(),
            w.fault_log()
        );
        let got = fnv1a64(&doc);
        assert_eq!(
            got, pinned,
            "driver (manager={manager}): fingerprint hash {got:#018x} differs from the pinned {pinned:#018x}"
        );
    }
}

/// Aggregate and Full tracing share one accounting path, so the same world
/// yields the same phase histograms in both modes: through a donor crash,
/// with and without the manager shedding and re-homing, and through 2 %
/// loss with duplicate in-flight attempts.
#[test]
fn aggregate_and_full_tracing_agree_on_phases() {
    let phases = |w: &World| w.trace().snapshot().get("phases").cloned();
    for manager in [false, true] {
        let (full, agg) = (
            run_serving_world(manager, TraceMode::Full),
            run_serving_world(manager, TraceMode::Aggregate),
        );
        assert_eq!(phases(&agg), phases(&full), "serving (manager={manager})");
        let (full, agg) = (
            run_driver_world(manager, TraceMode::Full).0,
            run_driver_world(manager, TraceMode::Aggregate).0,
        );
        assert_eq!(phases(&agg), phases(&full), "driver (manager={manager})");
    }
}

/// Worlds that drain between probe ticks close their sample series with a
/// drain-time sample at `now` — on a plain drain and through a mid-run
/// crash.
#[test]
fn drain_between_probe_ticks_matches_golden() {
    // Probe intervals far coarser than the ~tens-of-µs drain time, so the
    // run always ends between ticks.
    let cases = [(false, 100u64), (false, 1000), (true, 100), (true, 1000)];
    for ((crash, interval_us), &pinned) in cases.into_iter().zip(&GOLDEN_DRAIN_BETWEEN_TICKS) {
        let mut cfg = ClusterConfig::prototype();
        if crash {
            cfg.fabric.loss_rate = 1e-3;
            cfg.max_retries = 4;
            cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
                at: SimTime::ZERO + SimDuration::us(3),
                node: n(16),
            });
        }
        let mut w = World::new(cfg);
        w.enable_sampling(SimDuration::us(interval_us));
        let resv = w.reserve_remote(n(1), 256, Some(n(16)));
        for k in 0..3u64 {
            w.spawn_thread(
                ThreadSpec {
                    node: n(1 + (k as u16) * 5),
                    zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                    accesses: 5,
                    bytes: 64,
                    write_fraction: 0.2,
                    think: SimDuration::ns(5),
                    seed: 42 + k,
                },
                SimTime::ZERO,
            );
        }
        w.run();
        assert_eq!(
            w.samples().last().map(|s| s.at),
            Some(w.now()),
            "crash={crash} interval={interval_us}us: series must close with a drain-time sample"
        );
        let label = format!("drain between ticks (crash={crash} interval={interval_us}us)");
        assert_golden(&label, &w, 3, pinned);
    }
}

// Pinned FNV-1a hashes of `fingerprint()`.
const GOLDEN_FIG6_LIKE: u64 = 0x0420_3714_693e_9acb;
const GOLDEN_FAILOVER: u64 = 0xa8b7_68dc_30b1_0f8f;
const GOLDEN_BIG_MESH: u64 = 0x2db5_0d3b_c4ba_4d0a;
const GOLDEN_RANDOMIZED: [u64; 10] = [
    0xb00a_0ddf_32b7_9db1,
    0x282d_1481_1308_3f74,
    0x3a73_45d4_dbca_deac,
    0x503c_414c_b0a7_82a6,
    0xf62f_e608_ca98_2d76,
    0x8f63_3e0b_788d_4662,
    0x6071_a4a9_974f_95af,
    0xf36e_ca6f_22bf_5ed8,
    0x4d00_a59d_9eaa_242b,
    0xd88a_3a24_388f_0ae6,
];
const GOLDEN_FAULT_CHURN: u64 = 0x0253_b4e4_f21b_d581;
const GOLDEN_MANAGER_FAULT_CHURN: u64 = 0x9dec_4469_1fce_a6bf;
const GOLDEN_FULLY_CONNECTED: u64 = 0x5447_2281_8ed9_8103;
const GOLDEN_TWO_NODE: u64 = 0x82dc_92ca_6952_837b;
const GOLDEN_SERVING: u64 = 0x037f_ca63_547f_3fef;
const GOLDEN_SERVING_MANAGER: u64 = 0x4916_d109_a803_8aa8;
const GOLDEN_DRIVER: u64 = 0xf6e0_bc27_21c7_e072;
const GOLDEN_DRIVER_MANAGER: u64 = 0x5a50_f4fb_36ca_c161;
/// `(crash, interval)`: `(false, 100 µs)`, `(false, 1 ms)`, `(true, 100 µs)`,
/// `(true, 1 ms)`.
const GOLDEN_DRAIN_BETWEEN_TICKS: [u64; 4] = [
    0xb2ce_20af_8a3b_13dc,
    0x6431_ff43_b7ca_ba5e,
    0x3b55_6344_71ea_972b,
    0x144e_1980_ccb8_104d,
];
