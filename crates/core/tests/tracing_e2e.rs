//! End-to-end tests of the span-tracing subsystem over the assembled
//! cluster: the exported Chrome trace is well-formed, envelope accounting
//! matches thread accounting, and the exact-tiling invariant (per-phase
//! spans sum to the end-to-end latency) survives loss recovery and zone
//! evacuation on the full 16-node world, where Aggregate mode books the
//! same phase histograms as Full.

use std::collections::HashMap;

use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{
    ClusterConfig, FaultEvent, FaultPlan, Json, NodeId, Phase, Rng, SimDuration, SimTime, TraceMode,
};

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

fn spawn(w: &mut World, node: u16, donor: u16, accesses: u64, seed: u64) -> usize {
    let node = n(node);
    let resv = w.reserve_remote(node, 256, Some(n(donor)));
    w.spawn_thread(
        ThreadSpec {
            node,
            zones: vec![(resv.prefixed_base, resv.frames * 4096)],
            accesses,
            bytes: 64,
            write_fraction: 0.25,
            think: SimDuration::ns(5),
            seed,
        },
        SimTime::ZERO,
    )
}

/// Multi-threaded lossless run in Full mode: the Chrome trace survives a
/// JSON parse round-trip, spans on one (pid, tid) track are monotone and
/// non-overlapping, and the number of `Tx` envelopes equals the threads'
/// completed + failed accesses.
#[test]
fn chrome_trace_is_well_formed_and_envelopes_match_thread_accounting() {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = TraceMode::Full;
    let mut w = World::new(cfg);
    let mut ids = Vec::new();
    let mut rng = Rng::new(0x7ACE);
    for k in 0..6u64 {
        let node = rng.range(1, 17) as u16;
        let donor = rng.range(1, 17) as u16;
        let donor = if donor == node { donor % 16 + 1 } else { donor };
        ids.push(spawn(&mut w, node, donor, rng.range(20, 120), 0x5EED + k));
    }
    w.run();

    let accounted: u64 = ids
        .iter()
        .map(|&id| w.thread_completed(id) + w.thread_failed(id))
        .sum();
    assert!(accounted > 0);
    let sink = w.trace();
    assert_eq!(sink.dropped(), 0, "ring must hold the whole run");
    assert_eq!(sink.completed() + sink.failed(), accounted);
    let envelopes = sink.spans().filter(|s| s.phase == Phase::Tx).count() as u64;
    assert_eq!(envelopes, accounted, "one Tx envelope per access");

    // Round-trip through the serialized form.
    let text = sink.chrome_trace().to_string();
    let parsed = Json::parse(&text).expect("chrome trace must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let mut tracks: HashMap<(u64, u64), Vec<(f64, f64)>> = HashMap::new();
    let mut xs = 0u64;
    for e in events {
        let Some("X") = e.get("ph").and_then(|p| p.as_str()) else {
            continue;
        };
        xs += 1;
        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let dur = e.get("dur").and_then(|v| v.as_f64()).expect("dur");
        let pid = e.get("pid").and_then(|v| v.as_u64()).expect("pid");
        let tid = e.get("tid").and_then(|v| v.as_u64()).expect("tid");
        assert!(dur >= 0.0);
        let name = e.get("name").and_then(|v| v.as_str()).expect("name");
        // Tx envelopes deliberately overlay their own phase spans.
        if name != "tx" {
            tracks.entry((pid, tid)).or_default().push((ts, ts + dur));
        }
    }
    assert!(xs as usize >= events.len() / 2, "mostly X events");
    for ((pid, tid), spans) in tracks.iter_mut() {
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0 + 1e-9,
                "track ({pid},{tid}): spans overlap: {w:?}"
            );
        }
    }
}

/// A 16-node run with link loss (forcing retries) and a mid-run donor
/// crash (forcing evacuation), traced in `trace` mode. Returns the drained
/// world and its thread ids.
fn run_lossy_crash_world(trace: TraceMode) -> (World, Vec<usize>) {
    let mut cfg = ClusterConfig::prototype();
    cfg.trace = trace;
    cfg.fabric.loss_rate = 0.02;
    cfg.max_retries = 16;
    // Node 2 donates to several clients, then dies mid-run.
    cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
        at: SimTime::ZERO + SimDuration::us(40),
        node: n(2),
    });
    let mut w = World::new(cfg);
    let mut ids = Vec::new();
    for (k, client) in [1u16, 3, 5, 9].into_iter().enumerate() {
        ids.push(spawn(&mut w, client, 2, 400, 0xE7AC + k as u64));
    }
    // Background traffic not aimed at the doomed donor.
    ids.push(spawn(&mut w, 11, 16, 200, 0xBEEF));
    w.run();
    (w, ids)
}

/// Under loss and evacuation, for every traced transaction the phase spans
/// tile the envelope exactly, so their sum equals the end-to-end latency
/// (the acceptance bound is 1%; the construction gives exactness, which is
/// what we assert).
#[test]
fn phase_spans_sum_to_end_to_end_latency_under_loss_and_evacuation() {
    let (w, ids) = run_lossy_crash_world(TraceMode::Full);

    assert!(w.node_is_dead(n(2)));
    assert!(w.evacuations() >= 1, "crash of a donor must evacuate zones");
    let retx: u64 = (1..=16).map(|i| w.client(n(i)).retransmissions()).sum();
    assert!(retx >= 1, "2% loss must force retransmissions");
    for &id in &ids {
        assert!(w.thread_completed(id) + w.thread_failed(id) > 0);
    }

    let sink = w.trace();
    assert_eq!(sink.dropped(), 0, "ring must hold the whole run");
    // Group the span stream by transaction and check the tiling invariant.
    let mut envelope: HashMap<u64, SimDuration> = HashMap::new();
    let mut phase_sum: HashMap<u64, SimDuration> = HashMap::new();
    let mut retry_txs = 0u64;
    for s in sink.spans() {
        if s.phase == Phase::Tx {
            envelope.insert(s.tx_id, s.duration());
        } else if s.phase != Phase::Resv && s.phase != Phase::Evac {
            if s.phase == Phase::Retry {
                retry_txs += 1;
            }
            *phase_sum.entry(s.tx_id).or_insert(SimDuration::ZERO) += s.duration();
        }
    }
    assert!(envelope.len() > 1000, "expected a busy trace");
    assert!(retry_txs > 0, "loss recovery must leave Retry spans");
    for (tx, env) in &envelope {
        let sum = phase_sum.get(tx).copied().unwrap_or(SimDuration::ZERO);
        assert_eq!(
            sum.as_ps(),
            env.as_ps(),
            "tx {tx}: phase spans must tile the envelope exactly"
        );
    }
}

/// Aggregate mode books the same phase histograms as Full mode on the same
/// lossy crash world: both run one exact-tiling path.
#[test]
fn aggregate_phases_match_full_under_loss_and_evacuation() {
    let phases = |trace| {
        let (w, _) = run_lossy_crash_world(trace);
        w.trace().snapshot().get("phases").cloned()
    };
    assert_eq!(phases(TraceMode::Aggregate), phases(TraceMode::Full));
}
