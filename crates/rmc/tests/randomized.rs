//! Seeded randomized tests for the RMC: address codec, client slot
//! discipline, prefetcher bounds.
//!
//! Offline build: no external property-testing framework; every case is
//! reproducible from the loop seed via the simulator's own [`Rng`].

use cohfree_fabric::{MsgKind, NodeId};
use cohfree_rmc::addr::{decode, encode, split, strip_prefix, RemoteRef};
use cohfree_rmc::prefetch::BUFFER_LINES;
use cohfree_rmc::{Prefetcher, RmcClient, RmcConfig, Submit};
use cohfree_sim::{Rng, SimDuration, SimTime};

const CASES: u64 = 64;

/// encode/split/strip round-trip for the whole prefix and offset space.
#[test]
fn addr_codec_round_trip() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xADD2 + seed);
        let home = NodeId::new(rng.range(1, 16_384) as u16);
        let offset = rng.below(1 << 34);
        let addr = encode(home, offset);
        let (p, o) = split(addr);
        assert_eq!(p, home.get(), "seed {seed}");
        assert_eq!(o, offset, "seed {seed}");
        assert_eq!(strip_prefix(addr), offset, "seed {seed}");
        // Decoding from any *other* node sees a remote reference.
        let me = NodeId::new(if home.get() == 1 { 2 } else { 1 });
        assert_eq!(
            decode(me, addr),
            RemoteRef::Remote { home, offset },
            "seed {seed}"
        );
        // Decoding from the home node itself sees loopback.
        assert_eq!(
            decode(home, addr),
            RemoteRef::Loopback { offset },
            "seed {seed}"
        );
    }
}

/// Prefix 0 is always local, whatever the offset.
#[test]
fn prefix_zero_is_local() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x10CA1 + seed);
        let me = rng.range(1, 16_384) as u16;
        let offset = rng.below(1 << 34);
        assert_eq!(
            decode(NodeId::new(me), offset),
            RemoteRef::Local { offset },
            "seed {seed}"
        );
    }
}

/// The client never tracks more in-flight transactions than its slots, tags
/// never repeat, and every response retires exactly one slot.
#[test]
fn client_slot_discipline() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x5107 + seed);
        let slots = rng.range(1, 8) as usize;
        let steps = rng.range(1, 200);
        let cfg = RmcConfig {
            request_slots: slots,
            ..RmcConfig::default()
        };
        let mut c = RmcClient::new(NodeId::new(1), cfg);
        let mut now = SimTime::ZERO;
        let mut outstanding: Vec<cohfree_fabric::Message> = Vec::new();
        let mut seen_tags = std::collections::HashSet::new();
        for _ in 0..steps {
            now += SimDuration::ns(10);
            if rng.chance(0.5) {
                match c.submit(now, NodeId::new(2), MsgKind::ReadReq { bytes: 64 }, 0) {
                    Submit::Accepted { msg, inject_at } => {
                        assert!(inject_at >= now, "seed {seed}");
                        assert!(seen_tags.insert(msg.tag), "seed {seed}: tag reuse");
                        outstanding.push(msg);
                    }
                    Submit::Nacked { retry_at } => {
                        assert_eq!(c.in_flight(), slots, "seed {seed}: NACK while slots free");
                        assert!(retry_at > now, "seed {seed}");
                    }
                }
            } else if let Some(msg) = outstanding.pop() {
                let before = c.in_flight();
                c.on_response(now, &msg.reply(MsgKind::ReadResp { bytes: 64 }));
                assert_eq!(c.in_flight(), before - 1, "seed {seed}");
            }
            assert!(c.in_flight() <= slots, "seed {seed}");
            assert_eq!(c.in_flight(), outstanding.len(), "seed {seed}");
        }
    }
}

/// The prefetch buffer never holds more than its capacity, and every
/// buffer hit returns the ready instant of that line's latest fill,
/// whatever the line size.
#[test]
fn prefetcher_buffer_bounded() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xB0FF + seed);
        let line = 32 << rng.range(0, 4);
        let accesses = rng.range(1, 300);
        let mut p = Prefetcher::new(line);
        let mut filled = std::collections::HashMap::new();
        let mut fills = 0u64;
        let mut addr = 0;
        for _ in 0..accesses {
            // Sequential runs train streams; the jumps between them leave
            // prefetched lines unused, to be evicted.
            addr = if rng.below(4) == 0 {
                rng.below(10_000)
            } else {
                addr + 1
            };
            let d = p.access(addr * line);
            if let Some(ready) = d.hit {
                assert_eq!(
                    filled.get(&(addr * line)),
                    Some(&ready),
                    "seed {seed}: a hit must return its line's fill instant"
                );
            }
            for l in d.issue {
                // Every fill gets its own instant, so a hit names its fill.
                let ready = SimTime::ZERO + SimDuration::ps(fills);
                p.fill(l, ready);
                filled.insert(l, ready);
                fills += 1;
            }
        }
        assert!(p.buffer_hits() <= p.issued(), "seed {seed}");
        let resident = fills - p.buffer_hits() - p.useless_evictions();
        assert!(resident <= BUFFER_LINES as u64, "seed {seed}: {resident}");
    }
}

/// Strictly sequential streams eventually make almost every access a buffer
/// hit (steady-state coverage).
#[test]
fn sequential_stream_coverage() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x5E0 + seed);
        let start = rng.below(1_000_000);
        let len = rng.range(32, 200);
        let mut p = Prefetcher::new(64);
        let base = start * 64;
        let mut hits = 0u64;
        for i in 0..len {
            let d = p.access(base + i * 64);
            if d.hit.is_some() {
                hits += 1;
            }
            for l in d.issue {
                p.fill(l, SimTime::ZERO);
            }
        }
        // After the 2-access training prefix, everything should hit.
        assert!(
            hits >= len - 3,
            "seed {seed}: only {hits} hits in {len} sequential accesses"
        );
    }
}
