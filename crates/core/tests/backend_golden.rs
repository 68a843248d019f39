//! Backend goldens: one seeded mix of allocations, reads, writes and
//! compute over every memory-backend configuration, hashed and pinned.
//!
//! Each case hashes (64-bit FNV-1a) the final simulated time, the
//! [`AccessStats`], a checksum of every byte read back and, where the
//! backend has them, the swap page-cache counters and the number of events
//! its cluster processed. Any change to allocation, translation, cache
//! accounting, fill or write-back timing moves a hash; a deliberate
//! behaviour change re-pins the affected constant (the failure message
//! prints the new one) and says why next to it.
//!
//! Most cases use a 32 KiB L2 (64 sets × 8 ways) so that the mix, whose
//! footprint is several hundred KiB, evicts dirty lines and exercises the
//! write-back paths; the TLB keeps its default 64 entries.

use cohfree_core::backend::{AccessStats, AllocPolicy, RemoteOptions, SwapConfig, SwapTransport};
use cohfree_core::{
    ClusterConfig, LocalMachine, MemSpace, NodeId, RemoteMemorySpace, SimDuration, SwapSpace,
};
use cohfree_sim::Rng;

// Pinned fingerprints, one per case.
const GOLDEN_LOCAL_PROTOTYPE: u64 = 0xd8ffc4194ce75404;
const GOLDEN_LOCAL_SMALL_L2: u64 = 0x239dfa223a631d52;
const GOLDEN_REMOTE_PROTOTYPE: u64 = 0x6a7332e2d35b8394;
const GOLDEN_REMOTE_SMALL_L2: u64 = 0xd765d6f9ed6c100c;
const GOLDEN_REMOTE_LOCAL_FIRST: u64 = 0xbe309ace0eb2447f;
const GOLDEN_REMOTE_UNCACHEABLE: u64 = 0x24c671ff24f0cd06;
const GOLDEN_REMOTE_POSTED: u64 = 0xcdce252f4573038e;
const GOLDEN_REMOTE_PREFETCH: u64 = 0xa91d76015b234819;
const GOLDEN_REMOTE_SERVERS: u64 = 0x44843bbb23b26ec0;
const GOLDEN_REMOTE_FLUSH_CACHE: u64 = 0x7110f9b7ff1b6ad0;
/// Re-pinned (was `0x992e6b407444f872`) when `RemoteMemorySpace` began
/// writing home the dirty line that an L1 victim displaces out of the L2
/// on an L2 hit. It used to drop that write-back; `LocalMachine` and
/// `SwapSpace` never did. No other case has an L1, so no other pin moved.
const GOLDEN_REMOTE_WITH_L1: u64 = 0x6817df7376904b23;
const GOLDEN_SWAP_ETHERNET: u64 = 0x08c6d67a20edce85;
const GOLDEN_SWAP_FABRIC: u64 = 0x802a545c0620f51c;

/// Operations per case.
const OPS: usize = 6_000;

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// The prototype with a 32 KiB L2, so the mix evicts dirty lines.
fn small_l2() -> ClusterConfig {
    let mut cfg = ClusterConfig::prototype();
    cfg.cache.sets = 64;
    cfg.cache.ways = 8;
    cfg
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Run the seeded mix on `m` and return a checksum of every byte it read.
/// `phase` runs halfway through and again at the end (flushes, quiesce).
fn drive<M: MemSpace>(m: &mut M, mut phase: impl FnMut(&mut M)) -> u64 {
    let mut rng = Rng::new(0xBAC6_E17D);
    let first = 48 * 4096;
    let mut blocks = vec![(m.alloc(first), first)];
    let mut sum = FNV_OFFSET;
    let mut buf = [0u8; 200];
    for i in 0..OPS {
        if i == OPS / 2 {
            phase(m);
        }
        let (base, len) = blocks[rng.below(blocks.len() as u64) as usize];
        match rng.below(100) {
            // Allocation of 1 B .. 3 pages: packed, so blocks straddle pages.
            0..=1 => {
                let bytes = rng.range(1, 3 * 4096);
                blocks.push((m.alloc(bytes), bytes));
            }
            2..=6 => m.compute(SimDuration::ns(rng.range(1, 400))),
            // Sequential scan: one word per line, for the prefetcher.
            7..=12 => {
                let lines = len / 64;
                if lines > 0 {
                    let start = rng.below(lines);
                    for l in start..(start + 16).min(lines) {
                        let v = m.read_u64(base + l * 64);
                        sum = fnv1a(sum, &v.to_le_bytes());
                    }
                }
            }
            // Random read of 1..=200 bytes, often crossing lines.
            13..=57 => {
                let size = rng.range(1, 201).min(len);
                let off = rng.below(len - size + 1);
                m.read(base + off, &mut buf[..size as usize]);
                sum = fnv1a(sum, &buf[..size as usize]);
            }
            // Random write of 1..=200 seeded bytes.
            _ => {
                let size = rng.range(1, 201).min(len);
                let off = rng.below(len - size + 1);
                for b in &mut buf[..size as usize] {
                    *b = rng.below(256) as u8;
                }
                m.write(base + off, &buf[..size as usize]);
            }
        }
    }
    phase(m);
    sum
}

fn fingerprint(now: u64, stats: AccessStats, sum: u64, extra: &str) -> u64 {
    fnv1a(
        FNV_OFFSET,
        format!("{now} {stats:?} {sum:#x} {extra}").as_bytes(),
    )
}

fn assert_golden(label: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{label}: backend fingerprint moved; if intended, re-pin to {got:#018x}"
    );
}

fn local_case(cfg: ClusterConfig) -> u64 {
    let mut m = LocalMachine::new(cfg, 1 << 30);
    let sum = drive(&mut m, |_| {});
    fingerprint(m.now().as_ns(), m.stats(), sum, "")
}

fn remote_case(
    cfg: ClusterConfig,
    policy: AllocPolicy,
    opts: RemoteOptions,
    phase: impl FnMut(&mut RemoteMemorySpace),
) -> u64 {
    let mut m = RemoteMemorySpace::with_options(cfg, n(1), policy, opts);
    let sum = drive(&mut m, phase);
    let events = m.world().events_processed();
    fingerprint(m.now().as_ns(), m.stats(), sum, &format!("events={events}"))
}

fn remote_default_case(cfg: ClusterConfig, opts: RemoteOptions) -> u64 {
    remote_case(cfg, AllocPolicy::AlwaysRemote, opts, |_| {})
}

fn swap_case(mut m: SwapSpace) -> u64 {
    let sum = drive(&mut m, SwapSpace::flush_dirty_pages);
    let events = m.world().map(|w| w.events_processed());
    let extra = format!("{:?} events={events:?}", m.swap_stats());
    fingerprint(m.now().as_ns(), m.stats(), sum, &extra)
}

/// A resident set of 12 pages under a footprint of 60+: the mix thrashes.
fn thrashing(transport: SwapTransport) -> SwapConfig {
    SwapConfig {
        cache_pages: 12,
        transport,
        ..SwapConfig::default()
    }
}

#[test]
fn local_prototype_matches_golden() {
    let got = local_case(ClusterConfig::prototype());
    assert_golden("local prototype", got, GOLDEN_LOCAL_PROTOTYPE);
}

#[test]
fn local_small_l2_matches_golden() {
    assert_golden(
        "local small L2",
        local_case(small_l2()),
        GOLDEN_LOCAL_SMALL_L2,
    );
}

#[test]
fn remote_prototype_matches_golden() {
    let got = remote_default_case(ClusterConfig::prototype(), RemoteOptions::default());
    assert_golden("remote prototype", got, GOLDEN_REMOTE_PROTOTYPE);
}

#[test]
fn remote_small_l2_matches_golden() {
    let got = remote_default_case(small_l2(), RemoteOptions::default());
    assert_golden("remote small L2", got, GOLDEN_REMOTE_SMALL_L2);
}

#[test]
fn remote_local_first_matches_golden() {
    // A 96 KiB private region: the first pages are local, the rest spill
    // to remote zones.
    let mut cfg = small_l2();
    cfg.private_bytes = 96 << 10;
    let got = remote_case(
        cfg,
        AllocPolicy::LocalFirst,
        RemoteOptions::default(),
        |_| {},
    );
    assert_golden("remote local-first", got, GOLDEN_REMOTE_LOCAL_FIRST);
}

#[test]
fn remote_uncacheable_matches_golden() {
    let opts = RemoteOptions {
        cacheable: false,
        ..RemoteOptions::default()
    };
    assert_golden(
        "remote uncacheable",
        remote_default_case(small_l2(), opts),
        GOLDEN_REMOTE_UNCACHEABLE,
    );
}

#[test]
fn remote_posted_writes_match_golden() {
    let opts = RemoteOptions {
        posted_writes: true,
        ..RemoteOptions::default()
    };
    let got = remote_case(
        small_l2(),
        AllocPolicy::AlwaysRemote,
        opts,
        RemoteMemorySpace::quiesce,
    );
    assert_golden("remote posted + quiesce", got, GOLDEN_REMOTE_POSTED);
}

#[test]
fn remote_prefetch_matches_golden() {
    let opts = RemoteOptions {
        prefetch: true,
        ..RemoteOptions::default()
    };
    assert_golden(
        "remote prefetch",
        remote_default_case(small_l2(), opts),
        GOLDEN_REMOTE_PREFETCH,
    );
}

#[test]
fn remote_explicit_servers_match_golden() {
    // 32-frame zones round-robin over two servers.
    let opts = RemoteOptions {
        zone_frames: 32,
        servers: Some(vec![n(2), n(7)]),
        ..RemoteOptions::default()
    };
    assert_golden(
        "remote servers",
        remote_default_case(small_l2(), opts),
        GOLDEN_REMOTE_SERVERS,
    );
}

#[test]
fn remote_flush_cache_matches_golden() {
    let got = remote_case(
        small_l2(),
        AllocPolicy::AlwaysRemote,
        RemoteOptions::default(),
        RemoteMemorySpace::flush_cache,
    );
    assert_golden("remote flush_cache", got, GOLDEN_REMOTE_FLUSH_CACHE);
}

#[test]
fn remote_with_l1_writes_match_golden() {
    // The 64 KiB L1 preset in front of a 128 KiB L2: dirty L1 victims
    // spill out of the L2 on L2 hits too.
    let mut cfg = ClusterConfig::prototype().with_l1();
    cfg.cache.sets = 256;
    cfg.cache.ways = 8;
    let got = remote_default_case(cfg, RemoteOptions::default());
    assert_golden("remote with_l1", got, GOLDEN_REMOTE_WITH_L1);
}

#[test]
fn swap_ethernet_matches_golden() {
    let m = SwapSpace::remote(small_l2(), n(1), thrashing(SwapTransport::default()));
    assert_golden("swap ethernet", swap_case(m), GOLDEN_SWAP_ETHERNET);
}

#[test]
fn swap_fabric_matches_golden() {
    let cfg = SwapConfig {
        zone_frames: 32,
        servers: Some(vec![n(2), n(7)]),
        ..thrashing(SwapTransport::Fabric)
    };
    let m = SwapSpace::remote(small_l2(), n(1), cfg);
    assert_golden("swap fabric", swap_case(m), GOLDEN_SWAP_FABRIC);
}
