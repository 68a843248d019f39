//! The four seeded workloads and their output oracles.
//!
//! Every rep builds a fresh world or backend from the run's seed and the rep
//! index, through the layers' public APIs only, times the calls into them
//! from the outside, and checks the outputs:
//!
//! * `mesh_closed` — engine-bound closed loop: 128 threads on a 16×16 mesh,
//!   each waiting for one access before issuing the next.
//! * `serving_open` — the same engine driven open loop: 16 tenants whose
//!   requests arrive on their own Poisson clock, with heavy NACK/retry.
//! * `db_remote` — backend-bound: a database over the paper's remote memory,
//!   where most accesses hit the modelled CPU cache and a miss is one
//!   blocking remote transaction.
//! * `db_swap` — the same operations over Ethernet remote swap: the `os`
//!   page-cache path with no event engine at all.

use crate::trace::{Recorder, Timed};
use cohfree_core::backend::{AccessStats, AllocPolicy, RemoteMemorySpace, SwapConfig, SwapSpace};
use cohfree_core::{
    ClusterConfig, MemSpace, NodeId, Rng, SimDuration, SimTime, ThreadSpec, Topology, World,
};
use cohfree_workloads::db::{Database, Row, ATTRS};
use cohfree_workloads::serving::{self, ArrivalSpec, RequestMix, Tenant, TenantSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop threads on a 16×16 mesh.
    MeshClosed,
    /// Open-loop multi-tenant serving on a 16×16 mesh.
    ServingOpen,
    /// A database over remote memory.
    DbRemote,
    /// A database over Ethernet remote swap.
    DbSwap,
}

impl Workload {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::MeshClosed,
        Workload::ServingOpen,
        Workload::DbRemote,
        Workload::DbSwap,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshClosed => "mesh_closed",
            Workload::ServingOpen => "serving_open",
            Workload::DbRemote => "db_remote",
            Workload::DbSwap => "db_swap",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one rep does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Accesses per `mesh_closed` thread.
    pub mesh_accesses: u64,
    /// Requests per `serving_open` tenant.
    pub serving_requests: u64,
    /// Rows populated in the write phase.
    pub db_rows: u64,
    /// Fresh inserts after the populate.
    pub db_inserts: u64,
    /// Point queries in the read phase.
    pub db_points: u64,
    /// Range sums in the read phase.
    pub db_ranges: u64,
}

impl Size {
    /// What the benchmark times: about half a second per rep on a 2-core
    /// x86-64 host.
    pub const FULL: Size = Size {
        mesh_accesses: 800,
        serving_requests: 4_000,
        db_rows: 40_000,
        db_inserts: 4_000,
        db_points: 80_000,
        db_ranges: 40,
    };
}

/// Deterministic work counts read from the layers after a rep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Engine events processed.
    pub events: u64,
    /// Fabric hops.
    pub hops: u64,
    /// NACKed RMC offers.
    pub nacks: u64,
    /// Completed RMC transactions.
    pub completions: u64,
    /// RMC loss-recovery retransmissions.
    pub retransmissions: u64,
    /// Read-class RMC submissions.
    pub reads: u64,
    /// Write-class RMC submissions.
    pub writes: u64,
    /// DRAM accesses on every node.
    pub dram_accesses: u64,
    /// The process's access statistics (database workloads).
    pub stats: AccessStats,
}

/// One timed phase: operations and the host seconds they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Operations in the phase.
    pub ops: u64,
    /// Host seconds.
    pub secs: f64,
}

impl Phase {
    /// Operations per host second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// The outcome of one rep.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds to build the world or backend and its inputs.
    pub setup_s: f64,
    /// The part of `setup_s` spent generating inputs (arrivals, thread
    /// spawns, the database operation stream).
    pub inputs_s: f64,
    /// All timed operations.
    pub all: Phase,
    /// Writes (inserts for the databases; write accesses for threads,
    /// over the whole run).
    pub writes: Phase,
    /// Reads (queries for the databases; read accesses for threads, over
    /// the whole run).
    pub reads: Phase,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were shed, were lost, or returned a wrong
    /// value.
    pub failed: u64,
    /// Digest of the simulated output.
    pub fingerprint: u64,
    /// Deterministic work counts.
    pub counts: Counts,
}

/// Splitmix64 finaliser: decorrelates seeds derived from (seed, index).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
    })
}

fn stats_words(s: &AccessStats) -> [u64; 17] {
    [
        s.reads,
        s.writes,
        s.bytes_read,
        s.bytes_written,
        s.cache_hits,
        s.cache_misses,
        s.tlb_walks,
        s.minor_faults,
        s.major_faults,
        s.remote_reads,
        s.remote_writes,
        s.pages_in,
        s.pages_out,
        s.allocations,
        s.reservations,
        s.prefetch_hits,
        s.prefetch_issued,
    ]
}

/// Run `f`, inside a span when tracing.
fn span<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

/// Run one rep of `w`. With `rec`, every call into a layer is a span.
pub fn run_rep(w: Workload, size: Size, seed: u64, rep: u64, rec: Option<&Recorder>) -> Rep {
    match w {
        Workload::MeshClosed => run_mesh(size, seed, rep, rec),
        Workload::ServingOpen => run_serving(size, seed, rep, rec),
        Workload::DbRemote | Workload::DbSwap => run_db(w, size, seed, rep, rec),
    }
}

// ---------------------------------------------------------------------------
// Thread workloads
// ---------------------------------------------------------------------------

fn mesh_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::prototype();
    cfg.topology = Topology::Mesh2D {
        width: 16,
        height: 16,
    };
    cfg
}

/// `mesh_closed` threads: odd client `2k+1` borrows from its mirror donor
/// `256-2k`, so every access crosses the mesh.
const MESH_THREADS: u64 = 128;

/// The per-thread PRNG seeds of one `mesh_closed` rep — its whole input.
pub fn mesh_inputs(seed: u64, rep: u64) -> Vec<u64> {
    let base = mix(seed, rep);
    (0..MESH_THREADS).map(|k| mix(base, k)).collect()
}

fn run_mesh(size: Size, seed: u64, rep: u64, rec: Option<&Recorder>) -> Rep {
    let t0 = Instant::now();
    let mut w = span(rec, "core:World::new", || World::new(mesh_config()));
    let zones = span(rec, "os:reserve_remote", || {
        (0..MESH_THREADS)
            .map(|k| {
                let client = NodeId::new((k * 2 + 1) as u16);
                let donor = NodeId::new((256 - k * 2) as u16);
                let r = w.reserve_remote(client, 1_024, Some(donor));
                (client, (r.prefixed_base, r.frames * 4096))
            })
            .collect::<Vec<_>>()
    });
    let ti = Instant::now();
    let seeds = mesh_inputs(seed, rep);
    let threads = span(rec, "core:spawn_thread", || {
        zones
            .iter()
            .zip(&seeds)
            .map(|(&(node, zone), &s)| {
                let spec = ThreadSpec {
                    node,
                    zones: vec![zone],
                    accesses: size.mesh_accesses,
                    bytes: 64,
                    write_fraction: 0.3,
                    think: SimDuration::ns(5),
                    seed: s,
                };
                w.spawn_thread(spec, SimTime::ZERO)
            })
            .collect::<Vec<_>>()
    });
    let inputs_s = ti.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    let tr = Instant::now();
    span(rec, "core:World::run", || w.run());
    let run_s = tr.elapsed().as_secs_f64();
    if let Some(r) = rec {
        r.span("core:World::snapshot", || {
            std::hint::black_box(w.snapshot())
        });
    }
    finish_threads(&w, &threads, &[], setup_s, inputs_s, run_s)
}

/// The tenants of one `serving_open` rep — its whole input (arrival
/// streams are generated from each tenant's seed by `serving::install`).
pub fn serving_inputs(size: Size, seed: u64, rep: u64) -> Vec<TenantSpec> {
    let base = mix(seed, rep);
    (0..16u64)
        .map(|k| TenantSpec {
            name: format!("t{k}"),
            client: NodeId::new((k * 16 + 1) as u16),
            donors: vec![NodeId::new((256 - k * 16) as u16)],
            frames_per_donor: 256,
            lanes: 4,
            requests: size.serving_requests,
            mix: if k % 2 == 0 {
                RequestMix::PointKv {
                    zipf_s: 0.9,
                    value_bytes: 64,
                }
            } else {
                RequestMix::ColumnarScan { chunk_bytes: 1024 }
            },
            arrivals: ArrivalSpec {
                users: 250_000,
                rate_per_user_hz: 4.0,
                diurnal: None,
                seed: mix(base, k),
            },
            write_fraction: 0.1,
            think: SimDuration::ns(5),
            start: SimTime::ZERO,
        })
        .collect()
}

fn run_serving(size: Size, seed: u64, rep: u64, rec: Option<&Recorder>) -> Rep {
    let t0 = Instant::now();
    let mut w = span(rec, "core:World::new", || World::new(mesh_config()));
    let ti = Instant::now();
    let specs = serving_inputs(size, seed, rep);
    let tenants = span(rec, "workloads:serving::install", || {
        serving::install(&mut w, &specs)
    });
    let inputs_s = ti.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    let tr = Instant::now();
    span(rec, "core:World::run", || w.run());
    let run_s = tr.elapsed().as_secs_f64();
    if let Some(r) = rec {
        r.span("core:World::snapshot", || {
            std::hint::black_box(w.snapshot())
        });
    }
    let threads: Vec<usize> = tenants
        .iter()
        .flat_map(|t| t.threads.iter().copied())
        .collect();
    finish_threads(&w, &threads, &tenants, setup_s, inputs_s, run_s)
}

/// Cluster-wide counts from a world's public getters.
fn world_counts(w: &World, stats: AccessStats) -> Counts {
    let mut c = Counts {
        events: w.events_processed(),
        hops: w.fabric().total_hops(),
        stats,
        ..Counts::default()
    };
    for i in 1..=w.config().topology.num_nodes() {
        let node = NodeId::new(i);
        let rmc = w.client(node);
        c.nacks += rmc.nacks();
        c.completions += rmc.completions();
        c.retransmissions += rmc.retransmissions();
        c.reads += rmc.reads();
        c.writes += rmc.writes();
        c.dram_accesses += w.memory(node).accesses();
    }
    c
}

/// Oracles, counts and fingerprint shared by the thread workloads.
///
/// Every access a thread does not complete counts as failed (that covers
/// failed, shed and lost accesses), as does every access of a tenant whose
/// outcomes are not conserved. A transaction still pending or a message
/// dropped after the run drains fails the whole rep.
fn finish_threads(
    w: &World,
    threads: &[usize],
    tenants: &[Tenant],
    setup_s: f64,
    inputs_s: f64,
    run_s: f64,
) -> Rep {
    let attempted: u64 = threads.iter().map(|&i| w.thread_accesses(i)).sum();
    let completed: u64 = threads.iter().map(|&i| w.thread_completed(i)).sum();
    let mut failed = attempted - completed;
    for t in tenants.iter().filter(|t| !t.conserved(w)) {
        failed += t.generated;
    }
    if w.pending_count() != 0 || w.fabric().dropped() != 0 {
        failed = attempted;
    }
    let failed = failed.min(attempted);

    let counts = world_counts(w, AccessStats::default());
    let mut words = vec![
        w.now().as_ps(),
        counts.events,
        counts.hops,
        counts.nacks,
        completed,
    ];
    for t in tenants {
        let h = t.latency(w);
        words.push(t.completed(w));
        for q in [0.5, 0.99, 0.999] {
            words.push(h.quantile_ns(q).to_bits());
        }
    }
    Rep {
        setup_s,
        inputs_s,
        all: Phase {
            ops: completed,
            secs: run_s,
        },
        writes: Phase {
            ops: counts.writes,
            secs: run_s,
        },
        reads: Phase {
            ops: counts.reads,
            secs: run_s,
        },
        attempted,
        failed,
        fingerprint: digest(words),
        counts,
    }
}

// ---------------------------------------------------------------------------
// Database workloads
// ---------------------------------------------------------------------------

/// One database operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert a row (false back if the id already exists).
    Insert(Row),
    /// Point query by id.
    Point(u64),
    /// Sum of attribute `attr` over ids `lo..=hi`.
    RangeSum {
        /// Lowest id.
        lo: u64,
        /// Highest id.
        hi: u64,
        /// Attribute summed.
        attr: usize,
    },
    /// Sum of attribute `attr` over every row.
    Scan(usize),
}

/// A point query's result word when the row is absent.
const NO_ROW: u64 = u64::MAX;

/// A point query's result as one word: a digest of the row, or [`NO_ROW`].
/// Results are kept one word per operation so that the oracle's own
/// memory stays small beside the simulator's.
fn row_word(r: Option<Row>) -> u64 {
    r.map_or(NO_ROW, |r| digest(std::iter::once(r.id).chain(r.attrs)))
}

/// The input of one database rep: the EXT-DB operation stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbPlan {
    /// Table capacity passed to `Database::create`.
    pub capacity: u64,
    /// Populate plus fresh inserts.
    pub writes: Vec<Op>,
    /// Point queries, range sums and one scan.
    pub reads: Vec<Op>,
    /// Swap resident set: a fifth of the footprint (heap and indexes take
    /// about 90 B per row).
    pub cache_pages: usize,
}

fn random_row(id: u64, rng: &mut Rng) -> Row {
    let mut attrs = [0u64; ATTRS];
    for a in &mut attrs {
        *a = rng.below(1_000);
    }
    Row { id, attrs }
}

/// The operation stream of one database rep.
pub fn db_inputs(size: Size, seed: u64, rep: u64) -> DbPlan {
    let mut rng = Rng::new(mix(seed, rep));
    // Sparse ids so range queries see gaps and point queries miss 3 in 4.
    let id_space = size.db_rows * 4;
    let mut seen = std::collections::HashSet::new();
    // About 46k draws give 40k distinct ids out of 160k: allocate once.
    let mut writes = Vec::with_capacity((size.db_rows * 5 / 4 + size.db_inserts) as usize);
    while (seen.len() as u64) < size.db_rows {
        let id = rng.below(id_space);
        seen.insert(id);
        writes.push(Op::Insert(random_row(id, &mut rng)));
    }
    for k in 0..size.db_inserts {
        writes.push(Op::Insert(random_row(id_space + k + 1, &mut rng)));
    }
    let mut reads: Vec<Op> = (0..size.db_points)
        .map(|_| Op::Point(rng.below(id_space)))
        .collect();
    let span = id_space / 200;
    for _ in 0..size.db_ranges {
        let lo = rng.below(id_space - span);
        reads.push(Op::RangeSum {
            lo,
            hi: lo + span,
            attr: rng.below(ATTRS as u64) as usize,
        });
    }
    reads.push(Op::Scan(rng.below(ATTRS as u64) as usize));
    let rows = size.db_rows + size.db_inserts;
    DbPlan {
        capacity: rows + 16,
        writes,
        reads,
        cache_pages: (rows as usize * 90 / 4096 / 5).max(64),
    }
}

/// The result word every operation of `plan` must return, from a shadow
/// map replaying the same operations.
pub fn db_expected(plan: &DbPlan) -> Vec<u64> {
    let mut shadow: BTreeMap<u64, Row> = BTreeMap::new();
    let sum = |it: &mut dyn Iterator<Item = &Row>, attr: usize| {
        it.fold(0u64, |s, r| s.wrapping_add(r.attrs[attr]))
    };
    plan.writes
        .iter()
        .chain(&plan.reads)
        .map(|op| match *op {
            Op::Insert(r) => {
                let fresh = !shadow.contains_key(&r.id);
                if fresh {
                    shadow.insert(r.id, r);
                }
                fresh as u64
            }
            Op::Point(id) => row_word(shadow.get(&id).copied()),
            Op::RangeSum { lo, hi, attr } => sum(&mut shadow.range(lo..=hi).map(|(_, r)| r), attr),
            Op::Scan(attr) => sum(&mut shadow.values(), attr),
        })
        .collect()
}

fn exec<M: MemSpace + ?Sized>(db: &mut Database, m: &mut M, op: Op) -> u64 {
    match op {
        Op::Insert(r) => db.insert(m, r) as u64,
        Op::Point(id) => row_word(db.point(m, id)),
        Op::RangeSum { lo, hi, attr } => db.range_sum(m, lo, hi, attr),
        Op::Scan(attr) => db.scan_sum(m, attr),
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Insert(_) => "workloads:db.insert",
        Op::Point(_) => "workloads:db.point",
        Op::RangeSum { .. } => "workloads:db.range_sum",
        Op::Scan(_) => "workloads:db.scan_sum",
    }
}

/// Timed phases of one database rep.
struct DbRun {
    create_s: f64,
    writes: Phase,
    reads: Phase,
    /// One result word per operation, in plan order.
    outs: Vec<u64>,
}

fn db_phases<M: MemSpace + ?Sized>(m: &mut M, plan: &DbPlan, rec: Option<&Recorder>) -> DbRun {
    let tc = Instant::now();
    let mut db = span(rec, "workloads:Database::create", || {
        Database::create(m, plan.capacity)
    });
    let create_s = tc.elapsed().as_secs_f64();
    let mut outs = Vec::with_capacity(plan.writes.len() + plan.reads.len());
    let mut phase = |ops: &[Op], outs: &mut Vec<u64>| {
        let t = Instant::now();
        for &op in ops {
            outs.push(match rec {
                Some(r) => r.op(op_name(&op), || exec(&mut db, m, op)),
                None => exec(&mut db, m, op),
            });
        }
        Phase {
            ops: ops.len() as u64,
            secs: t.elapsed().as_secs_f64(),
        }
    };
    let writes = phase(&plan.writes, &mut outs);
    let reads = phase(&plan.reads, &mut outs);
    DbRun {
        create_s,
        writes,
        reads,
        outs,
    }
}

/// Run the phases on `m`, through a [`Timed`] wrapper when tracing.
fn db_drive<M: MemSpace>(m: M, plan: &DbPlan, rec: Option<&Recorder>) -> (M, DbRun) {
    match rec {
        Some(r) => {
            let mut t = Timed::new(m, r);
            let run = db_phases(&mut t, plan, rec);
            (t.into_inner(), run)
        }
        None => {
            let mut m = m;
            let run = db_phases(&mut m, plan, rec);
            (m, run)
        }
    }
}

fn run_db(w: Workload, size: Size, seed: u64, rep: u64, rec: Option<&Recorder>) -> Rep {
    let t0 = Instant::now();
    let plan = span(rec, "workloads:db_inputs", || db_inputs(size, seed, rep));
    let inputs_s = t0.elapsed().as_secs_f64();
    let cfg = ClusterConfig::prototype();
    let node = NodeId::new(1);
    let (backend_s, run, now, counts) = if w == Workload::DbRemote {
        let tb = Instant::now();
        let m = span(rec, "core:RemoteMemorySpace::new", || {
            RemoteMemorySpace::new(cfg, node, AllocPolicy::AlwaysRemote)
        });
        let backend_s = tb.elapsed().as_secs_f64();
        let (m, run) = db_drive(m, &plan, rec);
        (backend_s, run, m.now(), world_counts(m.world(), m.stats()))
    } else {
        let tb = Instant::now();
        let swap = SwapConfig {
            cache_pages: plan.cache_pages,
            ..SwapConfig::default()
        };
        let m = span(rec, "core:SwapSpace::remote", || {
            SwapSpace::remote(cfg, node, swap)
        });
        let backend_s = tb.elapsed().as_secs_f64();
        let (m, run) = db_drive(m, &plan, rec);
        let counts = match m.world() {
            Some(world) => world_counts(world, m.stats()),
            None => Counts {
                stats: m.stats(),
                ..Counts::default()
            },
        };
        (backend_s, run, m.now(), counts)
    };
    let setup_s = inputs_s + backend_s + run.create_s;
    finish_db(plan, run, now, counts, setup_s, inputs_s)
}

fn finish_db(
    plan: DbPlan,
    run: DbRun,
    now: SimTime,
    counts: Counts,
    setup_s: f64,
    inputs_s: f64,
) -> Rep {
    let expected = db_expected(&plan);
    let attempted = expected.len() as u64;
    let failed = expected
        .iter()
        .zip(&run.outs)
        .filter(|(e, o)| e != o)
        .count() as u64
        + attempted.saturating_sub(run.outs.len() as u64);
    let mut words = vec![now.as_ps(), digest(run.outs.iter().copied())];
    words.extend(stats_words(&counts.stats));
    Rep {
        setup_s,
        inputs_s,
        all: Phase {
            ops: run.writes.ops + run.reads.ops,
            secs: run.writes.secs + run.reads.secs,
        },
        writes: run.writes,
        reads: run.reads,
        attempted,
        failed,
        fingerprint: digest(words),
        counts,
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Small enough for a debug build.
    pub const TINY: Size = Size {
        mesh_accesses: 4,
        serving_requests: 16,
        db_rows: 400,
        db_inserts: 40,
        db_points: 400,
        db_ranges: 4,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(mesh_inputs(1, 3), mesh_inputs(1, 3));
        assert_ne!(mesh_inputs(1, 3), mesh_inputs(2, 3));
        assert_ne!(mesh_inputs(1, 3), mesh_inputs(1, 4), "reps differ too");

        let arrivals = |s: u64| -> Vec<Vec<SimTime>> {
            serving_inputs(TINY, s, 0)
                .iter()
                .map(|t| t.arrivals.arrivals(t.start, t.requests))
                .collect()
        };
        assert_eq!(arrivals(1), arrivals(1));
        assert_ne!(arrivals(1), arrivals(2));

        assert_eq!(db_inputs(TINY, 1, 0), db_inputs(TINY, 1, 0));
        assert_ne!(db_inputs(TINY, 1, 0), db_inputs(TINY, 2, 0));
    }

    #[test]
    fn every_workload_is_correct_and_repeats_its_fingerprint() {
        for w in Workload::ALL {
            let a = run_rep(w, TINY, 7, 0, None);
            assert!(a.attempted > 0, "{}", w.name());
            assert_eq!(a.failed, 0, "{}", w.name());
            let b = run_rep(w, TINY, 7, 0, None);
            assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
            assert_eq!(a.counts, b.counts, "{}", w.name());
            let c = run_rep(w, TINY, 8, 0, None);
            assert_ne!(a.fingerprint, c.fingerprint, "{}", w.name());
        }
    }

    #[test]
    fn tracing_does_not_change_simulated_output() {
        for w in Workload::ALL {
            let rec = Recorder::default();
            let plain = run_rep(w, TINY, 5, 1, None);
            let traced = run_rep(w, TINY, 5, 1, Some(&rec));
            assert_eq!(plain.fingerprint, traced.fingerprint, "{}", w.name());
            assert!(rec.total_of("core:").count > 0, "{}", w.name());
        }
    }

    /// A backend that flips one bit of the `nth` read.
    pub struct Corrupt<M> {
        pub inner: M,
        pub nth: u64,
    }

    impl<M: MemSpace> MemSpace for Corrupt<M> {
        fn alloc(&mut self, bytes: u64) -> u64 {
            self.inner.alloc(bytes)
        }
        fn read(&mut self, va: u64, buf: &mut [u8]) {
            self.inner.read(va, buf);
            if self.nth == 0 {
                buf[0] ^= 1;
            }
            self.nth = self.nth.wrapping_sub(1);
        }
        fn write(&mut self, va: u64, data: &[u8]) {
            self.inner.write(va, data)
        }
        fn compute(&mut self, d: SimDuration) {
            self.inner.compute(d)
        }
        fn now(&self) -> SimTime {
            self.inner.now()
        }
        fn stats(&self) -> AccessStats {
            self.inner.stats()
        }
    }

    /// A database rep, as `run_db` runs it, over a backend that corrupts
    /// the last read (an attribute of the row) of the first point query
    /// that finds its row.
    pub fn corrupted_db_rep() -> Rep {
        let plan = db_inputs(TINY, 3, 0);
        let expected = db_expected(&plan);
        let hit = plan
            .reads
            .iter()
            .zip(&expected[plan.writes.len()..])
            .position(|(op, &word)| matches!(op, Op::Point(_)) && word != NO_ROW)
            .expect("some point query finds its row");
        let backend = |nth| Corrupt {
            inner: RemoteMemorySpace::new(
                ClusterConfig::prototype(),
                NodeId::new(1),
                AllocPolicy::AlwaysRemote,
            ),
            nth,
        };
        let reads_through = |ops: usize| {
            let mut upto = plan.clone();
            upto.reads.truncate(ops);
            let (m, _) = db_drive(backend(u64::MAX), &upto, None);
            u64::MAX - m.nth
        };
        let (m, run) = db_drive(backend(reads_through(hit + 1) - 1), &plan, None);
        let counts = world_counts(m.inner.world(), m.stats());
        finish_db(plan, run, m.now(), counts, 0.0, 0.0)
    }

    #[test]
    fn a_corrupted_byte_is_caught_by_the_oracle() {
        let rep = corrupted_db_rep();
        assert_eq!(rep.failed, 1, "one flipped bit fails exactly one query");
    }
}
