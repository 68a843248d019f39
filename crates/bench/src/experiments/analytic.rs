//! Equations 1–2 vs. full simulation.
//!
//! A locality-controlled kernel performs `A_total` single-word loads,
//! `A_page` at a time against one page before jumping to another page, with
//! every load touching a fresh cache line (so the CPU cache never absorbs
//! accesses — the equations model memory-system time, not cache reuse).
//!
//! * Remote memory runs **uncached** (the I/O-space mode), so Eq. 2's
//!   `A_total · L_remote` is the exact prediction.
//! * Remote swap uses an Ethernet transport with a 15 µs RTT — chosen so
//!   the locality crossover `A_page* = L_swap / (L_remote − L_local)` falls
//!   inside the sweepable range (a page holds 64 distinct lines).
//!
//! The simulated curves must track both closed forms and the winner must
//! flip at the predicted crossover.

use crate::table::Table;
use crate::Scale;
use cohfree_core::analytic::{
    crossover_accesses_per_page, t_remote_memory, t_remote_swap, ModelParams,
};
use cohfree_core::backend::{
    AllocPolicy, RemoteMemorySpace, RemoteOptions, SwapConfig, SwapSpace, SwapTransport,
};
use cohfree_core::world::World;
use cohfree_core::{MemSpace, SimDuration};

/// One locality point.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Accesses per page before jumping (`A_page`).
    pub accesses_per_page: u64,
    /// Simulated remote-memory time (ms).
    pub sim_remote_ms: f64,
    /// Eq. 2 prediction (ms).
    pub model_remote_ms: f64,
    /// Simulated remote-swap time (ms).
    pub sim_swap_ms: f64,
    /// Eq. 1 prediction (ms).
    pub model_swap_ms: f64,
}

/// Swap network RTT used by this experiment.
const SWAP_RTT: SimDuration = SimDuration(10_000_000); // 10 us
/// Swap network bandwidth (bytes per microsecond).
const SWAP_BW: f64 = 125.0;

/// Allocate and materialize the footprint (untimed relative to the
/// measured phase): touch every page so later faults hit the device.
fn populate<M: MemSpace + ?Sized>(mem: &mut M, pages: u64) -> u64 {
    let va = mem.alloc(pages * 4096);
    for p in 0..pages {
        mem.write_u64(va + p * 4096, p);
    }
    va
}

/// The locality kernel's measured phase: `a_page` loads per page visit,
/// each on a fresh cache line, page order strided to defeat the page cache.
fn locality_kernel<M: MemSpace + ?Sized>(
    mem: &mut M,
    va: u64,
    pages: u64,
    a_page: u64,
    total: u64,
) {
    assert!(a_page <= 64, "a page holds 64 distinct lines");
    let stride = pages / 2 + 1;
    let mut page = 0u64;
    let mut visit = 0u64;
    let mut done = 0u64;
    while done < total {
        let burst = a_page.min(total - done);
        for k in 0..burst {
            let line = (visit + k) % 64;
            mem.read_u64(va + page * 4096 + line * 64);
        }
        done += burst;
        visit += burst;
        page = (page + stride) % pages;
    }
}

/// Measured/theory comparison for one `A_page`.
pub fn run_point(scale: Scale, a_page: u64) -> Row {
    let total = scale.pick(3_000u64, 30_000, 300_000);
    let pages = scale.pick(512u64, 2_048, 16_384);
    let cache_pages = (pages / 4) as usize;

    // Simulated remote memory, uncached (Eq. 2's regime).
    let mut rm = RemoteMemorySpace::with_options(
        super::cluster(),
        super::n(1),
        AllocPolicy::AlwaysRemote,
        RemoteOptions {
            cacheable: false,
            ..RemoteOptions::default()
        },
    );
    let va = populate(&mut rm, pages);
    let t0 = rm.now();
    locality_kernel(&mut rm, va, pages, a_page, total);
    let sim_remote = rm.now().since(t0);

    // Simulated remote swap over the experiment's network.
    let mut sw = SwapSpace::remote(
        super::cluster(),
        super::n(1),
        SwapConfig {
            cache_pages,
            transport: SwapTransport::Ethernet {
                rtt: SWAP_RTT,
                bytes_per_us: SWAP_BW,
            },
            ..SwapConfig::default()
        },
    );
    let va = populate(&mut sw, pages);
    sw.flush_dirty_pages();
    let t0 = sw.now();
    locality_kernel(&mut sw, va, pages, a_page, total);
    let sim_swap = sw.now().since(t0);

    let params = model_params(total, a_page);
    Row {
        accesses_per_page: a_page,
        sim_remote_ms: sim_remote.as_ms_f64(),
        model_remote_ms: t_remote_memory(&params).as_ms_f64(),
        sim_swap_ms: sim_swap.as_ms_f64(),
        model_swap_ms: t_remote_swap(&params).as_ms_f64(),
    }
}

/// Closed-form calibration, derived from the same cluster configuration the
/// simulation uses (no independent hand-tuning).
pub fn model_params(total: u64, a_page: u64) -> ModelParams {
    let cfg = super::cluster();
    let w = World::new(cfg);
    // 8-byte uncached remote load, nearest donor = 1 hop.
    let l_remote = w.estimate_remote_read_latency(super::n(1), super::n(2), 8);
    // Resident access: cache lookup + unloaded DRAM line fill (what the
    // swap backend charges without a cluster).
    let l_local = cfg.os.cache_hit + cfg.dram.unloaded_latency(cfg.cache.line_bytes);
    // Page fault: kernel overhead + network RTT + page wire time.
    let l_swap = cfg.os.fault_overhead + SWAP_RTT + SimDuration::ns_f64(4096.0 / SWAP_BW * 1e3);
    ModelParams {
        total_accesses: total,
        accesses_per_page: a_page as f64,
        l_local,
        l_swap,
        l_remote,
    }
}

/// The locality sweep (≤ 64 distinct lines per page).
pub fn sweep() -> Vec<u64> {
    vec![1, 2, 4, 8, 16, 32, 64]
}

/// Run the sweep.
pub fn run(scale: Scale) -> Vec<Row> {
    sweep().into_iter().map(|a| run_point(scale, a)).collect()
}

/// Render as a table (plus the predicted crossover).
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "Eqs. 1-2 — analytic model vs. simulation (locality sweep)",
        &["A_page", "sim_remote_ms", "eq2_ms", "sim_swap_ms", "eq1_ms"],
    );
    for r in &rows {
        t.row(vec![
            r.accesses_per_page.to_string(),
            format!("{:.3}", r.sim_remote_ms),
            format!("{:.3}", r.model_remote_ms),
            format!("{:.3}", r.sim_swap_ms),
            format!("{:.3}", r.model_swap_ms),
        ]);
    }
    let params = model_params(1, 1);
    if let Some(x) = crossover_accesses_per_page(&params) {
        t.row(vec![
            format!("crossover≈{x:.0}"),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_tracks_the_closed_forms() {
        for a_page in [1u64, 16, 64] {
            let r = run_point(Scale::Smoke, a_page);
            let rel = (r.sim_remote_ms - r.model_remote_ms).abs() / r.model_remote_ms;
            assert!(
                rel < 0.25,
                "A_page={a_page}: remote sim {} vs eq2 {}",
                r.sim_remote_ms,
                r.model_remote_ms
            );
            let rel = (r.sim_swap_ms - r.model_swap_ms).abs() / r.model_swap_ms;
            assert!(
                rel < 0.30,
                "A_page={a_page}: swap sim {} vs eq1 {}",
                r.sim_swap_ms,
                r.model_swap_ms
            );
        }
    }

    #[test]
    fn winner_flips_at_the_crossover() {
        let lo = run_point(Scale::Smoke, 16);
        let hi = run_point(Scale::Smoke, 64);
        assert!(
            lo.sim_remote_ms < lo.sim_swap_ms,
            "poor locality: remote memory must win"
        );
        assert!(
            hi.sim_swap_ms < hi.sim_remote_ms,
            "great locality: swap must win"
        );
        let x = crossover_accesses_per_page(&model_params(1, 1)).unwrap();
        assert!(
            x > 16.0 && x < 64.0,
            "crossover {x} must sit inside the flip interval"
        );
    }
}
