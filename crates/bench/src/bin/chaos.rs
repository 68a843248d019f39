//! Chaos campaign: randomized fault churn over many seeds, invariant
//! oracles after every run.
//!
//! Environment:
//! * `COHFREE_CHAOS_SEED` — base seed (default `0xC4A0`); run `k` of the
//!   campaign uses `seed + k`.
//! * `COHFREE_CHAOS_RUNS` — seeds per scenario (default by scale:
//!   smoke 5, default 25, paper 100).
//!
//! Exits non-zero if any oracle is violated.

use cohfree_bench::chaos;
use cohfree_bench::Scale;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = Scale::from_env();
    let base_seed = env_u64("COHFREE_CHAOS_SEED", 0xC4A0);
    let runs = env_u64("COHFREE_CHAOS_RUNS", scale.pick(5, 25, 100));
    let accesses = scale.pick(80u64, 200, 500);
    eprintln!(
        "chaos campaign: {runs} seeds x {} scenarios x manager on/off \
         (base seed {base_seed:#x}, {accesses} accesses/thread)",
        chaos::Scenario::ALL.len()
    );
    let outcomes = chaos::campaign(base_seed, runs, accesses);
    let mut failures = 0usize;
    for o in &outcomes {
        if o.violations.is_empty() {
            continue;
        }
        failures += 1;
        eprintln!(
            "FAIL {} seed {:#x} manager {}:",
            o.spec.scenario.name(),
            o.spec.seed,
            o.spec.manager
        );
        for v in &o.violations {
            eprintln!("  - {v}");
        }
    }
    let cells = outcomes.len();
    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let sheds: u64 = outcomes.iter().map(|o| o.shed_deferrals).sum();
    let evacs: u64 = outcomes.iter().map(|o| o.evacuations).sum();
    println!(
        "chaos: {}/{cells} cells passed all oracles \
         ({completed} completed, {failed} failed, {sheds} shed deferrals, \
         {evacs} evacuations)",
        cells - failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
