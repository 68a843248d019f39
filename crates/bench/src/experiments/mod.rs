//! Experiment implementations, one module per paper figure + ablations.

pub mod ablations;
pub mod analytic;
pub mod ext_balloon;
pub mod ext_breakdown;
pub mod ext_chaos;
pub mod ext_coherent;
pub mod ext_db;
pub mod ext_failover;
pub mod ext_locality;
pub mod ext_parallel;
pub mod ext_serving;
pub mod ext_tenants;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use cohfree_core::{ClusterConfig, NodeId, SimDuration};

/// The standard experiment cluster (the 16-node prototype).
pub fn cluster() -> ClusterConfig {
    ClusterConfig::prototype()
}

/// Shorthand node constructor.
pub fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// Interval for the cluster-wide sampling probe, scaled so each tier keeps
/// a manageable number of time-series points (tens to hundreds per run).
pub fn sample_interval(scale: crate::Scale) -> SimDuration {
    scale.pick(
        SimDuration::us(1),
        SimDuration::us(20),
        SimDuration::us(500),
    )
}

/// Run every figure and ablation in sequence (the full reproduction),
/// printing each table and recording it into the report collector. This is
/// the body of the `all_figures` bin, factored out so the determinism
/// end-to-end test can run the whole suite in-process.
pub fn run_all(s: crate::Scale) {
    fig6::table(s).print();
    fig7::table(s).print();
    fig8::table(s).print();
    fig9::table(s).print();
    fig10::table(s).print();
    fig11::table(s).print();
    analytic::table(s).print();
    ablations::outstanding(s).print();
    ablations::prefetch(s).print();
    ablations::topology(s).print();
    ablations::cacheable(s).print();
    ablations::hash_vs_btree(s).print();
    ablations::residency(s).print();
    ablations::reliability(s).print();
    ablations::posted(s).print();
    ablations::l1_hierarchy(s).print();
    ext_db::table(s).print();
    ext_parallel::table(s).print();
    ext_tenants::table(s).print();
    ext_coherent::table(s).print();
    ext_locality::table(s).print();
    ext_balloon::table(s).print();
    ext_failover::table(s).print();
    ext_breakdown::table(s).print();
    ext_chaos::table(s).print();
    ext_serving::table(s).print();
}

/// Generate `count` strictly-ascending pseudo-random u64 keys (dedup'd,
/// deterministic), for bulk-loading trees/indexes.
pub fn random_sorted_keys(count: usize, seed: u64) -> Vec<u64> {
    let mut rng = cohfree_core::Rng::new(seed);
    let mut keys: Vec<u64> = (0..count + count / 8 + 16)
        .map(|_| rng.next_u64())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(count);
    assert_eq!(keys.len(), count, "not enough distinct keys generated");
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_sorted_unique_exact() {
        let k = random_sorted_keys(10_000, 5);
        assert_eq!(k.len(), 10_000);
        assert!(k.windows(2).all(|w| w[0] < w[1]));
        // Deterministic.
        assert_eq!(k, random_sorted_keys(10_000, 5));
        assert_ne!(k, random_sorted_keys(10_000, 6));
    }
}
