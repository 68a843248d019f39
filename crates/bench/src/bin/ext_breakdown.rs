//! EXT-BREAKDOWN: per-phase latency attribution of remote accesses. With
//! `COHFREE_TRACE=<path>` the Full-mode span streams are exported as a
//! Chrome trace for Perfetto.
fn main() {
    let s = cohfree_bench::Scale::from_env();
    cohfree_bench::experiments::ext_breakdown::table(s).print();
    cohfree_bench::report::finish();
}
