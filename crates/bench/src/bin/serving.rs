//! EXT-SERVING standalone bin: open-loop multi-tenant serving, healthy vs
//! mid-run donor crash, with per-tenant SLO rows. Honors `COHFREE_SCALE`
//! and `COHFREE_JSON`.
fn main() {
    cohfree_bench::experiments::ext_serving::table(cohfree_bench::Scale::from_env()).print();
    cohfree_bench::report::finish();
}
