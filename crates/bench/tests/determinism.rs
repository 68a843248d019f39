//! End-to-end determinism: the entire reproduction, run twice in one
//! process, must produce byte-identical report documents.
//!
//! This is the safety net under the simulator fast path: the calendar event
//! queue, the seed-free hash maps, the parallel sweep scheduling and the
//! recycled message-path buffers are all allowed *only* because no result
//! may depend on allocation addresses, thread interleaving or map iteration
//! order. Any such dependence shows up here as a byte diff.

use cohfree_bench::{experiments, report, Scale};

#[test]
fn full_suite_is_byte_identical_across_reruns() {
    let run_once = || {
        report::reset();
        experiments::run_all(Scale::Smoke);
        let mut doc = report::document().to_string();
        doc.push('\n');
        doc
    };
    let first = run_once();
    let second = run_once();
    assert!(
        first.len() > 10_000,
        "suspiciously small report ({} bytes): did the suite run?",
        first.len()
    );
    if first != second {
        let at = first
            .bytes()
            .zip(second.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(first.len().min(second.len()));
        let lo = at.saturating_sub(120);
        panic!(
            "report documents differ at byte {at}:\n first: ...{}\nsecond: ...{}",
            &first[lo..(at + 120).min(first.len())],
            &second[lo..(at + 120).min(second.len())],
        );
    }
}
