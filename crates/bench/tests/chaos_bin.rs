//! The `chaos` bin: a knob value it cannot use stops the bin with exit
//! status 2 and a message naming the variable, before any campaign runs
//! (a run count of 0 would otherwise check no cells and pass); with the
//! knobs unset, the campaign's summary line is pinned at each scale.

/// The summary line of the default campaign (base seed `0xC4A0`), by
/// `COHFREE_SCALE`: completed, failed, shed deferrals and evacuations
/// summed over every cell. Every manager-on and evacuating cell runs the
/// shed and re-homing paths, so a change to either moves these totals.
const PINNED_TOTALS: [(&str, &str); 2] = [
    (
        "smoke",
        "chaos: 40/40 cells passed all oracles (11904 completed, 96 failed, \
         8 shed deferrals, 12 evacuations)",
    ),
    (
        "default",
        "chaos: 200/200 cells passed all oracles (132754 completed, 2502 failed, \
         17 shed deferrals, 58 evacuations)",
    ),
];

#[test]
fn campaign_totals_hold_at_each_scale() {
    for (scale, line) in PINNED_TOTALS {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_chaos"))
            .env("COHFREE_SCALE", scale)
            .env_remove("COHFREE_CHAOS_RUNS")
            .env_remove("COHFREE_CHAOS_SEED")
            .output()
            .expect("chaos binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{scale}: stderr {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.trim_end(), line, "COHFREE_SCALE={scale}");
    }
}

#[test]
fn bad_chaos_knobs_exit_2_naming_the_variable() {
    for (var, value) in [
        ("COHFREE_CHAOS_RUNS", "0"),
        ("COHFREE_CHAOS_RUNS", "ten"),
        ("COHFREE_CHAOS_SEED", "-1"),
        ("COHFREE_CHAOS_SEED", ""),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_chaos"))
            .env("COHFREE_SCALE", "smoke")
            .env_remove("COHFREE_CHAOS_RUNS")
            .env_remove("COHFREE_CHAOS_SEED")
            .env(var, value)
            .output()
            .expect("chaos binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={value:?} must exit 2; stderr: {stderr}"
        );
        assert!(stderr.contains(var), "{var}={value:?}: stderr {stderr:?}");
        assert!(
            out.stdout.is_empty(),
            "{var}={value:?}: no campaign may run before the knob is rejected"
        );
    }
}
