//! The `chaos` bin's knobs: a value it cannot use stops the bin with exit
//! status 2 and a message naming the variable, before any campaign runs
//! (a run count of 0 would otherwise check no cells and pass).

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
