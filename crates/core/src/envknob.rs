//! Typed parsing for `COHFREE_*` environment knobs.
//!
//! The `chaos` bin's campaign inputs (`COHFREE_CHAOS_SEED`,
//! `COHFREE_CHAOS_RUNS`) go through this module so a garbage value produces
//! one clear, typed [`EnvKnobError`] at startup instead of being silently
//! ignored. Parsing is
//! split from environment lookup so both the accept and reject paths are
//! unit-testable without mutating the process environment.

use std::fmt;

/// A `COHFREE_*` environment variable carries a value the knob cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvKnobError {
    /// The environment variable name.
    pub name: String,
    /// The rejected raw value.
    pub value: String,
    /// What the knob accepts (human-readable).
    pub expected: &'static str,
}

impl fmt::Display for EnvKnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.name, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvKnobError {}

fn err(name: &str, value: &str, expected: &'static str) -> EnvKnobError {
    EnvKnobError {
        name: name.to_string(),
        value: value.to_string(),
        expected,
    }
}

/// Parse a strictly positive integer knob value.
pub fn parse_positive(name: &str, raw: &str) -> Result<u64, EnvKnobError> {
    match raw.trim().parse() {
        Ok(v) if v >= 1 => Ok(v),
        _ => Err(err(name, raw, "a positive integer")),
    }
}

/// Look `name` up in the environment and parse it with `parse`;
/// `Ok(None)` when unset.
pub fn lookup<T>(
    name: &str,
    parse: impl FnOnce(&str, &str) -> Result<T, EnvKnobError>,
) -> Result<Option<T>, EnvKnobError> {
    match std::env::var(name) {
        Ok(raw) => parse(name, &raw).map(Some),
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_values() {
        assert_eq!(parse_positive("COHFREE_CHAOS_RUNS", "8"), Ok(8));
        assert_eq!(parse_positive("COHFREE_CHAOS_RUNS", " 3 "), Ok(3));
    }

    #[test]
    fn rejects_garbage_with_a_typed_error() {
        let e = parse_positive("COHFREE_CHAOS_RUNS", "three").unwrap_err();
        assert_eq!(e.name, "COHFREE_CHAOS_RUNS");
        assert_eq!(e.value, "three");
        let msg = e.to_string();
        assert!(
            msg.contains("COHFREE_CHAOS_RUNS") && msg.contains("three"),
            "{msg}"
        );

        assert!(parse_positive("COHFREE_CHAOS_RUNS", "0").is_err());
        assert!(parse_positive("COHFREE_CHAOS_RUNS", "-4").is_err());
        assert!(parse_positive("COHFREE_CHAOS_SEED", "1e3").is_err());
    }
}
