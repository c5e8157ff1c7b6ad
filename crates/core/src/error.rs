//! Typed scenario errors shared by both simulation engines.
//!
//! The engines historically `panic!`ed on bad input, which is acceptable
//! for one-off research scripts but not for a library embedded in larger
//! systems (a malformed scenario arriving over an RPC boundary must not
//! abort the process). Every builder now funnels its checks through a
//! `validate()` that returns [`ScenarioError`]; the legacy `run()` entry
//! points keep their panicking behaviour (with the same messages, for
//! back-compatibility) by unwrapping the corresponding `try_run()`.
//!
//! The enum is hand-rolled (`std::error::Error` impl, no derive crates):
//! the build environment is offline and the workspace adds no external
//! dependencies for error plumbing.

use std::fmt;

/// A scenario configuration or runtime error from either simulator.
///
/// `Display` messages are written to be actionable on their own (they name
/// the offending field, its value, and the constraint it violated), so CLI
/// layers can print them verbatim.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario has no senders: there is nothing to simulate.
    NoSenders,
    /// A scalar scenario parameter is outside its domain.
    InvalidParameter {
        /// Human-readable field name (e.g. `"duration_secs"`).
        field: &'static str,
        /// The offending value.
        value: f64,
        /// The constraint it violated, as prose (e.g. `"positive and finite"`).
        constraint: &'static str,
    },
    /// A per-sender parameter is outside its domain.
    InvalidSender {
        /// Index of the sender in the scenario (insertion order).
        index: usize,
        /// Human-readable field name.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// The constraint it violated.
        constraint: &'static str,
    },
    /// A loss/fault model's parameters are invalid.
    InvalidLossModel(String),
    /// Two scenario options cannot be combined.
    ConflictingOptions {
        /// The first option, as configured.
        first: &'static str,
        /// The second, incompatible option.
        second: &'static str,
    },
    /// The simulation produced a non-finite quantity (NaN windows from a
    /// protocol, degenerate link arithmetic, …). Carrying the step and
    /// sender makes the diagnostic actionable instead of silently emitting
    /// a garbage trace.
    NumericalDivergence {
        /// Simulation step (fluid) at which the guard tripped.
        step: u64,
        /// Sender index whose quantity went non-finite.
        sender: usize,
        /// What diverged (e.g. `"requested window"`).
        context: &'static str,
        /// The offending value (NaN or ±∞).
        value: f64,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoSenders => {
                write!(f, "scenario needs at least one sender; none were added")
            }
            ScenarioError::InvalidParameter {
                field,
                value,
                constraint,
            } => {
                write!(
                    f,
                    "scenario parameter {field} = {value} is invalid: must be {constraint}"
                )
            }
            ScenarioError::InvalidSender {
                index,
                field,
                value,
                constraint,
            } => {
                write!(
                    f,
                    "sender {index}: {field} = {value} is invalid: must be {constraint}"
                )
            }
            ScenarioError::InvalidLossModel(msg) => write!(f, "invalid loss model: {msg}"),
            ScenarioError::ConflictingOptions { first, second } => {
                write!(
                    f,
                    "options {first} and {second} are mutually exclusive; choose one, not both"
                )
            }
            ScenarioError::NumericalDivergence {
                step,
                sender,
                context,
                value,
            } => {
                write!(
                    f,
                    "numerical divergence at step {step}, sender {sender}: {context} became \
                     {value}; aborting instead of emitting a garbage trace (check the \
                     protocol's arithmetic and the link parameters)"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioError {
    /// This refusal attributed to sender `index`: an
    /// [`InvalidParameter`](Self::InvalidParameter) becomes an
    /// [`InvalidSender`](Self::InvalidSender); other errors pass through.
    #[must_use]
    pub fn for_sender(self, index: usize) -> Self {
        match self {
            ScenarioError::InvalidParameter {
                field,
                value,
                constraint,
            } => ScenarioError::InvalidSender {
                index,
                field,
                value,
                constraint,
            },
            other => other,
        }
    }
}

/// `Ok` when `ok` holds, else the [`ScenarioError::InvalidParameter`]
/// refusal of `value` for `field`: the one spelling of a domain check.
pub fn require(
    ok: bool,
    field: &'static str,
    value: f64,
    constraint: &'static str,
) -> Result<(), ScenarioError> {
    if ok {
        return Ok(());
    }
    Err(ScenarioError::InvalidParameter {
        field,
        value,
        constraint,
    })
}

/// [`require`] that `value` is positive and finite.
pub fn positive_finite(field: &'static str, value: f64) -> Result<(), ScenarioError> {
    let ok = value > 0.0 && value.is_finite();
    require(ok, field, value, "positive and finite")
}

/// [`require`] that `value` is finite and non-negative.
pub fn finite_non_negative(field: &'static str, value: f64) -> Result<(), ScenarioError> {
    let ok = value >= 0.0 && value.is_finite();
    require(ok, field, value, "finite and >= 0")
}

/// Largest step count a run may ask for at a front door: the CLI's
/// `--steps` and the daemon's eval `steps`. Together with
/// [`MAX_SENDERS`] it bounds the work and the trace one request can
/// demand; DESIGN.md §5 gives the reason for both values.
pub const MAX_STEPS: usize = 1_000_000;

/// Largest flow count a run may ask for at a front door: the CLI's
/// `--senders`, `--hops`, `--n-challengers` and `run --protocols`, and
/// the daemon's eval `protocols`.
pub const MAX_SENDERS: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = ScenarioError::InvalidParameter {
            field: "duration_secs",
            value: -1.0,
            constraint: "positive and finite",
        };
        let msg = e.to_string();
        assert!(msg.contains("duration_secs"), "{msg}");
        assert!(msg.contains("-1"), "{msg}");
        assert!(msg.contains("positive and finite"), "{msg}");
    }

    #[test]
    fn legacy_panic_substrings_survive() {
        // Tests (and downstream users) match on these substrings; the
        // panicking run() paths print Display, so they must be stable.
        assert!(ScenarioError::NoSenders
            .to_string()
            .contains("at least one sender"));
        assert!(ScenarioError::ConflictingOptions {
            first: "RED",
            second: "ECN"
        }
        .to_string()
        .contains("not both"));
        assert!(ScenarioError::InvalidLossModel("rate 1.5".into())
            .to_string()
            .contains("invalid loss model"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&ScenarioError::NoSenders);
    }

    #[test]
    fn divergence_carries_diagnostics() {
        let e = ScenarioError::NumericalDivergence {
            step: 42,
            sender: 1,
            context: "requested window",
            value: f64::NAN,
        };
        let msg = e.to_string();
        assert!(msg.contains("step 42"), "{msg}");
        assert!(msg.contains("sender 1"), "{msg}");
        assert!(msg.contains("requested window"), "{msg}");
    }
}
