//! Hostile input over the CLI's front door, in process: every link flag
//! (and `--wire-loss`, where the command takes it) of every scenario
//! command, given each value from {NaN, ±∞, −1, 0, 10⁻³⁰⁰, 10³⁰⁰}, must
//! come back as output or a usage error — never a panic. The refusals the
//! front door owes are pinned to their typed messages.

use axcc_cli::{dispatch, Args, CliError};
use axcc_core::error::MAX_SENDERS;
use std::panic::{catch_unwind, AssertUnwindSafe};

const VALUES: [&str; 7] = ["NaN", "inf", "-inf", "-1", "0", "1e-300", "1e300"];

/// Each command with a small budget, and the numeric flags it takes.
const COMMANDS: [(&str, &[&str]); 7] = [
    (
        "run --protocols reno,cubic --steps 20",
        &["bw-mbps", "rtt-ms", "buffer", "wire-loss"],
    ),
    (
        "run --protocols reno --packet --duration 0.5",
        &["wire-loss"],
    ),
    (
        "score --protocol reno --steps 20",
        &["bw-mbps", "rtt-ms", "buffer"],
    ),
    (
        "compare --challenger pcc --defender reno --steps 20",
        &["bw-mbps", "rtt-ms", "buffer"],
    ),
    ("characterize --steps 20", &["bw-mbps", "rtt-ms", "buffer"]),
    (
        "network --protocol reno --hops 2 --steps 20",
        &["bw-mbps", "rtt-ms", "buffer"],
    ),
    (
        "feasible --fast 1 --eff 0.5",
        &["bw-mbps", "rtt-ms", "buffer"],
    ),
];

/// Parse and dispatch `line`, catching a panic as `Err(message)`.
fn probe(line: &str) -> Result<Result<String, CliError>, String> {
    let args = Args::parse(line.split_whitespace().map(String::from))
        .map_err(|e| format!("{line}: does not parse: {e}"))?;
    catch_unwind(AssertUnwindSafe(|| dispatch(&args))).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{line}: panicked: {msg}")
    })
}

fn usage_error(line: &str) -> String {
    match probe(line) {
        Ok(Err(CliError::Usage(msg))) => msg,
        Ok(Err(CliError::Failed(msg))) => panic!("{line}: runtime failure, not usage: {msg}"),
        Ok(Ok(out)) => panic!("{line}: accepted:\n{out}"),
        Err(panic) => panic!("{panic}"),
    }
}

#[test]
fn hostile_numeric_flags_never_panic() {
    let mut failures = Vec::new();
    for (command, flags) in COMMANDS {
        for flag in flags {
            for value in VALUES {
                let line = format!("{command} --{flag} {value}");
                match probe(&line) {
                    Ok(Ok(_) | Err(CliError::Usage(_))) => {}
                    Ok(Err(CliError::Failed(msg))) => {
                        failures.push(format!("{line}: runtime failure: {msg}"));
                    }
                    Err(panic) => failures.push(panic),
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn malformed_links_are_typed_usage_errors() {
    for (line, field) in [
        (
            "run --protocols reno --steps 50 --buffer NaN",
            "link.buffer = NaN",
        ),
        (
            "run --protocols reno --steps 50 --rtt-ms NaN",
            "link.prop_delay = NaN",
        ),
        (
            "run --protocols reno --steps 50 --bw-mbps NaN",
            "link.bandwidth = NaN",
        ),
        ("network --buffer NaN --steps 50", "link.buffer = NaN"),
        ("feasible --buffer NaN", "link.buffer = NaN"),
        (
            "score --protocol reno --steps 50 --rtt-ms inf",
            "link.prop_delay = inf",
        ),
    ] {
        let msg = usage_error(line);
        assert!(msg.contains(field), "{line}: {msg}");
    }
}

#[test]
fn out_of_range_wire_loss_is_refused_by_both_engines() {
    for line in [
        "run --protocols reno --steps 50 --wire-loss NaN",
        "run --protocols reno --steps 50 --wire-loss -0.5",
        "run --protocols reno --packet --duration 1 --wire-loss -0.5",
        "run --protocols reno --packet --duration 1 --wire-loss 1",
    ] {
        let msg = usage_error(line);
        assert!(msg.contains("invalid loss model"), "{line}: {msg}");
    }
}

#[test]
fn zero_senders_is_a_usage_error() {
    for line in [
        "score --protocol reno --senders 0 --steps 50",
        "characterize --senders 0 --steps 50",
    ] {
        let msg = usage_error(line);
        assert!(
            msg.contains("--senders must be at least 1"),
            "{line}: {msg}"
        );
    }
}

#[test]
fn counts_that_size_a_run_are_bounded_before_anything_runs() {
    // Each line would run (or allocate) for ages if it were admitted, so
    // a passing test shows the refusal comes first.
    let max = usize::MAX;
    for (line, flag) in [
        (format!("run --protocols reno --steps {max}"), "--steps"),
        (format!("score --protocol reno --steps {max}"), "--steps"),
        (
            format!("score --protocol reno --senders {max}"),
            "--senders",
        ),
        (format!("characterize --senders {max}"), "--senders"),
        (
            format!("compare --challenger pcc --n-challengers {max}"),
            "--n-challengers",
        ),
        (format!("network --hops {max}"), "--hops"),
        (format!("network --steps {max}"), "--steps"),
        (
            format!(
                "run --protocols {}",
                vec!["reno"; MAX_SENDERS + 1].join(",")
            ),
            "--protocols",
        ),
    ] {
        let msg = usage_error(&line);
        assert!(msg.starts_with(&format!("{flag} must")), "{line}: {msg}");
        assert!(msg.contains("at most"), "{line}: {msg}");
    }
}
