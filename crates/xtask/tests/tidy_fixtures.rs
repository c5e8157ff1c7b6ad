//! `axcc-tidy` end-to-end over the fixture corpora: every rule family
//! must produce at least one finding on the `bad` tree and none on the
//! `clean` tree (which exercises the negative case for each rule:
//! blanked strings/comments, `#[cfg(test)]` exemption, justified
//! suppressions, units-layer conversions, manifest opt-in).

#![allow(clippy::expect_used)] // fixture I/O failures should abort the suite loudly

use std::path::PathBuf;
use xtask::{run_tidy, Diagnostic, Rule};

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

fn tidy(which: &str) -> Vec<Diagnostic> {
    run_tidy(&fixture_root(which)).expect("fixture tree is readable")
}

#[track_caller]
fn assert_finding(diags: &[Diagnostic], file: &str, rule: Rule, msg_part: &str) {
    assert!(
        diags
            .iter()
            .any(|d| d.file == file && d.rule == rule && d.message.contains(msg_part)),
        "expected a {rule:?} finding in {file} mentioning {msg_part:?}; got:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn bad_fixture_trips_every_rule_family() {
    let diags = tidy("bad");
    let engine = "crates/sim/src/engine.rs";

    // Determinism: unordered map, wall-clock, unseeded RNG.
    assert_finding(&diags, engine, Rule::Determinism, "`HashMap`");
    assert_finding(&diags, engine, Rule::Determinism, "`Instant::now`");
    assert_finding(&diags, engine, Rule::Determinism, "`thread_rng`");
    assert_finding(&diags, engine, Rule::Determinism, "worker pool");

    // NaN-safety: partial_cmp ordering and bare float equality.
    assert_finding(&diags, engine, Rule::NanSafety, "partial_cmp");
    assert_finding(&diags, engine, Rule::NanSafety, "bare float equality");

    // Panic-freedom: unwrap and expect.
    assert_finding(&diags, engine, Rule::PanicFreedom, "`.unwrap()`");
    assert_finding(&diags, engine, Rule::PanicFreedom, "`.expect(`");

    // Unit-safety: inline conversion factors.
    assert_finding(&diags, engine, Rule::UnitSafety, "`1_000_000.0`");
    assert_finding(&diags, engine, Rule::UnitSafety, "`1500.0`");

    // Hygiene: headerless crate root, opt-out manifest, missing manifest,
    // citation-free experiment module.
    let root = "crates/sim/src/lib.rs";
    assert_finding(&diags, root, Rule::Hygiene, "must open with `//!`");
    assert_finding(&diags, root, Rule::Hygiene, "#![forbid(unsafe_code)]");
    assert_finding(
        &diags,
        "crates/sim/Cargo.toml",
        Rule::Hygiene,
        "opt into shared lint policy",
    );
    assert_finding(
        &diags,
        "crates/nomanifest/Cargo.toml",
        Rule::Hygiene,
        "no Cargo.toml",
    );
    assert_finding(
        &diags,
        "crates/sim/src/experiments/run.rs",
        Rule::Hygiene,
        "cite the paper artifact",
    );

    // Meta-rule: malformed suppressions.
    assert_finding(&diags, engine, Rule::TidyAllow, "unknown rule id");
    assert_finding(&diags, engine, Rule::TidyAllow, "requires a justification");

    // Library code after a `#[cfg(test)]` module is not exempt (regression
    // for the latched test-region bug), while the module itself is.
    let after = diags
        .iter()
        .filter(|d| d.file == engine && d.rule == Rule::PanicFreedom)
        .map(|d| d.line)
        .max()
        .expect("panic-freedom findings exist");
    let src = std::fs::read_to_string(fixture_root("bad").join(engine)).expect("engine fixture");
    let tagged: Vec<_> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("after_tests") || l.contains("fn exempt"))
        .collect();
    let after_tests_line = tagged
        .iter()
        .find(|(_, l)| l.contains("pub fn after_tests"))
        .expect("fixture has after_tests")
        .0
        + 1;
    assert!(
        after > after_tests_line,
        "the unwrap inside after_tests (below line {after_tests_line}) must be flagged; \
         last panic-freedom finding was at line {after}"
    );
}

#[test]
fn bad_fixture_trips_the_parser_backed_families() {
    let diags = tidy("bad");
    let locks = "crates/serve/src/locks.rs";

    // Lock-discipline: `submit` takes queue→stats while `snapshot` takes
    // stats→queue — the inversion is reported at both sites (this is the
    // acceptance demo: reordering two Mutex acquisitions fails the gate)…
    let inversions = diags
        .iter()
        .filter(|d| d.file == locks && d.rule == Rule::LockDiscipline)
        .filter(|d| d.message.contains("opposite order"))
        .count();
    assert_eq!(inversions, 2, "one finding per direction of the inversion");
    // …plus the blocking receive under a live guard…
    assert_finding(&diags, locks, Rule::LockDiscipline, "channel `recv`");
    // …and the re-entrant double-lock.
    assert_finding(&diags, locks, Rule::LockDiscipline, "not re-entrant");

    // Dispatch-loop regression: the sweep fixture's claim loop takes the
    // slot lock and sends a per-job completion message; both sites fire.
    let pool = "crates/sweep/src/pool.rs";
    assert_finding(&diags, pool, Rule::LockDiscipline, "per-job `.lock(`");
    assert_finding(&diags, pool, Rule::LockDiscipline, "per-job `.send(`");

    // Nondet-iteration: rendering and float-summing in map order.
    let nondet = "crates/sweep/src/nondet.rs";
    assert_finding(&diags, nondet, Rule::NondetIteration, "`push_str`");
    assert_finding(&diags, nondet, Rule::NondetIteration, "`sum`");

    // Fingerprint-coverage: the skipped field, at its declaration line.
    let fp = "crates/sim/src/fp.rs";
    assert_finding(&diags, fp, Rule::FingerprintCoverage, "`steps`");
    let field_line = diags
        .iter()
        .find(|d| d.file == fp && d.rule == Rule::FingerprintCoverage)
        .expect("coverage finding exists")
        .line;
    let src = std::fs::read_to_string(fixture_root("bad").join(fp)).expect("fp fixture");
    assert!(
        src.lines()
            .nth(field_line - 1)
            .is_some_and(|l| l.contains("steps: usize")),
        "the finding must anchor at the field declaration, not the impl"
    );

    // Stale suppressions: a dead inline allow and two dead policy waivers.
    assert_finding(
        &diags,
        nondet,
        Rule::Hygiene,
        "stale `tidy-allow: determinism`",
    );
    assert_finding(
        &diags,
        "crates/serve/src/lib.rs",
        Rule::Hygiene,
        "wall-clock",
    );
    assert_finding(&diags, "crates/sweep/src/lib.rs", Rule::Hygiene, "thread");
}

#[test]
fn bad_fixture_trips_the_step_loop_alloc_rule() {
    let diags = tidy("bad");
    let hotloop = "crates/fluidsim/src/hotloop.rs";

    // Every allocation pattern inside the `for t in …` body fires…
    assert_finding(&diags, hotloop, Rule::StepAlloc, "`vec![`");
    assert_finding(&diags, hotloop, Rule::StepAlloc, "`.collect(`");
    assert_finding(&diags, hotloop, Rule::StepAlloc, "`.to_vec()`");
    assert_finding(&diags, hotloop, Rule::StepAlloc, "`.push(`");

    // …and so does the `.push(` inside the `fn step_…` helper the loop
    // calls…
    let src = std::fs::read_to_string(fixture_root("bad").join(hotloop)).expect("hotloop fixture");
    let helper_push = src
        .lines()
        .position(|l| l.contains("log.push("))
        .expect("fixture has a step helper")
        + 1;
    assert!(
        diags.iter().any(|d| d.file == hotloop
            && d.rule == Rule::StepAlloc
            && d.line == helper_push
            && d.message.contains("`.push(`")),
        "allocation inside a step helper must be flagged"
    );

    // …while the with_capacity on the hoisted accumulator (before the
    // loop) does not.
    let hoisted_line = src
        .lines()
        .position(|l| l.contains("with_capacity"))
        .expect("fixture hoists an accumulator")
        + 1;
    assert!(
        !diags
            .iter()
            .any(|d| d.file == hotloop && d.rule == Rule::StepAlloc && d.line == hoisted_line),
        "allocation before the step loop must not be flagged"
    );

    // The family is scoped to the fluid simulator: the sim crate's
    // engine fixture never produces step-loop-alloc findings.
    assert!(
        !diags
            .iter()
            .any(|d| d.file.starts_with("crates/sim/") && d.rule == Rule::StepAlloc),
        "step-loop-alloc must not fire outside crates/fluidsim"
    );
}

#[test]
fn bad_fixture_findings_are_sorted_and_deduped() {
    let diags = tidy("bad");
    // Sorted by (file, line, rule) — two findings may share that key
    // (e.g. two distinct unit literals on one line), so the key sequence
    // is non-decreasing rather than strictly increasing.
    let keys: Vec<_> = diags
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics must be sorted");
    // …but no diagnostic is emitted twice verbatim.
    for (i, d) in diags.iter().enumerate() {
        assert!(!diags[..i].contains(d), "duplicate diagnostic emitted: {d}");
    }
}

#[test]
fn clean_fixture_is_tidy() {
    let diags = tidy("clean");
    assert!(
        diags.is_empty(),
        "clean fixture must produce no findings; got:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
