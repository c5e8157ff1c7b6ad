//! Per-crate policy: which rule families apply to which workspace files.
//!
//! The policy is keyed on workspace-relative paths so it works unchanged
//! on fixture trees that mimic the workspace layout (see
//! `tests/fixtures/`). The intent per tier:
//!
//! * **Deterministic core** (`core`, `topo`, `fluidsim`, `packetsim`,
//!   `protocols`, `analysis`, `cli`, the root facade): every rule. These
//!   crates compute paper artifacts; a panic, NaN mis-sort, wall-clock
//!   read, or raw unit literal there invalidates results. In particular
//!   `crates/topo` draws churn schedules: all of its randomness must flow
//!   through a seeded RNG — `thread_rng`/`from_entropy` there would make
//!   every churn experiment unreproducible, so the determinism family is
//!   load-bearing and never waived for it.
//! * **Sweep engine** (`crates/sweep`): every rule, but the
//!   thread-spawning determinism patterns are waived — its worker pool
//!   reassembles results in submission order, so scheduling can never
//!   reach an output. Thread use anywhere else is still flagged.
//! * **Evaluation daemon** (`crates/serve`): every rule, with the thread
//!   and wall-clock determinism patterns waived (a server *is* about wall
//!   time and concurrency; neither feeds back into simulation results)
//!   and `catch_unwind` permitted only in `worker.rs`, the job boundary
//!   that converts a panicking scenario into a typed error response.
//! * **Examples**: pattern rules but no crate-root hygiene (they are
//!   single files, not crates).
//! * **Tooling** (`xtask` itself): determinism and hygiene; the tool
//!   reports through `Result` but is not part of the simulation TCB.
//! * **Test code** (`tests/`, `#[cfg(test)]`): exempt —
//!   tests may unwrap, compare exact floats, and use ad-hoc literals.

use crate::rules::{HygieneKind, RuleSet};

/// What `axcc-tidy` should do with one workspace file.
#[derive(Debug, Clone, Copy)]
pub struct FilePolicy {
    /// Pattern rules to run on non-test lines.
    pub rules: RuleSet,
    /// File-level hygiene conventions.
    pub hygiene_kind: HygieneKind,
    /// Whether this is the module allowed to spell unit-conversion
    /// factors (`crates/core/src/units.rs`).
    pub is_units_module: bool,
}

/// Classify a workspace-relative, `/`-separated path. `None` means the
/// file is out of scope (vendored code, test suites, fixtures).
pub fn policy_for(rel_path: &str) -> Option<FilePolicy> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    if rel_path.starts_with("vendor/")
        || rel_path.starts_with("target/")
        || rel_path.starts_with("tests/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/fixtures/")
    {
        return None;
    }

    let all = RuleSet {
        determinism: true,
        nan_safety: true,
        panic_freedom: true,
        unit_safety: true,
        hygiene: true,
        trace_discipline: true,
        // Every fingerprinted type, wherever it lives, must cover its
        // fields; the blanket unordered-type ban stays on in the
        // deterministic core (so nondet-iteration would be redundant
        // there and stays off).
        fingerprint_coverage: true,
        ..RuleSet::default()
    };

    let (rules, hygiene_kind) = if rel_path.starts_with("crates/serve/") {
        // The evaluation daemon lives in wall-clock time by design
        // (deadlines, idle timeouts, latency percentiles) and runs
        // connection/worker threads whose outputs are per-request, never
        // merged into a result ordering. The `catch_unwind` waiver is
        // narrower still: only the worker's job boundary — the one place
        // a poisoned scenario is converted into a typed error response —
        // may catch a panic.
        (
            RuleSet {
                allow_threads: true,
                allow_wall_clock: true,
                allow_catch_unwind: rel_path == "crates/serve/src/worker.rs",
                // Real locks cross real threads here: the lock-discipline
                // family guards the worker/timekeeper/queue lock graph.
                // Unordered maps are fine for connection bookkeeping, so
                // the blanket ban yields to scope-aware iteration checks.
                lock_discipline: true,
                nondet_iteration: true,
                allow_unordered_types: true,
                ..all
            },
            hygiene_kind_for(rel_path),
        )
    } else if rel_path.starts_with("crates/sweep/") {
        // The sweep crate's ordered worker pool is the one sanctioned
        // home for threads: results are reassembled in submission order,
        // so scheduling nondeterminism cannot reach any output. All
        // other rules still apply in full, plus the lock-discipline
        // family (the result cache and progress meter hold locks across
        // worker threads) and scope-aware iteration checks in place of
        // the blanket unordered-type ban.
        (
            RuleSet {
                allow_threads: true,
                lock_discipline: true,
                nondet_iteration: true,
                allow_unordered_types: true,
                ..all
            },
            hygiene_kind_for(rel_path),
        )
    } else if rel_path.starts_with("crates/xtask/") {
        (
            RuleSet {
                determinism: true,
                hygiene: true,
                ..RuleSet::default()
            },
            hygiene_kind_for(rel_path),
        )
    } else if rel_path.starts_with("examples/") {
        (
            RuleSet {
                hygiene: false,
                ..all
            },
            HygieneKind::Plain,
        )
    } else if rel_path.starts_with("crates/") || rel_path.starts_with("src/") {
        (all, hygiene_kind_for(rel_path))
    } else {
        return None;
    };

    // The shared trace sink is the one sanctioned place that assembles a
    // `RunTrace` from recorded columns; everywhere else, both engines
    // included, a literal construction bypasses the one scoring path.
    let rules = if rel_path == "crates/core/src/sink.rs" {
        RuleSet {
            trace_discipline: false,
            ..rules
        }
    } else {
        rules
    };

    // The fluid simulator's step loops (`for t in …`) are the hot path
    // the SoA refactor vectorized: any per-step heap allocation there is
    // a performance regression, so the step-loop-alloc family keeps them
    // allocation-free.
    let rules = if rel_path.starts_with("crates/fluidsim/") {
        RuleSet {
            step_alloc: true,
            ..rules
        }
    } else {
        rules
    };

    Some(FilePolicy {
        rules,
        hygiene_kind,
        is_units_module: rel_path == "crates/core/src/units.rs",
    })
}

/// Crate roots get header checks; experiment modules get artifact-citation
/// checks; everything else has no file-level conventions.
fn hygiene_kind_for(rel_path: &str) -> HygieneKind {
    let is_crate_root = rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/")
            && rel_path.ends_with("/src/lib.rs")
            && rel_path.matches('/').count() == 3);
    if is_crate_root {
        HygieneKind::CrateRoot
    } else if rel_path.contains("/src/experiments/") {
        HygieneKind::ExperimentModule
    } else {
        HygieneKind::Plain
    }
}

/// The manifest whose `[lints] workspace = true` opt-in covers
/// `rel_path`, when the file is a crate root (manifest drift is checked
/// once per crate, at its root).
pub fn manifest_for(rel_path: &str) -> Option<String> {
    if rel_path == "src/lib.rs" {
        return Some("Cargo.toml".to_string());
    }
    let rest = rel_path.strip_prefix("crates/")?;
    let crate_name = rest.strip_suffix("/src/lib.rs")?;
    Some(format!("crates/{crate_name}/Cargo.toml"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_gets_every_rule() {
        let p = policy_for("crates/fluidsim/src/engine.rs").unwrap();
        assert!(p.rules.determinism && p.rules.nan_safety && p.rules.panic_freedom);
        assert!(p.rules.unit_safety && p.rules.hygiene);
        assert_eq!(p.hygiene_kind, HygieneKind::Plain);
    }

    #[test]
    fn only_the_sweep_crate_may_spawn_threads() {
        let sweep = policy_for("crates/sweep/src/pool.rs").unwrap();
        assert!(sweep.rules.allow_threads);
        // …with every other rule family still in force there.
        assert!(sweep.rules.determinism && sweep.rules.panic_freedom);
        assert!(sweep.rules.nan_safety && sweep.rules.unit_safety && sweep.rules.hygiene);
        for other in [
            "crates/fluidsim/src/engine.rs",
            "crates/analysis/src/experiments/table2.rs",
            "crates/cli/src/commands.rs",
            "crates/xtask/src/runner.rs",
            "src/lib.rs",
            "examples/quickstart.rs",
        ] {
            assert!(
                !policy_for(other).unwrap().rules.allow_threads,
                "{other} must not be thread-exempt"
            );
        }
    }

    #[test]
    fn only_the_trace_sink_may_build_runtraces() {
        let p = policy_for("crates/core/src/sink.rs").unwrap();
        assert!(
            !p.rules.trace_discipline,
            "sink.rs holds the sanctioned sink"
        );
        // …with every other rule family still in force there.
        assert!(p.rules.determinism && p.rules.panic_freedom && p.rules.nan_safety);
        for other in [
            "crates/fluidsim/src/engine.rs",
            "crates/packetsim/src/engine.rs",
            "crates/core/src/trace.rs",
            "crates/analysis/src/estimators.rs",
            "crates/sweep/src/runner.rs",
            "examples/quickstart.rs",
            "src/lib.rs",
        ] {
            assert!(
                policy_for(other).unwrap().rules.trace_discipline,
                "{other} must not construct RunTrace directly"
            );
        }
    }

    #[test]
    fn serve_waivers_are_scoped() {
        // The daemon may use threads and wall clocks everywhere…
        let server = policy_for("crates/serve/src/server.rs").unwrap();
        assert!(server.rules.allow_threads && server.rules.allow_wall_clock);
        // …but catch_unwind only at the worker's job boundary.
        assert!(!server.rules.allow_catch_unwind);
        let worker = policy_for("crates/serve/src/worker.rs").unwrap();
        assert!(worker.rules.allow_catch_unwind);
        // Every other rule family stays in force.
        assert!(worker.rules.panic_freedom && worker.rules.nan_safety);
        assert!(worker.rules.determinism && worker.rules.unit_safety);
        // No other crate gets either waiver.
        for other in [
            "crates/sweep/src/pool.rs",
            "crates/cli/src/commands.rs",
            "crates/fluidsim/src/engine.rs",
            "src/lib.rs",
        ] {
            let p = policy_for(other).unwrap();
            assert!(
                !p.rules.allow_wall_clock,
                "{other} must not be clock-exempt"
            );
            assert!(!p.rules.allow_catch_unwind, "{other} must not catch panics");
        }
    }

    #[test]
    fn lock_discipline_covers_exactly_the_threaded_crates() {
        for locked in ["crates/serve/src/server.rs", "crates/sweep/src/cache.rs"] {
            let p = policy_for(locked).unwrap();
            assert!(p.rules.lock_discipline, "{locked} holds cross-thread locks");
            assert!(p.rules.nondet_iteration && p.rules.allow_unordered_types);
        }
        for other in [
            "crates/core/src/fingerprint.rs",
            "crates/analysis/src/experiments/table2.rs",
            "crates/xtask/src/runner.rs",
            "src/lib.rs",
        ] {
            let p = policy_for(other).unwrap();
            assert!(!p.rules.lock_discipline, "{other} has no sanctioned locks");
            assert!(
                !p.rules.allow_unordered_types,
                "{other} keeps the blanket unordered-type ban"
            );
        }
    }

    #[test]
    fn fingerprint_coverage_runs_in_the_deterministic_core() {
        for covered in [
            "crates/core/src/fingerprint.rs",
            "crates/analysis/src/experiments/frontier.rs",
            "crates/serve/src/protocol.rs",
            "crates/sweep/src/runner.rs",
        ] {
            assert!(
                policy_for(covered).unwrap().rules.fingerprint_coverage,
                "{covered} declares or fingerprints cache-keyed types"
            );
        }
        // Tooling declares no fingerprinted types; the family is off.
        assert!(
            !policy_for("crates/xtask/src/runner.rs")
                .unwrap()
                .rules
                .fingerprint_coverage
        );
    }

    #[test]
    fn churn_randomness_must_be_seeded() {
        // `crates/topo` generates churn schedules from an RNG; the
        // determinism family (which bans `thread_rng` / `from_entropy` /
        // wall clocks) must cover every file, with no waiver — an
        // entropy-seeded plan would make churn experiments
        // unreproducible.
        for file in [
            "crates/topo/src/lib.rs",
            "crates/topo/src/churn.rs",
            "crates/topo/src/topology.rs",
        ] {
            let p = policy_for(file).unwrap();
            assert!(p.rules.determinism, "{file} must run determinism checks");
            assert!(!p.rules.allow_wall_clock, "{file} must not read clocks");
            assert!(!p.rules.allow_threads, "{file} must not spawn threads");
            // Topology and ChurnPlan are cache-keyed: every field must
            // reach the fingerprint, so sweep results can never go stale.
            assert!(
                p.rules.fingerprint_coverage,
                "{file} fingerprints cache-keyed types"
            );
        }
        assert_eq!(
            policy_for("crates/topo/src/lib.rs").unwrap().hygiene_kind,
            HygieneKind::CrateRoot
        );
        assert_eq!(
            manifest_for("crates/topo/src/lib.rs").as_deref(),
            Some("crates/topo/Cargo.toml")
        );
    }

    #[test]
    fn step_loop_alloc_covers_exactly_the_fluid_simulator() {
        assert!(
            policy_for("crates/fluidsim/src/engine.rs")
                .unwrap()
                .rules
                .step_alloc,
            "the fluid engine holds the step loop"
        );
        for other in [
            "crates/core/src/axioms/streaming.rs",
            "crates/packetsim/src/engine.rs",
            "crates/analysis/src/experiments/table1.rs",
            "src/lib.rs",
        ] {
            assert!(
                !policy_for(other).unwrap().rules.step_alloc,
                "{other} is outside the step-loop-alloc scope"
            );
        }
    }

    #[test]
    fn crate_roots_and_experiments_are_classified() {
        assert_eq!(
            policy_for("crates/core/src/lib.rs").unwrap().hygiene_kind,
            HygieneKind::CrateRoot
        );
        assert_eq!(
            policy_for("src/lib.rs").unwrap().hygiene_kind,
            HygieneKind::CrateRoot
        );
        assert_eq!(
            policy_for("crates/analysis/src/experiments/table1.rs")
                .unwrap()
                .hygiene_kind,
            HygieneKind::ExperimentModule
        );
    }

    #[test]
    fn out_of_scope_paths_are_skipped() {
        assert!(policy_for("vendor/rand/src/lib.rs").is_none());
        assert!(policy_for("crates/fluidsim/tests/engine_properties.rs").is_none());
        assert!(policy_for("tests/determinism.rs").is_none());
        assert!(policy_for("crates/xtask/tests/fixtures/bad/crates/core/src/x.rs").is_none());
        assert!(policy_for("README.md").is_none());
    }

    #[test]
    fn units_module_is_exempt_from_unit_safety() {
        assert!(
            policy_for("crates/core/src/units.rs")
                .unwrap()
                .is_units_module
        );
        assert!(
            !policy_for("crates/core/src/link.rs")
                .unwrap()
                .is_units_module
        );
    }

    #[test]
    fn manifest_mapping() {
        assert_eq!(
            manifest_for("crates/core/src/lib.rs").as_deref(),
            Some("crates/core/Cargo.toml")
        );
        assert_eq!(manifest_for("src/lib.rs").as_deref(), Some("Cargo.toml"));
        assert_eq!(manifest_for("crates/core/src/link.rs"), None);
    }
}
