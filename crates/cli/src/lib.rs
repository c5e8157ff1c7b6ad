//! # axcc-cli — command-line front end for the axiomatic framework
//!
//! One binary, `axcc`, that exposes the whole repository to the shell:
//!
//! ```text
//! axcc run       --protocols reno,cubic [--bw-mbps 20 --rtt-ms 42 --buffer 100]
//!                [--steps 2000 | --packet --duration 30] [--wire-loss 0.01]
//! axcc score     --protocol pcc [link flags] [--steps 3000]
//! axcc compare   --challenger pcc --defender reno [link flags]
//! axcc sweep     --only n1,n2,… [--jobs N --smoke --no-cache]
//! axcc run-all   [--jobs N --smoke --out-dir results/]
//! axcc serve     [--addr H:P --workers N]
//! axcc list                            # protocol + experiment registries
//! axcc help
//! ```
//!
//! Every paper artifact (Table 1, Table 2, Figure 1, the theorem checks,
//! the §5.1 validation grid, §5.2's shootout) and every extension study is
//! an entry in the experiment registry, run by name through `sweep` or
//! all together through `run-all`.
//!
//! Every command is a pure function from arguments to an output string
//! (plus an exit code), which is what makes the CLI testable end-to-end
//! without spawning processes.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod args;
mod commands;

pub use args::{ArgError, Args};
pub use commands::{dispatch, CliError, HELP};

/// Run the CLI against a raw argument vector; returns (exit code, output).
/// Errors are rendered into the output so `main` stays trivial.
pub fn run<I: IntoIterator<Item = String>>(raw: I) -> (i32, String) {
    let parsed = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => return (2, format!("error: {e}\n\n{HELP}")),
    };
    match dispatch(&parsed) {
        Ok(out) => (0, out),
        Err(CliError::Usage(msg)) => (2, format!("error: {msg}\n\n{HELP}")),
        Err(CliError::Failed(msg)) => (1, format!("error: {msg}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(s: &str) -> (i32, String) {
        run(s.split_whitespace().map(String::from))
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = cli("help");
        assert_eq!(code, 0);
        assert!(out.contains("axcc run"));
        assert!(out.contains("axcc sweep"));
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let (code, out) = cli("frobnicate");
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn list_shows_registry() {
        let (code, out) = cli("list");
        assert_eq!(code, 0);
        assert!(out.contains("reno"));
        assert!(out.contains("robust-aimd"));
        assert!(out.contains("aimd(a,b)"));
    }

    #[test]
    fn run_fluid_quick() {
        let (code, out) = cli("run --protocols reno,cubic --steps 400");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("AIMD(1,0.5)"), "{out}");
        assert!(out.contains("CUBIC(0.4,0.8)"), "{out}");
        assert!(out.contains("efficiency"), "{out}");
    }

    #[test]
    fn run_packet_quick() {
        let (code, out) = cli("run --protocols reno --packet --duration 5");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("packets"), "{out}");
    }

    #[test]
    fn run_packet_with_ecn() {
        let (code, out) = cli("run --protocols reno,reno --packet --duration 5 --ecn 20");
        assert_eq!(code, 0, "{out}");
        // ECN run on this short horizon stays loss-free.
        assert!(out.contains("loss bound 0.000"), "{out}");
    }

    #[test]
    fn ecn_requires_packet_backend() {
        let (code, out) = cli("run --protocols reno --ecn 20");
        assert_eq!(code, 2);
        assert!(out.contains("--packet"), "{out}");
    }

    #[test]
    fn run_rejects_unknown_protocol() {
        let (code, out) = cli("run --protocols sprout --steps 100");
        assert_eq!(code, 2);
        assert!(out.contains("sprout"), "{out}");
    }

    #[test]
    fn run_rejects_unknown_flag() {
        let (code, out) = cli("run --protocols reno --stepz 100");
        assert_eq!(code, 2);
        assert!(out.contains("stepz"), "{out}");
    }

    #[test]
    fn score_reports_eight_metrics() {
        let (code, out) = cli("score --protocol reno --steps 600");
        assert_eq!(code, 0, "{out}");
        for label in [
            "efficiency",
            "fast-util",
            "loss bound",
            "fairness",
            "convergence",
            "robustness",
            "tcp-friendliness",
            "latency",
        ] {
            assert!(out.contains(label), "missing {label} in {out}");
        }
    }

    #[test]
    fn compare_reports_friendliness() {
        let (code, out) = cli("compare --challenger aimd(2,0.5) --defender reno --steps 800");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("friendliness"), "{out}");
    }

    #[test]
    fn characterize_scores_full_lineup() {
        let (code, out) = cli("characterize --steps 500");
        assert_eq!(code, 0, "{out}");
        for name in ["AIMD(1,0.5)", "PCC", "Vegas(2,4)", "BBR", "TFRC"] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn feasible_flags_greedy_points() {
        let (code, out) = cli("feasible --fast 2 --eff 0.9 --friendly 1");
        assert_eq!(code, 0);
        assert!(out.contains("Theorem 2"), "{out}");
        let (code, out) = cli("feasible --fast 1 --eff 0.5 --friendly 1");
        assert_eq!(code, 0);
        assert!(out.contains("no theorem rules"), "{out}");
        assert!(!out.contains("  "), "stray spaces in {out:?}");
    }

    #[test]
    fn feasible_rejects_scores_outside_their_domains() {
        for bad in [
            "--fast 0 --eff 2 --friendly 1",
            "--eff -0.1",
            "--conv 1.5",
            "--conv NaN",
            "--fast -1",
            "--fast inf",
            "--friendly NaN",
            "--robust -0.01",
            "--loss -inf",
        ] {
            let (code, out) = cli(&format!("feasible {bad}"));
            assert_eq!(code, 2, "feasible {bad}: {out}");
            assert!(out.contains("must"), "feasible {bad}: {out}");
        }
        // The domain edges are accepted.
        let (code, out) = cli("feasible --fast 0 --eff 1 --conv 0 --friendly 0 --loss 0");
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn network_parking_lot_runs() {
        let (code, out) = cli("network --protocol reno --hops 2 --steps 800");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("long/short ratio"), "{out}");
        assert!(out.contains("hop 1 utilization"), "{out}");
    }

    #[test]
    fn run_dumps_csv() {
        let path = std::env::temp_dir().join("axcc_cli_test_trace.csv");
        let path_str = path.to_str().unwrap().to_string();
        let (code, out) = cli(&format!("run --protocols reno --steps 50 --csv {path_str}"));
        assert_eq!(code, 0, "{out}");
        let csv = std::fs::read_to_string(&path).expect("csv written");
        assert!(csv.starts_with("step,"));
        assert_eq!(csv.lines().count(), 51);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_runs_one_experiment() {
        let (code, out) = cli("sweep --only theorems --smoke --jobs 2 --no-cache");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Claim 1"), "{out}");
        assert!(out.contains("jobs over 2 workers"), "{out}");
    }

    #[test]
    fn sweep_requires_a_known_experiment() {
        let (code, out) = cli("sweep");
        assert_eq!(code, 2);
        assert!(out.contains("--only"), "{out}");
        let (code, out) = cli("sweep --only nope");
        assert_eq!(code, 2);
        assert!(out.contains("known: table1"), "{out}");
    }

    #[test]
    fn sweep_rejects_no_cache_with_cache_dir() {
        let (code, out) = cli("sweep --only theorems --no-cache --cache-dir /tmp/x");
        assert_eq!(code, 2);
        assert!(out.contains("mutually exclusive"), "{out}");
    }

    #[test]
    fn run_all_subset_writes_identical_reports_for_any_worker_count() {
        let base = std::env::temp_dir().join("axcc_cli_test_run_all");
        let serial = base.join("serial");
        let parallel = base.join("parallel");
        for (jobs, dir) in [(1, &serial), (8, &parallel)] {
            let (code, out) = cli(&format!(
                "run-all --only theorems --smoke --jobs {jobs} --no-cache --out-dir {}",
                dir.display()
            ));
            assert_eq!(code, 0, "{out}");
            assert!(out.contains("theorems     ok"), "{out}");
            assert!(out.contains("hit rate"), "{out}");
        }
        let a = std::fs::read_to_string(serial.join("theorems.txt")).unwrap();
        let b = std::fs::read_to_string(parallel.join("theorems.txt")).unwrap();
        assert_eq!(a, b, "parallel report must be byte-identical to serial");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn run_all_rejects_unknown_subset_names() {
        let (code, out) = cli("run-all --only theorems,bogus --smoke");
        assert_eq!(code, 2);
        assert!(out.contains("bogus"), "{out}");
    }

    #[test]
    fn help_covers_the_service_commands() {
        let (_, out) = cli("help");
        assert!(out.contains("axcc serve"), "{out}");
    }

    #[test]
    fn json_flag_emits_json() {
        let (code, out) = cli("score --protocol reno --steps 400 --json");
        assert_eq!(code, 0);
        let json_start = out.find('{').expect("json in output");
        let v: serde_json::Value = serde_json::from_str(&out[json_start..]).expect("valid json");
        assert!(v.get("efficiency").is_some());
    }
}
