//! Command implementations.

use crate::args::Args;
use axcc_analysis::estimators::{
    empirical_scores_fluid, measure_friendliness_fluid, solo_metrics_of_trace,
};
use axcc_analysis::experiments::{find_experiment, registry, Experiment, RunBudget};
use axcc_analysis::report::{fmt_score, scores_row, scores_table, TextTable};
use axcc_core::error::{MAX_SENDERS, MAX_STEPS};
use axcc_core::units::Bandwidth;
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{LossModel, Scenario, SenderConfig};
use axcc_packetsim::{PacketScenario, PacketSenderConfig};
use axcc_protocols::registry::resolve;
use axcc_serve::server::{run_until, ServeConfig};
use axcc_sweep::progress::render_timings;
use axcc_sweep::{CancelSignal, ExperimentTiming, Stopwatch, SweepRunner};
use std::fmt::Write as _;

/// CLI usage text.
pub const HELP: &str = "\
axcc — An Axiomatic Approach to Congestion Control (HotNets-XVI 2017)

usage: axcc <command> [flags]

scenario commands (default link: 20 Mbps, 42 ms RTT, 100-MSS buffer):
  axcc run      --protocols p1,p2,…  run a shared-link scenario and score it
                [--csv FILE]           dump the full trace as CSV
                [--steps N]            fluid-model steps (default 2000)
                [--packet --duration S] packet-level backend instead
                [--wire-loss R --seed N --stagger-s S --ecn K]
  axcc score    --protocol P          measure the full empirical 8-tuple
                [--steps N]
  axcc compare  --challenger P --defender Q   Metric VII head-to-head
                [--n-challengers K --steps N]

paper artifacts and extension studies (the experiment registry; every
report is deterministic, byte-identical for any worker count):
  axcc sweep    --only n1,n2,…      run the named experiments and print
                                    their reports (`axcc list` shows names:
                                    table1, table2, figure1, theorems,
                                    emulab, shootout, gauntlet, frontier,
                                    explore, aqm, extensions, churn)
                [--cache-stats]     append a result-store report (per-shard
                                    segment sizes, hit/miss/heal counters,
                                    jobs executed)
  axcc run-all  [--out-dir D]       the full experiment suite; writes one
                                    report per experiment to D when given
                                    (`--out-dir results` regenerates the
                                    committed artifacts)
                [--only n1,n2,…]    restrict to a subset of experiments
  flags for both:
                [--jobs N]     worker threads (0 = all cores; default 1)
                [--chunk-size N] jobs claimed per worker grab (0 = auto,
                                scaled to jobs/workers; results identical)
                [--smoke]      reduced run lengths (CI scale)
                [--no-cache]   disable the result cache
                [--cache-dir D] persist the cache under D
                                (default target/sweep-cache)

evaluation service (newline-delimited JSON over TCP; see DESIGN.md §5):
  axcc serve    [--addr H:P]        fault-tolerant evaluation daemon
                [--workers N --queue N --max-conns N]
                [--deadline-ms MS --idle-ms MS]
                [--cache-dir D]     persist the result cache
                [--debug-ops]       enable the test-only fault ops
                                    Ctrl-C drains gracefully

misc:
  axcc characterize [--steps N]  empirical 8-tuples for the whole lineup
  axcc network  --protocol P --hops K  parking-lot topology run
  axcc feasible --fast A --eff B --friendly F [--robust R --conv C --loss L]
                                 check a target point against Theorems 1-5
  axcc list                      protocol + experiment registries
  axcc help                      this text

link flags (anywhere): --bw-mbps F  --rtt-ms F  --buffer F
output flags:          --json       append machine-readable JSON
protocol names:        reno, cubic, scalable, robust-aimd, pcc, vegas, bbr,
                       aimd(a,b), mimd(a,b), bin(a,b,k,l), cubic(c,b),
                       r-aimd(a,b,eps), vegas(alpha,beta)
";

/// Command errors.
#[derive(Debug)]
pub enum CliError {
    /// User error: print usage, exit 2.
    Usage(String),
    /// Runtime failure: exit 1.
    Failed(String),
}

/// Lift a `serde_json` serialization result into [`CliError`] so the
/// `--json` paths never panic on a serializer failure.
fn json_or_err(r: Result<String, serde_json::Error>) -> Result<String, CliError> {
    r.map_err(|e| CliError::Failed(format!("JSON serialization failed: {e}")))
}

impl From<crate::args::ArgError> for CliError {
    fn from(e: crate::args::ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// Dispatch a parsed command, returning the output text.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        "list" => cmd_list(args),
        "run" => cmd_run(args),
        "score" => cmd_score(args),
        "compare" => cmd_compare(args),
        "sweep" => cmd_sweep(args),
        "run-all" => cmd_run_all(args),
        "serve" => cmd_serve(args),
        "characterize" => cmd_characterize(args),
        "network" => cmd_network(args),
        "feasible" => cmd_feasible(args),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Parse the shared link flags through the validated front door.
fn link_from(args: &Args) -> Result<LinkParams, CliError> {
    let bw = args.get_f64("bw-mbps", 20.0)?;
    let rtt = args.get_f64("rtt-ms", 42.0)?;
    let buffer = args.get_f64("buffer", 100.0)?;
    LinkParams::try_from_experiment(Bandwidth::Mbps(bw), rtt, buffer)
        .map_err(|e| CliError::Usage(e.to_string()))
}

/// Parse a count flag (`--steps`, `--senders`, …) that sizes a run,
/// refusing 0 (an experiment loop would panic on it) and anything above
/// `max` before a scenario allocates for it.
fn count_from(args: &Args, flag: &str, default: usize, max: usize) -> Result<usize, CliError> {
    match args.get_usize(flag, default)? {
        0 => Err(CliError::Usage(format!("--{flag} must be at least 1"))),
        n if n > max => Err(CliError::Usage(format!("--{flag} must be at most {max}"))),
        n => Ok(n),
    }
}

fn resolve_protocol(name: &str) -> Result<Box<dyn Protocol>, CliError> {
    resolve(name).map_err(|e| CliError::Usage(e.to_string()))
}

fn cmd_list(args: &Args) -> Result<String, CliError> {
    args.finish()?;
    let mut out = String::from("protocol registry:\n\n  aliases:\n");
    for (alias, desc) in [
        ("reno", "TCP Reno = AIMD(1,0.5), the Metric VII reference"),
        ("cubic", "TCP Cubic = CUBIC(0.4,0.8)"),
        ("scalable", "TCP Scalable = MIMD(1.01,0.875)"),
        ("scalable-aimd", "TCP Scalable's AIMD mode = AIMD(1,0.875)"),
        ("robust-aimd", "the paper's Robust-AIMD(1,0.8,0.01)"),
        ("pcc", "PCC-style monitor-interval utility controller"),
        ("vegas", "Vegas-style latency avoider (Theorem 5 foil)"),
        ("bbr", "BBR-style bandwidth/RTT estimator (§6 extension)"),
        (
            "tfrc",
            "TFRC-style equation-based protocol (reference [13])",
        ),
        (
            "highspeed",
            "HighSpeed TCP (RFC 3649), window-dependent AIMD",
        ),
    ] {
        let _ = writeln!(out, "    {alias:<14} {desc}");
    }
    out.push_str(
        "\n  parameterized families:\n    aimd(a,b)  mimd(a,b)  bin(a,b,k,l)  cubic(c,b)  r-aimd(a,b,eps)  vegas(alpha,beta)\n",
    );
    out.push_str("\nexperiment registry (axcc sweep --only n1,n2,…):\n\n");
    let mut t = TextTable::new(["name", "family", "paper/smoke budget"]);
    for e in registry() {
        t.row(vec![
            e.name.to_string(),
            e.family.to_string(),
            e.budget.to_string(),
        ]);
    }
    for line in t.render().lines() {
        let _ = writeln!(out, "  {line}");
    }
    Ok(out)
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let names = args.get_list("protocols");
    if names.is_empty() {
        return Err(CliError::Usage("run needs --protocols p1[,p2,…]".into()));
    }
    if names.len() > MAX_SENDERS {
        let msg = format!("--protocols must name at most {MAX_SENDERS} senders");
        return Err(CliError::Usage(msg));
    }
    let link = link_from(args)?;
    let packet = args.get_bool("packet");
    let wire = args.get_f64("wire-loss", 0.0)?;
    let seed = args.get_usize("seed", 0)? as u64;
    let stagger = args.get_f64("stagger-s", 0.0)?;
    let steps = count_from(args, "steps", 2000, MAX_STEPS)?;
    let duration = args.get_f64("duration", 30.0)?;
    let ecn = args
        .get("ecn")
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| CliError::Usage("--ecn takes a marking threshold in packets".into()))?;
    let csv_path = args.get("csv").map(str::to_string);
    let json = args.get_bool("json");
    args.finish()?;

    let mut out = format!(
        "link: {:.1} Mbps ({:.0} MSS/s), RTT {:.0} ms, buffer {:.0} MSS — C = {:.1} MSS\n",
        axcc_core::units::mss_per_sec_to_mbps(link.bandwidth),
        link.bandwidth,
        axcc_core::units::sec_to_ms(link.min_rtt()),
        link.buffer,
        link.capacity()
    );

    let trace = if packet {
        let mut sc = PacketScenario::new(link)
            .duration_secs(duration)
            .seed(seed)
            .wire_loss(LossModel::Bernoulli { rate: wire });
        if let Some(k) = ecn {
            sc = sc.ecn_threshold(k);
        }
        for (i, n) in names.iter().enumerate() {
            sc = sc.sender(
                PacketSenderConfig::new(resolve_protocol(n)?).start_at_secs(i as f64 * stagger),
            );
        }
        let sim = sc.try_run().map_err(|e| CliError::Usage(e.to_string()))?;
        let _ = writeln!(out, "backend: packet-level, {duration} s simulated");
        let mut t = TextTable::new(["flow", "packets sent", "acked", "lost", "epochs"]);
        for (i, f) in sim.flows.iter().enumerate() {
            t.row([
                format!("{i}:{}", sim.trace.senders[i].protocol),
                f.sent.to_string(),
                f.acked.to_string(),
                f.lost.to_string(),
                f.epochs.to_string(),
            ]);
        }
        out.push_str(&t.render());
        sim.trace
    } else {
        if ecn.is_some() {
            return Err(CliError::Usage(
                "--ecn requires the packet-level backend (add --packet)".into(),
            ));
        }
        let mut sc = Scenario::new(link)
            .steps(steps)
            .seed(seed)
            .wire_loss(LossModel::Bernoulli { rate: wire });
        for (i, n) in names.iter().enumerate() {
            sc = sc.sender(
                SenderConfig::new(resolve_protocol(n)?)
                    .initial_window(1.0)
                    .start_at((i as f64 * stagger / link.min_rtt()) as u64),
            );
        }
        let _ = writeln!(out, "backend: fluid model, {steps} RTT steps");
        sc.try_run().map_err(|e| CliError::Usage(e.to_string()))?
    };

    if let Some(path) = &csv_path {
        std::fs::write(path, trace.to_csv())
            .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "trace written to {path}");
    }
    let tail = trace.tail_start(0.5);
    let m = solo_metrics_of_trace(&trace);
    let mut t = TextTable::new(["sender", "mean window (tail)", "mean goodput (MSS/s)"]);
    for s in &trace.senders {
        t.row([
            s.protocol.clone(),
            fmt_score(s.mean_window_from(tail)),
            format!("{:.1}", s.mean_goodput_from(tail)),
        ]);
    }
    out.push('\n');
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nscores over the tail: efficiency {}  loss bound {}  fairness {}  convergence {}  latency {}",
        fmt_score(m.efficiency),
        fmt_score(m.loss_bound),
        fmt_score(m.fairness),
        fmt_score(m.convergence),
        fmt_score(m.latency_inflation),
    );
    if json {
        let _ = writeln!(out, "{}", json_or_err(serde_json::to_string(&m))?);
    }
    Ok(out)
}

fn cmd_score(args: &Args) -> Result<String, CliError> {
    let name = args
        .get("protocol")
        .ok_or_else(|| CliError::Usage("score needs --protocol".into()))?
        .to_string();
    let link = link_from(args)?;
    let steps = count_from(args, "steps", 3000, MAX_STEPS)?;
    let n = count_from(args, "senders", 2, MAX_SENDERS)?;
    let json = args.get_bool("json");
    args.finish()?;
    let proto = resolve_protocol(&name)?;
    let scores = empirical_scores_fluid(proto.as_ref(), link, n, steps);
    let mut out = format!(
        "{} on the configured link ({n} senders, {steps} steps):\n\n",
        proto.name()
    );
    for (label, v) in [
        ("efficiency", scores.efficiency),
        ("fast-util", scores.fast_utilization),
        ("loss bound", scores.loss_bound),
        ("fairness", scores.fairness),
        ("convergence", scores.convergence),
        ("robustness", scores.robustness),
        ("tcp-friendliness", scores.tcp_friendliness),
        ("latency inflation", scores.latency_inflation),
    ] {
        let _ = writeln!(out, "  {label:<18} {}", fmt_score(v));
    }
    if json {
        let _ = writeln!(out, "\n{}", json_or_err(serde_json::to_string(&scores))?);
    }
    Ok(out)
}

fn cmd_compare(args: &Args) -> Result<String, CliError> {
    let challenger = args
        .get("challenger")
        .ok_or_else(|| CliError::Usage("compare needs --challenger".into()))?
        .to_string();
    let defender = args.get_or("defender", "reno").to_string();
    let link = link_from(args)?;
    let steps = count_from(args, "steps", 3000, MAX_STEPS)?;
    let n_p = count_from(args, "n-challengers", 1, MAX_SENDERS)?;
    args.finish()?;
    let p = resolve_protocol(&challenger)?;
    let q = resolve_protocol(&defender)?;
    let f = measure_friendliness_fluid(p.as_ref(), q.as_ref(), link, n_p, 1, steps, &[(1.0, 1.0)]);
    Ok(format!(
        "{} vs {} ({}+1 senders): friendliness = {}\n(1.0 = the defender keeps pace; 0 = starved)\n",
        p.name(),
        q.name(),
        n_p,
        fmt_score(f)
    ))
}

/// The lineup the `characterize` command scores.
const CHARACTERIZE_LINEUP: [&str; 10] = [
    "reno",
    "cubic",
    "scalable",
    "bin(1,0.5,1,0)",
    "robust-aimd",
    "pcc",
    "vegas",
    "bbr",
    "tfrc",
    "highspeed",
];

fn cmd_characterize(args: &Args) -> Result<String, CliError> {
    let link = link_from(args)?;
    let steps = count_from(args, "steps", 2500, MAX_STEPS)?;
    let n = count_from(args, "senders", 2, MAX_SENDERS)?;
    let json = args.get_bool("json");
    args.finish()?;
    let mut t = scores_table();
    let mut rows = Vec::new();
    for name in CHARACTERIZE_LINEUP {
        let proto = resolve_protocol(name)?;
        let s = empirical_scores_fluid(proto.as_ref(), link, n, steps);
        t.row(scores_row(proto.name(), &s));
        rows.push(serde_json::json!({"protocol": proto.name(), "scores": s}));
    }
    let mut out = format!(
        "empirical 8-tuples on the configured link ({n} senders, {steps} steps)\n\n{}",
        t.render()
    );
    if json {
        let _ = writeln!(out, "\n{}", serde_json::Value::from(rows));
    }
    Ok(out)
}

fn cmd_network(args: &Args) -> Result<String, CliError> {
    use axcc_fluidsim::{Scenario, SenderConfig, Topology};
    let name = args.get_or("protocol", "reno").to_string();
    let hops = count_from(args, "hops", 3, MAX_SENDERS)?;
    let steps = count_from(args, "steps", 4000, MAX_STEPS)?;
    let link = link_from(args)?;
    args.finish()?;
    let proto = resolve_protocol(&name)?;
    // Flow 0 crosses every hop; flow 1 + l is hop l's short flow.
    let topology = Topology::parking_lot(hops, link);
    let paths: Vec<Vec<usize>> = std::iter::once((0..hops).collect())
        .chain((0..hops).map(|l| vec![l]))
        .collect();
    let mut sc = Scenario::on(topology.clone()).steps(steps);
    for path in &paths {
        sc = sc.sender(SenderConfig::new(proto.clone_box()).path(path.clone()));
    }
    let trace = sc.try_run().map_err(|e| CliError::Usage(e.to_string()))?;
    let tail = trace.tail_start(0.5);
    let mut out = format!(
        "parking lot: {hops} hops of C = {:.1} MSS; 1 long {} flow + {hops} short flows\n\n",
        link.capacity(),
        proto.name()
    );
    let long = trace.senders[0].mean_goodput_from(tail);
    let _ = writeln!(out, "long flow goodput:  {long:.1} MSS/s");
    let mut shorts = 0.0;
    for f in 1..=hops {
        let g = trace.senders[f].mean_goodput_from(tail);
        shorts += g;
        let _ = writeln!(out, "short flow (hop {}): {g:.1} MSS/s", f - 1);
    }
    let _ = writeln!(
        out,
        "long/short ratio:   {:.2}",
        long / (shorts / hops as f64)
    );
    for (l, load) in topology.link_loads(&paths, &trace).iter().enumerate() {
        let _ = writeln!(
            out,
            "hop {l} utilization:   {:.2}",
            tail_utilization(&load[tail..], link.capacity())
        );
    }
    Ok(out)
}

/// Mean utilization `X_l / C_l` over a link's tail load column.
fn tail_utilization(tail: &[f64], capacity: f64) -> f64 {
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<f64>() / (tail.len() as f64 * capacity)
}

fn cmd_feasible(args: &Args) -> Result<String, CliError> {
    use axcc_core::theory::feasibility::infeasibilities_loss_based;
    // Efficiency and convergence are fractions; the other scores are
    // non-negative rates or ratios.
    let unit = |flag: &str, default: f64| -> Result<f64, CliError> {
        let v = args.get_f64(flag, default)?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(CliError::Usage(format!(
                "--{flag} must lie in [0, 1], got {v}"
            )))
        }
    };
    let non_negative = |flag: &str, default: f64| -> Result<f64, CliError> {
        let v = args.get_f64(flag, default)?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(CliError::Usage(format!(
                "--{flag} must be a finite non-negative number, got {v}"
            )))
        }
    };
    let fast = non_negative("fast", 1.0)?;
    let eff = unit("eff", 0.5)?;
    let friendly = non_negative("friendly", 1.0)?;
    let robust = non_negative("robust", 0.0)?;
    let conv = unit("conv", 0.0)?;
    let loss = non_negative("loss", 1.0)?;
    let link = link_from(args)?;
    args.finish()?;
    let scores = axcc_core::AxiomScores {
        efficiency: eff,
        fast_utilization: fast,
        loss_bound: loss,
        fairness: 1.0,
        convergence: conv,
        robustness: robust,
        tcp_friendliness: friendly,
        latency_inflation: f64::INFINITY,
    };
    let violations = infeasibilities_loss_based(&scores, link.loss_threshold(), None);
    if violations.is_empty() {
        Ok(format!(
            "no theorem rules this point out (fast={fast}, eff={eff}, friendly={friendly}, \
             robust={robust}) — note: consistency is necessary, not sufficient, for feasibility\n"
        ))
    } else {
        let mut out = String::from("INFEASIBLE (universal scores for a loss-based protocol):\n");
        for v in violations {
            let _ = writeln!(out, "  - {v}");
        }
        Ok(out)
    }
}

/// Build a [`SweepRunner`] from the shared sweep flags (`--jobs`,
/// `--chunk-size`, `--no-cache`, `--cache-dir`). The default is a disk
/// cache under `target/sweep-cache`, so a repeated invocation is answered
/// warm.
fn runner_from(args: &Args) -> Result<SweepRunner, CliError> {
    let jobs = args.get_usize("jobs", 1)?;
    let chunk = args.get_usize("chunk-size", 0)?;
    let no_cache = args.get_bool("no-cache");
    let cache_dir = args.get("cache-dir").map(str::to_string);
    let runner = if no_cache {
        if cache_dir.is_some() {
            return Err(CliError::Usage(
                "--no-cache and --cache-dir are mutually exclusive".into(),
            ));
        }
        SweepRunner::without_cache(jobs)
    } else {
        let dir = cache_dir.unwrap_or_else(|| "target/sweep-cache".to_string());
        SweepRunner::with_disk_cache(jobs, dir.into())
    };
    // Ctrl-C during a sweep drains in-flight jobs (already persisted by
    // the write-through cache), prints the partial progress, and exits
    // 130 — a rerun resumes from the cache instead of starting over.
    sigmon::install();
    let caching = !no_cache;
    Ok(runner
        .with_chunk_size(chunk)
        .with_cancel(CancelSignal::from_fn(sigmon::interrupted))
        .with_interrupt_hook(Box::new(move |info| {
            let resume = if caching {
                "; completed results are cached, rerun to resume"
            } else {
                " (pass a cache to make interrupted runs resumable)"
            };
            eprintln!(
                "\ninterrupted: {} of {} jobs finished{resume}",
                info.completed, info.total
            );
            std::process::exit(130);
        })))
}

/// Render the runner's result-store statistics (`sweep --cache-stats`):
/// process-lifetime hit/miss/heal counters, the jobs this process had to
/// execute, the live entry count, and one row per shard with its entry
/// count and segment bytes — the observable footprint of the sharded
/// log-structured store (O(shards) files regardless of job count).
fn render_cache_stats(runner: &SweepRunner, executed: u64) -> String {
    let Some(cache) = runner.cache_handle() else {
        return "result store: disabled (--no-cache)\n".to_string();
    };
    let s = cache.stats();
    let mut out = format!(
        "result store: {} hits / {} misses, {executed} jobs executed this process, {} heal event(s)\n\
         live entries: {}; on disk: {} segment file(s), {} bytes\n",
        s.hits,
        s.misses,
        s.heal_events,
        s.live_entries,
        s.shards.iter().filter(|sh| sh.entries > 0).count(),
        s.segment_bytes(),
    );
    if !s.shards.is_empty() {
        let mut t = TextTable::new(["shard", "entries", "bytes"]);
        for (id, sh) in s.shards.iter().enumerate() {
            t.row([
                format!("{id:02x}"),
                sh.entries.to_string(),
                sh.segment_bytes.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Shared budget flag: `--smoke` selects CI-scale run lengths.
fn budget_from(args: &Args) -> RunBudget {
    RunBudget {
        smoke: args.get_bool("smoke"),
    }
}

/// The registry entries `--only` names, in the order given.
fn experiments_named(names: &[String]) -> Result<Vec<Experiment>, CliError> {
    let unknown = |name: &String| {
        let known: Vec<&str> = registry().iter().map(|e| e.name).collect();
        let known = known.join(", ");
        CliError::Usage(format!(
            "unknown experiment {name:?} in --only; known: {known}"
        ))
    };
    let find = |name: &String| find_experiment(name).ok_or_else(|| unknown(name));
    names.iter().map(find).collect()
}

fn cmd_sweep(args: &Args) -> Result<String, CliError> {
    let names: Vec<String> = args.get_list("only");
    if names.is_empty() {
        return Err(CliError::Usage(
            "sweep needs --only n1,n2,… (see `axcc list`)".into(),
        ));
    }
    let runner = runner_from(args)?;
    let budget = budget_from(args);
    let want_cache_stats = args.get_bool("cache-stats");
    args.finish()?;
    let experiments = experiments_named(&names)?;
    let mut out = String::new();
    let mut failures = Vec::new();
    let mut executed = 0;
    for (i, exp) in experiments.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let sw = Stopwatch::start();
        let outcome = (exp.run)(&runner, budget);
        let stats = runner.take_stats();
        executed += stats.executed;
        let _ = write!(out, "{} — {}\n\n{}", exp.name, exp.artifact, outcome.report);
        let _ = writeln!(
            out,
            "\n{} jobs over {} workers in {:.2} s ({} from cache, {:.1}% hit rate)",
            stats.jobs(),
            runner.workers(),
            sw.elapsed_secs(),
            stats.cache_hits,
            100.0 * stats.hit_rate(),
        );
        if !outcome.passed {
            failures.push(exp.name);
        }
    }
    if want_cache_stats {
        out.push('\n');
        out.push_str(&render_cache_stats(&runner, executed));
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "\nexperiment predicate FAILED: {}",
            failures.join(", ")
        );
        Err(CliError::Failed(out))
    }
}

fn cmd_run_all(args: &Args) -> Result<String, CliError> {
    let runner = runner_from(args)?;
    let budget = budget_from(args);
    let out_dir = args.get("out-dir").map(str::to_string);
    let only = args.get_list("only");
    args.finish()?;
    let suite = if only.is_empty() {
        registry()
    } else {
        experiments_named(&only)?
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Failed(format!("cannot create {dir}: {e}")))?;
    }
    let mut out = format!(
        "running the full experiment suite ({} workers, {} scale, cache {})\n\n",
        runner.workers(),
        if budget.smoke { "smoke" } else { "paper" },
        if runner.caching() { "on" } else { "off" },
    );
    let mut timings = Vec::new();
    let mut failures = Vec::new();
    for exp in suite {
        let sw = Stopwatch::start();
        let outcome = (exp.run)(&runner, budget);
        let stats = runner.take_stats();
        timings.push(ExperimentTiming {
            name: exp.name.to_string(),
            wall_secs: sw.elapsed_secs(),
            jobs: stats.jobs(),
            cache_hits: stats.cache_hits,
        });
        let verdict = if outcome.passed { "ok" } else { "FAILED" };
        let _ = writeln!(out, "  {:<12} {}", exp.name, verdict);
        if !outcome.passed {
            failures.push(exp.name);
        }
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{}.txt", exp.name);
            std::fs::write(&path, &outcome.report)
                .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
        }
    }
    out.push('\n');
    out.push_str(&render_timings(&timings));
    if let Some(dir) = &out_dir {
        let _ = writeln!(out, "\nreports written to {dir}/");
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        let _ = writeln!(out, "\nFAILED experiments: {}", failures.join(", "));
        Err(CliError::Failed(out))
    }
}

/// Parse the daemon flags of `serve`.
fn serve_config_from(args: &Args) -> Result<ServeConfig, CliError> {
    let defaults = ServeConfig::default();
    let queue = args.get_usize("queue", defaults.queue_capacity)?;
    let max_conns = args.get_usize("max-conns", defaults.max_connections)?;
    let deadline_ms = args.get_usize("deadline-ms", defaults.default_deadline_ms as usize)? as u64;
    let idle_ms = args.get_usize("idle-ms", defaults.idle_timeout_ms as usize)? as u64;
    if deadline_ms == 0 || idle_ms == 0 {
        return Err(CliError::Usage(
            "--deadline-ms and --idle-ms must be at least 1".into(),
        ));
    }
    Ok(ServeConfig {
        addr: args.get_or("addr", &defaults.addr).to_string(),
        workers: args.get_usize("workers", defaults.workers)?,
        queue_capacity: queue,
        max_connections: max_conns,
        default_deadline_ms: deadline_ms,
        idle_timeout_ms: idle_ms,
        cache_dir: args.get("cache-dir").map(Into::into),
        debug_ops: args.get_bool("debug-ops"),
    })
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let config = serve_config_from(args)?;
    args.finish()?;
    sigmon::install();
    let handle = axcc_serve::start(config)
        .map_err(|e| CliError::Failed(format!("cannot start the daemon: {e}")))?;
    // The daemon blocks until drained; announce liveness on stderr now
    // rather than in the return value the caller only sees at exit.
    eprintln!(
        "axcc serve listening on {} (Ctrl-C or the `shutdown` op drains)",
        handle.addr()
    );
    let report = run_until(handle, &sigmon::interrupted);
    Ok(format!("{}\n", report.render()))
}
