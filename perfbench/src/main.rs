//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <paper-suite|explore-grid|serve-mixed> --seed N \
//!           --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run measures one workload for about
//! `S` seconds, checks every output against its expected value, prints a
//! human-readable summary, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run records spans and replays each layer's inputs through that
//! layer's public functions, and the metrics are the per-layer ones.
//! The exit code is non-zero when any correctness check fails.
//! See `perfbench/README.md` for the workloads and the metric table.

mod explore;
mod layers;
mod serve;
mod spans;
mod stats;
mod suite;

use spans::Tracer;
use stats::Tally;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Every end-to-end metric, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("cold_us_per_job", "us"),
    ("warm_us_per_job", "us"),
];

/// Every per-layer metric, reported by every workload with `--trace 1`.
/// A layer a workload never calls reports 0 (no work, no time).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("fluidsim.streaming_ns_per_sender_step", "ns"),
    ("fluidsim.traced_ns_per_sender_step", "ns"),
    ("packetsim.ns_per_packet", "ns"),
    ("protocols.ns_per_update", "ns"),
    ("protocols.aimd_ns_per_update", "ns"),
    ("protocols.mimd_ns_per_update", "ns"),
    ("protocols.bin_ns_per_update", "ns"),
    ("protocols.cubic_ns_per_update", "ns"),
    ("protocols.raimd_ns_per_update", "ns"),
    ("link.ns_per_eval", "ns"),
    ("axioms.fold_ns_per_sender_step", "ns"),
    ("fingerprint.ns_per_job", "ns"),
    ("record.encode_ns", "ns"),
    ("record.decode_ns", "ns"),
    ("cache.put_ns_per_record", "ns"),
    ("cache.get_ns_per_lookup", "ns"),
    ("cache.index_build_ms", "ms"),
    ("dispatch.idle_frac", "fraction"),
    ("dispatch.ns_per_job", "ns"),
    ("analysis.front_ms", "ms"),
    ("analysis.render_ms", "ms"),
    ("serve.parse_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.hit_residual_ms", "ms"),
    ("suite.packet_experiments_ms", "ms"),
    ("suite.fluid_experiments_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("count.jobs", "count"),
    ("count.cache_hits", "count"),
    ("count.executed", "count"),
    ("count.sender_steps", "count"),
    ("count.replay_sender_steps", "count"),
    ("count.observations", "count"),
    ("count.replay_packets_sent", "count"),
    ("count.segment_files", "count"),
    ("count.segment_bytes", "count"),
    ("count.heal_events", "count"),
    ("count.spans", "count"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Gated end-to-end metrics (names from [`END_TO_END`]).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (names from [`PER_LAYER`]); traced runs only.
    pub layers: Vec<Metric>,
    /// The workload's own user-facing figures, printed by name and unit
    /// in the summary (suite_s, goodput_rps, percentiles, …).
    pub info: Vec<Metric>,
    /// Which sample set and statistic each end-to-end and info metric
    /// comes from, for the same-measurement check.
    pub provenance: Vec<(&'static str, &'static str, &'static str)>,
    pub tally: Tally,
}

impl Outcome {
    pub fn e2e(
        &mut self,
        name: &'static str,
        value: f64,
        source: &'static str,
        stat: &'static str,
    ) {
        let unit = unit_of(&END_TO_END, name);
        self.e2e.push(Metric { name, value, unit });
        self.provenance.push((name, source, stat));
    }

    pub fn info(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        source: &'static str,
        stat: &'static str,
    ) {
        self.info.push(Metric { name, value, unit });
        self.provenance.push((name, source, stat));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(&PER_LAYER, name);
        self.layers.retain(|m| m.name != name);
        self.layers.push(Metric { name, value, unit });
    }
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Shared run context.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub workers: usize,
    pub tracer: Tracer,
    /// Scratch directory for this run's stores, removed at exit.
    pub dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty subdirectory of the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let d = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

/// SplitMix64: the benchmark's seeded generator for its own choices
/// (request mix, experiment order, replay samples).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time (user + system) this process has used, in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Steal time of the machine's CPUs (the `steal` column of the
/// aggregate line of `/proc/stat`), in seconds per CPU: the time the host
/// ran something else while a CPU of the machine had work.
pub fn steal_per_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    // user nice system idle iowait irq softirq steal …, in clock ticks.
    let ticks = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|r| r.split_whitespace().nth(7))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks / 100.0 / cpus.max(1) as f64
}

/// Wall, steal-corrected wall and CPU time of one timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub wall_s: f64,
    /// Wall time less the host's steal over the call: what the call took
    /// on the CPU the host left to the machine. Unlike CPU time it still
    /// counts workers left idle, lock waits and blocking I/O.
    pub run_s: f64,
    /// Process CPU time (user + system, all threads).
    pub cpu_s: f64,
}

/// Run `f` and time it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let (cpu0, steal0) = (process_cpu_s(), steal_per_cpu_s());
    let t0 = Instant::now();
    let v = f();
    let wall_s = secs(t0);
    let steal_s = steal_per_cpu_s() - steal0;
    let t = Timed {
        wall_s,
        run_s: wall_s - steal_s,
        cpu_s: process_cpu_s() - cpu0,
    };
    (v, t)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `reps` timed runs of `f` (the set-up metric).
pub fn median_of_reps(reps: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let xs: Vec<f64> = (0..reps).map(&mut f).collect();
    stats::median(&xs).unwrap_or(0.0)
}

/// Open a store the way a run's first lookups do: one lookup in each
/// shard, which builds that shard's index from its segment file.
pub fn open_store(cache: &axcc_sweep::ResultCache) {
    for shard in 0..axcc_sweep::SHARD_COUNT as u64 {
        std::hint::black_box(cache.get(&axcc_core::Digest {
            hi: shard << 60,
            lo: 0,
        }));
    }
}

/// The commit of the checkout, or "unknown" outside a git checkout.
/// Discovery stops at the working directory, so an enclosing repository
/// is never reported.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd);
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-suite|explore-grid|serve-mixed> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_out").join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        workers: axcc_sweep::host_parallelism(),
        tracer: Tracer::new(args.trace),
        dir,
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" \
         engine_revision={} commit={} workers={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        axcc_sweep::host_parallelism(),
        cpu_model(),
        axcc_sweep::ENGINE_REVISION,
        git_commit(),
        ctx.workers,
    );
    let outcome = match args.workload.as_str() {
        "paper-suite" => suite::run(&ctx),
        "explore-grid" => explore::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    finish(&args, &ctx, outcome)
}

fn finish(args: &Args, ctx: &Ctx, mut out: Outcome) -> ExitCode {
    let dups = stats::duplicate_measurements(&out.provenance);
    for (a, b) in &dups {
        out.tally
            .record(Err(format!("metrics {a} and {b} are the same measurement")));
    }
    let (table, names): (Vec<Metric>, &[(&str, &str)]) = if args.trace {
        if ctx.tracer.enabled() {
            let spans_path = PathBuf::from(".bench_out")
                .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
            let _ = std::fs::create_dir_all(".bench_out");
            if let Err(e) = std::fs::write(&spans_path, ctx.tracer.to_json()) {
                eprintln!("perfbench: could not write {}: {e}", spans_path.display());
            }
            out.layer("count.spans", ctx.tracer.spans().len() as f64);
        }
        (out.layers.clone(), &PER_LAYER)
    } else {
        (out.e2e.clone(), &END_TO_END)
    };
    // Every declared metric, in declaration order; a layer the workload
    // never calls is 0.
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = table.iter().find(|m| m.name == name).map(|m| m.value);
        let value = match value {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                out.tally
                    .record(Err(format!("end-to-end metric {name} was not measured")));
                0.0
            }
        };
        if !value.is_finite() {
            out.tally
                .record(Err(format!("metric {name} is not finite")));
        }
        metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    let failed_frac = out.tally.failed_frac();
    for m in out.e2e.iter().chain(&out.info) {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric {:<28} {:>16.6} fraction",
        "failed_frac", failed_frac
    );
    if args.trace {
        for m in &out.layers {
            println!("layer  {:<40} {:>16.3} {}", m.name, m.value, m.unit);
        }
    }
    for f in out.tally.failures() {
        println!("# FAILED: {f}");
    }

    let mut json = String::from("{\"correct\":");
    let correct = out.tally.correct();
    let _ = write!(
        json,
        "{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        correct,
        out.tally.attempted(),
        out.tally.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        // `{}` prints the shortest representation that round-trips: the
        // value as measured, with all its digits.
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Golden digests of the reports the workloads regenerate, one
/// `<name> <hex digest>` per line.
const GOLDEN: &str = include_str!("../golden.txt");

/// The committed golden digest for report `name`.
pub fn golden(name: &str) -> Option<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .map(str::trim)
}

/// Content digest of a report, in the workspace's fingerprint format.
pub fn digest_of(report: &str) -> String {
    let mut fp = axcc_core::Fingerprinter::new();
    fp.write_str(report);
    fp.finish().to_hex()
}

/// Check a report against its golden digest.
pub fn check_golden(name: &str, report: &str) -> Result<(), String> {
    let got = digest_of(report);
    match golden(name) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!("{name}: report digest {got} != golden {want}")),
        None => Err(format!("{name}: no golden digest (report digest {got})")),
    }
}
