//! `paper-suite`: the 11 registry experiments other than `explore`, at
//! paper budget — how users regenerate the paper's artifacts.
//!
//! Each cold pass runs every experiment through one `SweepRunner` over a
//! fresh on-disk store; each is followed by warm passes that re-answer
//! the suite from the same directory through new `ResultCache` handles.
//! The seed fixes the order the experiments run in. About 60% of a cold
//! pass is the packet engine (emulab, aqm) and about 35% the streaming
//! fluid engine; with about 200 jobs, dispatch and the store are nearly
//! bypassed.

use crate::layers::{ratio, segment_footprint};
use crate::spans::{self_times, SpanGuard};
use crate::stats::median;
use crate::{
    check_golden, digest_of, median_of_reps, open_store, peak_rss_mib, secs, timed, Ctx, Outcome,
    Rng, Timed,
};
use axcc_analysis::experiments::emulab::{emulab_specs, EmulabConfig};
use axcc_analysis::experiments::{registry, Experiment, RunBudget};
use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_packetsim::{PacketScenario, PacketSenderConfig};
use axcc_protocols::{build_protocol, SlowStart};
use axcc_sweep::{ResultCache, SweepRunner};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Experiments whose simulations run on the packet engine.
const PACKET_EXPERIMENTS: [&str; 2] = ["emulab", "aqm"];

/// Warm passes after each cold pass.
const WARM_PER_COLD: usize = 40;

/// The suite, in a seeded order.
fn suite(seed: u64) -> Vec<Experiment> {
    let mut exps: Vec<Experiment> = registry()
        .into_iter()
        .filter(|e| e.name != "explore")
        .collect();
    let mut rng = Rng::new(seed);
    for i in (1..exps.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        exps.swap(i, j);
    }
    exps
}

struct Pass {
    time: Timed,
    reports: Vec<String>,
    hits: u64,
    executed: u64,
}

/// Run the whole suite once through a new handle on `dir`.
fn pass(
    ctx: &Ctx,
    exps: &[Experiment],
    dir: &Path,
    parent: Option<&SpanGuard<'_>>,
) -> (Pass, Vec<bool>) {
    let runner = SweepRunner::with_cache_handle(
        ctx.workers,
        Arc::new(ResultCache::with_disk(dir.to_path_buf())),
    );
    let mut reports = Vec::with_capacity(exps.len());
    let mut passed = Vec::with_capacity(exps.len());
    let ((), time) = timed(|| {
        for e in exps {
            let _s = parent.map(|p| ctx.tracer.span(e.name, Some(p)));
            let o = (e.run)(&runner, RunBudget::paper());
            reports.push(o.report);
            passed.push(o.passed);
        }
    });
    let st = runner.stats();
    (
        Pass {
            time,
            reports,
            hits: st.cache_hits,
            executed: st.executed,
        },
        passed,
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tr = &ctx.tracer;
    let root = tr.span("paper-suite", None);

    // Set-up: enumerate the suite, create a store and open its shards.
    // One set-up is shorter than the host's scheduling jitter, so each
    // sample is the mean over a batch of SETUP_BATCH set-ups; the metric
    // is the median of the batches.
    const SETUP_BATCH: usize = 200;
    let mut exps = Vec::new();
    let mut k = 0;
    let setup_s = median_of_reps(9, |_| {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            exps = suite(ctx.seed);
            let dir = ctx.dir.join(format!("suite-setup-{k}"));
            k += 1;
            let cache = Arc::new(ResultCache::with_disk(dir));
            let runner = SweepRunner::with_cache_handle(ctx.workers, cache.clone());
            open_store(&cache);
            black_box(&runner);
        }
        secs(t0) / SETUP_BATCH as f64
    });
    println!(
        "# order {}",
        exps.iter().map(|e| e.name).collect::<Vec<_>>().join(",")
    );

    // Cold and warm cost per job is wall time less the host's steal (see
    // `Timed::run_s`): a shared host can take CPU from a VM for minutes
    // at a time, which stretches wall time by up to 2x. Raw wall and CPU
    // times are printed beside them.
    let measured = Instant::now();
    let mut cold_us = Vec::new();
    let mut cold_cpu_us = Vec::new();
    let mut cold_walls = Vec::new();
    let mut cold_traced_s = Vec::new();
    let mut cold_untraced_s = Vec::new();
    let mut warm_walls_us = Vec::new();
    let (mut warm_run_s, mut warm_cpu_s, mut warm_jobs) = (0.0, 0.0, 0u64);
    let (mut cpu_s, mut cold_run_s) = (0.0, 0.0);
    let mut first: Option<(PathBuf, u64, u64, u64)> = None; // dir, executed, hits, sender-steps
    let mut p = 0;
    while p < 3 || secs(measured) < ctx.seconds {
        let dir = ctx.fresh_dir(&format!("suite-store-{p}"));
        // In the traced run every other cold pass records spans.
        let traced = tr.enabled() && p % 2 == 1;
        let pass_span = traced.then(|| tr.span("suite.cold", Some(&root)));
        let _ = axcc_fluidsim::stats::take();
        let (cold, passed) = pass(ctx, &exps, &dir, pass_span.as_ref());
        cpu_s += cold.time.cpu_s;
        cold_run_s += cold.time.run_s;
        let streamed = axcc_fluidsim::stats::take();
        drop(pass_span);
        if traced {
            cold_traced_s.push(cold.time.run_s);
        } else {
            cold_untraced_s.push(cold.time.run_s);
        }
        for ((e, report), ok) in exps.iter().zip(&cold.reports).zip(&passed) {
            if p == 0 {
                println!("# digest {} {}", e.name, digest_of(report));
            }
            out.tally.record(check_golden(e.name, report));
            out.tally
                .check(*ok, || format!("{}: passed predicate failed", e.name));
        }
        out.tally.check(cold.hits == 0 && cold.executed > 0, || {
            format!("suite cold: {} hits, {} executed", cold.hits, cold.executed)
        });
        let per_job_us = |s: f64| s / cold.executed.max(1) as f64 * 1e6;
        cold_us.push(per_job_us(cold.time.run_s));
        cold_cpu_us.push(per_job_us(cold.time.cpu_s));
        cold_walls.push(cold.time.wall_s);

        // Steal and CPU time are read in clock ticks, each about one
        // warm pass long. So the warm passes after a cold pass are timed
        // as one block, and those figures are totals over all blocks.
        let mut warm_hits = 0;
        let ((), block) = timed(|| {
            for _ in 0..WARM_PER_COLD {
                let (warm, _) = pass(ctx, &exps, &dir, None);
                out.tally.check(warm.reports == cold.reports, || {
                    "suite warm reports differ from the cold reports".into()
                });
                out.tally
                    .check(warm.executed == 0 && warm.hits == cold.executed, || {
                        format!("suite warm: {} executed, {} hits", warm.executed, warm.hits)
                    });
                warm_hits = warm.hits;
                warm_jobs += warm.hits;
                warm_walls_us.push(warm.time.wall_s / warm.hits.max(1) as f64 * 1e6);
            }
        });
        warm_run_s += block.run_s;
        warm_cpu_s += block.cpu_s;
        match &first {
            None => first = Some((dir, cold.executed, warm_hits, streamed.sender_steps)),
            Some((_, executed, _, steps)) => {
                out.tally.check(
                    cold.executed == *executed && streamed.sender_steps == *steps,
                    || "suite: job or sender-step counts changed between passes".into(),
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        p += 1;
    }

    out.e2e("setup_s", setup_s, "setup-reps", "median");
    out.e2e("peak_rss_mib", peak_rss_mib(), "process", "vmhwm");
    out.e2e(
        "cold_us_per_job",
        median(&cold_us).unwrap_or(0.0),
        "cold-pass-run",
        "median",
    );
    out.e2e(
        "warm_us_per_job",
        ratio(warm_run_s, warm_jobs as f64) * 1e6,
        "warm-pass-run",
        "total",
    );
    out.info(
        "cold_cpu_us_per_job",
        median(&cold_cpu_us).unwrap_or(0.0),
        "us",
        "cold-pass-cpu",
        "median",
    );
    out.info(
        "warm_cpu_us_per_job",
        ratio(warm_cpu_s, warm_jobs as f64) * 1e6,
        "us",
        "warm-pass-cpu",
        "total",
    );
    let suite_s = median(&cold_walls).unwrap_or(0.0);
    out.info("suite_s", suite_s, "s", "cold-pass-walls", "median");
    out.info(
        "warm_wall_us_per_job",
        median(&warm_walls_us).unwrap_or(0.0),
        "us",
        "warm-pass-walls",
        "median",
    );

    if tr.enabled() {
        let untraced = median(&cold_untraced_s).unwrap_or(0.0);
        let traced = median(&cold_traced_s).unwrap_or(untraced);
        out.layer(
            "trace.overhead_pct",
            ratio(traced - untraced, untraced) * 100.0,
        );
        out.layer(
            "dispatch.idle_frac",
            1.0 - ratio(cpu_s, ctx.workers as f64 * cold_run_s),
        );
        if let Some((dir, executed, hits, steps)) = &first {
            out.layer("count.jobs", *executed as f64);
            out.layer("count.executed", *executed as f64);
            out.layer("count.cache_hits", *hits as f64);
            out.layer("count.sender_steps", *steps as f64);
            let (files, bytes) = segment_footprint(dir);
            out.layer("count.segment_files", files as f64);
            out.layer("count.segment_bytes", bytes as f64);
            // One more warm pass through a handle we keep, for the
            // store's heal counter.
            let cache = Arc::new(ResultCache::with_disk(dir.clone()));
            let runner = SweepRunner::with_cache_handle(ctx.workers, cache.clone());
            for e in &exps {
                black_box((e.run)(&runner, RunBudget::paper()));
            }
            out.layer("count.heal_events", cache.stats().heal_events as f64);
        }
        // Per-experiment self time, split by engine, per traced pass.
        let spans = tr.spans();
        let selfs = self_times(&spans);
        let (mut packet_ns, mut fluid_ns) = (0u64, 0u64);
        for s in spans
            .iter()
            .filter(|s| exps.iter().any(|e| e.name == s.name))
        {
            let ns = selfs.get(&s.id).copied().unwrap_or(0);
            if PACKET_EXPERIMENTS.contains(&s.name) {
                packet_ns += ns;
            } else {
                fluid_ns += ns;
            }
        }
        let passes = cold_traced_s.len().max(1) as f64;
        out.layer(
            "suite.packet_experiments_ms",
            packet_ns as f64 / passes / 1e6,
        );
        out.layer("suite.fluid_experiments_ms", fluid_ns as f64 / passes / 1e6);
        replay_packets(ctx, &root, &mut out);
    }
    drop(root);
    out
}

/// Replay the Emulab paper grid's packet-level runs (the experiment's
/// exact scenarios) through the packet engine; time per packet sent.
fn replay_packets(ctx: &Ctx, root: &SpanGuard<'_>, out: &mut Outcome) {
    let cfg = EmulabConfig::paper();
    let mut sent = 0u64;
    let mut conserved = true;
    let s = ctx.tracer.span("replay.packetsim", Some(root));
    let t0 = Instant::now();
    for &n in &cfg.ns {
        for &bw in &cfg.bandwidths_mbps {
            for &buf in &cfg.buffers_mss {
                for spec in emulab_specs() {
                    let link = LinkParams::from_experiment(Bandwidth::Mbps(bw), cfg.rtt_ms, buf);
                    let proto = SlowStart::new(build_protocol(&spec), f64::INFINITY);
                    let mut sc = PacketScenario::new(link)
                        .duration_secs(cfg.duration_secs)
                        .seed(cfg.seed);
                    for i in 0..n {
                        sc = sc.sender(
                            PacketSenderConfig::new(axcc_core::Protocol::clone_box(&proto))
                                .start_at_secs(i as f64 * cfg.stagger_secs),
                        );
                    }
                    let o = sc.run();
                    conserved &= o.conservation_ok();
                    sent += o.flows.iter().map(|f| f.sent).sum::<u64>();
                }
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    s.end();
    out.tally
        .check(conserved, || "packet replay: conservation violated".into());
    out.layer("packetsim.ns_per_packet", ratio(ns, sent as f64));
    out.layer("count.replay_packets_sent", sent as f64);
}
