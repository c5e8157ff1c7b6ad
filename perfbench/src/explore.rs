//! `explore-grid`: the 101,670-job `explore` family at paper budget.
//!
//! Two cold passes each write every job into a fresh 16-shard store;
//! warm passes then re-answer the same jobs through new `ResultCache`
//! handles on the last store's directory. The cold pass is the streaming engine, the
//! accumulator fold and store writes; the warm pass runs no simulation,
//! only fingerprinting, index build, record decode and the Pareto front
//! plus render.
//!
//! The grid is fixed by the registry; the seed picks which cells the
//! traced run replays for the engine-level layers.

use crate::layers::{self, ratio, TimedSink, UpdateTally};
use crate::spans::self_time_of;
use crate::stats::median;
use crate::{
    check_golden, median_of_reps, open_store, peak_rss_mib, secs, timed, Ctx, Outcome, Rng, Timed,
};
use axcc_analysis::estimators::{solo_metrics_of_acc, stream_options_for, SoloMetrics};
use axcc_analysis::experiments::explore::{
    front_2d, loss_levels, param_grid, run_explore_with, ExploreReport, ParamPoint, EXPLORE_SEED,
    FAMILIES, INITIAL_WINDOWS, PAPER_STEPS,
};
use axcc_analysis::experiments::RunBudget;
use axcc_core::{Digest, Fingerprint, Fingerprinter, LinkParams, Protocol};
use axcc_fluidsim::{
    metric_accumulator_for, try_run_scenario_with, LossModel, MetricSet, Scenario, SenderConfig,
};
use axcc_sweep::{default_chunk_size, Cacheable, EvalMode, Record, ResultCache, SweepRunner};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Scope label the experiment addresses its jobs under.
const SCOPE: &str = "explore/grid";

/// One cell of the grid, fingerprinted exactly as the experiment's own
/// job type is, so its digest is the cell's address in the store (the
/// traced run checks every one of them is found there).
#[derive(Debug, Clone, Copy)]
struct Cell {
    point: ParamPoint,
    loss: f64,
    steps: usize,
    link: LinkParams,
}

impl Fingerprint for Cell {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("explore/cell");
        self.point.fingerprint(fp);
        fp.write_f64(self.loss);
        fp.write_usize(self.steps);
        self.link.fingerprint(fp);
        fp.write_u64(EXPLORE_SEED);
        for &w in &INITIAL_WINDOWS {
            fp.write_f64(w);
        }
        EvalMode::Streaming.fingerprint(fp);
    }
}

impl Cell {
    /// The cell's scenario, built exactly as the experiment builds it,
    /// with each sender's protocol passed through `wrap`.
    fn scenario(&self, wrap: &dyn Fn(Box<dyn Protocol>) -> Box<dyn Protocol>) -> Scenario {
        let proto = self.point.build();
        let mut sc = Scenario::new(self.link)
            .steps(self.steps)
            .seed(EXPLORE_SEED);
        if self.loss > 0.0 {
            sc = sc.wire_loss(LossModel::Bernoulli { rate: self.loss });
        }
        for &w in &INITIAL_WINDOWS {
            sc = sc.sender(SenderConfig::new(wrap(proto.clone_box())).initial_window(w));
        }
        sc
    }
}

/// The job list, level-major, in the experiment's submission order.
fn enumerate() -> Vec<Cell> {
    let budget = RunBudget::paper();
    let points = param_grid(budget);
    let link = LinkParams::reference();
    let mut cells = Vec::with_capacity(points.len() * 30);
    for loss in loss_levels(budget) {
        for &point in &points {
            cells.push(Cell {
                point,
                loss,
                steps: PAPER_STEPS,
                link,
            });
        }
    }
    cells
}

fn family_metric(family: &str) -> &'static str {
    match family {
        "AIMD" => "protocols.aimd_ns_per_update",
        "MIMD" => "protocols.mimd_ns_per_update",
        "BIN" => "protocols.bin_ns_per_update",
        "CUBIC" => "protocols.cubic_ns_per_update",
        _ => "protocols.raimd_ns_per_update",
    }
}

struct Pass {
    time: Timed,
    report: ExploreReport,
    hits: u64,
    executed: u64,
}

fn pass(ctx: &Ctx, dir: &Path) -> Pass {
    let runner = SweepRunner::with_cache_handle(
        ctx.workers,
        Arc::new(ResultCache::with_disk(dir.to_path_buf())),
    );
    let (report, time) = timed(|| run_explore_with(&runner, RunBudget::paper()));
    let st = runner.stats();
    Pass {
        time,
        report,
        hits: st.cache_hits,
        executed: st.executed,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tr = &ctx.tracer;
    let root = tr.span("explore-grid", None);

    // Set-up: the program's job enumeration (the parameter grid and the
    // loss ladder), creating a store and opening its shards. One set-up
    // is shorter than the host's jitter, so each sample is the mean over
    // a batch of SETUP_BATCH set-ups; the metric is the median of the
    // batches. The benchmark's own copy of the job list is built
    // afterwards, outside the timed region.
    const SETUP_BATCH: usize = 200;
    let mut store = std::path::PathBuf::new();
    let mut k = 0;
    let setup_s = median_of_reps(9, |_| {
        let _s = tr.span("setup", Some(&root));
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            let budget = RunBudget::paper();
            black_box((param_grid(budget), loss_levels(budget)));
            store = ctx.dir.join(format!("explore-store-{k}"));
            k += 1;
            let cache = Arc::new(ResultCache::with_disk(store.clone()));
            let runner = SweepRunner::with_cache_handle(ctx.workers, cache.clone());
            open_store(&cache);
            black_box(&runner);
        }
        secs(t0) / SETUP_BATCH as f64
    });
    let cells = enumerate();
    let jobs = cells.len() as u64;

    // COLD_PASSES cold passes, each into a fresh store.
    const COLD_PASSES: usize = 2;
    let measured = Instant::now();
    let mut cold_walls = Vec::new();
    let mut cold_runs = Vec::new();
    let mut cold_cpus = Vec::new();
    let (mut cpu, mut cold_run) = (0.0, 0.0);
    let mut cold_text = String::new();
    let mut cold_report = None;
    let mut streamed_steps = 0;
    for k in 0..COLD_PASSES {
        if k > 0 {
            let _ = std::fs::remove_dir_all(&store);
            store = ctx.dir.join(format!("explore-cold-{k}"));
        }
        let _ = axcc_fluidsim::stats::take();
        let cold_span = tr.span("explore.cold", Some(&root));
        let cold = pass(ctx, &store);
        cold_span.end();
        cpu += cold.time.cpu_s;
        cold_run += cold.time.run_s;
        let streamed = axcc_fluidsim::stats::take();
        let text = cold.report.render();
        out.tally.record(check_golden("explore", &text));
        out.tally.check(cold.report.passed(), || {
            "explore: passed predicate failed".into()
        });
        out.tally
            .check(cold.executed == jobs && cold.hits == 0, || {
                format!(
                    "explore cold: {} executed, {} hits",
                    cold.executed, cold.hits
                )
            });
        let steps_per_job = (PAPER_STEPS * INITIAL_WINDOWS.len()) as u64;
        out.tally
            .check(streamed.sender_steps == jobs * steps_per_job, || {
                format!("explore cold: {} sender-steps", streamed.sender_steps)
            });
        cold_walls.push(cold.time.wall_s);
        cold_runs.push(cold.time.run_s);
        cold_cpus.push(cold.time.cpu_s);
        streamed_steps = streamed.sender_steps;
        cold_text = text;
        cold_report = Some(cold.report);
    }
    let Some(cold_report) = cold_report else {
        return out;
    };

    // Warm passes through new handles on the last cold store, for the
    // rest of the run time but at least WARM_SHARE of it and at least
    // WARM_MIN passes; in the traced run every other one is traced, for
    // the tracing overhead.
    const WARM_SHARE: f64 = 0.3;
    const WARM_MIN: usize = 8;
    let warm_until =
        secs(measured).max((1.0 - WARM_SHARE) * ctx.seconds) + WARM_SHARE * ctx.seconds;
    let mut warm = Vec::new();
    let mut warm_runs = Vec::new();
    let mut warm_cpus = Vec::new();
    let mut warm_traced = Vec::new();
    let mut warm_hits = 0;
    while warm.len() + warm_traced.len() < WARM_MIN || secs(measured) < warm_until {
        let traced = tr.enabled() && warm.len() > warm_traced.len();
        let span = traced.then(|| tr.span("explore.warm", Some(&root)));
        let p = pass(ctx, &store);
        drop(span);
        out.tally.check(p.report.render() == cold_text, || {
            "explore warm report differs from the cold report".into()
        });
        out.tally.check(p.executed == 0 && p.hits == jobs, || {
            format!("explore warm: {} executed, {} hits", p.executed, p.hits)
        });
        warm_hits = p.hits;
        if traced {
            warm_traced.push(p.time.run_s);
        } else {
            warm.push(p.time.wall_s);
            warm_runs.push(p.time.run_s);
            warm_cpus.push(p.time.cpu_s);
        }
    }
    let warm_med = median(&warm_runs).unwrap_or(0.0);
    let per_job_us = |s: f64| s / jobs as f64 * 1e6;

    out.e2e("setup_s", setup_s, "setup-reps", "median");
    out.e2e("peak_rss_mib", peak_rss_mib(), "process", "vmhwm");
    // Cost per job is wall time less the host's steal (see the
    // paper-suite workload for why); raw wall rates and CPU time are
    // printed beside them.
    out.e2e(
        "cold_us_per_job",
        per_job_us(median(&cold_runs).unwrap_or(0.0)),
        "cold-pass-run",
        "median",
    );
    out.e2e(
        "warm_us_per_job",
        per_job_us(warm_med),
        "warm-pass-run",
        "median",
    );
    out.info(
        "cold_cpu_us_per_job",
        per_job_us(median(&cold_cpus).unwrap_or(0.0)),
        "us",
        "cold-pass-cpu",
        "median",
    );
    out.info(
        "warm_cpu_us_per_job",
        per_job_us(median(&warm_cpus).unwrap_or(0.0)),
        "us",
        "warm-pass-cpu",
        "median",
    );
    let rate = |s: f64| ratio(jobs as f64, s);
    let cold_rate = rate(median(&cold_walls).unwrap_or(0.0));
    out.info(
        "cold_jobs_per_s",
        cold_rate,
        "1/s",
        "cold-pass-walls",
        "median",
    );
    out.info(
        "warm_jobs_per_s",
        rate(median(&warm).unwrap_or(0.0)),
        "1/s",
        "warm-pass-walls",
        "median",
    );

    if tr.enabled() {
        let traced_med = median(&warm_traced).unwrap_or(warm_med);
        out.layer(
            "trace.overhead_pct",
            ratio(traced_med - warm_med, warm_med) * 100.0,
        );
        out.layer(
            "dispatch.idle_frac",
            1.0 - ratio(cpu, ctx.workers as f64 * cold_run),
        );
        out.layer("count.jobs", jobs as f64);
        out.layer("count.executed", jobs as f64);
        out.layer("count.cache_hits", warm_hits as f64);
        out.layer("count.sender_steps", streamed_steps as f64);
        let (files, bytes) = layers::segment_footprint(&store);
        out.layer("count.segment_files", files as f64);
        out.layer("count.segment_bytes", bytes as f64);
        replay(
            ctx,
            &root,
            &cells,
            &store,
            &cold_report,
            streamed_steps,
            &mut out,
        );
    }
    drop(root);
    out
}

/// The traced run's layer replays over the cold pass's exact inputs.
fn replay(
    ctx: &Ctx,
    root: &crate::spans::SpanGuard<'_>,
    cells: &[Cell],
    store: &Path,
    report: &ExploreReport,
    cold_sender_steps: u64,
    out: &mut Outcome,
) {
    let tr = &ctx.tracer;
    let runner = SweepRunner::serial();

    // Fingerprint: every job's content address.
    let s = tr.span("replay.fingerprint", Some(root));
    let digests: Vec<Digest> = cells.iter().map(|c| runner.job_digest(SCOPE, c)).collect();
    s.end();

    // Store reads through a new handle: the first lookup per shard
    // builds that shard's index; then every job is looked up.
    let cache = ResultCache::with_disk(store.to_path_buf());
    let mut first_per_shard: BTreeMap<char, Digest> = BTreeMap::new();
    for d in &digests {
        if let Some(c) = d.to_hex().chars().next() {
            first_per_shard.entry(c).or_insert(*d);
        }
    }
    let s = tr.span("replay.index_build", Some(root));
    for d in first_per_shard.values() {
        black_box(cache.get(d));
    }
    s.end();
    let s = tr.span("replay.get", Some(root));
    let records: Vec<Option<Record>> = digests.iter().map(|d| cache.get(d)).collect();
    s.end();
    let found = records.iter().filter(|r| r.is_some()).count();
    out.tally.check(found == cells.len(), || {
        format!(
            "replay: {found} of {} job digests found in the store",
            cells.len()
        )
    });
    out.layer("count.heal_events", cache.stats().heal_events as f64);
    let records: Vec<Record> = records.into_iter().flatten().collect();

    // Record codec.
    let s = tr.span("replay.encode", Some(root));
    let texts: Vec<String> = records.iter().map(Record::encode).collect();
    s.end();
    let s = tr.span("replay.decode", Some(root));
    let decoded: Vec<Option<Record>> = texts.iter().map(|t| Record::decode(t)).collect();
    s.end();
    let roundtrip = decoded
        .iter()
        .zip(&records)
        .all(|(d, r)| d.as_ref() == Some(r));
    out.tally.check(roundtrip, || {
        "replay: record codec did not round-trip".into()
    });
    let metrics: Vec<SoloMetrics> = records
        .iter()
        .filter_map(SoloMetrics::from_record)
        .collect();

    // Store writes: the same records, batched per dispatch chunk.
    let put_dir = ctx.fresh_dir("explore-put");
    let put_cache = ResultCache::with_disk(put_dir.clone());
    let chunk = default_chunk_size(cells.len(), ctx.workers);
    let batches: Vec<Vec<(Digest, Record)>> = digests
        .iter()
        .copied()
        .zip(records.iter().cloned())
        .collect::<Vec<_>>()
        .chunks(chunk)
        .map(<[_]>::to_vec)
        .collect();
    let s = tr.span("replay.put_batch", Some(root));
    for b in batches {
        put_cache.put_batch(b);
    }
    s.end();
    let _ = std::fs::remove_dir_all(&put_dir);

    // Dispatch: the runner's per-job overhead on a trivial job.
    let trivial = SweepRunner::without_cache(ctx.workers);
    let s = tr.span("replay.dispatch", Some(root));
    black_box(trivial.sweep("perfbench/dispatch", cells, |c| c.loss));
    s.end();

    // Pareto fronts, grouped as the experiment groups them.
    let points = param_grid(RunBudget::paper());
    let levels = loss_levels(RunBudget::paper()).len();
    let s = tr.span("replay.front", Some(root));
    let mut front_sizes = 0usize;
    if metrics.len() == points.len() * levels {
        for li in 0..levels {
            let level = &metrics[li * points.len()..(li + 1) * points.len()];
            for fam in FAMILIES {
                let idxs: Vec<usize> = (0..points.len())
                    .filter(|&i| points[i].family() == fam)
                    .collect();
                let eff_loss: Vec<(f64, f64)> = idxs
                    .iter()
                    .map(|&i| (level[i].efficiency, level[i].loss_bound))
                    .collect();
                let eff_fair: Vec<(f64, f64)> = idxs
                    .iter()
                    .map(|&i| (level[i].efficiency, -level[i].fairness))
                    .collect();
                front_sizes += front_2d(&eff_loss).len() + front_2d(&eff_fair).len();
            }
        }
    }
    s.end();
    let want: usize = report
        .fronts
        .iter()
        .map(|f| f.eff_loss_front + f.eff_fair_front)
        .sum();
    out.tally.check(front_sizes == want, || {
        format!("replay: front sizes {front_sizes} != report's {want}")
    });
    let s = tr.span("replay.render", Some(root));
    for _ in 0..10 {
        black_box(report.render());
    }
    s.end();

    // Engine, fold and link model on every cell, each checked against
    // its stored result; protocol updates on a seeded sample of cells
    // (one in OBS_EVERY), whose observations are recorded and replayed.
    const OBS_EVERY: usize = 64;
    let mut rng = Rng::new(ctx.seed);
    let offset = rng.below(OBS_EVERY as u64) as usize;
    let sample: Vec<usize> = (offset..cells.len()).step_by(OBS_EVERY).collect();
    let options = stream_options_for(MetricSet::SOLO);
    let mut engine_ns = 0u64;
    let mut fold_ns = 0u64;
    let mut sender_steps = 0u64;
    let mut link_ns = 0u64;
    let mut link_evals = 0u64;
    let mut mismatches = 0usize;
    let s = tr.span("replay.engine", Some(root));
    for (i, cell) in cells.iter().enumerate() {
        let sc = cell.scenario(&|p| p);
        let mut sink = TimedSink::new(metric_accumulator_for(&sc, &options));
        let t0 = Instant::now();
        let ran = try_run_scenario_with(sc, &mut sink);
        engine_ns += t0.elapsed().as_nanos() as u64;
        fold_ns += sink.ingest_ns;
        sender_steps += sink.sender_steps;
        let replayed = solo_metrics_of_acc(&sink.inner).to_record();
        if ran.is_err() || records.get(i) != Some(&replayed) {
            mismatches += 1;
        }
        let (ns, n) = layers::replay_link(&cell.link, &sink.totals);
        link_ns += ns;
        link_evals += n;
    }
    s.end();
    out.tally.check(mismatches == 0, || {
        format!("replay: {mismatches} cells differ from their stored results")
    });
    out.tally.check(sender_steps == cold_sender_steps, || {
        format!("replay: {sender_steps} sender-steps, the cold pass streamed {cold_sender_steps}")
    });

    // Protocol updates: record each sampled cell's observations, then
    // replay them through fresh instances, per family.
    let mut per_family: BTreeMap<&'static str, UpdateTally> = BTreeMap::new();
    let s = tr.span("replay.protocols", Some(root));
    for &i in &sample {
        let logs = layers::new_logs();
        let sc = cells[i].scenario(&|p| Box::new(layers::RecordingProtocol::new(p, &logs)));
        let mut acc = metric_accumulator_for(&sc, &options);
        if try_run_scenario_with(sc, &mut acc).is_err() {
            out.tally
                .record(Err("replay: a recorded cell failed to run".into()));
        }
        let proto = cells[i].point.build();
        let tally = per_family
            .entry(family_metric(cells[i].point.family()))
            .or_default();
        for (_, log) in layers::take_logs(&logs) {
            tally.add(layers::replay_updates(proto.as_ref(), &log));
        }
    }
    s.end();
    let mut all = UpdateTally::default();
    for (name, t) in &per_family {
        out.layer(name, t.ns_per());
        all.add((t.ns, t.updates));
    }

    let spans = tr.spans();
    let self_ns = |name: &str| self_time_of(&spans, name) as f64;
    let n = cells.len() as f64;
    out.layer(
        "fluidsim.streaming_ns_per_sender_step",
        ratio((engine_ns - fold_ns) as f64, sender_steps as f64),
    );
    out.layer(
        "axioms.fold_ns_per_sender_step",
        ratio(fold_ns as f64, sender_steps as f64),
    );
    out.layer("protocols.ns_per_update", all.ns_per());
    out.layer("count.observations", all.updates as f64);
    out.layer("link.ns_per_eval", ratio(link_ns as f64, link_evals as f64));
    out.layer("count.replay_sender_steps", sender_steps as f64);
    out.layer("fingerprint.ns_per_job", self_ns("replay.fingerprint") / n);
    out.layer("cache.index_build_ms", self_ns("replay.index_build") / 1e6);
    out.layer("cache.get_ns_per_lookup", self_ns("replay.get") / n);
    out.layer("record.encode_ns", self_ns("replay.encode") / n);
    out.layer("record.decode_ns", self_ns("replay.decode") / n);
    out.layer("cache.put_ns_per_record", self_ns("replay.put_batch") / n);
    out.layer("dispatch.ns_per_job", self_ns("replay.dispatch") / n);
    out.layer("analysis.front_ms", self_ns("replay.front") / 1e6);
    out.layer("analysis.render_ms", self_ns("replay.render") / 10.0 / 1e6);
}
