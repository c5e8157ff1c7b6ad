//! `serve-mixed`: the evaluation daemon under a closed-loop mixed load.
//!
//! A daemon runs in-process (`axcc_serve::start`, one worker per core,
//! fresh on-disk store). Set-up starts it and fills 16 hit specs. Then
//! one client thread per core, each on its own connection, sends `eval`
//! requests of `["reno","cubic"]` at the daemon defaults back to back. A
//! coin seeded from the benchmark seed makes half of them hits on the 16
//! filled specs and half misses, each with a seed never used before.
//! This is the only workload that runs wire parse and serialize, the
//! admission queue, and the traced engine path; its hits are store reads
//! and its misses store writes.

use crate::layers::{self, ratio, TimedSink, UpdateTally};
use crate::spans::{self_time_of, Span};
use crate::stats::{percentile, Tally};
use crate::{median_of_reps, peak_rss_mib, secs, Ctx, Outcome, Rng};
use axcc_core::units::Bandwidth;
use axcc_core::{Digest, LinkParams};
use axcc_fluidsim::{try_run_scenario_with, Scenario, SenderConfig, TraceSink};
use axcc_protocols::registry::resolve;
use axcc_serve::protocol::{ok_line, parse_request, EvalSpec, Op};
use axcc_serve::{parse_response, start, ServeConfig, ServeReport, ServerHandle};
use axcc_sweep::{Record, ResultCache, SweepRunner};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Specs filled during set-up; hits draw from these.
const HIT_SPECS: usize = 16;
/// Protocols every request evaluates.
const PROTOCOLS: [&str; 2] = ["reno", "cubic"];
/// Sender-steps of one evaluation at the daemon defaults (2000 steps,
/// two senders).
const SENDER_STEPS_PER_EVAL: u64 = 2000 * 2;
/// Miss seeds start here, above every hit seed.
const MISS_SEED_BASE: u64 = 1 << 40;
/// The daemon keeps every result it computed in memory, so its footprint
/// grows with the requests served. Peak RSS is read once this many
/// requests are done, so it does not depend on how fast the host ran.
const RSS_AFTER_REQUESTS: u64 = 50_000;

/// Requests completed across clients, and the peak RSS read when they
/// reached [`RSS_AFTER_REQUESTS`].
#[derive(Default)]
struct Progress {
    served: AtomicU64,
    rss_mib: Mutex<Option<f64>>,
}

fn eval_line(id: u64, seed: u64) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"eval\",\"protocols\":[\"{}\",\"{}\"],\"seed\":{seed}}}\n",
        PROTOCOLS[0], PROTOCOLS[1]
    )
}

/// One connection's request/response exchange.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(handle.addr())?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut resp = String::new();
        self.reader.read_line(&mut resp)?;
        Ok(resp)
    }
}

/// The `result` body of an ok response, rendered compactly.
fn ok_body(resp: &str) -> Result<String, String> {
    let parsed = parse_response(resp)?;
    match parsed.outcome {
        Ok(v) => Ok(v.render_compact()),
        Err((kind, msg)) => Err(format!("{}: {msg}", kind.wire_id())),
    }
}

/// A started daemon with its hit specs filled.
struct Daemon {
    handle: ServerHandle,
    dir: PathBuf,
    hit_seeds: Vec<u64>,
    hit_bodies: Vec<String>,
}

fn set_up(ctx: &Ctx, dir: PathBuf, hit_seeds: &[u64]) -> Result<Daemon, String> {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: ctx.workers,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let mut conn = Conn::open(&handle).map_err(|e| format!("connect: {e}"))?;
    let mut hit_bodies = Vec::with_capacity(hit_seeds.len());
    for (k, &seed) in hit_seeds.iter().enumerate() {
        let resp = conn
            .call(&eval_line(k as u64, seed))
            .map_err(|e| format!("fill: {e}"))?;
        hit_bodies.push(ok_body(&resp)?);
    }
    Ok(Daemon {
        handle,
        dir,
        hit_seeds: hit_seeds.to_vec(),
        hit_bodies,
    })
}

fn shut_down(handle: ServerHandle) -> ServeReport {
    handle.trigger_shutdown();
    handle.join()
}

/// One client's record of the mixed phase.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    hit_traced_us: Vec<f64>,
    hits: u64,
    misses: u64,
    /// (request line, response line, was a hit), traced run only.
    exchanges: Vec<(String, String, bool)>,
}

fn client(ctx: &Ctx, d: &Daemon, progress: &Progress, idx: u64, deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = match Conn::open(&d.handle) {
        Ok(c) => c,
        Err(e) => {
            log.tally.record(Err(format!("client {idx} connect: {e}")));
            return log;
        }
    };
    let mut rng = Rng::new(ctx.seed.wrapping_mul(31).wrapping_add(idx + 1));
    let mut n = 0u64;
    while Instant::now() < deadline {
        let id = (idx << 48) | n;
        let hit = rng.below(2) == 0;
        let (seed, want) = if hit {
            let k = rng.below(HIT_SPECS as u64) as usize;
            (d.hit_seeds[k], Some(&d.hit_bodies[k]))
        } else {
            (MISS_SEED_BASE + (idx << 32) + n, None)
        };
        let line = eval_line(id, seed);
        // In the traced run every other request records a span.
        let traced = ctx.tracer.enabled() && n % 2 == 1;
        let start_ns = ctx.tracer.clock_ns();
        let t0 = Instant::now();
        let resp = conn.call(&line);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        n += 1;
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                log.tally.record(Err(format!("client {idx}: {e}")));
                break;
            }
        };
        if progress.served.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REQUESTS {
            if let Ok(mut rss) = progress.rss_mib.lock() {
                *rss = Some(peak_rss_mib());
            }
        }
        if traced {
            let sid = ctx.tracer.next_id();
            ctx.tracer.record(Span {
                id: sid,
                parent: None,
                trace: sid,
                name: if hit { "serve.hit" } else { "serve.miss" },
                start_ns,
                end_ns: ctx.tracer.clock_ns(),
            });
        }
        let outcome = ok_body(&resp).and_then(|body| match want {
            Some(w) if *w != body => Err(format!("hit on seed {seed} returned a different body")),
            _ => Ok(()),
        });
        log.tally.record(outcome);
        if hit {
            log.hits += 1;
            if traced {
                log.hit_traced_us.push(us);
            } else {
                log.hit_us.push(us);
            }
        } else {
            log.misses += 1;
            log.miss_us.push(us);
        }
        if ctx.tracer.enabled() {
            log.exchanges.push((line, resp, hit));
        }
    }
    log
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed);
    let hit_seeds: Vec<u64> = (0..HIT_SPECS as u64)
        .map(|k| (rng.below(1 << 30) << 5) | k)
        .collect();

    // Set-up: start the daemon and fill the hit specs, several times;
    // the last daemon serves the measured phase.
    let mut daemon: Option<Daemon> = None;
    let mut fills: Vec<Vec<String>> = Vec::new();
    let reps = 9;
    let setup_s = median_of_reps(reps, |k| {
        if let Some(d) = daemon.take() {
            shut_down(d.handle);
        }
        let dir = ctx.fresh_dir(&format!("serve-store-{k}"));
        let t0 = Instant::now();
        let d = set_up(ctx, dir, &hit_seeds);
        let s = secs(t0);
        match d {
            Ok(d) => {
                fills.push(d.hit_bodies.clone());
                daemon = Some(d);
            }
            Err(e) => out.tally.record(Err(e)),
        }
        s
    });
    let Some(d) = daemon else {
        return out;
    };
    // Every set-up must have filled the same bodies as the last one.
    for (k, bodies) in fills.iter().enumerate() {
        out.tally.check(*bodies == d.hit_bodies, || {
            format!("set-up {k} filled different bodies than the last set-up")
        });
    }

    // Measured phase.
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let progress = Progress::default();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..ctx.workers as u64)
            .map(|i| {
                let (d, progress) = (&d, &progress);
                s.spawn(move || client(ctx, d, progress, i, deadline))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join().unwrap_or_else(|_| {
                    let mut log = ClientLog::default();
                    log.tally.record(Err("a client thread panicked".into()));
                    log
                })
            })
            .collect()
    });
    let wall = secs(t0);
    let report = shut_down(d.handle);

    let mut all = ClientLog::default();
    for l in logs {
        all.tally.merge(l.tally);
        all.hit_us.extend(l.hit_us);
        all.miss_us.extend(l.miss_us);
        all.hit_traced_us.extend(l.hit_traced_us);
        all.hits += l.hits;
        all.misses += l.misses;
        all.exchanges.extend(l.exchanges);
    }
    out.tally.merge(all.tally);
    // Exact accounting: the daemon executed the fills and every miss,
    // and answered every hit from the store.
    out.tally.check(
        report.executed == HIT_SPECS as u64 + all.misses && report.cache_hits == all.hits,
        || {
            format!(
                "daemon counted {} executed / {} hits; clients sent {} misses / {} hits",
                report.executed, report.cache_hits, all.misses, all.hits
            )
        },
    );

    let hit_p50 = percentile(&all.hit_us, 50.0);
    let miss_p50 = percentile(&all.miss_us, 50.0);
    out.tally
        .check(hit_p50.is_some() && miss_p50.is_some(), || {
            "too few hits or misses for a median".into()
        });
    out.e2e("setup_s", setup_s, "setup-reps", "median");
    let rss = progress.rss_mib.lock().ok().and_then(|r| *r);
    if rss.is_none() {
        println!("# fewer than {RSS_AFTER_REQUESTS} requests: peak RSS read at the end");
    }
    out.e2e(
        "peak_rss_mib",
        rss.unwrap_or_else(peak_rss_mib),
        "process",
        "vmhwm",
    );
    out.e2e(
        "cold_us_per_job",
        miss_p50.unwrap_or(0.0),
        "miss-latencies",
        "p50",
    );
    out.e2e(
        "warm_us_per_job",
        hit_p50.unwrap_or(0.0),
        "hit-latencies",
        "p50",
    );
    let ok = out.tally.attempted() - out.tally.failed();
    out.info(
        "goodput_rps",
        ok as f64 / wall,
        "1/s",
        "mixed-phase",
        "ok/wall",
    );
    for (name, xs, source, p, stat) in [
        ("hit_p90_ms", &all.hit_us, "hit-latencies", 90.0, "p90"),
        ("hit_p99_ms", &all.hit_us, "hit-latencies", 99.0, "p99"),
        ("miss_p90_ms", &all.miss_us, "miss-latencies", 90.0, "p90"),
        ("miss_p99_ms", &all.miss_us, "miss-latencies", 99.0, "p99"),
    ] {
        if let Some(v) = percentile(xs, p) {
            out.info(name, v / 1e3, "ms", source, stat);
        }
    }
    out.info(
        "requests",
        (all.hits + all.misses) as f64,
        "count",
        "mixed-phase",
        "count",
    );

    if ctx.tracer.enabled() {
        let untraced = hit_p50.unwrap_or(0.0);
        let traced = percentile(&all.hit_traced_us, 50.0).unwrap_or(untraced);
        out.layer(
            "trace.overhead_pct",
            ratio(traced - untraced, untraced) * 100.0,
        );
        out.layer(
            "count.jobs",
            (HIT_SPECS as u64 + all.hits + all.misses) as f64,
        );
        out.layer("count.cache_hits", report.cache_hits as f64);
        out.layer("count.executed", report.executed as f64);
        out.layer(
            "count.sender_steps",
            (report.executed * SENDER_STEPS_PER_EVAL) as f64,
        );
        let (files, bytes) = layers::segment_footprint(&d.dir);
        out.layer("count.segment_files", files as f64);
        out.layer("count.segment_bytes", bytes as f64);
        replay(
            ctx,
            &d.dir,
            &d.hit_seeds,
            report.executed * SENDER_STEPS_PER_EVAL,
            &all.exchanges,
            untraced,
            &mut out,
        );
    }
    out
}

/// The traced run's layer replays over the mixed phase's exact requests.
fn replay(
    ctx: &Ctx,
    store: &Path,
    hit_seeds: &[u64],
    executed_sender_steps: u64,
    exchanges: &[(String, String, bool)],
    hit_p50_us: f64,
    out: &mut Outcome,
) {
    let tr = &ctx.tracer;
    let root = tr.span("replay", None);
    let n = exchanges.len() as f64;
    let hits = exchanges.iter().filter(|e| e.2).count() as f64;

    // Wire parse.
    let s = tr.span("replay.parse", Some(&root));
    let parsed: Vec<_> = exchanges.iter().map(|(l, _, _)| parse_request(l)).collect();
    s.end();
    let specs: Vec<EvalSpec> = parsed
        .into_iter()
        .filter_map(|r| match r.ok()?.op {
            Op::Eval(spec) => Some(spec),
            _ => None,
        })
        .collect();
    out.tally.check(specs.len() == exchanges.len(), || {
        "replay: a recorded request did not parse as an eval".into()
    });

    // Wire serialize: re-render each hit response from its parts; it
    // must come out byte-identical.
    let parts: Vec<_> = exchanges
        .iter()
        .filter(|e| e.2)
        .filter_map(|(_, resp, _)| {
            let p = parse_response(resp).ok()?;
            Some((p.id, p.outcome.ok()?, resp))
        })
        .collect();
    let s = tr.span("replay.ok_line", Some(&root));
    let lines: Vec<String> = parts
        .iter()
        .map(|(id, v, _)| ok_line(id, v.clone()))
        .collect();
    s.end();
    let same = lines.iter().zip(&parts).all(|(l, p)| l == p.2);
    out.tally.check(same && parts.len() as f64 == hits, || {
        "replay: re-rendered responses differ from the daemon's".into()
    });

    // Fingerprint.
    let runner = SweepRunner::serial();
    let s = tr.span("replay.fingerprint", Some(&root));
    let digests: Vec<Digest> = specs
        .iter()
        .map(|spec| runner.job_digest("serve/eval", spec))
        .collect();
    s.end();

    // Store reads through a new handle on the daemon's directory.
    let cache = ResultCache::with_disk(store.to_path_buf());
    let mut first_per_shard: BTreeMap<char, Digest> = BTreeMap::new();
    for d in &digests {
        if let Some(c) = d.to_hex().chars().next() {
            first_per_shard.entry(c).or_insert(*d);
        }
    }
    let s = tr.span("replay.index_build", Some(&root));
    for d in first_per_shard.values() {
        black_box(cache.get(d));
    }
    s.end();
    let s = tr.span("replay.get", Some(&root));
    let records: Vec<Option<Record>> = digests.iter().map(|d| cache.get(d)).collect();
    s.end();
    let found = records.iter().filter(|r| r.is_some()).count();
    out.tally.check(found == digests.len(), || {
        format!(
            "replay: {found} of {} request digests found in the store",
            digests.len()
        )
    });
    out.layer("count.heal_events", cache.stats().heal_events as f64);
    let records: Vec<Record> = records.into_iter().flatten().collect();

    // Record codec.
    let s = tr.span("replay.encode", Some(&root));
    let texts: Vec<String> = records.iter().map(Record::encode).collect();
    s.end();
    let s = tr.span("replay.decode", Some(&root));
    let decoded: Vec<Option<Record>> = texts.iter().map(|t| Record::decode(t)).collect();
    s.end();
    out.tally.check(
        decoded
            .iter()
            .zip(&records)
            .all(|(d, r)| d.as_ref() == Some(r)),
        || "replay: record codec did not round-trip".into(),
    );

    // Store writes: each miss's record, one put per miss as the daemon
    // writes them.
    let put_dir = ctx.fresh_dir("serve-put");
    let put_cache = ResultCache::with_disk(put_dir.clone());
    let misses: Vec<(Digest, Record)> = exchanges
        .iter()
        .zip(digests.iter().zip(&records))
        .filter(|(e, _)| !e.2)
        .map(|(_, (d, r))| (*d, r.clone()))
        .collect();
    let s = tr.span("replay.put", Some(&root));
    for (d, r) in &misses {
        put_cache.put(*d, r.clone());
    }
    s.end();
    let _ = std::fs::remove_dir_all(&put_dir);

    // Traced engine path and link model on every evaluation the daemon
    // executed (the set-up fills and every miss); protocol updates on a
    // seeded sample of them.
    let fills: Vec<EvalSpec> = hit_seeds
        .iter()
        .filter_map(|&seed| match parse_request(&eval_line(0, seed)).ok()?.op {
            Op::Eval(spec) => Some(spec),
            _ => None,
        })
        .collect();
    let executed: Vec<&EvalSpec> = fills
        .iter()
        .chain(
            exchanges
                .iter()
                .zip(&specs)
                .filter(|(e, _)| !e.2)
                .map(|(_, s)| s),
        )
        .collect();
    let mut rng = Rng::new(ctx.seed ^ 0xA5A5);
    let sample: Vec<&EvalSpec> = (0..32)
        .map(|_| executed[rng.below(executed.len() as u64) as usize])
        .collect();
    let link = LinkParams::from_experiment(
        Bandwidth::Mbps(axcc_serve::protocol::DEFAULT_MBPS),
        axcc_serve::protocol::DEFAULT_RTT_MS,
        axcc_serve::protocol::DEFAULT_BUFFER_MSS,
    );
    let scenario = |spec: &EvalSpec, logs: Option<&layers::Logs>| {
        let mut sc = Scenario::new(link).steps(spec.steps).seed(spec.seed);
        for name in &spec.protocols {
            if let Ok(p) = resolve(name) {
                let p = match logs {
                    Some(l) => Box::new(layers::RecordingProtocol::new(p, l)),
                    None => p,
                };
                sc = sc.sender(SenderConfig::new(p).initial_window(1.0));
            }
        }
        sc
    };
    let (mut engine_ns, mut sender_steps, mut link_ns, mut link_evals) = (0u64, 0u64, 0u64, 0u64);
    let s = tr.span("replay.engine", Some(&root));
    for spec in &executed {
        let sc = scenario(spec, None);
        let mut sink = TimedSink::new(TraceSink::for_scenario(&sc));
        let t0 = Instant::now();
        let ran = try_run_scenario_with(sc, &mut sink);
        engine_ns += t0.elapsed().as_nanos() as u64;
        sender_steps += sink.sender_steps;
        if ran.is_err() {
            out.tally
                .record(Err("replay: a sampled miss failed to run".into()));
        }
        let (ns, k) = layers::replay_link(&link, &sink.totals);
        link_ns += ns;
        link_evals += k;
    }
    s.end();
    out.tally.check(sender_steps == executed_sender_steps, || {
        format!("replay: {sender_steps} sender-steps, the daemon executed {executed_sender_steps}")
    });

    let mut per_family: BTreeMap<&'static str, UpdateTally> = BTreeMap::new();
    let (Ok(reno), Ok(cubic)) = (resolve(PROTOCOLS[0]), resolve(PROTOCOLS[1])) else {
        out.tally
            .record(Err("replay: protocols did not resolve".into()));
        return;
    };
    for spec in &sample {
        let logs = layers::new_logs();
        let sc = scenario(spec, Some(&logs));
        let mut sink = TraceSink::for_scenario(&sc);
        black_box(try_run_scenario_with(sc, &mut sink).is_ok());
        for (pname, log) in layers::take_logs(&logs) {
            // Reno is the AIMD family; the other protocol is CUBIC.
            let (metric, proto) = if pname == reno.name() {
                ("protocols.aimd_ns_per_update", &reno)
            } else {
                ("protocols.cubic_ns_per_update", &cubic)
            };
            per_family
                .entry(metric)
                .or_default()
                .add(layers::replay_updates(proto.as_ref(), &log));
        }
    }
    let mut all = UpdateTally::default();
    for (name, t) in &per_family {
        out.layer(name, t.ns_per());
        all.add((t.ns, t.updates));
    }
    drop(root);

    let spans = tr.spans();
    let self_ns = |name: &str| self_time_of(&spans, name) as f64;
    let per = |name: &str, count: f64| ratio(self_ns(name), count);
    let parse_ns = per("replay.parse", n);
    let encode_ns = per("replay.ok_line", hits);
    let digest_ns = per("replay.fingerprint", n);
    let get_ns = per("replay.get", n);
    let decode_ns = per("replay.decode", n);
    out.layer("serve.parse_ns", parse_ns);
    out.layer("serve.encode_ns", encode_ns);
    out.layer("fingerprint.ns_per_job", digest_ns);
    out.layer("cache.index_build_ms", self_ns("replay.index_build") / 1e6);
    out.layer("cache.get_ns_per_lookup", get_ns);
    out.layer("record.encode_ns", per("replay.encode", n));
    out.layer("record.decode_ns", decode_ns);
    out.layer(
        "cache.put_ns_per_record",
        per("replay.put", misses.len() as f64),
    );
    out.layer(
        "fluidsim.traced_ns_per_sender_step",
        ratio(engine_ns as f64, sender_steps as f64),
    );
    out.layer("link.ns_per_eval", ratio(link_ns as f64, link_evals as f64));
    out.layer("protocols.ns_per_update", all.ns_per());
    out.layer("count.observations", all.updates as f64);
    out.layer("count.replay_sender_steps", sender_steps as f64);
    let accounted_us = (parse_ns + digest_ns + get_ns + decode_ns + encode_ns) / 1e3;
    out.layer("serve.hit_residual_ms", (hit_p50_us - accounted_us) / 1e3);
}
