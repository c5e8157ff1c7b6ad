//! Job execution and the daemon's one panic boundary.
//!
//! [`execute`] runs a queued operation inside `catch_unwind` — the single
//! place in the workspace (outside the protocol registry's constructor
//! guard) where a panic is deliberately caught. The contract: a poisoned
//! scenario takes down *its own request* with a typed `job-panicked`
//! error, never the worker thread and never the daemon. Two unwind
//! payloads are special-cased:
//!
//! * [`Interrupted`](axcc_sweep::Interrupted) — a deadline-cancelled
//!   sweep; reported as `timeout`, with completed-job counts attached
//!   (the completed work is already in the shared cache, so a retry
//!   resumes rather than restarts).
//! * everything else — a genuine panic; reported as `job-panicked` with
//!   the panic message.
//!
//! Evaluations reuse the sweep engine: inline scenarios go through
//! [`SweepRunner::run_cached`] (content-addressed, one evaluation per
//! distinct scored spec per cache lifetime; refusals are not stored) and
//! registry experiments run on a per-request runner wired to the shared
//! store and the request's cancellation signal.

use crate::protocol::{ErrorKind, EvalSpec, ExperimentSpec, Op};
use axcc_analysis::estimators::{solo_metrics_of_acc, stream_options_for, SoloMetrics};
use axcc_analysis::experiments::{find_experiment, RunBudget};
use axcc_core::error::{MAX_SENDERS, MAX_STEPS};
use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_fluidsim::{
    try_run_scenario_streaming, LossModel, MetricAccumulator, MetricSet, Scenario, SenderConfig,
};
use axcc_protocols::registry::resolve;
use axcc_sweep::{interrupted_payload, Cacheable, CancelSignal, Record, SweepRunner};
use serde_json::{json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a job produced: a result value, or a typed error.
pub(crate) type JobResult = Result<Value, (ErrorKind, String)>;

/// Run one queued operation to completion under the panic boundary.
///
/// `runner` is this request's sweep runner (shared cache, per-request
/// cancellation); `cancel` is the request's deadline/shutdown flag.
pub(crate) fn execute(op: &Op, runner: &SweepRunner, cancel: &Arc<AtomicBool>) -> JobResult {
    // Pre-claim check: if the deadline already passed while the job sat
    // in the queue, don't burn a worker on it.
    if cancel.load(Ordering::SeqCst) {
        return Err((
            ErrorKind::Timeout,
            "deadline passed before the job started".to_string(),
        ));
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| run_op(op, runner)));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            if let Some(info) = interrupted_payload(payload.as_ref()) {
                Err((
                    ErrorKind::Timeout,
                    format!(
                        "deadline passed after {} of {} jobs (completed results are cached; \
                         a retry resumes from them)",
                        info.completed, info.total
                    ),
                ))
            } else {
                Err((ErrorKind::JobPanicked, panic_text(payload.as_ref())))
            }
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked (non-string payload)".to_string()
    }
}

fn run_op(op: &Op, runner: &SweepRunner) -> JobResult {
    match op {
        Op::Eval(spec) => run_eval(spec, runner),
        Op::Experiment(spec) => run_experiment(spec, runner),
        Op::DebugPanic => {
            // tidy-allow: panic-freedom — test-only op whose entire purpose is to exercise the catch_unwind boundary above.
            panic!("debug-panic requested")
        }
        Op::DebugSleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            Ok(json!({"slept_ms": *ms}))
        }
        // Ping/Stats/Shutdown are answered at the connection, not queued.
        Op::Ping | Op::Stats | Op::Shutdown => Ok(Value::Null),
    }
}

/// The cacheable outcome of one inline evaluation: per-sender tail means
/// plus the solo axiom metrics of the shared trace.
#[derive(Debug, Clone, PartialEq)]
struct EvalOutcome {
    protocols: Vec<String>,
    mean_window: Vec<f64>,
    mean_goodput: Vec<f64>,
    metrics: SoloMetrics,
}

/// The record: a `true` tag, the sender count, each protocol name, every
/// tail-mean window then every tail-mean goodput, then the solo metrics.
/// The tag keeps the layout that stores already hold. A record tagged
/// `false` holds a refusal that an earlier build stored; it reads as a
/// miss, so the spec is checked again.
impl Cacheable for EvalOutcome {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_bool(true);
        r.push_usize(self.protocols.len());
        self.protocols.iter().for_each(|p| r.push_str(p));
        let means = self.mean_window.iter().chain(&self.mean_goodput);
        means.for_each(|&v| r.push_f64(v));
        self.metrics.encode_into(&mut r);
        r
    }

    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        if !rd.bool()? {
            return None;
        }
        let n = rd.usize()?;
        let protocols = (0..n)
            .map(|_| rd.str().map(str::to_string))
            .collect::<Option<_>>()?;
        let mean_window = (0..n).map(|_| rd.f64()).collect::<Option<_>>()?;
        let mean_goodput = (0..n).map(|_| rd.f64()).collect::<Option<_>>()?;
        let metrics = SoloMetrics::decode_from(&mut rd)?;
        rd.exhausted().then_some(EvalOutcome {
            protocols,
            mean_window,
            mean_goodput,
            metrics,
        })
    }
}

impl EvalOutcome {
    /// The wire result: per-sender tail means, then the solo metrics under
    /// their field names (a non-finite score renders as `null`).
    fn to_value(&self) -> Value {
        let senders = self
            .protocols
            .iter()
            .zip(&self.mean_window)
            .zip(&self.mean_goodput);
        let senders: Vec<Value> = senders
            .map(|((p, w), g)| json!({"protocol": p, "mean_window": w, "mean_goodput": g}))
            .collect();
        json!({"senders": senders, "metrics": self.metrics})
    }
}

/// Run the spec's scenario, folding every step into the solo metric
/// families (Metrics I–V and VIII plus the per-sender tail means). The
/// run's size is held to the CLI's bounds before anything is built, the
/// link goes through the same validated front door as the CLI's flags,
/// and the wire-loss rate through the scenario's `LossModel::validate`.
fn build_and_run(spec: &EvalSpec) -> Result<MetricAccumulator, (ErrorKind, String)> {
    let sizes = [
        ("steps", spec.steps, MAX_STEPS),
        ("protocols", spec.protocols.len(), MAX_SENDERS),
    ];
    if let Some((field, n, max)) = sizes.into_iter().find(|&(_, n, max)| n > max) {
        let msg = format!("`{field}` asks for {n}; an eval runs at most {max}");
        return Err((ErrorKind::InvalidScenario, msg));
    }
    let invalid = |e: axcc_core::ScenarioError| (ErrorKind::InvalidScenario, e.to_string());
    let link =
        LinkParams::try_from_experiment(Bandwidth::Mbps(spec.mbps), spec.rtt_ms, spec.buffer)
            .map_err(invalid)?;
    let rate = spec.wire_loss;
    let mut sc = Scenario::new(link)
        .steps(spec.steps)
        .seed(spec.seed)
        .wire_loss(LossModel::Bernoulli { rate });
    for name in &spec.protocols {
        let proto = resolve(name).map_err(|e| (ErrorKind::InvalidScenario, e.to_string()))?;
        sc = sc.sender(SenderConfig::new(proto).initial_window(1.0));
    }
    try_run_scenario_streaming(sc, &stream_options_for(MetricSet::SOLO)).map_err(invalid)
}

fn run_eval(spec: &EvalSpec, runner: &SweepRunner) -> JobResult {
    let outcome = runner.run_cached("serve/eval", spec, || {
        let acc = build_and_run(spec)?;
        let senders = 0..acc.num_senders();
        Ok(EvalOutcome {
            protocols: spec.protocols.clone(),
            mean_window: senders.clone().map(|i| acc.tail_mean_window(i)).collect(),
            mean_goodput: senders.map(|i| acc.tail_mean_goodput(i)).collect(),
            metrics: solo_metrics_of_acc(&acc),
        })
    })?;
    Ok(outcome.to_value())
}

fn run_experiment(spec: &ExperimentSpec, runner: &SweepRunner) -> JobResult {
    let exp = find_experiment(&spec.name).ok_or_else(|| {
        (
            ErrorKind::BadRequest,
            format!(
                "unknown experiment `{}` (see `axcc run-all` for names)",
                spec.name
            ),
        )
    })?;
    let outcome = (exp.run)(runner, RunBudget { smoke: spec.smoke });
    let stats = runner.stats();
    Ok(json!({
        "experiment": exp.name,
        "artifact": exp.artifact,
        "passed": outcome.passed,
        "report": outcome.report,
        "cache_hits": stats.cache_hits,
        "executed": stats.executed,
    }))
}

/// Build the per-request sweep runner: shared store, request-scoped
/// cancellation (deadline or drain), serial within the request (requests
/// are the unit of parallelism; the worker pool provides the fan-out).
pub(crate) fn request_runner(
    cache: &Arc<axcc_sweep::ResultCache>,
    cancel: &Arc<AtomicBool>,
) -> SweepRunner {
    let flag = cancel.clone();
    SweepRunner::with_cache_handle(1, cache.clone())
        .with_cancel(CancelSignal::from_fn(move || flag.load(Ordering::SeqCst)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_sweep::ResultCache;

    fn fresh_runner() -> (Arc<ResultCache>, Arc<AtomicBool>, SweepRunner) {
        let cache = Arc::new(ResultCache::in_memory());
        let cancel = Arc::new(AtomicBool::new(false));
        let runner = request_runner(&cache, &cancel);
        (cache, cancel, runner)
    }

    /// The cached eval record's encoded bytes, pinned: a daemon's warm
    /// store written by an earlier build keeps answering.
    #[test]
    fn cached_eval_record_bytes_are_pinned() {
        let ok = EvalOutcome {
            protocols: vec!["reno".into(), "cubic".into()],
            mean_window: vec![10.5, 20.25],
            mean_goodput: vec![0.5, f64::INFINITY],
            metrics: SoloMetrics {
                efficiency: 0.98,
                loss_bound: 0.0,
                fairness: 1.0,
                convergence: f64::INFINITY,
                fast_utilization: None,
                latency_inflation: 1.25,
                mean_utilization: 0.875,
            },
        };
        assert_eq!(ok.to_record().encode(), "15\n1\n2\nreno\ncubic\n4025000000000000\n4034400000000000\n3fe0000000000000\n7ff0000000000000\n3fef5c28f5c28f5c\n0000000000000000\n3ff0000000000000\n7ff0000000000000\n-\n3ff4000000000000\n3fec000000000000\n");
    }

    #[test]
    fn a_stored_refusal_is_a_miss_and_the_current_message_wins() {
        let (cache, cancel, runner) = fresh_runner();
        let mut spec = eval_spec();
        spec.wire_loss = -0.5;
        let mut stale = Record::new();
        stale.push_bool(false);
        stale.push_str("invalid link: wire_loss = -0.5 is out of domain");
        cache.put(runner.job_digest("serve/eval", &spec), stale);
        let (kind, msg) = execute(&Op::Eval(spec), &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::InvalidScenario);
        assert!(msg.contains("invalid loss model"), "{msg}");
        assert_eq!(runner.stats().cache_hits, 0);
    }

    fn eval_spec() -> EvalSpec {
        EvalSpec {
            protocols: vec!["reno".to_string(), "cubic".to_string()],
            mbps: 20.0,
            rtt_ms: 42.0,
            buffer: 100.0,
            steps: 400,
            seed: 0,
            wire_loss: 0.0,
        }
    }

    #[test]
    fn eval_scores_and_caches() {
        let (cache, _cancel, runner) = fresh_runner();
        let v = execute(
            &Op::Eval(eval_spec()),
            &runner,
            &Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        let senders = v.get("senders").and_then(Value::as_array).unwrap();
        assert_eq!(senders.len(), 2);
        assert!(
            v.get("metrics")
                .unwrap()
                .get("efficiency")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert_eq!(cache.len(), 1);
        // Second request over a fresh runner sharing the cache: a hit.
        let cancel2 = Arc::new(AtomicBool::new(false));
        let runner2 = request_runner(&cache, &cancel2);
        let v2 = execute(&Op::Eval(eval_spec()), &runner2, &cancel2).unwrap();
        assert_eq!(v.render_compact(), v2.render_compact());
        assert_eq!(runner2.stats().cache_hits, 1);
    }

    #[test]
    fn unknown_protocol_is_invalid_scenario() {
        let (_c, cancel, runner) = fresh_runner();
        let mut spec = eval_spec();
        spec.protocols = vec!["warp-drive".to_string()];
        let (kind, msg) = execute(&Op::Eval(spec), &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::InvalidScenario);
        assert!(!msg.is_empty());
    }

    #[test]
    fn bad_link_is_invalid_scenario_not_a_crash() {
        let (_c, cancel, runner) = fresh_runner();
        type Spoil = fn(&mut EvalSpec);
        let cases: [(Spoil, &str); 5] = [
            (|s| s.mbps = -5.0, "link.bandwidth = -"),
            (|s| s.rtt_ms = f64::INFINITY, "link.prop_delay = inf"),
            (|s| s.buffer = f64::NAN, "link.buffer = NaN"),
            (|s| s.wire_loss = 1.5, "invalid loss model"),
            (|s| s.wire_loss = f64::NAN, "invalid loss model"),
        ];
        for (spoil, want) in cases {
            let mut spec = eval_spec();
            spoil(&mut spec);
            let (kind, msg) = execute(&Op::Eval(spec), &runner, &cancel).unwrap_err();
            assert_eq!(kind, ErrorKind::InvalidScenario);
            assert!(msg.contains(want), "{msg}");
        }
    }

    #[test]
    fn oversized_runs_are_refused_before_they_run() {
        let (_c, cancel, runner) = fresh_runner();
        let mut steps = eval_spec();
        steps.steps = 1_000_000_000_000_000_000;
        let mut senders = eval_spec();
        senders.protocols = vec!["reno".to_string(); MAX_SENDERS + 1];
        for (spec, want) in [
            (steps, "`steps` asks for"),
            (senders, "`protocols` asks for"),
        ] {
            let (kind, msg) = execute(&Op::Eval(spec), &runner, &cancel).unwrap_err();
            assert_eq!(kind, ErrorKind::InvalidScenario);
            assert!(msg.contains(want), "{msg}");
        }
    }

    #[test]
    fn panicking_job_is_contained() {
        let (_c, cancel, runner) = fresh_runner();
        let (kind, msg) = execute(&Op::DebugPanic, &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::JobPanicked);
        assert!(msg.contains("debug-panic"));
    }

    #[test]
    fn pre_raised_cancel_is_a_timeout_without_work() {
        let (_c, _cancel, runner) = fresh_runner();
        let cancel = Arc::new(AtomicBool::new(true));
        let (kind, _) = execute(&Op::Eval(eval_spec()), &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::Timeout);
    }

    #[test]
    fn cancelled_experiment_reports_timeout_with_progress() {
        let (cache, cancel, runner) = fresh_runner();
        cancel.store(true, Ordering::SeqCst);
        // Bypass the pre-claim check to exercise the unwind path.
        let fresh = Arc::new(AtomicBool::new(false));
        let spec = ExperimentSpec {
            name: "table1".to_string(),
            smoke: true,
        };
        let (kind, msg) = execute(&Op::Experiment(spec), &runner, &fresh).unwrap_err();
        assert_eq!(kind, ErrorKind::Timeout);
        assert!(msg.contains("deadline"), "{msg}");
        drop(cache);
    }

    #[test]
    fn unknown_experiment_is_bad_request() {
        let (_c, cancel, runner) = fresh_runner();
        let spec = ExperimentSpec {
            name: "no-such-table".to_string(),
            smoke: true,
        };
        let (kind, _) = execute(&Op::Experiment(spec), &runner, &cancel).unwrap_err();
        assert_eq!(kind, ErrorKind::BadRequest);
    }
}
