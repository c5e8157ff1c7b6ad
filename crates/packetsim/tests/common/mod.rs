//! The packet engine's one-scoring-path check, shared by the test files
//! that run it: a run streamed into a [`MetricAccumulator`] scores every
//! axiom bit-identically to replaying the trace the same scenario records,
//! and the sample count predicted before the run equals the trace length.

use axcc_core::axioms::streaming::{
    metric_accumulator_for, MetricAccumulator, MetricConfig, StreamOptions,
};
use axcc_core::RunShape;
use axcc_packetsim::{PacketScenario, SimOutput};

/// Stream `sc` through `try_run_with` and compare it with `recorded`, the
/// output `try_run` gave for the same scenario; name every difference.
pub fn streamed_matches_replay(sc: PacketScenario, recorded: &SimOutput) -> Result<(), String> {
    let predicted = sc.trace_len();
    let mut acc = metric_accumulator_for(&sc, &StreamOptions::default());
    let streamed = sc.try_run_with(&mut acc).map_err(|e| e.to_string())?;
    let trace = &recorded.trace;
    let mut diffs = Vec::new();
    if predicted != trace.len() || acc.steps_seen() != trace.len() {
        diffs.push(format!(
            "predicted {predicted} samples, streamed {}, recorded {}",
            acc.steps_seen(),
            trace.len()
        ));
    }
    if (&streamed.flows, &streamed.queue, &streamed.in_flight_at_end)
        != (&recorded.flows, &recorded.queue, &recorded.in_flight_at_end)
    {
        diffs.push("packet accounting differs".to_string());
    }
    let replayed = MetricAccumulator::replay(trace, &MetricConfig::for_trace(trace));
    let (a, b) = (&acc, &replayed);
    let mut scores = vec![
        (
            "efficiency".to_string(),
            a.measured_efficiency(),
            b.measured_efficiency(),
        ),
        (
            "utilization".into(),
            a.mean_utilization(),
            b.mean_utilization(),
        ),
        (
            "loss bound".into(),
            a.measured_loss_bound(),
            b.measured_loss_bound(),
        ),
        ("mean loss".into(), a.mean_loss(), b.mean_loss()),
        (
            "latency".into(),
            a.measured_latency_inflation(),
            b.measured_latency_inflation(),
        ),
        (
            "fairness".into(),
            a.measured_fairness(),
            b.measured_fairness(),
        ),
        ("jain".into(), a.jain_index(), b.jain_index()),
        (
            "convergence".into(),
            a.measured_convergence(),
            b.measured_convergence(),
        ),
    ];
    let n = trace.num_senders();
    for k in 1..n {
        let (p, q): (Vec<usize>, Vec<usize>) = ((0..k).collect(), (k..n).collect());
        let (fa, fb) = (
            a.measured_friendliness(&p, &q),
            b.measured_friendliness(&p, &q),
        );
        scores.push((format!("friendliness {k}"), fa, fb));
    }
    let flags = |m: &MetricAccumulator, i| {
        (
            m.is_zero_loss(),
            m.window_escapes(i, 0.2),
            m.window_diverging(i, 1e-9),
        )
    };
    for i in 0..n {
        let fast = |m: &MetricAccumulator| m.measured_fast_utilization(i).unwrap_or(f64::NAN);
        scores.push((format!("fast-util {i}"), fast(a), fast(b)));
        scores.push((
            format!("last window {i}"),
            a.last_window(i),
            b.last_window(i),
        ));
        scores.push((
            format!("tail window {i}"),
            a.tail_mean_window(i),
            b.tail_mean_window(i),
        ));
        scores.push((
            format!("tail goodput {i}"),
            a.tail_mean_goodput(i),
            b.tail_mean_goodput(i),
        ));
        if flags(a, i) != flags(b, i) {
            diffs.push(format!("flags {i}: {:?} vs {:?}", flags(a, i), flags(b, i)));
        }
    }
    for (what, x, y) in scores {
        if x.to_bits() != y.to_bits() {
            diffs.push(format!("{what}: streamed {x} vs replayed {y}"));
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join("; "))
    }
}
