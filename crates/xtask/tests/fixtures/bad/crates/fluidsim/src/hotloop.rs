//! An engine step loop that heap-allocates per step: every one of these
//! buffers belongs in a workspace hoisted before the loop.

/// Runs the scenario with per-step allocations (the anti-pattern).
pub fn run(steps: usize, n: usize, windows: &mut [f64]) -> Vec<f64> {
    let mut totals = Vec::with_capacity(steps);
    for t in 0..steps {
        let loads = vec![0.0; n];
        let doubled: Vec<f64> = windows.iter().map(|w| w + w).collect();
        let snapshot = doubled.to_vec();
        totals.push(loads.len() as f64 + snapshot[t % n]);
    }
    totals
}

/// A step helper the loop calls: its body is step-loop code too, so the
/// per-step log it grows is flagged.
fn step_senders(active: &[usize], log: &mut Vec<usize>) {
    for &i in active {
        log.push(i);
    }
}
