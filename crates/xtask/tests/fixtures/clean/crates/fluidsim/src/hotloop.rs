//! The sanctioned shape: every buffer the step loop touches is hoisted
//! (or prefilled) before the loop, and the body works by `fill` and
//! indexed writes only. Allocation after the loop is equally fine.

/// Runs the scenario against hoisted buffers (the sanctioned pattern).
pub fn run(steps: usize, n: usize, windows: &mut [f64]) -> Vec<f64> {
    let mut totals = vec![0.0; steps];
    let mut loads = vec![0.0; n];
    for t in 0..steps {
        step_loads(&mut loads, windows);
        totals[t] = loads.iter().sum();
    }
    let mut tail = totals.clone();
    tail.push(0.0);
    tail
}

/// The loop's per-step helper: step-loop code, so it too works by `fill`
/// and indexed writes only.
fn step_loads(loads: &mut [f64], windows: &[f64]) {
    loads.fill(0.0);
    for (l, w) in loads.iter_mut().zip(windows.iter()) {
        *l += *w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_loops_may_allocate_per_step() {
        let mut w = [1.0, 2.0];
        for t in 0..3 {
            let per_step = vec![t as f64];
            assert!(run(2, 2, &mut w).len() >= per_step.len());
        }
    }
}
