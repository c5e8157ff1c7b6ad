//! **The adverse-network gauntlet** — Metric VI under *bursty* (rather
//! than constant) non-congestion loss.
//!
//! The paper's robustness axiom (Section 3) uses constant random loss;
//! real wireless and cross-traffic loss arrives in bursts. The gauntlet
//! drives every protocol in the lineup through a grid of Gilbert–Elliott
//! impairments on the axiom's infinite-capacity link and scores each cell
//! with the same escape witness the constant-loss sweep uses
//! ([`MetricAccumulator::window_escapes`](axcc_fluidsim::MetricAccumulator::window_escapes)).
//!
//! **The sweep axes.** Holding the *mean* loss rate fixed while lengthening
//! bursts concentrates the same number of bad RTTs into fewer episodes,
//! which *helps* an additive climber (longer uninterrupted recovery gaps —
//! the packet-level simulator shows the same effect, see
//! `axcc-packetsim`'s correlated-loss test). The genuinely adverse axis is
//! burst *length at fixed burst frequency*: each fault episode still
//! arrives at rate `f` per RTT step, but now lasts `L` steps, crashing a
//! multiplicative-decrease window by `b^L` instead of `b`. The gauntlet
//! therefore sweeps:
//!
//! * **burst length** `L ∈ BURST_LENS` (the burstiness axis; `L = 1` is
//!   the memoryless baseline), and
//! * **burst frequency** `f ∈ BURST_FREQS` (the severity grid; the
//!   reported score is the largest `f` the protocol withstands).
//!
//! A protocol *withstands* a cell when, on a majority of seeds, its window
//! escapes to `β = 50` MSS and stays there for the tail of the run — the
//! finite witness of the axiom's "`x ≥ β` from some `T` on". The back-off factor
//! is what separates protocols here: a length-`L` burst costs Reno
//! `0.5^L` of its window but Robust-AIMD only `0.8^L`, so Reno's tolerated
//! burst frequency collapses with `L` while Robust-AIMD's degrades slowly
//! — the headline [`GauntletReport::degrades_slower`] predicate.
//!
//! **The search.** A column's score is found by [`largest_passing`]
//! rather than by running every cell: frequencies are tried from the
//! highest down and the first withstood one is the score, and a cell
//! stops running seeds once its majority verdict is decided. Every run
//! owns its seed and its RNG, so skipping runs changes no other run, and
//! the score is the one the exhaustive scan of every (frequency, seed)
//! pair would report.
//!
//! Side-effect columns guard against robustness "won" by pure aggression:
//! efficiency (Metric I) and TCP-friendliness (Metric VII) are re-measured
//! on a standard congested link *under* a reference impairment.
//!
//! A final **parking-lot tier** takes the gauntlet multi-bottleneck: each
//! protocol runs the classic [`PARKING_HOPS`]-hop parking lot (one long
//! flow across every hop, one short flow per hop) and reports the long
//! flow's goodput share relative to the mean short flow — how badly the
//! protocol's dynamics punish multi-bottleneck paths.

use crate::estimators::{largest_passing, stream_options_for};
use crate::report::{fmt_score, TextTable};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{
    run_scenario_streaming, LossModel, MetricSet, Scenario, SenderConfig, StreamOptions, Topology,
};
use axcc_protocols::presets;
use axcc_sweep::{EvalMode, SweepJob, SweepRunner};

/// Burst lengths swept (RTT steps spent in the bad state per episode);
/// `1` is the memoryless baseline.
pub const BURST_LENS: [usize; 3] = [1, 4, 8];

/// Burst frequencies swept (probability per good RTT step of entering a
/// bad episode). The score of a cell is the largest frequency withstood.
pub const BURST_FREQS: [f64; 8] = [0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05];

/// Minimum expected burst episodes per robustness run. Rare bursts need
/// long runs: a fixed run length would leave low-frequency cells with a
/// burst-free tail, and `window_escapes` would pass vacuously. Scaling the
/// run so every cell endures the same number of episodes makes all cells
/// statistically comparable.
pub const BURSTS_PER_CELL: f64 = 40.0;

/// Loss rate inside a bad state. Chosen above every Robust-AIMD ε the
/// paper evaluates (0.5–1%), so *no* protocol can pass the gauntlet by
/// filtering the loss signal — only by how gently it backs off and how
/// fast it reclaims.
pub const LOSS_BAD: f64 = 0.25;

/// Escape threshold β (MSS): the window must clear and hold this level.
pub const BETA: f64 = 50.0;

/// Seeds per cell; a cell is withstood when the **majority** of seeds
/// withstand it (the median realization — burst arrivals are geometric,
/// so a single unlucky tail clump would otherwise dominate the score).
pub const GAUNTLET_SEEDS: [u64; 5] = [11, 12, 13, 14, 15];

/// Hops in the parking-lot tier (one long flow across all of them, one
/// short flow per hop).
pub const PARKING_HOPS: usize = 3;

/// One protocol's gauntlet results.
#[derive(Debug, Clone)]
pub struct GauntletRow {
    /// Protocol name.
    pub protocol: String,
    /// Largest withstood burst frequency per entry of [`BURST_LENS`]
    /// (0 when even the rarest bursts defeat the protocol).
    pub scores: Vec<f64>,
    /// Metric I on a congested link under the reference impairment.
    pub efficiency: f64,
    /// Metric VII vs Reno on a congested link under the reference
    /// impairment.
    pub friendliness: f64,
    /// Parking-lot tier: the long flow's goodput relative to the mean
    /// short flow on a [`PARKING_HOPS`]-hop lot (1.0 = unpenalized).
    pub parking_ratio: f64,
}

impl GauntletRow {
    /// Score retention at burst length index `i`, relative to the
    /// memoryless baseline (`None` when the protocol already fails at
    /// `L = 1`, where retention is undefined).
    pub fn retention(&self, i: usize) -> Option<f64> {
        let base = self.scores[0];
        (base > 0.0).then(|| self.scores[i] / base)
    }
}

/// The full gauntlet report.
#[derive(Debug, Clone)]
pub struct GauntletReport {
    /// The burstiness axis actually swept.
    pub burst_lens: Vec<usize>,
    /// The severity grid actually swept.
    pub burst_freqs: Vec<f64>,
    /// In-burst loss rate.
    pub loss_bad: f64,
    /// One row per protocol, lineup order.
    pub rows: Vec<GauntletRow>,
}

/// The gauntlet lineup: the paper's protocols plus the delay-based
/// extensions (Vegas ignores loss entirely — the upper-bound row).
pub fn gauntlet_lineup() -> Vec<Box<dyn Protocol>> {
    vec![
        presets::reno(),
        presets::cubic(),
        presets::scalable_mimd(),
        presets::robust_aimd(0.01),
        presets::pcc(),
        presets::vegas(),
    ]
}

/// The axiom's infinite-capacity link (no congestion loss possible).
fn infinite_link() -> LinkParams {
    LinkParams::new(MAX_WINDOW * 100.0, 0.05, MAX_WINDOW)
}

/// A standard congested link for the side-effect columns: the
/// [`LinkParams::reference`] link (C = 100 MSS, τ = 20 MSS).
fn congested_link() -> LinkParams {
    LinkParams::reference()
}

/// The Gilbert–Elliott model of one gauntlet cell.
fn cell_model(burst_len: usize, freq: f64) -> LossModel {
    LossModel::GilbertElliott {
        p_enter: freq,
        p_exit: 1.0 / burst_len as f64,
        loss_good: 0.0,
        loss_bad: LOSS_BAD,
    }
}

/// The reference impairment for the side-effect columns: mid-grid
/// severity at a solidly bursty length.
fn reference_model() -> LossModel {
    cell_model(4, 0.005)
}

/// Streaming options for gauntlet cells, restricted to the metric
/// families `metrics` (each gauntlet tier reads exactly one or two
/// scores, so the accumulator skips every other family's fold) with the
/// escape threshold lowered to the gauntlet's β.
fn gauntlet_stream_options(metrics: MetricSet) -> StreamOptions {
    StreamOptions {
        escape_beta: BETA,
        ..stream_options_for(metrics)
    }
}

/// Run length of one robustness cell: at least `base` steps, and long
/// enough to endure [`BURSTS_PER_CELL`] expected episodes.
fn cell_steps(base: usize, freq: f64) -> usize {
    base.max((BURSTS_PER_CELL / freq).ceil() as usize)
}

/// Does `proto` withstand one cell under one seed? The witness mirrors
/// the constant-loss sweep: the window escapes β and stays there for the
/// tail of the run.
fn withstands(proto: &dyn Protocol, model: &LossModel, steps: usize, seed: u64) -> bool {
    let sc = Scenario::new(infinite_link())
        .sender(SenderConfig::new(proto.clone_box()).initial_window(10.0))
        .wire_loss(*model)
        .steps(steps)
        .seed(seed);
    run_scenario_streaming(sc, &gauntlet_stream_options(MetricSet::ROBUSTNESS))
        .window_escapes(0, 0.2)
}

/// Largest withstood burst frequency in `freqs` (the job passes
/// [`BURST_FREQS`]) for one burst length: the highest frequency a
/// majority of [`GAUNTLET_SEEDS`] withstand. The search starts at the
/// highest frequency, whose runs are the shortest, and stops at the first
/// withstood cell ([`largest_passing`]), so the long low-frequency runs
/// happen only when every higher frequency was lost.
fn cell_score(proto: &dyn Protocol, burst_len: usize, base_steps: usize, freqs: &[f64]) -> f64 {
    largest_passing(freqs, &GAUNTLET_SEEDS, |freq, seed| {
        withstands(
            proto,
            &cell_model(burst_len, freq),
            cell_steps(base_steps, freq),
            seed,
        )
    })
}

/// Metric I on the congested link under the reference impairment.
fn impaired_efficiency(proto: &dyn Protocol, steps: usize) -> f64 {
    let sc = Scenario::new(congested_link())
        .sender(SenderConfig::new(proto.clone_box()).initial_window(1.0))
        .sender(SenderConfig::new(proto.clone_box()).initial_window(1.0))
        .wire_loss(reference_model())
        .steps(steps)
        .seed(GAUNTLET_SEEDS[0]);
    run_scenario_streaming(sc, &gauntlet_stream_options(MetricSet::EFFICIENCY))
        .measured_efficiency()
}

/// Metric VII vs Reno on the congested link under the reference
/// impairment.
fn impaired_friendliness(proto: &dyn Protocol, steps: usize) -> f64 {
    let reno = presets::reno();
    let sc = Scenario::new(congested_link())
        .sender(SenderConfig::new(proto.clone_box()).initial_window(1.0))
        .sender(SenderConfig::new(reno.clone_box()).initial_window(1.0))
        .wire_loss(reference_model())
        .steps(steps)
        .seed(GAUNTLET_SEEDS[0]);
    run_scenario_streaming(sc, &gauntlet_stream_options(MetricSet::FAIRNESS))
        .measured_friendliness(&[0], &[1])
}

/// Write the gauntlet's fixed grid into a job fingerprint: any change to
/// the frequency grid, seed set, in-burst loss rate, escape threshold, or
/// episode budget must re-address every cached cell.
fn fingerprint_grid(fp: &mut Fingerprinter) {
    BURST_FREQS.as_slice().fingerprint(fp);
    GAUNTLET_SEEDS.as_slice().fingerprint(fp);
    fp.write_f64(LOSS_BAD);
    fp.write_f64(BETA);
    fp.write_f64(BURSTS_PER_CELL);
}

/// One gauntlet cell column: the largest withstood burst frequency for
/// one (protocol, burst length) pair.
struct CellScoreJob {
    proto: Box<dyn Protocol>,
    burst_len: usize,
    steps: usize,
}

impl Fingerprint for CellScoreJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.proto.fingerprint(fp);
        fp.write_usize(self.burst_len);
        fp.write_usize(self.steps);
        fingerprint_grid(fp);
        EvalMode::Streaming.fingerprint(fp);
    }
}

impl SweepJob for CellScoreJob {
    type Output = f64;
    fn run(&self) -> f64 {
        cell_score(
            self.proto.as_ref(),
            self.burst_len,
            self.steps,
            &BURST_FREQS,
        )
    }
}

/// One protocol's side-effect columns (impaired efficiency and
/// friendliness) under the reference impairment.
struct SideEffectJob {
    proto: Box<dyn Protocol>,
    steps: usize,
}

impl Fingerprint for SideEffectJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.proto.fingerprint(fp);
        fp.write_usize(self.steps);
        fingerprint_grid(fp);
        EvalMode::Streaming.fingerprint(fp);
    }
}

impl SweepJob for SideEffectJob {
    type Output = (f64, f64);
    fn run(&self) -> (f64, f64) {
        (
            impaired_efficiency(self.proto.as_ref(), self.steps),
            impaired_friendliness(self.proto.as_ref(), self.steps),
        )
    }
}

/// Long-flow goodput share on the parking lot: long / mean(short). The
/// run streams through the fairness fold's tail-mean goodputs; the job
/// fingerprint carries no evaluation tag.
fn parking_lot_ratio(proto: &dyn Protocol, steps: usize) -> f64 {
    let mut sc = Scenario::on(Topology::parking_lot(PARKING_HOPS, congested_link()))
        .steps(steps)
        .sender(SenderConfig::new(proto.clone_box()).path((0..PARKING_HOPS).collect()));
    for l in 0..PARKING_HOPS {
        sc = sc.sender(SenderConfig::new(proto.clone_box()).path(vec![l]));
    }
    let acc = run_scenario_streaming(sc, &stream_options_for(MetricSet::FAIRNESS));
    let long = acc.tail_mean_goodput(0);
    let short: f64 = (1..=PARKING_HOPS)
        .map(|f| acc.tail_mean_goodput(f))
        .sum::<f64>()
        / PARKING_HOPS as f64;
    if short > 0.0 {
        long / short
    } else {
        0.0
    }
}

/// One protocol's parking-lot tier run.
struct ParkingLotJob {
    proto: Box<dyn Protocol>,
    steps: usize,
}

impl Fingerprint for ParkingLotJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        self.proto.fingerprint(fp);
        fp.write_usize(self.steps);
        fp.write_usize(PARKING_HOPS);
        congested_link().fingerprint(fp);
    }
}

impl SweepJob for ParkingLotJob {
    type Output = f64;
    fn run(&self) -> f64 {
        parking_lot_ratio(self.proto.as_ref(), self.steps)
    }
}

/// Run the full gauntlet with `steps` fluid steps per run through a sweep
/// runner. The grain is one job per (protocol, burst length) column, and
/// column costs differ widely: a withstood column stops at its first passing frequency, while
/// a never-withstood one (Reno and Vegas at L = 4 and 8) searches down to
/// the cells `cell_steps` stretches to ~200k steps and dominates the
/// wall-clock. Splitting below protocol level is what lets the pool
/// balance them.
pub fn run_gauntlet_with(runner: &SweepRunner, steps: usize) -> GauntletReport {
    let lineup = gauntlet_lineup();
    let mut cell_jobs = Vec::new();
    for proto in &lineup {
        for &burst_len in &BURST_LENS {
            cell_jobs.push(CellScoreJob {
                proto: proto.clone(),
                burst_len,
                steps,
            });
        }
    }
    let scores = runner.run_jobs("gauntlet/cells", &cell_jobs);
    let side_jobs: Vec<SideEffectJob> = lineup
        .iter()
        .map(|proto| SideEffectJob {
            proto: proto.clone(),
            steps,
        })
        .collect();
    let sides = runner.run_jobs("gauntlet/side-effects", &side_jobs);
    let parking_jobs: Vec<ParkingLotJob> = lineup
        .iter()
        .map(|proto| ParkingLotJob {
            proto: proto.clone(),
            steps,
        })
        .collect();
    let parking = runner.run_jobs("gauntlet/parking-lot", &parking_jobs);

    let rows = lineup
        .iter()
        .enumerate()
        .map(|(i, proto)| {
            let base = i * BURST_LENS.len();
            let (eff, friend) = sides[i];
            GauntletRow {
                protocol: proto.name(),
                scores: scores[base..base + BURST_LENS.len()].to_vec(),
                efficiency: eff,
                friendliness: friend,
                parking_ratio: parking[i],
            }
        })
        .collect();
    GauntletReport {
        burst_lens: BURST_LENS.to_vec(),
        burst_freqs: BURST_FREQS.to_vec(),
        loss_bad: LOSS_BAD,
        rows,
    }
}

impl GauntletReport {
    /// Find a row by protocol-name prefix.
    pub fn row(&self, prefix: &str) -> Option<&GauntletRow> {
        self.rows.iter().find(|r| r.protocol.starts_with(prefix))
    }

    /// The headline predicate: protocol `a` degrades **strictly slower**
    /// than protocol `b` as burstiness increases — `a` never scores below
    /// `b`, and at every burst length past the baseline `a` retains a
    /// strictly larger fraction of its own baseline score (with "`b`
    /// already dead" counting as fully degraded).
    pub fn degrades_slower(&self, a: &str, b: &str) -> bool {
        let (Some(ra), Some(rb)) = (self.row(a), self.row(b)) else {
            return false;
        };
        let Some(1.0) = ra.retention(0) else {
            return false;
        };
        (0..self.burst_lens.len()).all(|i| ra.scores[i] >= rb.scores[i])
            && (1..self.burst_lens.len()).all(|i| {
                let ret_a = ra.retention(i).unwrap_or(0.0);
                let ret_b = rb.retention(i).unwrap_or(0.0);
                ret_a > ret_b
            })
    }

    /// Render as a text table.
    pub fn render(&self) -> String {
        let mut headers = vec!["protocol".to_string()];
        headers.extend(self.burst_lens.iter().map(|l| format!("f*@L={l}")));
        headers.push("efficiency".into());
        headers.push("friendliness".into());
        headers.push("lot-ratio".into());
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut cells = vec![r.protocol.clone()];
            cells.extend(r.scores.iter().map(|&s| fmt_score(s)));
            cells.push(fmt_score(r.efficiency));
            cells.push(fmt_score(r.friendliness));
            cells.push(fmt_score(r.parking_ratio));
            t.row(cells);
        }
        format!(
            "Adverse-network gauntlet — Metric VI under Gilbert–Elliott bursty loss.\n\
             Cell f*@L: largest burst frequency (bursts per RTT step) the protocol\n\
             withstands (window escapes and holds β = {BETA} MSS on most seeds) when each\n\
             burst lasts L steps at {:.0}% in-burst loss. Efficiency and friendliness are\n\
             re-measured on a congested link under the reference impairment\n\
             (L = 4, f = 0.005). lot-ratio: the long flow's goodput share on a\n\
             {PARKING_HOPS}-hop parking lot (1.0 = unpenalized by multi-bottleneck paths).\n\n{}\nR-AIMD degrades strictly slower than AIMD(1,0.5): {}\n",
            self.loss_bad * 100.0,
            t.render(),
            self.degrades_slower("R-AIMD", "AIMD(1,0.5)"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared report so the suite pays for the sweep once.
    fn report() -> &'static GauntletReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<GauntletReport> = OnceLock::new();
        REPORT.get_or_init(|| run_gauntlet_with(&SweepRunner::serial(), 2500))
    }

    /// The exhaustive scan the search replaced, kept as its oracle: run
    /// every (frequency, seed) pair and keep the largest frequency a
    /// majority of seeds withstand. Also returns the pass count of every
    /// cell, in `freqs` order.
    fn exhaustive_cell_score(
        proto: &dyn Protocol,
        burst_len: usize,
        base_steps: usize,
        freqs: &[f64],
    ) -> (f64, Vec<usize>) {
        let mut best = 0.0;
        let mut counts = Vec::new();
        for &freq in freqs {
            let model = cell_model(burst_len, freq);
            let steps = cell_steps(base_steps, freq);
            let passes = GAUNTLET_SEEDS
                .iter()
                .filter(|&&seed| withstands(proto, &model, steps, seed))
                .count();
            if 2 * passes > GAUNTLET_SEEDS.len() {
                best = freq.max(best);
            }
            counts.push(passes);
        }
        (best, counts)
    }

    /// `cell_score` over `freqs` equals the exhaustive scan on the column
    /// of lineup entry `index` at `burst_len`, at the paper's 2500-step
    /// budget; returns the column's pass counts.
    fn assert_column_matches_exhaustive(
        index: usize,
        burst_len: usize,
        freqs: &[f64],
    ) -> Vec<usize> {
        let lineup = gauntlet_lineup();
        let proto = lineup[index].as_ref();
        let (want, counts) = exhaustive_cell_score(proto, burst_len, 2500, freqs);
        let got = cell_score(proto, burst_len, 2500, freqs);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{} at L = {burst_len}: search {got}, exhaustive {want}, passes per frequency {counts:?}",
            proto.name()
        );
        counts
    }

    #[test]
    fn cell_search_matches_the_exhaustive_scan_on_three_kinds_of_column() {
        // CUBIC at L = 1 withstands every cell; Reno at L = 8 withstands
        // none; R-AIMD at L = 8 splits by seed (3/5 at f = 0.001, 1/5 at
        // 0.002). The two rarest frequencies, whose 80k–200k-step runs
        // would make the oracle slow under the test profile, are left to
        // the full-grid test below.
        let freqs = &BURST_FREQS[2..];
        let all = GAUNTLET_SEEDS.len();
        let cubic = assert_column_matches_exhaustive(1, 1, freqs);
        assert!(cubic.iter().all(|&c| c == all), "{cubic:?}");
        let reno = assert_column_matches_exhaustive(0, 8, freqs);
        assert!(reno.iter().all(|&c| c == 0), "{reno:?}");
        let raimd = assert_column_matches_exhaustive(3, 8, freqs);
        assert!(raimd.iter().any(|&c| c > 0 && c < all), "{raimd:?}");
    }

    /// Every column of the paper grid: 18 columns × 8 frequencies × 5
    /// seeds, exhaustively. About a second in release; run with
    /// `cargo test --release -p axcc-analysis gauntlet_full_grid -- --ignored`.
    #[test]
    #[ignore = "exhaustive paper grid; run in release with --ignored"]
    fn gauntlet_full_grid_search_matches_exhaustive_scan() {
        for index in 0..gauntlet_lineup().len() {
            for &burst_len in &BURST_LENS {
                assert_column_matches_exhaustive(index, burst_len, &BURST_FREQS);
            }
        }
    }

    #[test]
    fn robust_aimd_degrades_strictly_slower_than_reno() {
        let rep = report();
        assert!(
            rep.degrades_slower("R-AIMD", "AIMD(1,0.5)"),
            "{}",
            rep.render()
        );
    }

    #[test]
    fn burstiness_at_fixed_frequency_is_monotonically_adverse() {
        // The tolerated frequency can only fall as bursts lengthen
        // (longer bursts at the same frequency are strictly more loss).
        let rep = report();
        for r in &rep.rows {
            for i in 1..rep.burst_lens.len() {
                assert!(
                    r.scores[i] <= r.scores[i - 1] + 1e-12,
                    "{} scores not monotone: {:?}",
                    r.protocol,
                    r.scores
                );
            }
        }
    }

    #[test]
    fn reno_dies_early_and_robust_aimd_survives_the_baseline() {
        let rep = report();
        let reno = rep.row("AIMD(1,0.5)").expect("reno row");
        let raimd = rep.row("R-AIMD").expect("r-aimd row");
        // Both withstand something at L = 1 (isolated bad steps), and
        // R-AIMD strictly more.
        assert!(raimd.scores[0] > reno.scores[0], "{:?}", rep.render());
        // By L = 8 a Reno window is cut to 0.5^8 ≈ 0.4% per burst: dead at
        // every grid frequency, while R-AIMD (0.8^8 ≈ 17% kept) hangs on.
        assert_eq!(reno.scores[2], 0.0, "{}", rep.render());
        assert!(raimd.scores[2] > 0.0, "{}", rep.render());
    }

    #[test]
    fn side_effect_columns_are_populated() {
        let rep = report();
        for r in &rep.rows {
            assert!(
                r.efficiency.is_finite() && r.efficiency >= 0.0,
                "{}: eff {}",
                r.protocol,
                r.efficiency
            );
            assert!(
                r.friendliness.is_finite() && r.friendliness >= 0.0,
                "{}: friend {}",
                r.protocol,
                r.friendliness
            );
        }
        // Robustness is not won by aggression: R-AIMD stays useful on a
        // congested link under the same impairment, where Reno collapses.
        let raimd = rep.row("R-AIMD").expect("r-aimd row");
        let reno = rep.row("AIMD(1,0.5)").expect("reno row");
        assert!(raimd.efficiency > 0.15, "{}", raimd.efficiency);
        assert!(raimd.efficiency > reno.efficiency, "{}", rep.render());
    }

    #[test]
    fn parking_lot_tier_penalizes_long_reno_flows() {
        let rep = report();
        for r in &rep.rows {
            assert!(
                r.parking_ratio.is_finite() && r.parking_ratio >= 0.0,
                "{}: lot ratio {}",
                r.protocol,
                r.parking_ratio
            );
        }
        // The loss-based climbers cross PARKING_HOPS bottlenecks (more
        // loss exposure, longer RTT): their long flow earns clearly less
        // than the short flows, but is not starved outright.
        let reno = rep.row("AIMD(1,0.5)").expect("reno row");
        assert!(reno.parking_ratio < 1.0, "{}", reno.parking_ratio);
        assert!(reno.parking_ratio > 0.01, "{}", reno.parking_ratio);
    }

    #[test]
    fn render_shows_every_protocol_and_the_headline() {
        let rep = report();
        let txt = rep.render();
        for r in &rep.rows {
            assert!(txt.contains(&r.protocol), "{txt}");
        }
        assert!(
            txt.contains("R-AIMD degrades strictly slower than AIMD(1,0.5): true"),
            "{txt}"
        );
    }
}
