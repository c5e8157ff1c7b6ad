//! Known answers for multi-link runs: the bits of every window, loss,
//! goodput and per-sender RTT column, and of every per-link load and loss
//! column, on 2- and 3-hop parking lots (plus one heterogeneous pair of
//! links) with Reno, Vegas and Cubic, staggered starts and stops, and
//! churned visitor populations.
//!
//! The digests were recorded with the array-of-structs network loop that
//! multi-link runs used before they moved into the one SoA engine. They
//! pin that loop's arithmetic order: loads summed in sender order, a
//! sender's RTT as its summed base RTT plus the summed queueing delays of
//! its path, its loss as `1 − Π(1 − L_l)`, and idle senders' RTT columns
//! still written. Per-link columns are derived from the recorded windows
//! with [`Topology::link_loads`] and `LinkParams::loss_rate`.

#![allow(clippy::unwrap_used)] // a refused scenario should abort the test loudly

use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, Observation, Protocol, RunTrace, ScenarioError};
use axcc_fluidsim::{ChurnPlan, FeedbackMode, LossModel, Scenario, SenderConfig, Topology};
use axcc_protocols::{Aimd, Cubic, RobustAimd, Vegas};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A column's digest: its length, then the bits of every entry.
fn col(xs: &[f64]) -> u64 {
    fnv(std::iter::once(xs.len() as u64).chain(xs.iter().map(|x| x.to_bits())))
}

/// A scenario under construction, with the path of every sender added so
/// far (the link-load derivation needs them).
struct Net {
    topology: Topology,
    steps: usize,
    scenario: Scenario,
    paths: Vec<Vec<usize>>,
}

impl Net {
    fn new(topology: Topology, steps: usize) -> Self {
        Net {
            scenario: Scenario::on(topology.clone()).steps(steps),
            topology,
            steps,
            paths: Vec::new(),
        }
    }

    fn flow(mut self, cfg: SenderConfig, path: Vec<usize>) -> Self {
        self.paths.push(path.clone());
        self.scenario = self.scenario.sender(cfg.path(path));
        self
    }

    /// Apply a scenario-wide option (wire loss, feedback, seed, …).
    fn with(mut self, f: impl FnOnce(Scenario) -> Scenario) -> Self {
        self.scenario = f(self.scenario);
        self
    }

    fn churn(mut self, plan: &ChurnPlan, proto: &dyn Protocol, path: Vec<usize>) -> Self {
        let arrivals = plan.try_expand(self.steps as u64).unwrap().len();
        self.paths
            .extend(std::iter::repeat_n(path.clone(), arrivals));
        self.scenario = self.scenario.churn_on(plan, proto, path).unwrap();
        self
    }

    /// Run and digest: one word per sender, then one per link.
    fn digest(self) -> (Vec<u64>, Vec<u64>) {
        let trace: RunTrace = self.scenario.try_run().unwrap();
        assert_eq!(trace.num_senders(), self.paths.len());
        let flows = (0..trace.num_senders())
            .map(|f| {
                let s = &trace.senders[f];
                fnv([
                    col(&s.window),
                    col(&s.loss),
                    col(&s.goodput),
                    col(trace.sender_rtt(f)),
                ])
            })
            .collect();
        let loads = self.topology.link_loads(&self.paths, &trace);
        let links = loads
            .iter()
            .enumerate()
            .map(|(l, load)| {
                let hop = self.topology.link(l);
                let loss: Vec<f64> = load.iter().map(|&x| hop.loss_rate(x)).collect();
                fnv([col(load), col(&loss)])
            })
            .collect();
        (flows, links)
    }
}

fn reno() -> SenderConfig {
    SenderConfig::new(Box::new(Aimd::reno()))
}

fn vegas() -> SenderConfig {
    SenderConfig::new(Box::new(Vegas::classic()))
}

fn cubic() -> SenderConfig {
    SenderConfig::new(Box::new(Cubic::linux()))
}

fn check(net: Net, flows: &[u64], links: &[u64]) {
    let (got_flows, got_links) = net.digest();
    assert_eq!(got_flows, flows, "per-sender column digests");
    assert_eq!(got_links, links, "per-link column digests");
}

#[test]
fn two_hop_lot_with_staggered_senders() {
    let net = Net::new(Topology::parking_lot(2, LinkParams::reference()), 1500)
        .flow(reno(), vec![0, 1])
        .flow(vegas().initial_window(5.0), vec![0])
        .flow(cubic().initial_window(10.0), vec![1])
        .flow(
            reno().initial_window(2.0).start_at(300).stop_at(900),
            vec![1],
        )
        .flow(vegas().start_at(600), vec![0, 1]);
    check(
        net,
        &[
            0x6595_2a20_d299_0337,
            0x5dd3_72f6_3c34_0f11,
            0x2a3d_7f57_53ea_328a,
            0xb930_7261_0fb0_4ca9,
            0xdbed_24cd_1738_f136,
        ],
        &[0xb5d9_5881_5ee2_3036, 0x985e_d20b_cfcd_d5dd],
    );
}

#[test]
fn three_hop_lot_with_churned_visitors() {
    let net = Net::new(Topology::parking_lot(3, LinkParams::reference()), 2000)
        .flow(cubic(), vec![0, 1, 2])
        .flow(reno(), vec![0])
        .flow(vegas(), vec![1])
        .flow(cubic().start_at(400).stop_at(1600), vec![2])
        .churn(
            &ChurnPlan::poisson(0.004, 200.0).seed(7).max_concurrent(3),
            &Aimd::reno(),
            vec![0, 1, 2],
        )
        .churn(
            &ChurnPlan::poisson(0.003, 300.0).seed(9),
            &Vegas::classic(),
            vec![1, 2],
        );
    check(
        net,
        &[
            0xa14c_0809_8520_f304,
            0x4438_199b_27df_e21b,
            0x4864_f7be_4fd9_d1b5,
            0xa909_916d_ec22_d24d,
            0x3d0e_9f43_97c0_20da,
            0x51c2_e139_b0b4_a32a,
            0x515e_f29d_9f91_f79b,
            0x4515_7ec7_6afc_c644,
            0x82ab_01f1_c478_8955,
            0x67a2_192a_f759_a705,
            0x77f1_6653_0086_e11e,
            0x677b_9e2d_fa44_c413,
            0xe376_feec_0b85_c402,
            0x79eb_184f_c60a_1fef,
            0x3e0d_fad9_6e95_aefd,
            0x5833_95f6_d6ac_0413,
            0xccaa_add5_f5bb_175b,
            0x990e_2008_f9c2_a81e,
            0xdf40_181c_9db6_7a53,
            0xea80_9b55_2196_1123,
        ],
        &[
            0xed57_a4db_6883_0faf,
            0xc8b4_93da_9df9_de0b,
            0x2f6c_e9ab_d240_65ca,
        ],
    );
}

#[test]
fn heterogeneous_links_and_a_reversed_path() {
    let topology = Topology::new(vec![
        LinkParams::new(1000.0, 0.05, 20.0),
        LinkParams::new(600.0, 0.02, 5.0),
    ]);
    let net = Net::new(topology, 1200)
        .flow(reno().initial_window(30.0), vec![0, 1])
        .flow(cubic(), vec![1, 0])
        .flow(vegas(), vec![0])
        .flow(reno().start_at(100).stop_at(700), vec![1]);
    check(
        net,
        &[
            0xeea9_4f27_eee2_0b62,
            0xc781_9557_c572_1fa1,
            0x9b88_908c_0c3f_bd11,
            0x1dd1_ea1d_b39b_6a7e,
        ],
        &[0xa396_3652_6f4c_0e76, 0x2fb8_de39_b03f_fee8],
    );
}

#[test]
fn three_hop_lot_in_overload_with_a_one_step_sender() {
    let net = Net::new(
        Topology::parking_lot(3, LinkParams::new(1000.0, 0.05, 20.0)),
        800,
    )
    .flow(vegas().initial_window(150.0), vec![0, 1, 2])
    .flow(reno().initial_window(80.0), vec![0])
    .flow(cubic(), vec![1])
    .flow(vegas().initial_window(40.0), vec![2])
    .flow(
        reno().initial_window(3.0).start_at(50).stop_at(51),
        vec![0, 1],
    );
    check(
        net,
        &[
            0xe42f_4e05_9023_fd0d,
            0xdfac_7e9a_e3a8_b9f1,
            0xedbb_fc27_1ac3_de74,
            0xb91a_9247_1579_af17,
            0x0c93_2d88_8c36_80dc,
        ],
        &[
            0x6c3b_6610_bb57_0227,
            0x5844_c14d_8953_824f,
            0x144b_ff8e_9260_2ce8,
        ],
    );
}

/// The gauntlet's infinite-capacity link, `C = 10¹⁰ MSS`: no window the
/// engine can hold reaches capacity, so the link runs flat.
fn flat_link() -> LinkParams {
    LinkParams::new(MAX_WINDOW * 100.0, 0.05, MAX_WINDOW)
}

#[test]
fn one_link_lone_sender_on_a_flat_link_under_wire_loss() {
    let bernoulli = Net::new(Topology::single(flat_link()), 1000)
        .flow(reno().initial_window(50.0), vec![0])
        .with(|s| s.wire_loss(LossModel::Bernoulli { rate: 0.02 }).seed(3));
    check(
        bernoulli,
        &[0x088a_d57c_091e_5b7e],
        &[0xd148_a516_5fd7_75bd],
    );
    let bursty = Net::new(Topology::single(flat_link()), 1000)
        .flow(
            SenderConfig::new(Box::new(RobustAimd::table2())).initial_window(10.0),
            vec![0],
        )
        .with(|s| s.wire_loss(LossModel::bursty(0.01, 6.0, 0.2)).seed(4));
    check(bursty, &[0x128c_3a49_a7ee_3dad], &[0x2a8c_e689_51c1_593c]);
}

#[test]
fn one_link_reno_and_cubic_with_per_packet_feedback() {
    let net = Net::new(Topology::single(LinkParams::reference()), 1500)
        .flow(reno().initial_window(20.0), vec![0])
        .flow(cubic().initial_window(5.0), vec![0])
        .with(|s| s.feedback(FeedbackMode::PerPacket).seed(11));
    check(
        net,
        &[0x2fc1_70be_507b_5c91, 0x1571_db7b_28c1_0038],
        &[0xc669_4627_d29f_1f66],
    );
}

#[test]
fn one_link_population_going_one_three_one_inside_a_block() {
    // Blocks hold 128 steps: the two visitors arrive at 150 and leave at
    // 230, both inside the block starting at 128, under per-sender
    // Gilbert–Elliott chains.
    let net = Net::new(Topology::single(LinkParams::reference()), 600)
        .flow(cubic().initial_window(10.0), vec![0])
        .flow(
            reno().initial_window(4.0).start_at(150).stop_at(230),
            vec![0],
        )
        .flow(vegas().start_at(150).stop_at(230), vec![0])
        .with(|s| s.wire_loss(LossModel::bursty(0.01, 4.0, 0.3)).seed(21));
    check(
        net,
        &[
            0x09fd_910a_a849_eea3,
            0x8430_f278_47c5_ce3e,
            0x7d81_00a3_5dab_8d8a,
        ],
        &[0xab8e_8105_0e90_bf7b],
    );
}

#[test]
fn one_link_bandwidth_change() {
    let net = Net::new(Topology::single(LinkParams::reference()), 1200)
        .flow(reno().initial_window(30.0), vec![0])
        .flow(vegas(), vec![0])
        .with(|s| s.bandwidth_change(400, 40.0).bandwidth_change(900, 250.0));
    check(
        net,
        &[0xdba7_a330_b4d9_9bf9, 0x9082_4c2d_409b_f779],
        &[0x9206_ebf8_1cfc_3545],
    );
}

/// Grows by one MSS per step, then requests `emit` from step `at` on.
#[derive(Debug, Clone)]
struct DivergeAt {
    at: u64,
    emit: f64,
}

impl Protocol for DivergeAt {
    fn name(&self) -> String {
        "DivergeAt".into()
    }
    fn next_window(&mut self, obs: &Observation) -> f64 {
        if obs.tick >= self.at {
            self.emit
        } else {
            obs.window + 1.0
        }
    }
    fn loss_based(&self) -> bool {
        true
    }
    fn reset(&mut self) {}
    fn clone_box(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }
}

#[test]
fn one_link_divergent_run_reports_the_lowest_index_offender() {
    // Senders 1 and 2 diverge at the same step with different values;
    // sender 3 would diverge later. The error names sender 1's.
    let diverge = |at, emit| SenderConfig::new(Box::new(DivergeAt { at, emit }));
    let err = Scenario::on(Topology::single(LinkParams::reference()))
        .sender(reno())
        .sender(diverge(333, f64::NEG_INFINITY))
        .sender(diverge(333, f64::NAN))
        .sender(diverge(400, f64::INFINITY))
        .wire_loss(LossModel::Bernoulli { rate: 0.01 })
        .seed(5)
        .steps(500)
        .try_run()
        .unwrap_err();
    match err {
        ScenarioError::NumericalDivergence {
            step,
            sender,
            context,
            value,
        } => {
            assert_eq!((step, sender, context), (333, 1, "requested window"));
            assert_eq!(value.to_bits(), f64::NEG_INFINITY.to_bits());
        }
        other => panic!("expected a divergence, got {other}"),
    }
}
