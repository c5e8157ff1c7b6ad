//! Cross-simulator agreement: the fluid model (exact Section 2 dynamics)
//! and the packet-level simulator (the Emulab stand-in) must agree on the
//! *qualitative* facts the paper's evaluation rests on, even though their
//! mechanisms differ (synchronized loss vs droptail packet bursts,
//! fractional vs integral windows, instantaneous vs one-RTT feedback).

use axiomatic_cc::analysis::estimators::{
    measure_friendliness_fluid, measure_friendliness_packet, measure_solo_fluid,
    measure_solo_packet, SweepConfig,
};
use axiomatic_cc::core::units::Bandwidth;
use axiomatic_cc::core::{LinkParams, LossModel, ScenarioError};
use axiomatic_cc::fluidsim::{Scenario, SenderConfig};
use axiomatic_cc::packetsim::{PacketScenario, PacketSenderConfig};
use axiomatic_cc::protocols::{Aimd, Pcc, RobustAimd, SlowStart};

fn paper_link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
}

/// Both backends find two Renos fair and the link well used.
#[test]
fn reno_pair_agrees_across_backends() {
    let link = paper_link();
    let fluid = measure_solo_fluid(&Aimd::reno(), &SweepConfig::standard(link, 2, 3000));
    let packet = measure_solo_packet(
        &SlowStart::new(Box::new(Aimd::reno()), f64::INFINITY),
        link,
        2,
        40.0,
        1.0,
        0,
    );
    for (name, m) in [("fluid", &fluid), ("packet", &packet)] {
        assert!(m.fairness > 0.6, "{name} fairness {}", m.fairness);
        assert!(
            m.mean_utilization > 0.8,
            "{name} util {}",
            m.mean_utilization
        );
        assert!(m.loss_bound < 0.15, "{name} loss {}", m.loss_bound);
    }
}

/// Both backends rank Reno's TCP-friendliness above PCC's — the ordering
/// Table 2 depends on.
#[test]
fn friendliness_ordering_agrees_across_backends() {
    let link = paper_link();
    let reno = Aimd::reno();
    let pcc = Pcc::new();
    let robust = RobustAimd::table2();
    let pairs = [(1.0, 1.0)];

    let fluid_pcc = measure_friendliness_fluid(&pcc, &reno, link, 1, 1, 3000, &pairs);
    let fluid_rob = measure_friendliness_fluid(&robust, &reno, link, 1, 1, 3000, &pairs);
    let packet_pcc = measure_friendliness_packet(&pcc, &reno, link, 1, 1, 40.0, 0);
    let packet_rob = measure_friendliness_packet(&robust, &reno, link, 1, 1, 40.0, 0);

    assert!(
        fluid_rob > fluid_pcc,
        "fluid: R-AIMD {fluid_rob} vs PCC {fluid_pcc}"
    );
    assert!(
        packet_rob > packet_pcc,
        "packet: R-AIMD {packet_rob} vs PCC {packet_pcc}"
    );
}

/// The robustness story (Metric VI) holds at packet level too: under 0.5%
/// wire loss with ample capacity, Robust-AIMD's goodput dwarfs Reno's.
#[test]
fn robustness_story_at_packet_level() {
    let link = LinkParams::from_experiment(Bandwidth::Mbps(100.0), 42.0, 500.0);
    let run = |p: Box<dyn axiomatic_cc::core::Protocol>| {
        let out = PacketScenario::new(link)
            .sender(PacketSenderConfig::new(p))
            .duration_secs(40.0)
            .wire_loss(LossModel::Bernoulli { rate: 0.005 })
            .seed(11)
            .run();
        assert!(out.conservation_ok());
        let tail = out.trace.tail_start(0.5);
        out.trace.senders[0].mean_goodput_from(tail)
    };
    let robust = run(Box::new(RobustAimd::table2()));
    let reno = run(Box::new(Aimd::reno()));
    assert!(robust > 1.4 * reno, "robust {robust} vs reno {reno}");
}

/// Pacing (the PCC/BBR sender class, §2 future work): a *paced* PCC
/// squeezes Reno at least as hard as the window-clocked PCC model — the
/// aggressiveness the paper attributes to PCC is not an artifact of
/// ACK-clocking it.
#[test]
fn paced_pcc_is_at_least_as_aggressive() {
    use axiomatic_cc::protocols::Pcc;
    let link = paper_link();
    let run = |paced: bool| {
        let mut pcc_cfg = PacketSenderConfig::new(Box::new(Pcc::new()));
        if paced {
            pcc_cfg = pcc_cfg.paced();
        }
        let out = PacketScenario::new(link)
            .sender(pcc_cfg)
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
            .duration_secs(40.0)
            .run();
        let tail = out.trace.tail_start(0.5);
        // Reno's share of tail goodput.
        let g_pcc = out.trace.senders[0].mean_goodput_from(tail);
        let g_reno = out.trace.senders[1].mean_goodput_from(tail);
        g_reno / (g_reno + g_pcc)
    };
    let windowed_share = run(false);
    let paced_share = run(true);
    assert!(
        paced_share <= windowed_share + 0.05,
        "Reno share vs paced PCC {paced_share} vs windowed PCC {windowed_share}"
    );
    assert!(paced_share < 0.35, "Reno share vs paced PCC {paced_share}");
}

/// Trace-shape contract: both backends produce validating RunTraces with
/// the same sender ordering and naming.
#[test]
fn traces_validate_and_align() {
    let link = paper_link();
    let fluid = Scenario::new(link)
        .homogeneous(&Aimd::reno(), 2, 1.0)
        .steps(500)
        .run();
    fluid.validate(1e9).unwrap();

    let packet = PacketScenario::new(link)
        .homogeneous(&Aimd::reno(), 2)
        .duration_secs(10.0)
        .run();
    packet.trace.validate(1e9).unwrap();

    assert_eq!(fluid.num_senders(), packet.trace.num_senders());
    for (f, p) in fluid.senders.iter().zip(&packet.trace.senders) {
        assert_eq!(f.protocol, p.protocol);
        assert_eq!(f.loss_based, p.loss_based);
    }
}

/// One loss model, one refusal: both engines reject a malformed model
/// with the same typed error and message, and the packet engine also
/// refuses the fluid-only constant per-step rate.
#[test]
fn malformed_loss_models_are_refused_alike_by_both_engines() {
    let ge = |p_enter, p_exit, loss_good, loss_bad| LossModel::GilbertElliott {
        p_enter,
        p_exit,
        loss_good,
        loss_bad,
    };
    let malformed = [
        LossModel::Bernoulli { rate: f64::NAN },
        LossModel::Bernoulli { rate: -0.01 },
        LossModel::Bernoulli { rate: 1.0 },
        LossModel::Constant { rate: f64::NAN },
        LossModel::Constant { rate: -0.5 },
        ge(f64::NAN, 0.5, 0.0, 0.3),
        ge(-0.1, 0.5, 0.0, 0.3),
        ge(0.1, 0.0, 0.0, 0.3),
        ge(0.1, f64::NAN, 0.0, 0.3),
        ge(0.1, 0.5, -0.2, 0.3),
        ge(0.1, 0.5, 0.0, 1.0),
        ge(0.1, 0.5, 0.0, f64::NAN),
        // An unrealizable mean: above the bad state's own rate.
        LossModel::bursty(0.3, 8.0, 0.2),
    ];
    let link = paper_link();
    let fluid = |m: LossModel| {
        Scenario::new(link)
            .sender(SenderConfig::new(Box::new(Aimd::reno())))
            .wire_loss(m)
            .validate()
    };
    let packet = |m: LossModel| {
        PacketScenario::new(link)
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
            .wire_loss(m)
            .validate()
    };
    for model in malformed {
        let err = fluid(model).unwrap_err();
        assert!(
            matches!(err, ScenarioError::InvalidLossModel(_)),
            "{model:?}: {err:?}"
        );
        assert_eq!(packet(model), Err(err), "{model:?}");
    }
    // The well-formed models run in both engines, except the constant
    // per-step rate, which has no per-packet meaning.
    for model in [
        LossModel::None,
        LossModel::Bernoulli { rate: 0.01 },
        LossModel::bursty(0.01, 4.0, 0.25),
    ] {
        assert_eq!(fluid(model), Ok(()), "{model:?}");
        assert_eq!(packet(model), Ok(()), "{model:?}");
    }
    let constant = LossModel::Constant { rate: 0.01 };
    assert_eq!(fluid(constant), Ok(()));
    assert!(matches!(
        packet(constant),
        Err(ScenarioError::InvalidLossModel(_))
    ));
}
