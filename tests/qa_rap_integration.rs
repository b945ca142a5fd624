//! Integration: RAP sender + QA controller co-driving over a scripted
//! lossy path (no simulator, no sockets) — checks the protocol/controller
//! contract directly.

use laqa_core::{QaConfig, QaController};
use laqa_rap::{RapConfig, RapEvent, RapReceiverState, RapSender, RateController};

/// A scripted path: constant one-way delay, drops every `loss_period`-th
/// packet. Returns (controller, sender, receiver-side delivered bytes per
/// layer).
fn run_path(loss_period: u64, duration: f64) -> (QaController, RapSender, Vec<f64>) {
    let rap_cfg = RapConfig {
        packet_size: 500.0,
        initial_rate: 5_000.0,
        initial_rtt: 0.1,
        max_rate: 80_000.0,
    };
    let qa_cfg = QaConfig {
        layer_rate: 5_000.0,
        max_layers: 8,
        k_max: 2,
        underflow_slack_bytes: 2_000.0,
        ..QaConfig::default()
    };
    let mut rap = RapSender::new(rap_cfg, 0.0);
    let mut qa = QaController::new(qa_cfg).unwrap();
    let mut rx = RapReceiverState::new();
    let mut delivered = vec![0.0f64; 8];

    let owd = 0.03;
    let dt = 0.05;
    let mut next_tick = 0.0;
    let mut now: f64 = 0.0;
    // (arrival_time, seq, layer, size) in flight toward the receiver.
    let mut pipe: Vec<(f64, u64, usize, f64)> = Vec::new();
    // (arrival_time, ack) on the way back.
    let mut acks: Vec<(f64, laqa_rap::AckInfo)> = Vec::new();

    while now < duration {
        rap.poll_timers(now);
        // Deliver data to the "receiver".
        while let Some(&(t, seq, layer, size)) = pipe.first() {
            if t > now {
                break;
            }
            pipe.remove(0);
            delivered[layer] += size;
            acks.push((t + owd, rx.on_data(seq)));
        }
        // Deliver ACKs to the sender.
        while let Some(&(t, info)) = acks.first() {
            if t > now {
                break;
            }
            acks.remove(0);
            rap.on_ack(now, info);
        }
        for e in rap.take_events() {
            match e {
                RapEvent::Backoff { rate, .. } => qa.on_backoff(now, rate),
                RapEvent::PacketAcked { size, tag, .. } => {
                    qa.on_packet_delivered(tag as usize, size)
                }
                _ => {}
            }
        }
        if now >= next_tick {
            qa.set_slope(rap.slope());
            let _ = qa.tick(now, rap.rate(), dt);
            next_tick += dt;
        }
        if now >= rap.next_send_time(now) {
            let layer = qa.next_packet_layer(500.0);
            let seq = rap.register_send(now, 500.0, layer as u32);
            if loss_period == 0 || seq % loss_period != loss_period - 1 {
                pipe.push((now + owd, seq, layer, 500.0));
            }
        }
        now += 0.001;
    }
    (qa, rap, delivered)
}

#[test]
fn lossless_path_reaches_max_quality() {
    let (qa, rap, delivered) = run_path(0, 20.0);
    assert_eq!(qa.n_active(), 8, "no loss, capped rate covers all layers");
    assert!(rap.rate() >= 40_000.0);
    // Every active layer actually received data.
    assert!(delivered.iter().take(qa.n_active()).all(|&d| d > 0.0));
    assert_eq!(qa.metrics().stalls(), 0);
}

#[test]
fn periodic_loss_settles_below_max() {
    let (qa, _rap, _) = run_path(10, 30.0);
    // With a loss every 10 packets the AIMD equilibrium rate sits well
    // below the full encoding rate; quality must settle strictly below the
    // encoding maximum but above the base layer.
    assert!(qa.n_active() >= 2, "got {}", qa.n_active());
    assert!(qa.n_active() < 8, "got {}", qa.n_active());
    assert_eq!(qa.metrics().stalls(), 0);
}

#[test]
fn heavier_loss_means_lower_quality() {
    let (qa_light, ..) = run_path(30, 30.0);
    let (qa_heavy, ..) = run_path(8, 30.0);
    assert!(
        qa_heavy.n_active() <= qa_light.n_active(),
        "heavy loss {} vs light loss {}",
        qa_heavy.n_active(),
        qa_light.n_active()
    );
}

#[test]
fn slope_feeds_through_from_rtt() {
    let (_, rap, _) = run_path(0, 10.0);
    // SRTT should have converged near the scripted 60 ms RTT; slope is
    // pkt/srtt².
    let srtt = rap.srtt();
    assert!((0.05..0.12).contains(&srtt), "srtt {srtt}");
    let expect = 500.0 / (srtt * srtt);
    assert!((rap.slope() - expect).abs() < 1e-6);
}
