//! Quickstart: drive the quality-adaptation controller by hand.
//!
//! The controller is transport-agnostic: you feed it the congestion
//! controller's rate once per period, send packets for the layers it picks,
//! and credit deliveries. Here a clean AIMD sawtooth stands in for the
//! congestion controller so the adaptation is easy to watch.
//!
//! ```sh
//! cargo run -p laqa-bench --example quickstart
//! ```

use laqa_core::{Phase, QaConfig, QaController};

fn main() {
    // 10 KB/s layers, up to 6 of them, buffering for K_max = 2 backoffs.
    let cfg = QaConfig {
        layer_rate: 10_000.0,
        max_layers: 6,
        k_max: 2,
        ..QaConfig::default()
    };
    let mut qa = QaController::new(cfg).expect("valid config");

    // The congestion controller's additive-increase slope S (bytes/s²);
    // RAP's is packet_size / srtt².
    let slope = 20_000.0;
    qa.set_slope(slope);

    // A clean AIMD sawtooth between 18 and 36 KB/s.
    let dt = 0.1;
    let mut rate: f64 = 18_000.0;
    let mut now = 0.0;
    println!("time   rate     phase     layers  total-buffer  allocation (B/s per layer)");
    for step in 0..400 {
        if rate >= 36_000.0 {
            rate /= 2.0;
            qa.on_backoff(now, rate); // multiplicative decrease happened
        }
        let report = qa.tick(now, rate, dt);

        // A perfect transport: deliver exactly the allocated bytes. A real
        // one paces packets with `next_packet_layer` and credits on ACK.
        for (layer, &r) in report.per_layer_rate.iter().enumerate() {
            qa.on_packet_delivered(layer, r * dt);
        }

        if step % 20 == 0 {
            let alloc: Vec<String> = report
                .per_layer_rate
                .iter()
                .map(|r| format!("{r:5.0}"))
                .collect();
            println!(
                "{now:5.1}  {rate:6.0}  {:<8}  {:>6}  {:>12.0}  [{}]",
                match report.phase {
                    Phase::Filling => "filling",
                    Phase::Draining => "draining",
                },
                report.n_active,
                qa.total_buffer(),
                alloc.join(" ")
            );
        }
        rate += slope * dt;
        now += dt;
    }

    println!();
    println!(
        "final: {} layers, {:.0} B buffered, {} quality changes, {} stalls",
        qa.n_active(),
        qa.total_buffer(),
        qa.metrics().quality_changes(),
        qa.metrics().stalls()
    );
    assert_eq!(qa.metrics().stalls(), 0, "base layer must never stall");
}
