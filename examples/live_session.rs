//! Live sessions (§7): "these mechanisms can also be deployed for
//! non-interactive live sessions where the client can tolerate a short
//! delay in delivery."
//!
//! Live changes one thing: the server cannot send data that does not exist
//! yet. A client that tolerates a delivery delay of `D` seconds lets the
//! server hold at most `D·c_i` bytes of layer `i` in the receiver's
//! buffer. That caps the protection: the analytic part below computes the
//! largest smoothing factor `K_max` whose optimal buffer states fit under
//! the cap; the driven part runs the controller against a sawtooth with
//! the cap enforced and shows the base layer still never stalls.
//!
//! ```sh
//! cargo run -p laqa-bench --example live_session
//! ```

use laqa_core::{QaConfig, QaController, StateSequence};

/// Largest k whose every per-layer target fits under `delay·C`.
fn max_supported_k(rate: f64, n: usize, c: f64, slope: f64, delay: f64) -> u32 {
    let cap = delay * c;
    let mut best = 0;
    for k in 1..=8u32 {
        let mut seq = StateSequence::build(rate, n, c, slope, k);
        let fits = seq
            .path()
            .iter()
            .all(|st| st.per_layer.iter().all(|&b| b <= cap + 1e-9));
        if fits {
            best = k;
        }
    }
    best
}

fn main() {
    let c = 10_000.0;
    let n = 3;
    let slope = 8_000.0;
    let rate = 40_000.0;

    println!("live streaming: how much smoothing does a delay budget buy?");
    println!("(3 layers x 10 KB/s, peak rate 40 KB/s, S = 8 KB/s^2)\n");
    println!("tolerated delay D   largest K_max whose states fit under D*C");
    for delay in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
        let k = max_supported_k(rate, n, c, slope, delay);
        println!("{delay:>16.1}s   {k}");
    }
    println!();

    // Drive a live session: buffers hard-capped at D·C per layer.
    let delay = 2.0;
    let cap = delay * c;
    let cfg = QaConfig {
        layer_rate: c,
        max_layers: 4,
        k_max: max_supported_k(rate, n, c, slope, delay).max(1),
        ..QaConfig::default()
    };
    println!(
        "driving a sawtooth with D = {delay}s (cap {cap:.0} B/layer), K_max = {}",
        cfg.k_max
    );
    let mut qa = QaController::new(cfg).unwrap();
    qa.set_slope(slope);
    let dt = 0.05;
    let mut now = 0.0;
    let mut r: f64 = 20_000.0;
    let mut capped_deliveries = 0u64;
    for _ in 0..4000 {
        if r >= rate {
            r /= 2.0;
            qa.on_backoff(now, r);
        }
        let report = qa.tick(now, r, dt);
        for (layer, &alloc) in report.per_layer_rate.iter().enumerate() {
            // The live edge: never let a layer's buffer exceed the delay
            // budget — surplus transmissions simply cannot exist yet.
            let buffered = qa.buffers().get(layer).copied().unwrap_or(0.0);
            let room = (cap - buffered).max(0.0);
            let deliver = (alloc * dt).min(room + c * dt);
            if deliver < alloc * dt {
                capped_deliveries += 1;
            }
            qa.on_packet_delivered(layer, deliver);
        }
        r += slope * dt;
        now += dt;
    }
    println!(
        "after {now:.0}s: {} layers, {:.0} B buffered, {} stalls",
        qa.n_active(),
        qa.total_buffer(),
        qa.metrics().stalls()
    );
    println!("deliveries clipped by the live edge: {capped_deliveries}");
    println!();
    println!("takeaway: a couple of seconds of tolerated delay already buys");
    println!("multi-backoff protection; the mechanism needs no other change.");
    assert_eq!(qa.metrics().stalls(), 0);
    for &b in qa.buffers() {
        assert!(b <= cap + c * dt + 1.0, "live cap respected: {b}");
    }
}
