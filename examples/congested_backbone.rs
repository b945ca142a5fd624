//! A quality-adaptive flow on a congested backbone: the paper's T1
//! workload — one QA-RAP video flow sharing an 800 Kb/s bottleneck with
//! 9 plain RAP flows and 10 TCP flows — in the packet-level simulator.
//!
//! ```sh
//! cargo run --release -p laqa-apps --example congested_backbone
//! ```

use laqa_sim::scenarios::{N_RAP, N_TCP};
use laqa_sim::{run_scenario, ScenarioConfig};

/// Tiny terminal sparkline.
fn spark(points: &[(f64, f64)], width: usize) -> String {
    const G: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if points.len() < 2 {
        return String::new();
    }
    let max = points.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
    let min = points.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min);
    let range = (max - min).max(1e-9);
    let step = points.len().div_ceil(width);
    points
        .chunks(step)
        .map(|c| {
            let v = c.iter().map(|&(_, v)| v).sum::<f64>() / c.len() as f64;
            G[(((v - min) / range) * (G.len() - 1) as f64).round() as usize]
        })
        .collect()
}

fn main() {
    let duration = 40.0;
    let cfg = ScenarioConfig::t1(2, duration, 42);
    println!(
        "simulating {duration:.0} s: 1 QA flow + {N_RAP} RAP + {N_TCP} TCP over {:.0} B/s...",
        cfg.dumbbell.bottleneck_bw
    );
    let out = run_scenario(&cfg);

    println!();
    println!("tx rate : {}", spark(&out.traces.tx_rate.points, 64));
    println!("layers  : {}", spark(&out.traces.n_active.points, 64));
    println!();
    println!("QA flow backoffs     : {}", out.backoffs);
    println!("quality changes      : {}", out.metrics.quality_changes());
    println!("buffering efficiency : {:?}", out.metrics.efficiency());
    println!("base-layer stalls    : {}", out.metrics.stalls());
    println!("bottleneck drops     : {}", out.bottleneck.dropped);
    println!(
        "background RAP (B/s) : {:?}",
        out.rap_throughput
            .iter()
            .map(|t| *t as i64)
            .collect::<Vec<_>>()
    );
    println!(
        "background TCP (B/s) : {:?}",
        out.tcp_goodput
            .iter()
            .map(|t| *t as i64)
            .collect::<Vec<_>>()
    );

    let peak = out.traces.n_active.max().unwrap_or(0.0);
    assert!(peak >= 2.0, "the QA flow should reach multiple layers");
    assert_eq!(out.metrics.stalls(), 0, "base layer must never stall");
}
