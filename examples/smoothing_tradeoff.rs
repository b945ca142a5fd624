//! The `K_max` knob: short-term quality vs stability (§3.1).
//!
//! Sweeps the smoothing factor on the same congested-backbone workload and
//! prints the tradeoff the paper's figure 12 illustrates: higher `K_max`
//! means fewer quality changes but more buffering (and slower climbs to
//! the best short-term quality).
//!
//! ```sh
//! cargo run --release -p laqa-apps --example smoothing_tradeoff
//! ```

use laqa_sim::{run_scenario, ScenarioConfig};

fn main() {
    let duration = 45.0;
    println!("K_max  quality-changes  mean-layers  peak-buffer(B)  stalls");
    println!("------------------------------------------------------------");
    for k_max in [1u32, 2, 3, 4, 6] {
        let cfg = ScenarioConfig::t1(k_max, duration, 42);
        let out = run_scenario(&cfg);
        let steady: Vec<f64> = out
            .traces
            .n_active
            .points
            .iter()
            .filter(|&&(t, _)| t > 15.0)
            .map(|&(_, v)| v)
            .collect();
        let mean_layers = steady.iter().sum::<f64>() / steady.len().max(1) as f64;
        let changes = steady
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1e-9)
            .count();
        let buffers = out.traces.buffer.to_series();
        let peak_buf: f64 = (0..buffers[0].points.len())
            .map(|i| {
                buffers
                    .iter()
                    .map(|b| b.points.get(i).map(|&(_, v)| v.max(0.0)).unwrap_or(0.0))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        println!(
            "{k_max:>5}  {changes:>15}  {mean_layers:>11.2}  {peak_buf:>14.0}  {:>6}",
            out.metrics.stalls()
        );
    }
    println!();
    println!("higher K_max: fewer changes, more buffering — the paper's fig. 12.");
}
