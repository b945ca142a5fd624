//! Non-linear layer spacing (the paper's §7 future work, implemented in
//! `laqa_core::nonlinear`): how the optimal buffer distribution and the
//! multi-backoff requirements change when layers are spaced exponentially
//! instead of linearly.
//!
//! ```sh
//! cargo run -p laqa-apps --example nonlinear_layers
//! ```

use laqa_core::nonlinear::{nl_band_allocation, nl_band_drain_rate, nl_per_layer, LayerRates};
use laqa_core::scenario::{buf_total, Scenario};

fn main() {
    let slope = 12_500.0;
    let linear = LayerRates::linear(4, 7_500.0).expect("valid");
    let expo = LayerRates::exponential(4, 2_000.0, 2.0).expect("valid"); // 2,4,8,16 K

    println!("two encodings with the same 30 KB/s total:");
    println!("  linear      : {:?}", linear.rates());
    println!("  exponential : {:?}", expo.rates());
    println!();

    let d0 = 18_000.0;
    println!("optimal buffer bands for an 18 KB/s post-backoff deficit:");
    println!("{:<12} {:>10} {:>12}", "", "linear (B)", "expo (B)");
    let lin = nl_band_allocation(&linear, 4, d0, slope);
    let exp = nl_band_allocation(&expo, 4, d0, slope);
    for i in 0..4 {
        println!(
            "{:<12} {:>10.0} {:>12.0}",
            format!("layer {i}"),
            lin[i],
            exp[i]
        );
    }
    println!(
        "{:<12} {:>10.0} {:>12.0}",
        "total",
        lin.iter().sum::<f64>(),
        exp.iter().sum::<f64>()
    );
    println!();
    println!("note: byte shares move toward the *wide* layers, but protection");
    println!("in seconds (share / rate) still decreases with layer index:");
    let secs: Vec<String> = exp
        .iter()
        .zip(expo.rates())
        .map(|(s, c)| format!("{:.2}s", s / c))
        .collect();
    println!("  exponential protection: [{}]", secs.join(", "));
    println!();

    println!("instantaneous drain handoff at deficit 10 KB/s (B/s per layer):");
    let drain = |rates: &LayerRates| -> Vec<f64> {
        (0..4)
            .map(|i| nl_band_drain_rate(rates, i, 10_000.0))
            .collect()
    };
    println!("  linear      : {:?}", drain(&linear));
    println!("  exponential : {:?}", drain(&expo));
    println!();

    println!("K-backoff total requirements from a 45 KB/s peak (bytes):");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "k", "lin S1", "lin S2", "exp S1", "exp S2"
    );
    // The totals see a stack only through its consumption (here both 30
    // KB/s); AIMD halving, decrease factor ½.
    let total = |rates: &LayerRates, scenario, k| {
        buf_total(scenario, k, 45_000.0, rates.consumption(4), slope, 0.5)
    };
    for k in 1..=4u32 {
        println!(
            "{:<6} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            k,
            total(&linear, Scenario::One, k),
            total(&linear, Scenario::Two, k),
            total(&expo, Scenario::One, k),
            total(&expo, Scenario::Two, k),
        );
    }
    println!();
    println!("per-layer S2/k=2 targets, exponential:");
    println!(
        "  {:?}",
        nl_per_layer(&expo, 4, Scenario::Two, 2, 45_000.0, slope, 0.5)
    );

    // Sanity assertions so the example doubles as a smoke test.
    assert!((lin.iter().sum::<f64>() - exp.iter().sum::<f64>()).abs() < 1e-6);
    assert!(exp[0] > 0.0);
}
