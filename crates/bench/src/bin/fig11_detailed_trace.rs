//! **Figure 11** — the detailed T1 trace: 1 quality-adaptive RAP flow
//! co-existing with 9 RAP flows and 10 TCP flows through an 800 Kb/s,
//! 40 ms-RTT bottleneck, `K_max = 2`.
//!
//! Reproduces all five panels as CSV series and prints terminal strip
//! charts: total transmit + consumption rates, per-layer transmit
//! breakdown, per-layer bandwidth share, per-layer drain rate, and
//! per-layer accumulated buffering.

use laqa_bench::{ascii_plot, outdir, window_mean};
use laqa_sim::scenarios::{N_RAP, N_TCP, QA_START};
use laqa_sim::{run_scenario, ScenarioConfig};
use laqa_trace::{write_figure, Panel, Recorder, RunSummary};

fn main() {
    let duration = 45.0;
    let cfg = ScenarioConfig::t1(2, duration, 7);
    let out = run_scenario(&cfg);
    let (consumption, drain_rate) = out.traces.consumption_and_drain(cfg.qa.layer_rate);

    println!("== Figure 11: first 40 s of the K_max=2 T1 trace ==");
    println!("(QA flow joins at t={QA_START}s; panels below start there)\n");
    println!("total tx rate   : {}", ascii_plot(&out.traces.tx_rate, 72));
    println!("consumption     : {}", ascii_plot(&consumption, 72));
    println!("active layers   : {}", ascii_plot(&out.traces.n_active, 72));
    for i in 0..6 {
        println!(
            "L{i} tx rate     : {}",
            ascii_plot(&out.traces.layer_rate[i], 72)
        );
    }
    for (i, drain) in drain_rate.iter().take(6).enumerate() {
        println!("L{i} drain rate  : {}", ascii_plot(drain, 72));
    }
    for i in 0..6 {
        println!(
            "L{i} buffer      : {}",
            ascii_plot(&out.traces.buffer[i], 72)
        );
    }

    let steady = (15.0, duration);
    let mean_rate = window_mean(&out.traces.tx_rate, steady.0, steady.1).unwrap_or(0.0);
    let mean_layers = window_mean(&out.traces.n_active, steady.0, steady.1).unwrap_or(0.0);
    let max_buf: f64 = out
        .traces
        .buffer
        .iter()
        .map(|b| b.max().unwrap_or(0.0))
        .fold(0.0, f64::max);

    println!();
    println!("steady-state (t>{:.0}s):", steady.0);
    println!("  QA mean tx rate     : {mean_rate:.0} B/s");
    println!("  QA mean layer count : {mean_layers:.2}");
    println!("  peak per-layer buf  : {max_buf:.0} B");
    println!("  backoffs            : {}", out.backoffs);
    println!(
        "  base-layer stalls   : {} (sender) / {} (receiver)",
        out.metrics.stalls(),
        out.rx_base_underflows
    );
    println!("  quality changes     : {}", out.metrics.quality_changes());
    println!();
    println!("expected shape: sawtooth tx rate; consumption staircase tracking");
    println!("its long-term level; most bandwidth variation absorbed by the");
    println!("lowest layers' buffer fill/drain spikes; base layer never stalls.");

    let dir = outdir("fig11");
    let mut rec = Recorder::new();
    rec.insert(out.traces.tx_rate.clone());
    rec.insert(consumption);
    rec.insert(out.traces.n_active.clone());
    let layers = out
        .traces
        .layer_rate
        .iter()
        .chain(&out.traces.buffer)
        .cloned();
    for ts in layers.chain(drain_rate).chain(out.rx_buffers) {
        rec.insert(ts);
    }
    // The CSVs plus a ready-to-run gnuplot script of the stacked panels.
    let panels = [
        Panel::new(
            "total transmit + consumption",
            "B/s",
            &["tx_rate", "consumption"],
        ),
        Panel::new("active layers", "count", &["n_active"]),
        Panel::new(
            "per-layer transmit rate",
            "B/s",
            &[
                "layer_rate_0",
                "layer_rate_1",
                "layer_rate_2",
                "layer_rate_3",
            ],
        ),
        Panel::new(
            "per-layer drain rate",
            "B/s",
            &[
                "drain_rate_0",
                "drain_rate_1",
                "drain_rate_2",
                "drain_rate_3",
            ],
        ),
        Panel::new(
            "per-layer buffer",
            "bytes",
            &["buffer_0", "buffer_1", "buffer_2", "buffer_3"],
        ),
    ];
    write_figure(&rec, &dir, "fig11", &panels).expect("figure");

    let mut summary = RunSummary::new("fig11");
    summary
        .param("k_max", 2)
        .param("duration", duration)
        .param("bottleneck_bw", cfg.dumbbell.bottleneck_bw)
        .param("n_rap", N_RAP)
        .param("n_tcp", N_TCP)
        .metric("mean_rate_steady", mean_rate)
        .metric("mean_layers_steady", mean_layers)
        .metric("peak_layer_buffer", max_buf)
        .metric("backoffs", out.backoffs as f64)
        .metric("quality_changes", out.metrics.quality_changes() as f64)
        .metric("base_stalls", out.metrics.stalls() as f64)
        .metric("rx_base_underflows", out.rx_base_underflows as f64)
        .note("layer rate scaled to C=1.25 KB/s so the 800 Kb/s / 20-flow fair share spans 3-5 layers, preserving the paper's ratios (see EXPERIMENTS.md)");
    summary
        .write_json(dir.join("summary.json"))
        .expect("summary");
    println!("wrote {}", dir.display());
}
