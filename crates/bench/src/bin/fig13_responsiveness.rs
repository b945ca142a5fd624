//! **Figure 13** — responsiveness to long-term bandwidth changes: the T2
//! run, where a CBR source at half the bottleneck bandwidth switches on
//! for the middle third of a 90 s run (`K_max = 4`).
//!
//! Expected: the QA flow sheds enhancement layers shortly after the burst
//! starts, re-adds them after it stops, every layer's buffer takes part in
//! the recovery, and the base layer is never jeopardized.

use laqa_bench::{ascii_plot, outdir, window_mean};
use laqa_sim::{run_scenario, ScenarioConfig};
use laqa_trace::{Recorder, RunSummary};

fn main() {
    let duration = 90.0;
    let cfg = ScenarioConfig::t2(4, duration, 7);
    let (burst_start, burst_stop, burst_rate) = cfg.cbr.expect("t2 has a burst");
    let out = run_scenario(&cfg);
    let (consumption, drain_rate) = out.traces.consumption_and_drain(cfg.qa.layer_rate);

    println!("== Figure 13: CBR burst at half bottleneck, K_max = 4 ==");
    println!("burst: {burst_rate:.0} B/s during t = {burst_start:.0}..{burst_stop:.0} s\n");
    println!("total tx rate : {}", ascii_plot(&out.traces.tx_rate, 72));
    println!("consumption   : {}", ascii_plot(&consumption, 72));
    println!("active layers : {}", ascii_plot(&out.traces.n_active, 72));
    for i in 0..5 {
        println!(
            "L{i} buffer     : {}",
            ascii_plot(&out.traces.buffer[i], 72)
        );
    }

    let before = window_mean(&out.traces.n_active, 15.0, burst_start).unwrap_or(0.0);
    let during = window_mean(&out.traces.n_active, burst_start + 5.0, burst_stop).unwrap_or(0.0);
    let after = window_mean(&out.traces.n_active, burst_stop + 5.0, duration).unwrap_or(0.0);
    println!();
    println!("mean layers before burst : {before:.2}");
    println!("mean layers during burst : {during:.2}");
    println!("mean layers after burst  : {after:.2}");
    println!(
        "base stalls              : {} (sender) / {} (receiver)",
        out.metrics.stalls(),
        out.rx_base_underflows
    );
    println!();
    println!("expected shape: layer count steps down within seconds of the");
    println!("burst, holds a lower level, and recovers after the burst ends;");
    println!("the base layer's reception is never jeopardized.");

    let dir = outdir("fig13");
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
    for ts in layers.chain(drain_rate) {
        rec.insert(ts);
    }
    rec.write_csv_dir(&dir).expect("csv");
    let mut summary = RunSummary::new("fig13");
    summary
        .param("k_max", 4)
        .param("duration", duration)
        .param(
            "burst",
            format!("{burst_rate:.0} B/s @ {burst_start:.0}-{burst_stop:.0} s"),
        )
        .metric("layers_before", before)
        .metric("layers_during", during)
        .metric("layers_after", after)
        .metric("base_stalls", out.metrics.stalls() as f64)
        .metric("rx_base_underflows", out.rx_base_underflows as f64)
        .metric("quality_changes", out.metrics.quality_changes() as f64);
    summary
        .write_json(dir.join("summary.json"))
        .expect("summary");
    println!("wrote {}", dir.display());
}
