//! **Extension experiment (§7)** — quality adaptation over two different
//! AIMD transports: RAP (rate-paced) vs an ACK-clocked TCP-like window.
//!
//! The paper conjectures the mechanism ports to any AIMD scheme. Both
//! sources drive the *same* `QaController` over the same single-flow
//! bottleneck; the comparison shows the mechanism's guarantees (base
//! layer intact, quality tracks bandwidth) hold under both clockings,
//! while the burstier window transport produces a noisier rate signal and
//! somewhat more quality changes.

use laqa_bench::{ascii_plot, outdir};
use laqa_core::QaConfig;
use laqa_layered::LayeredEncoding;
use laqa_rap::{RapConfig, RateController, WindowConfig, WindowSender};
use laqa_sim::agents::qa::{QaSinkAgent, QaSourceAgent};
use laqa_sim::{LinkConfig, World};
use laqa_trace::{RunSummary, Table};

struct Outcome {
    mean_layers: f64,
    changes: usize,
    stalls: usize,
    base_underflows: u64,
    plot: String,
}

fn qa_cfg() -> QaConfig {
    QaConfig {
        layer_rate: 5_000.0,
        max_layers: 6,
        k_max: 2,
        underflow_slack_bytes: 2_000.0,
        ..QaConfig::default()
    }
}

fn build_world(bw: f64) -> (World, usize, usize) {
    let mut w = World::new(31);
    let fwd = w.add_link(LinkConfig {
        bandwidth: bw,
        delay: 0.02,
        queue_packets: 20,
        ..LinkConfig::default()
    });
    let rev = w.add_link(LinkConfig::uncongested());
    let cfg = qa_cfg();
    let encoding = LayeredEncoding::linear(cfg.max_layers, cfg.layer_rate).unwrap();
    let sink_id = w.add_agent(Box::new(QaSinkAgent::new(
        1,
        vec![rev],
        1,
        encoding,
        2.0 * cfg.startup_buffer_secs,
        0.05,
    )));
    (w, sink_id, fwd)
}

fn analyze(
    n_active: &laqa_trace::TimeSeries,
    stalls: usize,
    base_underflows: u64,
    warmup: f64,
) -> Outcome {
    let steady: Vec<f64> = n_active
        .points
        .iter()
        .filter(|&&(t, _)| t > warmup)
        .map(|&(_, v)| v)
        .collect();
    let mean_layers = steady.iter().sum::<f64>() / steady.len().max(1) as f64;
    let changes = steady
        .windows(2)
        .filter(|w| (w[0] - w[1]).abs() > 1e-9)
        .count();
    Outcome {
        mean_layers,
        changes,
        stalls,
        base_underflows,
        plot: ascii_plot(n_active, 64),
    }
}

/// Run one QA source (built by `make_src` from the sink id and forward
/// link) over the bottleneck and distill the steady-state outcome.
fn run<T: RateController + 'static>(
    bw: f64,
    dur: f64,
    make_src: impl FnOnce(usize, usize) -> QaSourceAgent<T>,
) -> Outcome {
    let (mut w, sink_id, fwd) = build_world(bw);
    let src_id = w.add_agent(Box::new(make_src(sink_id, fwd)));
    w.run_until(dur);
    let src: &QaSourceAgent<T> = w.agent(src_id).unwrap();
    let sink: &QaSinkAgent = w.agent(sink_id).unwrap();
    analyze(
        &src.traces.n_active,
        src.qa().metrics().stalls(),
        sink.receiver.stats().underflows[0],
        dur * 0.4,
    )
}

fn run_rap(bw: f64, dur: f64) -> Outcome {
    let rap = RapConfig {
        packet_size: 500.0,
        initial_rate: 2_000.0,
        initial_rtt: 0.06,
        max_rate: 1.25 * 30_000.0,
    };
    run(bw, dur, |sink, fwd| {
        QaSourceAgent::new(sink, vec![fwd], 1, rap, qa_cfg(), 0.05)
    })
}

fn run_window(bw: f64, dur: f64) -> Outcome {
    let cc = WindowConfig {
        packet_size: 500.0,
        initial_rtt: 0.06,
        max_cwnd: 80.0,
    };
    run(bw, dur, |sink, fwd| {
        let cc = WindowSender::new(cc, 0.0);
        QaSourceAgent::with_controller(sink, vec![fwd], 1, cc, 500, qa_cfg(), 0.05)
    })
}

fn main() {
    let bw = 25_000.0;
    let dur = 40.0;
    let rap = run_rap(bw, dur);
    let win = run_window(bw, dur);

    println!("== QA over two AIMD transports ({bw:.0} B/s bottleneck, {dur:.0}s) ==");
    println!("RAP (rate-paced)   layers: {}", rap.plot);
    println!("window (ACK-clock) layers: {}", win.plot);
    println!();
    let mut tbl = Table::new(
        "transport comparison (steady state)",
        &[
            "transport",
            "mean layers",
            "quality changes",
            "stalls",
            "rx base underflows",
        ],
    );
    tbl.row(vec![
        "RAP".into(),
        format!("{:.2}", rap.mean_layers),
        rap.changes.to_string(),
        rap.stalls.to_string(),
        rap.base_underflows.to_string(),
    ]);
    tbl.row(vec![
        "window".into(),
        format!("{:.2}", win.mean_layers),
        win.changes.to_string(),
        win.stalls.to_string(),
        win.base_underflows.to_string(),
    ]);
    println!("{}", tbl.render());
    println!("expected shape: both transports settle near the same layer count");
    println!("(same fair share), neither stalls the base layer; the window");
    println!("transport's burstier signal may cost extra quality changes.");

    let dir = outdir("ablation_window_cc");
    let mut summary = RunSummary::new("ablation_window_cc");
    summary
        .metric("rap_mean_layers", rap.mean_layers)
        .metric("window_mean_layers", win.mean_layers)
        .metric("rap_changes", rap.changes as f64)
        .metric("window_changes", win.changes as f64)
        .metric("rap_stalls", rap.stalls as f64)
        .metric("window_stalls", win.stalls as f64);
    summary
        .write_json(dir.join("summary.json"))
        .expect("summary");
    std::fs::write(dir.join("table.csv"), tbl.to_csv()).expect("csv");
    println!("wrote {}", dir.display());

    assert_eq!(rap.stalls + win.stalls, 0, "base layer must never stall");
    assert!(
        (rap.mean_layers - win.mean_layers).abs() < 2.0,
        "same ballpark share"
    );
}
