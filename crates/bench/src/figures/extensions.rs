//! Experiments beyond the paper's evaluation: a RED bottleneck and an
//! ACK-clocked AIMD transport under the same controller, one function
//! each.

use crate::ascii_plot;
use laqa_core::QaConfig;
use laqa_layered::LayeredEncoding;
use laqa_rap::{RapConfig, RapSender, RateController, WindowConfig, WindowSender};
use laqa_sim::agents::qa::{QaSinkAgent, QaSourceAgent};
use laqa_sim::{run_scenario, LinkConfig, QueueKind, RedConfig, ScenarioConfig, World};
use laqa_trace::{RunSummary, Table};
use std::io::{self, Write};
use std::path::Path;

/// **Ablation** — drop-tail vs RED at the bottleneck.
///
/// The paper assumes near-random loss (§3, citing Bolot) and evaluates
/// over drop-tail queues. RED actively randomizes drops and keeps the
/// average queue short — which also shrinks the RTT and therefore *raises*
/// the AIMD slope `S = pkt/srtt²`, shrinking the buffer requirements. This
/// ablation quantifies both effects on the same T1 workload.
pub(super) fn red(dir: &Path, w: &mut dyn Write) -> io::Result<Vec<RunSummary>> {
    let duration = 60.0;
    let mut tbl = Table::new(
        "Ablation: bottleneck discipline (T1, K_max = 2, mean of 3 seeds)",
        &[
            "discipline",
            "mean queue (pkts)",
            "peak queue",
            "backoffs",
            "quality changes",
            "stalls",
        ],
    );
    let mut summaries = Vec::new();

    for (name, kind) in [
        ("drop-tail", QueueKind::DropTail),
        ("RED", QueueKind::Red(RedConfig::for_queue(150))),
    ] {
        let mut mean_q = 0.0;
        let mut peak_q: f64 = 0.0;
        let mut backoffs = 0u64;
        let mut changes = 0usize;
        let mut stalls = 0usize;
        let seeds = [7u64, 21, 42];
        for &seed in &seeds {
            let mut cfg = ScenarioConfig::t1(2, duration, seed);
            cfg.dumbbell.queue_kind = kind;
            let out = run_scenario(&cfg);
            mean_q += out.queue_trace.time_weighted_mean().unwrap_or(0.0);
            peak_q = peak_q.max(out.queue_trace.max().unwrap_or(0.0));
            backoffs += out.backoffs;
            changes += out.metrics.quality_changes();
            stalls += out.metrics.stalls();
        }
        let n = seeds.len() as f64;
        tbl.row(vec![
            name.into(),
            format!("{:.1}", mean_q / n),
            format!("{peak_q:.0}"),
            format!("{:.1}", backoffs as f64 / n),
            format!("{:.1}", changes as f64 / n),
            format!("{stalls}"),
        ]);
        let mut summary = RunSummary::new(format!("ablation_red/{name}"));
        summary
            .metric("mean_queue", mean_q / n)
            .metric("peak_queue", peak_q)
            .metric("backoffs", backoffs as f64 / n)
            .metric("quality_changes", changes as f64 / n);
        summaries.push(summary);
    }

    super::table(w, dir, "table.csv", &tbl)?;
    writeln!(
        w,
        "expected shape: RED keeps the average queue well below the
drop-tail level (shorter RTT → steeper AIMD slope → smaller
buffer requirements) at the cost of more frequent, less
synchronized loss events; the base layer must not stall under
either discipline."
    )?;
    Ok(summaries)
}

/// One QA flow's steady state (the last 60 % of its run).
struct Outcome {
    mean_layers: f64,
    changes: usize,
    stalls: usize,
    base_underflows: u64,
    plot: String,
}

/// Run one QA source over `controller`, with 500-byte packets, alone over
/// a `bw` bottleneck for `dur` seconds.
fn run_qa(bw: f64, dur: f64, controller: Box<dyn RateController>) -> Outcome {
    let mut world = World::new(31);
    let fwd = world.add_link(LinkConfig {
        bandwidth: bw,
        delay: 0.02,
        queue_packets: 20,
        ..LinkConfig::default()
    });
    let rev = world.add_link(LinkConfig::uncongested());
    let cfg = QaConfig {
        layer_rate: 5_000.0,
        max_layers: 6,
        k_max: 2,
        underflow_slack_bytes: 2_000.0,
        ..QaConfig::default()
    };
    let encoding =
        LayeredEncoding::linear(cfg.max_layers, cfg.layer_rate).expect("a valid encoding");
    let startup = 2.0 * cfg.startup_buffer_secs;
    let sink = QaSinkAgent::new(1, vec![rev], 1, encoding, startup, 0.05);
    let sink_id = world.add_agent(Box::new(sink));
    let src = QaSourceAgent::new(sink_id, vec![fwd], 1, controller, 500, cfg, 0.05);
    let src_id = world.add_agent(Box::new(src.with_traces()));
    world.run_until(dur);
    let src: &QaSourceAgent = world.agent(src_id).expect("the QA source");
    let sink: &QaSinkAgent = world.agent(sink_id).expect("the QA sink");
    let traces = src.traces.as_ref().expect("the QA source records traces");
    let n_active = &traces.n_active;
    let steady: Vec<f64> = n_active
        .points
        .iter()
        .filter(|&&(t, _)| t > dur * 0.4)
        .map(|&(_, v)| v)
        .collect();
    Outcome {
        mean_layers: steady.iter().sum::<f64>() / steady.len().max(1) as f64,
        changes: steady
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1e-9)
            .count(),
        stalls: src.qa().metrics().stalls(),
        base_underflows: sink.receiver.layer(0).underflow_events(),
        plot: ascii_plot(n_active, 64),
    }
}

/// **Extension experiment (§7)** — quality adaptation over two different
/// AIMD transports: RAP (rate-paced) vs an ACK-clocked TCP-like window.
///
/// The paper conjectures the mechanism ports to any AIMD scheme. Both
/// sources drive the *same* `QaController` over the same single-flow
/// bottleneck; the comparison shows the mechanism's guarantees (base
/// layer intact, quality tracks bandwidth) hold under both clockings,
/// while the burstier window transport produces a noisier rate signal and
/// somewhat more quality changes.
pub(super) fn window_cc(dir: &Path, w: &mut dyn Write) -> io::Result<Vec<RunSummary>> {
    let bw = 25_000.0;
    let dur = 40.0;
    let rap = RapConfig {
        packet_size: 500.0,
        initial_rate: 2_000.0,
        initial_rtt: 0.06,
        max_rate: 1.25 * 30_000.0,
    };
    let rap = run_qa(bw, dur, Box::new(RapSender::new(rap, 0.0)));
    let cc = WindowConfig {
        packet_size: 500.0,
        initial_rtt: 0.06,
        max_cwnd: 80.0,
    };
    let win = run_qa(bw, dur, Box::new(WindowSender::new(cc, 0.0)));

    writeln!(
        w,
        "== QA over two AIMD transports ({bw:.0} B/s bottleneck, {dur:.0}s) ==
RAP (rate-paced)   layers: {}
window (ACK-clock) layers: {}\n",
        rap.plot, win.plot
    )?;
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
    for (name, o) in [("RAP", &rap), ("window", &win)] {
        tbl.row(vec![
            name.into(),
            format!("{:.2}", o.mean_layers),
            o.changes.to_string(),
            o.stalls.to_string(),
            o.base_underflows.to_string(),
        ]);
    }
    super::table(w, dir, "table.csv", &tbl)?;
    writeln!(
        w,
        "expected shape: both transports settle near the same layer count
(same fair share), neither stalls the base layer; the window
transport's burstier signal may cost extra quality changes."
    )?;

    let mut summary = RunSummary::new("ablation_window_cc");
    summary
        .metric("rap_mean_layers", rap.mean_layers)
        .metric("window_mean_layers", win.mean_layers)
        .metric("rap_changes", rap.changes as f64)
        .metric("window_changes", win.changes as f64)
        .metric("rap_stalls", rap.stalls as f64)
        .metric("window_stalls", win.stalls as f64);
    assert_eq!(rap.stalls + win.stalls, 0, "base layer must never stall");
    assert!(
        (rap.mean_layers - win.mean_layers).abs() < 2.0,
        "same ballpark share"
    );
    Ok(vec![summary])
}
