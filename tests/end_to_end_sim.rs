//! Integration: the full simulated stack (laqa-core + laqa-rap +
//! laqa-layered + laqa-sim) on the paper's workloads.

use laqa_sim::{run_scenario, ScenarioConfig};

#[test]
fn t1_full_stack_adapts_without_stalling() {
    let cfg = ScenarioConfig::t1(2, 30.0, 21);
    let out = run_scenario(&cfg);

    // Quality exceeded the base layer.
    assert!(out.traces.n_active.max().unwrap_or(0.0) >= 2.0);
    // Congestion control actually engaged.
    assert!(out.backoffs > 0);
    assert!(out.bottleneck.dropped > 0);
    // The headline safety property: the base layer never stalls at the
    // sender's accounting, and receiver-side base underflows are rare
    // (packetization edges at layer adds only).
    assert_eq!(out.metrics.stalls(), 0);
    assert!(
        out.rx_base_underflows <= 5,
        "{} base underflows",
        out.rx_base_underflows
    );
    // Background flows were not starved.
    assert!(out.rap_throughput.iter().all(|&t| t > 500.0));
    assert!(out.tcp_goodput.iter().all(|&t| t > 500.0));
}

#[test]
fn qa_flow_is_tcp_friendly() {
    // The QA flow's long-run share must be in the same ballpark as the
    // other RAP flows — quality adaptation must not change RAP's fairness.
    let cfg = ScenarioConfig::t1(2, 60.0, 5);
    let out = run_scenario(&cfg);
    let qa_rate = out
        .traces
        .tx_rate
        .points
        .iter()
        .filter(|&&(t, _)| t > 20.0)
        .map(|&(_, v)| v)
        .sum::<f64>()
        / out
            .traces
            .tx_rate
            .points
            .iter()
            .filter(|&&(t, _)| t > 20.0)
            .count()
            .max(1) as f64;
    let rap_mean = out.rap_throughput.iter().sum::<f64>() / out.rap_throughput.len() as f64;
    let ratio = qa_rate / rap_mean;
    assert!(
        (0.4..=2.5).contains(&ratio),
        "QA share {qa_rate:.0} vs RAP mean {rap_mean:.0} (ratio {ratio:.2})"
    );
}

#[test]
fn t2_burst_reduces_and_recovers_quality() {
    let cfg = ScenarioConfig::t2(2, 60.0, 21);
    let (start, stop, _) = cfg.cbr.unwrap();
    let out = run_scenario(&cfg);
    let mean_in = |lo: f64, hi: f64| {
        let v: Vec<f64> = out
            .traces
            .n_active
            .points
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, v)| v)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let before = mean_in(10.0, start);
    let during = mean_in(start + 3.0, stop);
    let after = mean_in(stop + 3.0, 60.0);
    assert!(
        during < before,
        "burst must reduce quality: {before:.2} -> {during:.2}"
    );
    assert!(
        after > during,
        "quality must recover: {during:.2} -> {after:.2}"
    );
    assert_eq!(out.metrics.stalls(), 0, "base layer survives the burst");
}

#[test]
fn efficiency_stays_high_across_k_max() {
    for k_max in [2u32, 4] {
        let cfg = ScenarioConfig::t1(k_max, 45.0, 3);
        let out = run_scenario(&cfg);
        if let Some(e) = out.metrics.efficiency() {
            assert!(e > 0.75, "K_max={k_max}: efficiency {e:.3} too low");
        }
    }
}

#[test]
fn deterministic_given_seed() {
    let a = run_scenario(&ScenarioConfig::t1(2, 12.0, 77));
    let b = run_scenario(&ScenarioConfig::t1(2, 12.0, 77));
    assert_eq!(a.traces.n_active, b.traces.n_active);
    assert_eq!(a.backoffs, b.backoffs);
    assert_eq!(a.bottleneck.dropped, b.bottleneck.dropped);
}

#[test]
fn different_seeds_differ() {
    let a = run_scenario(&ScenarioConfig::t1(2, 12.0, 1));
    let b = run_scenario(&ScenarioConfig::t1(2, 12.0, 2));
    // TCP start jitter and queue dynamics must actually vary.
    assert_ne!(a.bottleneck.dropped, b.bottleneck.dropped);
}

#[test]
fn background_flows_share_with_reasonable_fairness() {
    use laqa_sim::{jain_fairness, summarize_sharing};
    let cfg = ScenarioConfig::t1(2, 60.0, 9);
    let out = run_scenario(&cfg);
    // RAP flows among themselves: same protocol, same paths — Jain's index
    // should be high.
    let rap_fairness = jain_fairness(&out.rap_throughput).unwrap();
    assert!(rap_fairness > 0.9, "RAP fairness {rap_fairness:.3}");
    // All 19 background flows together: cross-protocol sharing is looser
    // but nobody starves.
    let all: Vec<f64> = out
        .rap_throughput
        .iter()
        .chain(out.tcp_goodput.iter())
        .copied()
        .collect();
    let s = summarize_sharing(&all).unwrap();
    assert!(
        s.fairness > 0.5,
        "cross-protocol fairness {:.3}",
        s.fairness
    );
    assert!(s.max_min_ratio.is_finite(), "no flow may starve completely");
}
