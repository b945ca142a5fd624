//! The ablations of three of the design's choices (DESIGN.md §7), one
//! function each.

use laqa_core::draining::plan_draining_into;
use laqa_core::geometry::band_allocation_into;
use laqa_core::{QaConfig, QaController, StateSequence};
use laqa_trace::{RunSummary, Table};
use std::io::{self, Write};
use std::path::Path;

/// Simulate a complete draining phase (rate recovering at slope `s`) with
/// per-period planning against `bufs`; returns the number of periods that
/// had an uncovered shortfall.
fn shortfall_periods(
    seq: &mut StateSequence,
    mut bufs: Vec<f64>,
    mut rate: f64,
    n: usize,
    c: f64,
    s: f64,
) -> usize {
    let dt = 0.05;
    let mut bad = 0;
    let (mut drain, mut rates) = (Vec::new(), Vec::new());
    while rate < n as f64 * c {
        let shortfall = plan_draining_into(seq, &bufs, rate, dt, 1.0, &mut drain, &mut rates);
        if shortfall > 1.0 {
            bad += 1;
        }
        for (buf, drain) in bufs.iter_mut().zip(&drain) {
            *buf = (*buf - drain).max(0.0);
        }
        rate += s * dt;
    }
    bad
}

/// **Ablation (DESIGN.md §7.2)** — optimal band allocation vs the two §2.3
/// strawmen: *equal share* and *base-layer-only* buffer distributions.
///
/// For a sweep of draining scenarios (same total buffering, different
/// splits), simulate the draining phase and measure: could the
/// distribution deliver the deficit (no forced drop), and how many layers
/// survive? The optimal banding should dominate both strawmen, reproducing
/// the failure modes the paper describes in prose.
pub(super) fn allocation(dir: &Path, w: &mut dyn Write) -> io::Result<Vec<RunSummary>> {
    let c = 10_000.0;
    let s = 12_500.0;
    let mut tbl = Table::new(
        "Ablation: buffer distribution vs draining success",
        &["n_a", "R", "total buf", "optimal", "equal", "base-only"],
    );
    let mut opt_wins = 0;
    let mut cases = 0;

    for n in [3usize, 4, 5] {
        for rate_mult in [1.2f64, 1.5, 1.9] {
            let rate = rate_mult * n as f64 * c;
            let post = rate / 2.0;
            let deficit = (n as f64 * c - post).max(0.0);
            if deficit <= 0.0 {
                continue;
            }
            let mut optimal = Vec::new();
            band_allocation_into(deficit, c, s, n, &mut optimal);
            let total: f64 = optimal.iter().sum();
            let equal = vec![total / n as f64; n];
            let mut base_only = vec![0.0; n];
            base_only[0] = total;
            let mut seq = StateSequence::build(rate, n, c, s, 1);

            let r_opt = shortfall_periods(&mut seq, optimal, post, n, c, s);
            let r_eq = shortfall_periods(&mut seq, equal, post, n, c, s);
            let r_base = shortfall_periods(&mut seq, base_only, post, n, c, s);
            cases += 1;
            if r_opt <= r_eq && r_opt <= r_base {
                opt_wins += 1;
            }
            tbl.row(vec![
                n.to_string(),
                format!("{rate:.0}"),
                format!("{total:.0}"),
                format!("{r_opt} bad periods"),
                format!("{r_eq} bad periods"),
                format!("{r_base} bad periods"),
            ]);
        }
    }

    super::table(w, dir, "table.csv", &tbl)?;
    writeln!(
        w,
        "optimal allocation never loses: {opt_wins}/{cases} cases
expected shape: the optimal banding always covers the draining
phase; base-only fails whenever the deficit spans >1 layer's
drain-rate cap (§2.3's 'insufficient distribution' example)."
    )?;

    let mut summary = RunSummary::new("ablation_allocation");
    summary
        .metric("cases", cases as f64)
        .metric("optimal_wins", opt_wins as f64);
    Ok(vec![summary])
}

/// **Ablation (DESIGN.md §7.1)** — the figure-10 monotone clamp vs the
/// naive sort-by-total state order.
///
/// The naive order requires *draining* some layer's buffer while still in
/// the filling phase (the paper shows `{S2,k2} → {S1,k2}` and
/// `{S1,k4} → {S2,k3}` doing so). We sweep operating points, count those
/// inversions, and measure the extra buffering the clamp costs in
/// exchange.
pub(super) fn monotone(dir: &Path, w: &mut dyn Write) -> io::Result<Vec<RunSummary>> {
    let c = 10_000.0;
    let mut tbl = Table::new(
        "Ablation: naive state order vs monotone clamp",
        &[
            "n_a",
            "R/nC",
            "S",
            "naive drain transitions",
            "clamp overhead",
        ],
    );
    let mut total_points = 0usize;
    let mut points_with_inversions = 0usize;
    let mut worst_overhead = 0.0f64;

    for n in [2usize, 3, 4, 5, 6] {
        for rate_mult in [1.1f64, 1.4, 1.8, 2.5] {
            for s in [6_250.0f64, 12_500.0, 50_000.0] {
                let rate = rate_mult * n as f64 * c;
                let mut seq = StateSequence::build(rate, n, c, s, 6);
                if seq.path().is_empty() {
                    continue;
                }
                total_points += 1;
                let mut inversions = 0;
                for (a, b) in seq.path().pairs() {
                    if (0..n).any(|i| b.raw_per_layer[i] < a.raw_per_layer[i] - 1e-6) {
                        inversions += 1;
                    }
                }
                if inversions > 0 {
                    points_with_inversions += 1;
                }
                // Clamp overhead: extra bytes the monotone targets require
                // at the final state vs the raw optimum.
                let last = seq.path().last().expect("a non-empty path");
                let overhead = if last.raw_total() > 0.0 {
                    (last.total() - last.raw_total()) / last.raw_total()
                } else {
                    0.0
                };
                worst_overhead = worst_overhead.max(overhead);
                if inversions > 0 || overhead > 0.01 {
                    tbl.row(vec![
                        n.to_string(),
                        format!("{rate_mult:.1}"),
                        format!("{s:.0}"),
                        inversions.to_string(),
                        format!("{:.1}%", 100.0 * overhead),
                    ]);
                }
            }
        }
    }

    super::table(w, dir, "table.csv", &tbl)?;
    writeln!(
        w,
        "operating points with naive-order drain transitions: {points_with_inversions}/{total_points}
worst clamp overhead at the final state: {:.1}%
expected shape: inversions are common (the fig-9 phenomenon is
not a corner case), and the clamp's cost — a few percent of
extra protective buffering — buys a drain-free filling path.",
        100.0 * worst_overhead
    )?;

    let mut summary = RunSummary::new("ablation_monotone");
    summary
        .metric("points", total_points as f64)
        .metric("points_with_inversions", points_with_inversions as f64)
        .metric("worst_overhead", worst_overhead);
    assert!(
        points_with_inversions > 0,
        "the fig-9 phenomenon must appear"
    );
    Ok(vec![summary])
}

/// Drive a sawtooth between `lo` and `hi` at slope `s`; returns the
/// fraction of (post-warm-up) time spent at ≥ 3 layers under the
/// buffer-based rule, plus the sawtooth's long-run average rate.
fn run_buffer_rule(lo: f64, hi: f64, s: f64, c: f64, dur: f64) -> (f64, f64) {
    let cfg = QaConfig {
        layer_rate: c,
        max_layers: 4,
        k_max: 2,
        underflow_slack_bytes: 1_500.0,
        ..QaConfig::default()
    };
    let mut qa = QaController::new(cfg).expect("a valid QA config");
    qa.set_slope(s);
    let dt = 0.05;
    let mut rate = lo;
    let mut now = 0.0;
    let mut rate_sum = 0.0;
    let mut steps = 0u64;
    let mut three_time = 0.0;
    let mut total_time = 0.0;
    while now < dur {
        if rate >= hi {
            rate /= 2.0;
            qa.on_backoff(now, rate);
        }
        let report = qa.tick(now, rate, dt);
        for (layer, &r) in report.per_layer_rate.iter().enumerate() {
            qa.on_packet_delivered(layer, r * dt);
        }
        rate_sum += rate;
        steps += 1;
        if now > 20.0 {
            total_time += dt;
            if report.n_active >= 3 {
                three_time += dt;
            }
        }
        rate += s * dt;
        now += dt;
    }
    (three_time / total_time.max(1e-9), rate_sum / steps as f64)
}

/// **Ablation (DESIGN.md §7.3)** — the paper's buffer-based add rule vs
/// the rejected *average-bandwidth* rule, on §3.1's "2.9-layer modem
/// link".
///
/// A clean AIMD sawtooth whose long-run average sits between 2 and 3
/// layers: the average-bandwidth rule never adds the third layer; the
/// buffer-based rule streams it most of the time. We drive the controller
/// with the sawtooth directly (both rules see identical bandwidth).
pub(super) fn smoothing(dir: &Path, w: &mut dyn Write) -> io::Result<Vec<RunSummary>> {
    let c = 10_000.0;
    let s = 25_000.0;
    // Sawtooth 19..38 KB/s: average 28.5 KB/s = 2.85 layers.
    let (lo, hi) = (19_000.0, 38_000.0);
    let dur = 300.0;
    let (three_frac, avg_rate) = run_buffer_rule(lo, hi, s, c, dur);

    // The average-bandwidth rule: add layer n+1 only when the *average*
    // bandwidth exceeds (n+1)·C. With avg = 2.85·C it never reaches 3·C.
    let avg_rule_adds_third = avg_rate >= 3.0 * c;

    let mut tbl = Table::new(
        "Ablation: add-rule comparison on a 2.85-layer link",
        &["rule", "third layer streamed", "notes"],
    );
    tbl.row(vec![
        "buffer-based (paper)".into(),
        format!("{:.0}% of time", 100.0 * three_frac),
        "adds at sawtooth peaks, buffers sustain it".into(),
    ]);
    tbl.row(vec![
        "average-bandwidth".into(),
        if avg_rule_adds_third {
            "yes".into()
        } else {
            "never".into()
        },
        format!("avg rate {avg_rate:.0} < 3C = {:.0}", 3.0 * c),
    ]);
    super::table(w, dir, "table.csv", &tbl)?;
    writeln!(
        w,
        "paper's claim (§3.1): on a 2.9-layer link the buffer-based rule
sends 3 layers ~90% of the time; the average rule, never.
expected shape: the buffer rule streams the third layer a large
fraction of the time; the average rule cannot add it at all."
    )?;

    let mut summary = RunSummary::new("ablation_smoothing");
    summary
        .param("avg_rate", avg_rate)
        .metric("three_layer_fraction_buffer_rule", three_frac)
        .metric(
            "avg_rule_adds_third",
            f64::from(u8::from(avg_rule_adds_third)),
        );
    assert!(
        three_frac > 0.2,
        "buffer rule should stream the third layer"
    );
    assert!(
        !avg_rule_adds_third,
        "average rule must never add the third layer"
    );
    Ok(vec![summary])
}
