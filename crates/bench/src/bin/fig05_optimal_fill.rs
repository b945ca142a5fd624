//! **Figures 4 & 5** — the optimal inter-layer buffer distribution and the
//! sequential filling/draining pattern.
//!
//! Figure 4 is analytic: the single-backoff deficit triangle sliced into
//! per-layer bands (base layer largest). Figure 5 shows the filling order
//! that reaches those targets sequentially and the drain pattern where
//! upper layers hand off to the network first. We print both.

use laqa_bench::outdir;
use laqa_core::draining::plan_draining_into;
use laqa_core::filling::next_fill_layer;
use laqa_core::geometry::{band_allocation_into, buffering_layer_count, deficit, triangle_area};
use laqa_core::StateSequence;
use laqa_trace::{RunSummary, Table};

fn main() {
    let c = 10_000.0;
    let s = 12_500.0;
    let n_a = 5;
    let rate = 42_000.0; // pre-backoff rate; post-backoff 21 KB/s vs 50 KB/s consumption

    let d0 = deficit(n_a as f64 * c, rate / 2.0);
    let n_b = buffering_layer_count(d0, c);
    let mut shares = Vec::new();
    band_allocation_into(d0, c, s, n_a, &mut shares);
    let area = triangle_area(d0, s);

    println!("== Figure 4: optimal inter-layer buffer distribution ==");
    println!("n_a = {n_a} layers, C = {c:.0} B/s, S = {s:.0} B/s², R = {rate:.0} B/s");
    println!("post-backoff deficit d0 = {d0:.0} B/s  →  n_b = {n_b} buffering layers");
    let mut t = Table::new("optimal shares", &["layer", "bytes", "% of total"]);
    for (i, &share) in shares.iter().enumerate() {
        t.row(vec![
            format!("L{i}"),
            format!("{share:.0}"),
            format!("{:.1}%", 100.0 * share / area),
        ]);
    }
    t.row(vec!["total".into(), format!("{area:.0}"), "100.0%".into()]);
    println!("{}", t.render());

    // Figure 5: sequential filling order (packet by packet) and the drain
    // handoff pattern.
    let mut seq = StateSequence::build(rate, n_a, c, s, 1);
    let mut bufs = vec![0.0f64; n_a];
    let pkt = 1_000.0;
    let mut order = Vec::new();
    while let Some(layer) = next_fill_layer(&mut seq, &bufs, 1.0) {
        bufs[layer] += pkt;
        order.push(layer);
        if order.len() > 10_000 {
            break;
        }
    }
    let mut runs: Vec<(usize, usize)> = Vec::new(); // (layer, packets)
    for &l in &order {
        match runs.last_mut() {
            Some((layer, count)) if *layer == l => *count += 1,
            _ => runs.push((l, 1)),
        }
    }
    println!("== Figure 5: sequential filling pattern (1 KB packets) ==");
    let runs_str: Vec<String> = runs.iter().map(|(l, n)| format!("L{l}×{n}")).collect();
    println!("fill order: {}", runs_str.join(" → "));

    // Drain pattern: plan successive periods of the draining phase and show
    // the per-layer drain rates handing off from top to bottom.
    println!();
    println!("drain pattern after the backoff (per 0.2 s period, B/s):");
    let mut drain_tbl = Table::new("draining", &["t", "rate", "L0", "L1", "L2", "L3", "L4"]);
    let mut cur = rate / 2.0;
    let mut tme = 0.0;
    let dt = 0.2;
    let (mut drain, mut rates) = (Vec::new(), Vec::new());
    while cur < n_a as f64 * c {
        plan_draining_into(&mut seq, &bufs, cur, dt, 1.0, &mut drain, &mut rates);
        let mut row = vec![format!("{tme:.1}"), format!("{cur:.0}")];
        for (buf, drain) in bufs.iter_mut().zip(&drain) {
            row.push(format!("{:.0}", drain / dt));
            *buf -= drain;
        }
        drain_tbl.row(row);
        cur += s * dt;
        tme += dt;
    }
    println!("{}", drain_tbl.render());
    println!("expected shape: base layer holds the largest share; filling is");
    println!("strictly sequential L0→L1→…; during draining the highest layers'");
    println!("buffers are released first while lower layers drain longest.");

    let dir = outdir("fig05");
    let mut summary = RunSummary::new("fig05");
    summary
        .param("n_a", n_a)
        .param("rate", rate)
        .metric("deficit", d0)
        .metric("n_b", n_b as f64)
        .metric("total_area", area)
        .metric("l0_share", shares[0]);
    for (i, &sh) in shares.iter().enumerate() {
        summary.metric(&format!("share_l{i}"), sh);
    }
    summary
        .write_json(dir.join("summary.json"))
        .expect("write summary");
    println!("wrote {}", dir.display());
}
