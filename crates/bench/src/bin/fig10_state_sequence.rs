//! **Figures 8–10** — Scenario-1/2 buffer states for k = 1..5, their
//! ordering by total buffering, and the monotone (figure 10) step
//! sequence actually traversed during filling.
//!
//! The paper's figures are bar diagrams of per-layer shares; we print the
//! same data as tables: one row per state, one column per layer, in raw
//! form (fig. 8), sorted (fig. 9) and clamped (fig. 10) — including the
//! paper's observation that a naive sort would require *draining* a layer
//! between consecutive states.

use laqa_bench::outdir;
use laqa_core::StateSequence;
use laqa_trace::{RunSummary, Table};

fn main() {
    let c = 10_000.0;
    let s = 12_500.0;
    let n_a = 5;
    let rate = 60_000.0;
    let k_max = 5;

    let mut seq = StateSequence::build(rate, n_a, c, s, k_max);
    println!("== Figures 8-10: buffer states (n_a={n_a}, C={c:.0}, S={s:.0}, R={rate:.0}) ==");
    println!(
        "k1 = {} backoffs needed to drop below consumption\n",
        seq.k1
    );

    let headers = ["state", "k", "total", "L0", "L1", "L2", "L3", "L4"];
    let mut raw_tbl = Table::new("Figure 9: states sorted by raw total", &headers);
    for st in seq.path().iter() {
        let mut row = vec![
            format!("{}", st.scenario),
            format!("{}", st.k),
            format!("{:.0}", st.raw_total()),
        ];
        for i in 0..n_a {
            row.push(format!("{:.0}", st.raw_per_layer[i]));
        }
        raw_tbl.row(row);
    }
    println!("{}", raw_tbl.render());

    // Detect the fig-9 phenomenon: raw per-layer decreases along the sort.
    let mut violations = 0;
    for (a, b) in seq.path().pairs() {
        for i in 0..n_a {
            if b.raw_per_layer[i] < a.raw_per_layer[i] - 1e-6 {
                println!(
                    "naive order would DRAIN L{i}: {}k{} {:.0} -> {}k{} {:.0}",
                    a.scenario, a.k, a.raw_per_layer[i], b.scenario, b.k, b.raw_per_layer[i]
                );
                violations += 1;
            }
        }
    }
    println!();

    let mut clamped_tbl = Table::new("Figure 10: monotone step sequence (clamped)", &headers);
    for st in seq.path().iter() {
        let mut row = vec![
            format!("{}", st.scenario),
            format!("{}", st.k),
            format!("{:.0}", st.total()),
        ];
        for i in 0..n_a {
            row.push(format!("{:.0}", st.per_layer[i]));
        }
        clamped_tbl.row(row);
    }
    println!("{}", clamped_tbl.render());
    println!("expected shape: totals increase along the path; after the clamp");
    println!("every per-layer column is monotone too (no drain-during-fill).");
    println!("naive-order drain violations found: {violations}");

    let dir = outdir("fig10");
    std::fs::write(dir.join("states_raw.csv"), raw_tbl.to_csv()).expect("csv");
    std::fs::write(dir.join("states_monotone.csv"), clamped_tbl.to_csv()).expect("csv");
    let mut summary = RunSummary::new("fig10");
    summary
        .param("n_a", n_a)
        .param("rate", rate)
        .param("k_max", k_max)
        .metric("k1", seq.k1 as f64)
        .metric("n_states", seq.path().len() as f64)
        .metric("naive_drain_violations", violations as f64);
    summary
        .write_json(dir.join("summary.json"))
        .expect("summary");
    println!("wrote {}", dir.display());
}
