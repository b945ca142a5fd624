//! **Figure 14 / Appendix A.4** — the Scenario-2 construction, verified
//! numerically.
//!
//! The appendix computes `Buf_total` for Scenario 2 as one initial triangle
//! (the first `k₁` backoffs at the peak bring the rate just below the
//! consumption rate) plus `k − k₁` identical triangles (each subsequent
//! backoff fires exactly when the rate has recovered to `n_a·C`). This
//! binary *simulates* that worst-case loss pattern — literally driving an
//! AIMD rate trajectory with backoffs at the prescribed instants — and
//! integrates the deficit, confirming the closed form the controller uses.

use laqa_bench::outdir;
use laqa_core::scenario::{buf_total, min_backoffs_below, Scenario};
use laqa_trace::{RunSummary, Table};

/// Numerically integrate the deficit of the figure-14 trajectory.
fn simulate_scenario2(rate: f64, n: usize, c: f64, slope: f64, k: u32) -> f64 {
    let consumption = n as f64 * c;
    let k1 = min_backoffs_below(rate, consumption, 0.5);
    if k < k1 {
        return 0.0;
    }
    let mut r = rate / 2f64.powi(k1 as i32); // k₁ instantaneous backoffs
    let mut remaining = k - k1;
    let dt = 1e-4;
    let mut deficit_area = 0.0;
    // Walk until the final recovery completes.
    loop {
        if r < consumption {
            deficit_area += (consumption - r) * dt;
        } else if remaining > 0 {
            // Recovered to the consumption rate: the next spread backoff
            // fires here (figure 14's sequential triangles).
            r = consumption / 2.0;
            remaining -= 1;
            continue;
        } else {
            break;
        }
        r += slope * dt;
    }
    deficit_area
}

fn main() {
    let c = 10_000.0;
    let slope = 12_500.0;
    let mut tbl = Table::new(
        "Figure 14 / A.4: Scenario-2 closed form vs simulated worst case",
        &[
            "n_a",
            "R",
            "k",
            "k1",
            "closed form (B)",
            "simulated (B)",
            "err",
        ],
    );
    let dir = outdir("fig14");
    let mut worst_err = 0.0f64;
    for n in [2usize, 3, 5] {
        for &rate in &[40_000.0, 90_000.0, 150_000.0] {
            for k in 1..=5u32 {
                let k1 = min_backoffs_below(rate, n as f64 * c, 0.5);
                let closed = buf_total(Scenario::Two, k, rate, n as f64 * c, slope, 0.5);
                let sim = simulate_scenario2(rate, n, c, slope, k);
                let err = if closed > 0.0 {
                    (closed - sim).abs() / closed
                } else {
                    (closed - sim).abs()
                };
                worst_err = worst_err.max(err);
                if k >= k1 {
                    tbl.row(vec![
                        n.to_string(),
                        format!("{rate:.0}"),
                        k.to_string(),
                        k1.to_string(),
                        format!("{closed:.0}"),
                        format!("{sim:.0}"),
                        format!("{:.2}%", 100.0 * err),
                    ]);
                }
            }
        }
    }
    println!("{}", tbl.render());
    println!("worst relative error: {:.3}%", 100.0 * worst_err);
    println!("expected shape: the appendix decomposition (one k1-deep triangle");
    println!("plus (k-k1) half-consumption triangles) matches the integrated");
    println!("deficit of the literal figure-14 trajectory to numerical accuracy.");

    let mut summary = RunSummary::new("fig14");
    summary.metric("worst_relative_error", worst_err);
    summary
        .write_json(dir.join("summary.json"))
        .expect("summary");
    std::fs::write(dir.join("table.csv"), tbl.to_csv()).expect("csv");
    println!("wrote {}", dir.display());
    assert!(worst_err < 0.01, "closed form must match the construction");
}
