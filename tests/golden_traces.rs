//! Golden-trace regression tests for the paper's key mechanisms.
//!
//! Each test recomputes a figure's underlying data — fig. 5 (optimal
//! filling), fig. 10 (monotone state sequence), fig. 12 (smoothing
//! sweep) — and compares it against a committed JSON fixture in
//! `tests/goldens/`. The fixtures pin behaviour, not formatting: numbers
//! are compared within a small relative tolerance so harmless float
//! noise (e.g. a re-associated sum) does not trip the suite, while any
//! real drift in the allocation geometry, the state ordering, or the
//! simulated adaptation does.
//!
//! To re-bless after an intentional behaviour change:
//!
//! ```text
//! LAQA_BLESS=1 cargo test -p laqa-bench --test golden_traces
//! ```

use laqa_core::draining::plan_draining_into;
use laqa_core::filling::next_fill_layer;
use laqa_core::geometry::{band_allocation_into, buffering_layer_count, deficit, triangle_area};
use laqa_core::StateSequence;
use laqa_sim::{run_scenario, ScenarioConfig};
use laqa_trace::{parse_json, JsonValue, TimeSeries};
use std::path::PathBuf;

const TOLERANCE: f64 = 1e-6;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name)
}

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn arr_f64(vals: &[f64]) -> JsonValue {
    JsonValue::Arr(vals.iter().map(|&v| num(v)).collect())
}

fn obj(entries: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Compare `actual` against the committed golden at `name`, or rewrite
/// the golden when `LAQA_BLESS=1` is set.
fn check_golden(name: &str, actual: &JsonValue) {
    let path = golden_path(name);
    if std::env::var("LAQA_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create goldens dir");
        let mut text = actual.to_pretty();
        text.push('\n');
        std::fs::write(&path, text).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with LAQA_BLESS=1 to generate",
            path.display()
        )
    });
    let expected = parse_json(&text).expect("golden parses");
    let mut diffs = Vec::new();
    diff_values(name, &expected, actual, &mut diffs);
    assert!(
        diffs.is_empty(),
        "golden mismatch vs {} ({} diffs):\n{}\nre-bless with LAQA_BLESS=1 if intentional",
        path.display(),
        diffs.len(),
        diffs.join("\n")
    );
}

/// Structural diff with relative tolerance on numbers.
fn diff_values(at: &str, expected: &JsonValue, actual: &JsonValue, diffs: &mut Vec<String>) {
    match (expected, actual) {
        (JsonValue::Num(e), JsonValue::Num(a)) => {
            let scale = 1.0_f64.max(e.abs());
            if (e - a).abs() > TOLERANCE * scale {
                diffs.push(format!("{at}: expected {e}, got {a}"));
            }
        }
        (JsonValue::Arr(e), JsonValue::Arr(a)) => {
            if e.len() != a.len() {
                diffs.push(format!("{at}: array length {} vs {}", e.len(), a.len()));
                return;
            }
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                diff_values(&format!("{at}[{i}]"), ev, av, diffs);
            }
        }
        (JsonValue::Obj(e), JsonValue::Obj(_)) => {
            for (key, ev) in e {
                match actual.get(key) {
                    Some(av) => diff_values(&format!("{at}.{key}"), ev, av, diffs),
                    None => diffs.push(format!("{at}.{key}: missing in actual")),
                }
            }
        }
        _ if expected == actual => {}
        _ => diffs.push(format!("{at}: expected {expected:?}, got {actual:?}")),
    }
}

/// Figure 5: the optimal inter-layer allocation and the sequential
/// filling order it induces (fig05_optimal_fill logic, pinned).
#[test]
fn fig05_optimal_filling_matches_golden() {
    let c = 10_000.0;
    let s = 12_500.0;
    let n_a = 5usize;
    let rate = 42_000.0;

    let d0 = deficit(n_a as f64 * c, rate / 2.0);
    let n_b = buffering_layer_count(d0, c);
    let mut shares = Vec::new();
    band_allocation_into(d0, c, s, n_a, &mut shares);
    let area = triangle_area(d0, s);

    // Packet-by-packet filling toward the optimal shares; record the
    // run-length-encoded layer order.
    let mut seq = StateSequence::build(rate, n_a, c, s, 1);
    let mut bufs = vec![0.0f64; n_a];
    let mut runs: Vec<(usize, usize)> = Vec::new();
    while let Some(layer) = next_fill_layer(&mut seq, &bufs, 1.0) {
        bufs[layer] += 1_000.0;
        match runs.last_mut() {
            Some((l, count)) if *l == layer => *count += 1,
            _ => runs.push((layer, 1)),
        }
        if runs.iter().map(|&(_, n)| n).sum::<usize>() > 10_000 {
            panic!("filling never converged");
        }
    }

    // One drain period from the filled state: upper layers hand off first.
    let (mut drain, mut rates) = (Vec::new(), Vec::new());
    plan_draining_into(
        &mut seq,
        &bufs,
        rate / 2.0,
        0.2,
        1.0,
        &mut drain,
        &mut rates,
    );

    let actual = obj(vec![
        (
            "params",
            obj(vec![
                ("c", num(c)),
                ("s", num(s)),
                ("n_a", num(n_a as f64)),
                ("rate", num(rate)),
            ]),
        ),
        ("deficit", num(d0)),
        ("buffering_layers", num(n_b as f64)),
        ("total_area", num(area)),
        ("shares", arr_f64(&shares)),
        (
            "fill_runs",
            JsonValue::Arr(
                runs.iter()
                    .map(|&(l, n)| JsonValue::Arr(vec![num(l as f64), num(n as f64)]))
                    .collect(),
            ),
        ),
        ("first_drain_period", arr_f64(&drain)),
    ]);
    check_golden("fig05.json", &actual);
}

/// Figure 10: the monotone step sequence of buffer states — totals
/// strictly increasing, per-layer columns clamped monotone.
#[test]
fn fig10_state_sequence_matches_golden() {
    let c = 10_000.0;
    let s = 12_500.0;
    let n_a = 5usize;
    let rate = 60_000.0;
    let k_max = 5;

    let mut seq = StateSequence::build(rate, n_a, c, s, k_max);
    let states: Vec<JsonValue> = seq
        .path()
        .iter()
        .map(|st| {
            obj(vec![
                ("scenario", JsonValue::Str(format!("{}", st.scenario))),
                ("k", num(st.k as f64)),
                ("raw_total", num(st.raw_total())),
                ("total", num(st.total())),
                ("per_layer", arr_f64(st.per_layer)),
            ])
        })
        .collect();

    let actual = obj(vec![
        (
            "params",
            obj(vec![
                ("c", num(c)),
                ("s", num(s)),
                ("n_a", num(n_a as f64)),
                ("rate", num(rate)),
                ("k_max", num(k_max as f64)),
            ]),
        ),
        ("k1", num(seq.k1 as f64)),
        ("n_states", num(seq.path().len() as f64)),
        ("states", JsonValue::Arr(states)),
    ]);
    check_golden("fig10.json", &actual);
}

/// Count value changes of a step series within `[t_lo, t_hi)`.
fn changes_within(series: &TimeSeries, t_lo: f64, t_hi: f64) -> usize {
    let vals: Vec<f64> = series
        .points
        .iter()
        .filter(|&&(t, _)| t >= t_lo && t < t_hi)
        .map(|&(_, v)| v)
        .collect();
    vals.windows(2)
        .filter(|w| (w[0] - w[1]).abs() > 1e-9)
        .count()
}

/// Figure 12: the K_max smoothing trade-off on the simulated T1 workload —
/// higher K_max buys fewer quality changes at the cost of more buffering.
#[test]
fn fig12_smoothing_sweep_matches_golden() {
    let duration = 30.0;
    let seed = 7;
    let mut sweep = Vec::new();
    for k_max in [2u32, 4] {
        let out = run_scenario(&ScenarioConfig::t1(k_max, duration, seed));

        let changes = changes_within(&out.traces.n_active, 10.0, duration);
        let steady: Vec<f64> = out
            .traces
            .n_active
            .points
            .iter()
            .filter(|&&(t, _)| t > 10.0)
            .map(|&(_, v)| v)
            .collect();
        let mean_layers = steady.iter().sum::<f64>() / steady.len().max(1) as f64;

        let buffers = &out.traces.buffer;
        let n_points = buffers[0].points.len();
        let mut peak_total = 0.0f64;
        for idx in 0..n_points {
            let total: f64 = buffers
                .iter()
                .map(|b| b.points.get(idx).map(|&(_, v)| v.max(0.0)).unwrap_or(0.0))
                .sum();
            peak_total = peak_total.max(total);
        }

        sweep.push(obj(vec![
            ("k_max", num(k_max as f64)),
            ("quality_changes_steady", num(changes as f64)),
            ("mean_layers_steady", num(mean_layers)),
            ("peak_total_buffer", num(peak_total)),
            ("stalls", num(out.metrics.stalls() as f64)),
            ("adds", num(out.metrics.adds() as f64)),
            ("drops", num(out.metrics.drops() as f64)),
        ]));
    }
    let actual = obj(vec![
        (
            "params",
            obj(vec![
                ("duration", num(duration)),
                ("seed", num(seed as f64)),
            ]),
        ),
        ("runs", JsonValue::Arr(sweep)),
    ]);
    check_golden("fig12.json", &actual);
}
