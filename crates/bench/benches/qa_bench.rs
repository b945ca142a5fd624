//! Microbenchmarks for the quality-adaptation kernels — the code on the
//! per-packet/per-tick hot path of figures 2, 4/5, 8–10 and every trace
//! experiment. Std-only (`laqa_bench::timing`), no criterion.

use laqa_bench::timing::Runner;
use laqa_core::draining::{plan_draining, plan_draining_into};
use laqa_core::filling::{allocate_filling, allocate_filling_into, next_fill_layer};
use laqa_core::geometry::band_allocation;
use laqa_core::nonlinear::{nl_band_allocation, nl_per_layer, LayerRates};
use laqa_core::scenario::{buf_total, per_layer, Scenario};
use laqa_core::{QaConfig, QaController, StateSequence};
use std::hint::black_box;

/// A controller brought up to `layers` active layers at `rate` by a
/// transport that delivers far more than it was allocated, so every
/// buffer condition of the add rule holds as soon as the bandwidth does.
fn controller_at(cfg: QaConfig, layers: usize, rate: f64) -> (QaController, f64) {
    let mut qa = QaController::new(cfg).unwrap();
    qa.set_slope(12_500.0);
    let mut now = 0.0;
    while qa.n_active() < layers {
        let tick = qa.tick(now, rate, 0.05);
        for layer in 0..tick.n_active {
            qa.on_packet_delivered(layer, 1e6);
        }
        now += 0.05;
        assert!(now < 60.0, "{rate} B/s never brought up {layers} layers");
    }
    (qa, now)
}

/// One measured period: tick, then a faithful transport's deliveries.
fn tick_and_deliver(qa: &mut QaController, now: &mut f64, rate: f64) {
    let tick = qa.tick(*now, black_box(rate), 0.05);
    for (layer, &r) in tick.per_layer_rate.iter().enumerate() {
        qa.on_packet_delivered(layer, r * 0.05);
    }
    *now += 0.05;
}

fn main() {
    let mut r = Runner::from_args();

    r.bench("geometry/band_allocation_5_layers", || {
        band_allocation(black_box(35_000.0), 10_000.0, 12_500.0, 5)
    });
    r.bench("geometry/buf_total_s2_k5", || {
        buf_total(Scenario::Two, 5, black_box(60_000.0), 5, 10_000.0, 12_500.0)
    });
    r.bench("geometry/per_layer_s2_k5", || {
        per_layer(Scenario::Two, 5, black_box(60_000.0), 5, 10_000.0, 12_500.0)
    });

    for k in [2u32, 8, 16] {
        r.bench(&format!("states/state_sequence_build_k{k}"), || {
            StateSequence::build(black_box(60_000.0), 5, 10_000.0, 12_500.0, k)
        });
    }

    let seq = StateSequence::build(60_000.0, 5, 10_000.0, 12_500.0, 8);
    let full = seq.states.last().unwrap().per_layer.clone();
    let half: Vec<f64> = full.iter().map(|x| x / 2.0).collect();
    r.bench("allocators/next_fill_layer", || {
        next_fill_layer(&seq, black_box(&half), 1.0)
    });
    r.bench("allocators/allocate_filling", || {
        allocate_filling(&seq, black_box(&half), 60_000.0, 0.05, 2, 1.0)
    });
    r.bench("allocators/plan_draining", || {
        plan_draining(&seq, black_box(&full), 30_000.0, 0.05, 1.0)
    });
    // The same two plans into vectors kept across calls, as the controller
    // makes them.
    {
        let (mut projected, mut gain, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        r.bench("allocators/allocate_filling_into", || {
            allocate_filling_into(
                &seq,
                black_box(&half),
                60_000.0,
                0.05,
                1.0,
                &mut projected,
                &mut gain,
                &mut rates,
            );
            rates.len()
        });
        let mut drain = Vec::new();
        r.bench("allocators/plan_draining_into", || {
            plan_draining_into(
                &seq,
                black_box(&full),
                30_000.0,
                0.05,
                1.0,
                &mut drain,
                &mut rates,
            )
        });
    }

    {
        let mut qa = QaController::new(QaConfig::default()).unwrap();
        qa.set_slope(12_500.0);
        let mut now = 0.0;
        r.bench("controller/tick_filling", || {
            let tick = qa.tick(now, black_box(45_000.0), 0.05);
            for (layer, &rate) in tick.per_layer_rate.iter().enumerate() {
                qa.on_packet_delivered(layer, rate * 0.05);
            }
            now += 0.05;
        });
    }
    {
        // The full encoding at the horizon `qa_fluid` reaches: 31 states
        // of 10 layers per path, the add rule stopped at `max_layers`.
        let cfg = QaConfig {
            k_max: 16,
            ..QaConfig::default()
        };
        let (mut qa, mut now) = controller_at(cfg, 10, 115_000.0);
        r.bench("controller/tick_filling_10_layers_k16", || {
            tick_and_deliver(&mut qa, &mut now, 115_000.0)
        });
    }
    {
        // Between 4 and 5 layers' worth of rate: the add rule fails on
        // bandwidth, so the post-add path is never built.
        let (mut qa, mut now) = controller_at(QaConfig::default(), 4, 45_000.0);
        r.bench("controller/tick_filling_add_blocked", || {
            tick_and_deliver(&mut qa, &mut now, 45_000.0)
        });
    }
    {
        let mut qa = QaController::new(QaConfig::default()).unwrap();
        qa.set_slope(12_500.0);
        qa.tick(0.0, 45_000.0, 0.05);
        r.bench("controller/next_packet_layer", || {
            qa.next_packet_layer(black_box(1_000.0))
        });
    }

    let rates = LayerRates::exponential(6, 2_000.0, 1.7).unwrap();
    r.bench("nonlinear/nl_band_allocation_6_layers", || {
        nl_band_allocation(&rates, 6, black_box(25_000.0), 12_500.0)
    });
    r.bench("nonlinear/nl_per_layer_s2_k4", || {
        nl_per_layer(&rates, 6, Scenario::Two, 4, black_box(60_000.0), 12_500.0)
    });

    r.finish();
}
