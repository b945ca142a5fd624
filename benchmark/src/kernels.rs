//! Layer kernels: one layer's public functions driven alone, with no
//! other layer in the loop, so a cost per operation can be read without
//! the clock sitting inside the operation. Each kernel takes a `scale`
//! (1.0 for a real run, a few percent for `--smoke`) on its iteration
//! count, and passes inputs and results through `black_box`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use laqa_core::{QaConfig, QaController, StateSequence};
use laqa_layered::{LayeredEncoding, LayeredReceiver};
use laqa_rap::{RapEvent, RapReceiverState, RateController};
use laqa_sim::agents::cbr::{CbrAgent, CountingSink};
use laqa_sim::{
    hash_outcome, run_scenario, run_session, CampaignSpec, LinkConfig, Scheduler, SessionSpec,
    TestKind, TimerWheelScheduler, Transport, World,
};

use crate::alloc;
use crate::controllers::{with_controller, Drive, Params};
use crate::spec::SplitMix;

fn iters(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(64)
}

/// `sim.engine`: CBR source → one link → counting sink at 250 bytes, the
/// bare forwarding path (timer, link-done, arrive: three events a
/// packet). Wall nanoseconds per packet delivered.
pub fn engine_forward_ns_per_pkt(scale: f64) -> f64 {
    let packets = iters(200_000, scale) as f64;
    let mut world = World::new(1);
    let link = world.add_link(LinkConfig {
        bandwidth: 2_000_000.0,
        delay: 0.001,
        queue_packets: 64,
        ..LinkConfig::default()
    });
    let sink = world.add_agent(Box::new(CountingSink::default()));
    // 4 000 packets per simulated second, half the link's rate.
    world.add_agent(Box::new(CbrAgent::new(
        sink,
        vec![link],
        1,
        1_000_000.0,
        250,
        0.0,
        f64::INFINITY,
    )));
    let t = Instant::now();
    world.run_until(packets / 4_000.0);
    let ns = t.elapsed().as_nanos() as f64;
    let delivered = world
        .agent::<CountingSink>(sink)
        .map_or(0, |s| s.packets)
        .max(1);
    ns / black_box(delivered) as f64
}

/// `sim.sched`: the classic hold model on the timer wheel through the
/// `Scheduler` trait — `pending` events queued, then pop the earliest and
/// schedule it again a random 0–40 ms later. Nanoseconds per operation
/// (a hold is two: one `pop_next_at_or_before`, one `schedule`).
pub fn sched_hold_ns_per_op(pending: usize, scale: f64) -> f64 {
    fn hold<S: Scheduler<u64>>(s: &mut S, pending: usize, holds: usize) -> f64 {
        let mut rng = SplitMix(pending as u64);
        let mut seq = 0u64;
        let mut delay = move || rng.next_u64() % 40_000_000;
        for i in 0..pending {
            s.schedule(delay(), seq, i as u64);
            seq += 1;
        }
        let t = Instant::now();
        for _ in 0..holds {
            let (at, _, item) = s
                .pop_next_at_or_before(u64::MAX)
                .expect("the hold model never drains the queue");
            s.schedule(at + delay(), seq, black_box(item));
            seq += 1;
        }
        t.elapsed().as_nanos() as f64 / (2 * holds) as f64
    }
    hold(
        &mut TimerWheelScheduler::<u64>::new(),
        pending,
        iters(1_000_000, scale),
    )
}

/// `core` measured alone on the workload's QA configurations.
#[derive(Debug, Clone, Default)]
pub struct CoreKernel {
    pub tick_ns: Vec<f64>,
    pub backoff_ns: f64,
    pub pkt_assign_ns: f64,
    pub allocs_per_tick: f64,
}

/// A fluid sawtooth (as `qa_fluid` drives it) over each configuration in
/// `configs` at period `dt`, timing every `tick` and `on_backoff` on its
/// own, then the per-packet pair `next_packet_layer` +
/// `on_packet_delivered` in a batch between ticks.
pub fn core_kernel(configs: &[QaConfig], dt: f64, scale: f64) -> CoreKernel {
    let ticks_each = iters(24_000, scale) / configs.len().max(1);
    let mut out = CoreKernel::default();
    let (mut backoff_ns, mut backoffs) = (0u128, 0u64);
    let (mut assign_ns, mut assigns) = (0u128, 0u64);
    let (mut tick_allocs, mut ticks) = (0u64, 0u64);
    for (i, cfg) in configs.iter().enumerate() {
        let c = cfg.layer_rate;
        let cap = 1.3 * cfg.max_layers as f64 * c;
        // One packet is a fifth of a layer-second, the paper grid's ratio.
        let (pkt, slope) = (c / 5.0, c);
        let mut qa = QaController::new(cfg.clone()).expect("workload QA config is valid");
        let mut rng = SplitMix(i as u64 + 1);
        let mut rate = c;
        let mut now = 0.0;
        for _ in 0..ticks_each {
            rate += slope * dt;
            if rate >= cap || rng.next_f64() < 0.1 * dt {
                rate *= cfg.decrease_factor;
                let t = Instant::now();
                qa.on_backoff(now, black_box(rate));
                backoff_ns += t.elapsed().as_nanos();
                backoffs += 1;
            }
            qa.set_slope(slope);
            let a0 = alloc::counts().0;
            let t = Instant::now();
            let report = qa.tick(now, black_box(rate), dt);
            out.tick_ns.push(t.elapsed().as_nanos() as f64);
            tick_allocs += alloc::counts().0 - a0;
            ticks += 1;
            let packets = (black_box(report).per_layer_rate.iter().sum::<f64>() * dt / pkt) as u64;
            let t = Instant::now();
            for _ in 0..packets {
                let layer = qa.next_packet_layer(pkt);
                qa.on_packet_delivered(black_box(layer), pkt);
            }
            assign_ns += t.elapsed().as_nanos();
            assigns += packets;
            now += dt;
        }
    }
    out.backoff_ns = backoff_ns as f64 / backoffs.max(1) as f64;
    out.pkt_assign_ns = assign_ns as f64 / assigns.max(1) as f64;
    out.allocs_per_tick = tick_allocs as f64 / ticks.max(1) as f64;
    out
}

/// `core`: nanoseconds for one `StateSequence::build` to horizon `k`
/// (eight layers' worth of rate over five active layers).
pub fn seq_build_ns(k: u32, scale: f64) -> f64 {
    let n = iters(20_000, scale);
    let t = Instant::now();
    for i in 0..n {
        // A different rate each time: a memo in front of the build must
        // not turn the kernel into a lookup.
        let rate = 40_000.0 + i as f64;
        black_box(StateSequence::build(
            black_box(rate),
            5,
            5_000.0,
            6_000.0,
            k,
        ));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Cost of one packet's round through a controller, and what it
/// allocated on the way.
#[derive(Debug, Clone, Copy, Default)]
pub struct PktRound {
    pub ns: f64,
    pub allocs: f64,
}

fn pkt_round_with<C: RateController>(mut ctl: C, packets: usize) -> PktRound {
    const PACKET: f64 = 100.0;
    const RTT: f64 = 0.1;
    let mut rx = RapReceiverState::new();
    let mut pipe: VecDeque<(f64, u64)> = VecDeque::new();
    let mut events: Vec<RapEvent> = Vec::new();
    let mut now = 0.0f64;
    let mut sent = 0usize;
    let a0 = alloc::counts().0;
    let t = Instant::now();
    while sent < packets {
        ctl.poll_timers(now);
        while pipe.front().is_some_and(|p| p.0 <= now) {
            let (_, seq) = pipe.pop_front().expect("front checked");
            ctl.on_ack(now, rx.on_data(seq));
        }
        while now >= ctl.next_send_time(now) && sent < packets {
            let seq = ctl.register_send(now, PACKET, 0);
            sent += 1;
            // Every 200th packet is lost, so the loss path runs too.
            if seq % 200 != 199 {
                pipe.push_back((now + RTT, seq));
            }
        }
        ctl.drain_events_into(&mut events);
        black_box(&events);
        events.clear();
        let next = pipe
            .front()
            .map_or(f64::INFINITY, |p| p.0)
            .min(ctl.next_send_time(now))
            .min(ctl.next_timer());
        now = if next > now { next } else { now + 1e-6 };
    }
    PktRound {
        ns: t.elapsed().as_nanos() as f64 / packets as f64,
        allocs: (alloc::counts().0 - a0) as f64 / packets as f64,
    }
}

struct Round(usize);

impl Drive for Round {
    type Out = PktRound;
    fn drive<C: RateController>(self, ctl: C) -> PktRound {
        pkt_round_with(ctl, self.0)
    }
}

/// `rap`: `register_send` + receiver `on_data` + `on_ack` + `poll_timers`
/// per 100-byte packet over a fixed 100 ms echo path, for `controller`.
pub fn pkt_round(controller: Transport, scale: f64) -> PktRound {
    let params = Params {
        packet_size: 100.0,
        initial_rate: 1_000.0,
        initial_rtt: 0.1,
        max_rate: 50_000.0,
    };
    with_controller(controller, params, Round(iters(200_000, scale)))
}

/// `layered`: `(on_data ns per packet, advance ns per step)` — twenty
/// 100-byte arrivals spread over four layers, then one 0.1 s playout
/// step that consumes them.
pub fn layered_ns(scale: f64) -> (f64, f64) {
    let rounds = iters(50_000, scale);
    let encoding = LayeredEncoding::linear(8, 5_000.0).expect("valid encoding");
    let mut rx = LayeredReceiver::new(encoding, 4, 0.5);
    let (mut data_ns, mut advance_ns) = (0u128, 0u128);
    let mut now = 0.0;
    for _ in 0..rounds {
        let t = Instant::now();
        for p in 0..20usize {
            rx.on_data(now, black_box(p % 4), 100.0);
        }
        data_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        black_box(rx.advance(0.1));
        advance_ns += t.elapsed().as_nanos();
        now += 0.1;
    }
    (
        data_ns as f64 / (rounds * 20) as f64,
        advance_ns as f64 / rounds as f64,
    )
}

/// `trace`: `(hash_outcome µs, summary().to_json() µs)` per session, on
/// `spec` cut to at most 30 simulated seconds.
pub fn trace_us(spec: &SessionSpec, scale: f64) -> (f64, f64) {
    let mut spec = spec.clone();
    spec.duration = spec.duration.min(30.0);
    let outcome = run_scenario(&spec.scenario());
    let n = iters(200, scale);
    let t = Instant::now();
    for _ in 0..n {
        black_box(hash_outcome(black_box(&outcome)));
    }
    let hash_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    let result = run_session(&spec);
    let t = Instant::now();
    for _ in 0..n {
        black_box(black_box(&result).summary().to_json());
    }
    (hash_us, t.elapsed().as_secs_f64() * 1e6 / n as f64)
}

/// The session the `trace` kernel runs on workloads that have no grid.
pub fn default_trace_spec() -> SessionSpec {
    CampaignSpec::grid(&[TestKind::T1], &[2], &[1], 30.0)
        .sessions
        .remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.01;

    #[test]
    fn kernels_return_positive_finite_costs() {
        let ok = |x: f64| x.is_finite() && x > 0.0;
        assert!(ok(engine_forward_ns_per_pkt(TINY)));
        assert!(ok(sched_hold_ns_per_op(64, TINY)));
        assert!(ok(sched_hold_ns_per_op(4_096, TINY)));
        assert!(ok(seq_build_ns(2, TINY)));
        let (data, advance) = layered_ns(TINY);
        assert!(ok(data) && ok(advance));
        for t in Transport::ALL {
            assert!(ok(pkt_round(t, TINY).ns), "{}", t.label());
        }
    }

    #[test]
    fn core_kernel_times_every_tick() {
        let configs = vec![QaConfig::default()];
        let k = core_kernel(&configs, 0.1, 0.05);
        assert_eq!(k.tick_ns.len(), iters(24_000, 0.05));
        assert!(k.pkt_assign_ns > 0.0 && k.backoff_ns > 0.0);
        assert!(k.tick_ns.iter().all(|ns| *ns > 0.0));
    }

    #[test]
    fn deeper_horizon_costs_more_to_build() {
        assert!(seq_build_ns(16, 0.1) > seq_build_ns(2, 0.1));
    }

    #[test]
    fn trace_kernel_runs_on_the_default_spec() {
        let mut spec = default_trace_spec();
        spec.duration = 5.0;
        let (hash, json) = trace_us(&spec, TINY);
        assert!(hash > 0.0 && json > 0.0);
    }
}
