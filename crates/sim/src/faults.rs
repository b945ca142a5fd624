//! Deterministic, seed-driven fault injection.
//!
//! Composes with any scenario: a [`FaultInjector`] agent perturbs the
//! world through the engine's runtime link-mutation API ([`Ctx`]) and an
//! on/off cross-traffic source, driving every stochastic choice from its
//! *own* PCG32 stream. The injector's schedule therefore depends only on
//! `(intensity, seed)` — never on how much randomness the traffic
//! consumed — so a fault campaign replays bit-exactly.
//!
//! One number sets the whole suite: an intensity `i ∈ (0, 1]`, where
//! higher means more frequent, longer and deeper faults. Five families
//! run from 8 s on, each parameter a fixed linear function of `i`:
//!
//! * **Link flapping** — the forward bottleneck's bandwidth collapses to
//!   `(1 − 0.7i)`·nominal for exponential outages (mean `0.25 + i` s)
//!   separated by exponential healthy spells (mean `24 − 16i` s).
//! * **RTT spikes** — the bottleneck's propagation delay jumps by
//!   `0.05 + 0.25i` s for `0.2 + 0.6i` s (route flap / layer-2
//!   retransmission storms), every `20 − 12i` s on average.
//! * **Burst loss** — a Gilbert–Elliott process toggles the bottleneck's
//!   random-loss probability between the link's nominal rate and
//!   `0.1 + 0.4i`, with exponential sojourns (means `12 − 8i` s good,
//!   `0.2 + 0.8i` s bad): the bursty counterpart of the paper's
//!   near-random Bolot losses.
//! * **ACK-path loss** — constant random loss `0.1i` on the reverse
//!   bottleneck, starving the RAP/QA feedback loop without touching the
//!   data path.
//! * **Cross-traffic churn** — an unresponsive CBR source at
//!   `(0.2 + 0.3i)`·nominal joins and leaves with exponential sojourns
//!   (means `1 + 3i` s on, `10 − 6i` s off).
//!
//! All sojourns are `-mean·ln(1-u)` draws from the injector's RNG; every
//! transition is counted in [`FaultStats`], which the injector adds to the
//! `laqa-obs` view (`faults.*`) when it is dropped.

use crate::engine::{Agent, Ctx};
use crate::packet::{AgentId, LinkId, Packet, PacketKind, Route};
use crate::rng::SimRng;

/// Time the first fault of any family may fire (seconds): the scenario
/// ramps up cleanly before the weather turns.
const START: f64 = 8.0;

/// Flow id churn packets carry (for per-flow accounting).
const CHURN_FLOW: u32 = 998;

/// The suite's domain rule: the intensity an injector runs at, or `None`
/// when the scenario gets no injector at all. A missing, non-finite or
/// non-positive intensity means no faults; one above 1 clamps to 1.
pub(crate) fn suite_intensity(intensity: Option<f64>) -> Option<f64> {
    intensity
        .filter(|i| i.is_finite() && *i > 0.0)
        .map(|i| i.min(1.0))
}

/// Transition counters accumulated by a [`FaultInjector`] over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Bandwidth outages started.
    pub flap_downs: u64,
    /// Total seconds the bottleneck spent degraded.
    pub flap_down_secs: f64,
    /// RTT spikes fired.
    pub rtt_spikes: u64,
    /// Gilbert–Elliott bad-state entries.
    pub loss_bursts: u64,
    /// Churn source joins.
    pub churn_joins: u64,
    /// Churn packets injected.
    pub churn_packets: u64,
}

impl FaultStats {
    /// Total fault transitions of every family (fingerprint input).
    pub fn transitions(&self) -> u64 {
        self.flap_downs + self.rtt_spikes + self.loss_bursts + self.churn_joins
    }
}

/// Where a [`FaultInjector`] plugs into an already-built world.
#[derive(Debug, Clone)]
pub struct FaultWiring {
    /// Forward bottleneck (flap, spike, burst-loss target).
    pub forward: LinkId,
    /// Reverse bottleneck (ACK-loss target).
    pub reverse: LinkId,
    /// Destination agent for churn traffic.
    pub churn_dst: AgentId,
    /// Forward route for churn traffic.
    pub churn_route: Route,
    /// Churn packet size (bytes).
    pub churn_packet: u32,
}

// Timer tokens: low 8 bits select the fault family, the high bits carry a
// churn epoch so stale per-packet send timers self-cancel (the engine has
// no timer cancellation — an off transition simply bumps the epoch).
const TOK_FLAP: u64 = 1;
const TOK_SPIKE: u64 = 2;
const TOK_SPIKE_END: u64 = 3;
const TOK_LOSS: u64 = 4;
const TOK_ACK: u64 = 5;
const TOK_CHURN: u64 = 6;
const TOK_CHURN_SEND: u64 = 7;
const TOK_KIND_MASK: u64 = 0xff;

/// Agent that runs the fault suite at one intensity against a live world.
pub struct FaultInjector {
    /// Suite intensity `i ∈ (0, 1]`.
    i: f64,
    wiring: FaultWiring,
    rng: SimRng,
    // Nominal link parameters, captured at start so restores are exact.
    nominal_bw: f64,
    nominal_delay: f64,
    nominal_loss: f64,
    flap_down: bool,
    down_since: f64,
    loss_bad: bool,
    churn_on: bool,
    churn_epoch: u64,
    /// Transition counters (read out after the run).
    pub stats: FaultStats,
}

impl FaultInjector {
    /// New injector running the suite at `intensity ∈ (0, 1]`, randomized
    /// by a stream derived from `seed` (decorrelated from the world's own
    /// RNG so the fault schedule is a pure function of the seed, not of
    /// traffic).
    pub fn new(intensity: f64, seed: u64, wiring: FaultWiring) -> Self {
        assert!(
            intensity > 0.0 && intensity <= 1.0,
            "fault intensity must be in (0, 1], got {intensity}"
        );
        FaultInjector {
            i: intensity,
            wiring,
            // Salted so the injector's stream never collides with the
            // world RNG, which is seeded from the raw scenario seed.
            rng: SimRng::seed_from_u64(seed ^ 0xFA17_5EED_0000_0000),
            nominal_bw: 0.0,
            nominal_delay: 0.0,
            nominal_loss: 0.0,
            flap_down: false,
            down_since: 0.0,
            loss_bad: false,
            churn_on: false,
            churn_epoch: 0,
            stats: FaultStats::default(),
        }
    }

    /// Exponential sojourn with the given mean.
    fn exp(&mut self, mean: f64) -> f64 {
        let u = self.rng.next_f64();
        -mean * (1.0 - u).ln()
    }

    // The four quiet-spell means: each is drawn both for the family's
    // first firing (`start`) and after every fault ends.

    /// Mean healthy time between bandwidth outages (seconds).
    fn mean_up_secs(&self) -> f64 {
        24.0 - 16.0 * self.i
    }

    /// Mean time between RTT spikes (seconds).
    fn mean_interval_secs(&self) -> f64 {
        20.0 - 12.0 * self.i
    }

    /// Mean Gilbert–Elliott good-state sojourn (seconds).
    fn mean_good_secs(&self) -> f64 {
        12.0 - 8.0 * self.i
    }

    /// Mean time the churn source stays away (seconds).
    fn mean_off_secs(&self) -> f64 {
        10.0 - 6.0 * self.i
    }

    fn churn_interval(&self) -> f64 {
        let rate = (0.2 + 0.3 * self.i) * self.nominal_bw;
        self.wiring.churn_packet as f64 / rate.max(1.0)
    }

    fn on_flap(&mut self, ctx: &mut Ctx) {
        let i = self.i;
        if self.flap_down {
            self.flap_down = false;
            self.stats.flap_down_secs += ctx.now - self.down_since;
            ctx.set_link_bandwidth(self.wiring.forward, self.nominal_bw);
            let dt = self.exp(self.mean_up_secs());
            ctx.set_timer_after(dt, TOK_FLAP);
        } else {
            self.flap_down = true;
            self.down_since = ctx.now;
            self.stats.flap_downs += 1;
            ctx.set_link_bandwidth(self.wiring.forward, self.nominal_bw * (1.0 - 0.7 * i));
            let dt = self.exp(0.25 + i);
            ctx.set_timer_after(dt, TOK_FLAP);
        }
    }

    fn on_spike(&mut self, ctx: &mut Ctx) {
        let i = self.i;
        self.stats.rtt_spikes += 1;
        ctx.set_link_delay(self.wiring.forward, self.nominal_delay + (0.05 + 0.25 * i));
        ctx.set_timer_after(0.2 + 0.6 * i, TOK_SPIKE_END);
    }

    fn on_spike_end(&mut self, ctx: &mut Ctx) {
        ctx.set_link_delay(self.wiring.forward, self.nominal_delay);
        let dt = self.exp(self.mean_interval_secs());
        ctx.set_timer_after(dt, TOK_SPIKE);
    }

    fn on_loss(&mut self, ctx: &mut Ctx) {
        let i = self.i;
        if self.loss_bad {
            self.loss_bad = false;
            // The good state's loss is 0, or the link's own rate if higher.
            ctx.set_link_loss_rate(self.wiring.forward, self.nominal_loss.max(0.0));
            let dt = self.exp(self.mean_good_secs());
            ctx.set_timer_after(dt, TOK_LOSS);
        } else {
            self.loss_bad = true;
            self.stats.loss_bursts += 1;
            ctx.set_link_loss_rate(self.wiring.forward, 0.1 + 0.4 * i);
            let dt = self.exp(0.2 + 0.8 * i);
            ctx.set_timer_after(dt, TOK_LOSS);
        }
    }

    fn on_churn(&mut self, ctx: &mut Ctx) {
        let i = self.i;
        self.churn_epoch += 1;
        if self.churn_on {
            self.churn_on = false;
            let dt = self.exp(self.mean_off_secs());
            ctx.set_timer_after(dt, TOK_CHURN);
        } else {
            self.churn_on = true;
            self.stats.churn_joins += 1;
            let send_tok = TOK_CHURN_SEND | (self.churn_epoch << 8);
            ctx.set_timer_after(0.0, send_tok);
            let dt = self.exp(1.0 + 3.0 * i);
            ctx.set_timer_after(dt, TOK_CHURN);
        }
    }

    fn on_churn_send(&mut self, ctx: &mut Ctx, epoch: u64) {
        if !self.churn_on || epoch != self.churn_epoch {
            return; // stale timer from a previous on-period
        }
        ctx.send(Packet {
            flow: CHURN_FLOW,
            size: self.wiring.churn_packet,
            kind: PacketKind::Cbr,
            dst: self.wiring.churn_dst,
            route: self.wiring.churn_route,
        });
        self.stats.churn_packets += 1;
        ctx.set_timer_after(self.churn_interval(), TOK_CHURN_SEND | (epoch << 8));
    }
}

impl Drop for FaultInjector {
    /// Add the run's transitions to the `laqa-obs` view, once.
    fn drop(&mut self) {
        let s = self.stats;
        laqa_obs::add_counts(&[
            ("faults.flap_down", s.flap_downs),
            ("faults.rtt_spike", s.rtt_spikes),
            ("faults.loss_burst", s.loss_bursts),
            ("faults.churn_join", s.churn_joins),
        ]);
    }
}

impl Agent for FaultInjector {
    fn start(&mut self, ctx: &mut Ctx) {
        let fwd = ctx.link_config(self.wiring.forward);
        self.nominal_bw = fwd.bandwidth;
        self.nominal_delay = fwd.delay;
        self.nominal_loss = fwd.loss_rate;
        // Each family draws its first firing time up front, in a fixed
        // order, so the draws of one family never depend on another's.
        let dt = self.exp(self.mean_up_secs());
        ctx.set_timer_at(START + dt, TOK_FLAP);
        let dt = self.exp(self.mean_interval_secs());
        ctx.set_timer_at(START + dt, TOK_SPIKE);
        let dt = self.exp(self.mean_good_secs());
        ctx.set_timer_at(START + dt, TOK_LOSS);
        ctx.set_timer_at(START, TOK_ACK);
        let dt = self.exp(self.mean_off_secs());
        ctx.set_timer_at(START + dt, TOK_CHURN);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token & TOK_KIND_MASK {
            TOK_FLAP => self.on_flap(ctx),
            TOK_SPIKE => self.on_spike(ctx),
            TOK_SPIKE_END => self.on_spike_end(ctx),
            TOK_LOSS => self.on_loss(ctx),
            TOK_ACK => {
                let nominal = ctx.link_config(self.wiring.reverse).loss_rate;
                ctx.set_link_loss_rate(self.wiring.reverse, nominal.max(0.1 * self.i));
            }
            TOK_CHURN => self.on_churn(ctx),
            TOK_CHURN_SEND => self.on_churn_send(ctx, token >> 8),
            other => unreachable!("unknown fault timer token {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::cbr::CountingSink;
    use crate::campaign::hash_outcome;
    use crate::engine::World;
    use crate::link::{LinkConfig, LinkStats};
    use crate::scenarios::{run_scenario, ScenarioConfig};

    const NOMINAL_BW: f64 = 100_000.0;
    const NOMINAL_DELAY: f64 = 0.01;

    /// Records `(time, forward config, reverse config)` every 10 ms.
    struct Probe {
        forward: LinkId,
        reverse: LinkId,
        seen: Vec<(f64, LinkConfig, LinkConfig)>,
    }

    impl Agent for Probe {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_at(0.0, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            let (fwd, rev) = (ctx.link_config(self.forward), ctx.link_config(self.reverse));
            self.seen.push((ctx.now, fwd, rev));
            ctx.set_timer_after(0.01, 0);
        }
    }

    /// A forward link carrying only churn traffic, a reverse link, and the
    /// suite at `intensity`. Returns the world, the forward link and the
    /// ids of the churn sink, the injector and the probe.
    fn tiny_world(intensity: f64, seed: u64) -> (World, LinkId, [AgentId; 3]) {
        let mut w = World::new(seed);
        let fwd = w.add_link(LinkConfig {
            bandwidth: NOMINAL_BW,
            delay: NOMINAL_DELAY,
            queue_packets: 50,
            ..LinkConfig::default()
        });
        let rev = w.add_link(LinkConfig::uncongested());
        let sink = w.add_agent(Box::new(CountingSink::default()));
        let wiring = FaultWiring {
            forward: fwd,
            reverse: rev,
            churn_dst: sink,
            churn_route: vec![fwd].into(),
            churn_packet: 250,
        };
        let inj = w.add_agent(Box::new(FaultInjector::new(intensity, seed, wiring)));
        let probe = w.add_agent(Box::new(Probe {
            forward: fwd,
            reverse: rev,
            seen: Vec::new(),
        }));
        (w, fwd, [sink, inj, probe])
    }

    /// The intensity of the one suite world the per-family tests share.
    const I: f64 = 0.75;

    /// What the per-family tests read from the suite at [`I`] run for
    /// 120 s on the tiny world: the injector's counters, the probe's
    /// samples, the packets the churn sink got and the forward link's
    /// counters.
    struct SuiteRun {
        stats: FaultStats,
        seen: Vec<(f64, LinkConfig, LinkConfig)>,
        delivered: u64,
        forward: LinkStats,
    }

    fn suite_run() -> SuiteRun {
        let (mut w, fwd, [sink, inj, probe]) = tiny_world(I, 7);
        w.run_until(120.0);
        SuiteRun {
            stats: w.agent::<FaultInjector>(inj).unwrap().stats,
            seen: std::mem::take(&mut w.agent_mut::<Probe>(probe).unwrap().seen),
            delivered: w.agent::<CountingSink>(sink).unwrap().packets,
            forward: w.link_stats(fwd),
        }
    }

    #[test]
    fn flap_restores_nominal_bandwidth_between_outages() {
        let run = suite_run();
        assert!(run.stats.flap_downs > 0, "no outage: {:?}", run.stats);
        assert!(run.stats.flap_down_secs > 0.0);
        let degraded = NOMINAL_BW * (1.0 - 0.7 * I);
        for (t, f, _) in &run.seen {
            assert!(
                f.bandwidth == NOMINAL_BW || f.bandwidth == degraded,
                "t={t}: bandwidth is nominal or degraded, got {}",
                f.bandwidth
            );
        }
        assert!(run.seen.iter().any(|(_, f, _)| f.bandwidth == degraded));
    }

    #[test]
    fn spikes_raise_and_restore_delay() {
        let run = suite_run();
        assert!(run.stats.rtt_spikes > 0, "no spike: {:?}", run.stats);
        let spiked = NOMINAL_DELAY + (0.05 + 0.25 * I);
        for (t, f, _) in &run.seen {
            assert!(
                f.delay == NOMINAL_DELAY || f.delay == spiked,
                "t={t}: delay is nominal or spiked, got {}",
                f.delay
            );
        }
        assert!(run.seen.iter().any(|(_, f, _)| f.delay == spiked));
    }

    #[test]
    fn burst_loss_toggles_between_states() {
        let run = suite_run();
        assert!(run.stats.loss_bursts > 0, "no burst: {:?}", run.stats);
        let bad = 0.1 + 0.4 * I;
        for (t, f, _) in &run.seen {
            assert!(
                f.loss_rate == 0.0 || f.loss_rate == bad,
                "t={t}: loss is good or bad, got {}",
                f.loss_rate
            );
        }
        assert!(run.seen.iter().any(|(_, f, _)| f.loss_rate == bad));
    }

    #[test]
    fn ack_loss_applies_from_start_time() {
        let run = suite_run();
        for (t, _, r) in &run.seen {
            if *t < START {
                assert_eq!(r.loss_rate, 0.0, "t={t}: not yet started");
            } else if *t > START {
                assert_eq!(r.loss_rate, 0.1 * I, "t={t}");
            }
        }
    }

    #[test]
    fn churn_injects_traffic_only_while_on() {
        let run = suite_run();
        let sent = run.stats.churn_packets;
        assert!(run.stats.churn_joins > 0, "no join: {:?}", run.stats);
        assert!(run.delivered > 0, "churn traffic must reach the sink");
        // Churn is the only traffic: sent = delivered + dropped (+ at most
        // a couple still in flight when the run ends).
        let accounted = run.delivered + run.forward.dropped + run.forward.random_losses;
        assert!(
            sent >= accounted && sent <= accounted + 2,
            "sent {sent} vs accounted {accounted}"
        );
        // Always on from the start it would send this many; the off
        // periods must show up as a materially smaller total.
        let always_on = (120.0 - START) * (0.2 + 0.3 * I) * NOMINAL_BW / 250.0;
        assert!(
            (sent as f64) < 0.9 * always_on,
            "sent {sent} of {always_on}"
        );
    }

    #[test]
    fn injector_schedule_is_seed_replayable() {
        let run = |seed| {
            let (mut w, _, [_, inj, _]) = tiny_world(1.0, seed);
            w.run_until(40.0);
            w.agent::<FaultInjector>(inj).unwrap().stats
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
    }

    /// The domain rule end to end: an intensity outside `(0, 1]` runs the
    /// baseline (no injector, no event) or clamps to 1; inside it, more
    /// intensity means more faults.
    #[test]
    fn suite_zero_is_empty_and_scales_with_intensity() {
        let run = |fault_intensity| {
            let cfg = ScenarioConfig {
                fault_intensity,
                ..ScenarioConfig::t1(2, 12.0, 7)
            };
            run_scenario(&cfg)
        };
        let baseline = run(None);
        for off in [Some(0.0), Some(-1.0), Some(f64::NAN)] {
            let out = run(off);
            assert_eq!(
                out.events_processed, baseline.events_processed,
                "{off:?} dispatched events the baseline does not"
            );
            assert_eq!(hash_outcome(&out), hash_outcome(&baseline), "{off:?}");
            assert_eq!(out.fault_stats, FaultStats::default(), "{off:?}");
        }
        let full = run(Some(1.0)).fault_stats;
        assert!(full.transitions() > 0, "the suite fires within 12 s");
        assert_eq!(run(Some(7.0)).fault_stats, full, "intensity clamps at 1");

        let transitions = |i| {
            let (mut w, _, [_, inj, _]) = tiny_world(i, 7);
            w.run_until(120.0);
            w.agent::<FaultInjector>(inj).unwrap().stats.transitions()
        };
        assert!(transitions(0.25) < transitions(1.0));
    }
}
