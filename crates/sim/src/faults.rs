//! Deterministic, seed-driven fault injection.
//!
//! Composes with any scenario: a [`FaultInjector`] agent perturbs the
//! world through the engine's runtime link-mutation API ([`Ctx`]) and an
//! on/off cross-traffic source, driving every stochastic choice from its
//! *own* PCG32 stream. The injector's schedule therefore depends only on
//! `(plan, seed)` — never on how much randomness the traffic consumed —
//! so a fault campaign replays bit-exactly, and two plans that differ in
//! one knob keep the rest of their schedules aligned.
//!
//! Five fault families, each optional in a [`FaultPlan`]:
//!
//! * **Link flapping** — the forward bottleneck's bandwidth collapses to a
//!   fraction of nominal for exponentially-distributed outages.
//! * **RTT spikes** — the bottleneck's propagation delay jumps by a fixed
//!   amount for a short window (route flap / layer-2 retransmission
//!   storms).
//! * **Burst loss** — a Gilbert–Elliott process toggles the bottleneck's
//!   random-loss probability between a good and a bad state with
//!   exponential sojourn times (the bursty counterpart of the paper's
//!   near-random Bolot losses).
//! * **ACK-path loss** — constant random loss on the reverse bottleneck,
//!   starving the RAP/QA feedback loop without touching the data path.
//! * **Cross-traffic churn** — an unresponsive CBR source joins and
//!   leaves with exponential on/off sojourns, stealing a fraction of the
//!   bottleneck while present.
//!
//! All sojourns are `-mean·ln(1-u)` draws from the injector's RNG; every
//! transition is counted in [`FaultStats`] and mirrored to `laqa-obs`
//! counters (`faults.*`) when observability is enabled.

use crate::engine::{Agent, Ctx};
use crate::packet::{AgentId, LinkId, Packet, PacketKind, Route};
use crate::rng::SimRng;

/// Link flapping: bandwidth outages on the forward bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapPlan {
    /// Mean healthy time between outages (seconds, exponential).
    pub mean_up_secs: f64,
    /// Mean outage duration (seconds, exponential).
    pub mean_down_secs: f64,
    /// Bandwidth multiplier while down (`0 < frac < 1`).
    pub down_bw_frac: f64,
}

/// RTT spikes: transient propagation-delay increases on the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikePlan {
    /// Mean time between spikes (seconds, exponential).
    pub mean_interval_secs: f64,
    /// Fixed spike duration (seconds).
    pub spike_secs: f64,
    /// Added propagation delay while spiking (seconds).
    pub extra_delay: f64,
}

/// Gilbert–Elliott burst loss on the forward bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLossPlan {
    /// Mean good-state sojourn (seconds, exponential).
    pub mean_good_secs: f64,
    /// Mean bad-state sojourn (seconds, exponential).
    pub mean_bad_secs: f64,
    /// Loss probability in the good state (the link's nominal loss rate
    /// is used if it is higher).
    pub loss_good: f64,
    /// Loss probability in the bad state.
    pub loss_bad: f64,
}

/// Constant random loss on the reverse (ACK) bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckLossPlan {
    /// ACK loss probability, applied from the plan's start time on.
    pub loss_rate: f64,
}

/// Cross-traffic churn: a CBR source with exponential on/off sojourns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Mean absent time (seconds, exponential).
    pub mean_off_secs: f64,
    /// Mean present time (seconds, exponential).
    pub mean_on_secs: f64,
    /// CBR rate while present, as a fraction of the bottleneck bandwidth.
    pub rate_frac: f64,
}

/// A complete fault schedule; every family is optional and independent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Time the first fault of any family may fire (seconds) — lets the
    /// scenario ramp up cleanly before the weather turns.
    pub start: f64,
    /// Link flapping (forward bottleneck bandwidth).
    pub flap: Option<FlapPlan>,
    /// RTT spikes (forward bottleneck delay).
    pub spike: Option<SpikePlan>,
    /// Gilbert–Elliott burst loss (forward bottleneck).
    pub burst_loss: Option<BurstLossPlan>,
    /// Constant ACK-path loss (reverse bottleneck).
    pub ack_loss: Option<AckLossPlan>,
    /// CBR cross-traffic churn.
    pub churn: Option<ChurnPlan>,
}

impl FaultPlan {
    /// The empty plan: no faults, no injector, baseline trajectories
    /// untouched.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no fault family is enabled.
    pub fn is_none(&self) -> bool {
        self.flap.is_none()
            && self.spike.is_none()
            && self.burst_loss.is_none()
            && self.ack_loss.is_none()
            && self.churn.is_none()
    }

    /// The full five-family suite, scaled by `intensity ∈ (0, 1]`: higher
    /// intensity means more frequent, longer, and deeper faults.
    /// `intensity <= 0` returns the empty plan; values above 1 clamp.
    pub fn suite(intensity: f64) -> Self {
        if !intensity.is_finite() || intensity <= 0.0 {
            return FaultPlan::none();
        }
        let i = intensity.min(1.0);
        FaultPlan {
            start: 8.0,
            flap: Some(FlapPlan {
                mean_up_secs: 24.0 - 16.0 * i,
                mean_down_secs: 0.25 + i,
                down_bw_frac: 1.0 - 0.7 * i,
            }),
            spike: Some(SpikePlan {
                mean_interval_secs: 20.0 - 12.0 * i,
                spike_secs: 0.2 + 0.6 * i,
                extra_delay: 0.05 + 0.25 * i,
            }),
            burst_loss: Some(BurstLossPlan {
                mean_good_secs: 12.0 - 8.0 * i,
                mean_bad_secs: 0.2 + 0.8 * i,
                loss_good: 0.0,
                loss_bad: 0.1 + 0.4 * i,
            }),
            ack_loss: Some(AckLossPlan {
                loss_rate: 0.1 * i,
            }),
            churn: Some(ChurnPlan {
                mean_off_secs: 10.0 - 6.0 * i,
                mean_on_secs: 1.0 + 3.0 * i,
                rate_frac: 0.2 + 0.3 * i,
            }),
        }
    }
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
    /// Resolved churn rate (bytes/s while present).
    pub churn_rate: f64,
    /// Churn packet size (bytes).
    pub churn_packet: u32,
    /// Flow id churn packets carry (for per-flow accounting).
    pub churn_flow: u32,
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

/// Agent that executes a [`FaultPlan`] against a live world.
pub struct FaultInjector {
    plan: FaultPlan,
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
    /// New injector for `plan`, randomized by a stream derived from
    /// `seed` (decorrelated from the world's own RNG so the fault
    /// schedule is a pure function of the seed, not of traffic).
    pub fn new(plan: FaultPlan, seed: u64, wiring: FaultWiring) -> Self {
        for mean in [
            plan.flap.map(|f| f.mean_up_secs),
            plan.flap.map(|f| f.mean_down_secs),
            plan.spike.map(|s| s.mean_interval_secs),
            plan.burst_loss.map(|b| b.mean_good_secs),
            plan.burst_loss.map(|b| b.mean_bad_secs),
            plan.churn.map(|c| c.mean_off_secs),
            plan.churn.map(|c| c.mean_on_secs),
        ]
        .into_iter()
        .flatten()
        {
            assert!(
                mean.is_finite() && mean > 0.0,
                "fault sojourn means must be finite and positive, got {mean}"
            );
        }
        if let Some(f) = plan.flap {
            assert!(
                f.down_bw_frac > 0.0 && f.down_bw_frac < 1.0,
                "down_bw_frac must be in (0, 1), got {}",
                f.down_bw_frac
            );
        }
        FaultInjector {
            plan,
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

    fn churn_interval(&self) -> f64 {
        self.wiring.churn_packet as f64 / self.wiring.churn_rate.max(1.0)
    }

    fn on_flap(&mut self, ctx: &mut Ctx) {
        let flap = self.plan.flap.expect("flap timer without plan");
        if self.flap_down {
            self.flap_down = false;
            self.stats.flap_down_secs += ctx.now - self.down_since;
            ctx.set_link_bandwidth(self.wiring.forward, self.nominal_bw);
            let dt = self.exp(flap.mean_up_secs);
            ctx.set_timer_after(dt, TOK_FLAP);
        } else {
            self.flap_down = true;
            self.down_since = ctx.now;
            self.stats.flap_downs += 1;
            laqa_obs::counter!("faults.flap_down").inc();
            ctx.set_link_bandwidth(self.wiring.forward, self.nominal_bw * flap.down_bw_frac);
            let dt = self.exp(flap.mean_down_secs);
            ctx.set_timer_after(dt, TOK_FLAP);
        }
    }

    fn on_spike(&mut self, ctx: &mut Ctx) {
        let spike = self.plan.spike.expect("spike timer without plan");
        self.stats.rtt_spikes += 1;
        laqa_obs::counter!("faults.rtt_spike").inc();
        ctx.set_link_delay(self.wiring.forward, self.nominal_delay + spike.extra_delay);
        ctx.set_timer_after(spike.spike_secs, TOK_SPIKE_END);
    }

    fn on_spike_end(&mut self, ctx: &mut Ctx) {
        let spike = self.plan.spike.expect("spike timer without plan");
        ctx.set_link_delay(self.wiring.forward, self.nominal_delay);
        let dt = self.exp(spike.mean_interval_secs);
        ctx.set_timer_after(dt, TOK_SPIKE);
    }

    fn on_loss(&mut self, ctx: &mut Ctx) {
        let ge = self.plan.burst_loss.expect("loss timer without plan");
        if self.loss_bad {
            self.loss_bad = false;
            ctx.set_link_loss_rate(self.wiring.forward, self.nominal_loss.max(ge.loss_good));
            let dt = self.exp(ge.mean_good_secs);
            ctx.set_timer_after(dt, TOK_LOSS);
        } else {
            self.loss_bad = true;
            self.stats.loss_bursts += 1;
            laqa_obs::counter!("faults.loss_burst").inc();
            ctx.set_link_loss_rate(self.wiring.forward, ge.loss_bad);
            let dt = self.exp(ge.mean_bad_secs);
            ctx.set_timer_after(dt, TOK_LOSS);
        }
    }

    fn on_churn(&mut self, ctx: &mut Ctx) {
        let churn = self.plan.churn.expect("churn timer without plan");
        self.churn_epoch += 1;
        if self.churn_on {
            self.churn_on = false;
            let dt = self.exp(churn.mean_off_secs);
            ctx.set_timer_after(dt, TOK_CHURN);
        } else {
            self.churn_on = true;
            self.stats.churn_joins += 1;
            laqa_obs::counter!("faults.churn_join").inc();
            let send_tok = TOK_CHURN_SEND | (self.churn_epoch << 8);
            ctx.set_timer_after(0.0, send_tok);
            let dt = self.exp(churn.mean_on_secs);
            ctx.set_timer_after(dt, TOK_CHURN);
        }
    }

    fn on_churn_send(&mut self, ctx: &mut Ctx, epoch: u64) {
        if !self.churn_on || epoch != self.churn_epoch {
            return; // stale timer from a previous on-period
        }
        ctx.send(Packet {
            flow: self.wiring.churn_flow,
            size: self.wiring.churn_packet,
            kind: PacketKind::Cbr,
            dst: self.wiring.churn_dst,
            route: self.wiring.churn_route.clone(),
            hop: 0,
        });
        self.stats.churn_packets += 1;
        ctx.set_timer_after(self.churn_interval(), TOK_CHURN_SEND | (epoch << 8));
    }
}

impl Agent for FaultInjector {
    fn start(&mut self, ctx: &mut Ctx) {
        let fwd = ctx.link_config(self.wiring.forward);
        self.nominal_bw = fwd.bandwidth;
        self.nominal_delay = fwd.delay;
        self.nominal_loss = fwd.loss_rate;
        let start = self.plan.start.max(0.0);
        // Each family draws its first firing time up front, in a fixed
        // order, so adding or removing one family never shifts another's
        // schedule within the same seed.
        if let Some(f) = self.plan.flap {
            let dt = self.exp(f.mean_up_secs);
            ctx.set_timer_at(start + dt, TOK_FLAP);
        }
        if let Some(s) = self.plan.spike {
            let dt = self.exp(s.mean_interval_secs);
            ctx.set_timer_at(start + dt, TOK_SPIKE);
        }
        if let Some(g) = self.plan.burst_loss {
            let dt = self.exp(g.mean_good_secs);
            ctx.set_timer_at(start + dt, TOK_LOSS);
        }
        if self.plan.ack_loss.is_some() {
            ctx.set_timer_at(start, TOK_ACK);
        }
        if let Some(c) = self.plan.churn {
            let dt = self.exp(c.mean_off_secs);
            ctx.set_timer_at(start + dt, TOK_CHURN);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token & TOK_KIND_MASK {
            TOK_FLAP => self.on_flap(ctx),
            TOK_SPIKE => self.on_spike(ctx),
            TOK_SPIKE_END => self.on_spike_end(ctx),
            TOK_LOSS => self.on_loss(ctx),
            TOK_ACK => {
                let p = self.plan.ack_loss.expect("ack timer without plan");
                let nominal = ctx.link_config(self.wiring.reverse).loss_rate;
                ctx.set_link_loss_rate(self.wiring.reverse, nominal.max(p.loss_rate));
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
    use crate::engine::World;
    use crate::link::LinkConfig;

    fn tiny_world(plan: FaultPlan, seed: u64) -> (World, LinkId, LinkId, AgentId, AgentId) {
        let mut w = World::new(seed);
        let fwd = w.add_link(LinkConfig {
            bandwidth: 100_000.0,
            delay: 0.01,
            queue_packets: 50,
            ..LinkConfig::default()
        });
        let rev = w.add_link(LinkConfig::uncongested());
        let sink = w.add_agent(Box::new(CountingSink::default()));
        let inj = w.add_agent(Box::new(FaultInjector::new(
            plan,
            seed,
            FaultWiring {
                forward: fwd,
                reverse: rev,
                churn_dst: sink,
                churn_route: vec![fwd].into(),
                churn_rate: 25_000.0,
                churn_packet: 250,
                churn_flow: 998,
            },
        )));
        (w, fwd, rev, sink, inj)
    }

    #[test]
    fn suite_zero_is_empty_and_scales_with_intensity() {
        assert!(FaultPlan::suite(0.0).is_none());
        assert!(FaultPlan::suite(-1.0).is_none());
        assert!(FaultPlan::none().is_none());
        let mild = FaultPlan::suite(0.25);
        let severe = FaultPlan::suite(1.0);
        assert!(!mild.is_none() && !severe.is_none());
        let (m, s) = (mild.burst_loss.unwrap(), severe.burst_loss.unwrap());
        assert!(s.loss_bad > m.loss_bad);
        assert!(s.mean_good_secs < m.mean_good_secs);
        let clamped = FaultPlan::suite(7.0);
        assert_eq!(clamped, severe, "intensity clamps at 1");
    }

    #[test]
    fn flap_restores_nominal_bandwidth_between_outages() {
        let plan = FaultPlan {
            start: 0.0,
            flap: Some(FlapPlan {
                mean_up_secs: 1.0,
                mean_down_secs: 0.2,
                down_bw_frac: 0.25,
            }),
            ..FaultPlan::none()
        };
        let (mut w, fwd, _, _, inj) = tiny_world(plan, 7);
        w.run_until(60.0);
        let stats = w.agent::<FaultInjector>(inj).unwrap().stats;
        assert!(stats.flap_downs >= 10, "got {} outages", stats.flap_downs);
        assert!(stats.flap_down_secs > 0.0);
        let bw = w.link_config(fwd).bandwidth;
        assert!(
            bw == 100_000.0 || bw == 25_000.0,
            "bandwidth is either nominal or degraded, got {bw}"
        );
    }

    #[test]
    fn burst_loss_toggles_between_states() {
        let plan = FaultPlan {
            start: 0.0,
            burst_loss: Some(BurstLossPlan {
                mean_good_secs: 0.5,
                mean_bad_secs: 0.2,
                loss_good: 0.0,
                loss_bad: 0.4,
            }),
            ..FaultPlan::none()
        };
        let (mut w, fwd, _, _, inj) = tiny_world(plan, 11);
        w.run_until(30.0);
        let stats = w.agent::<FaultInjector>(inj).unwrap().stats;
        assert!(stats.loss_bursts >= 10, "got {} bursts", stats.loss_bursts);
        let loss = w.link_config(fwd).loss_rate;
        assert!(loss == 0.0 || loss == 0.4, "loss is good or bad, got {loss}");
    }

    #[test]
    fn ack_loss_applies_from_start_time() {
        let plan = FaultPlan {
            start: 2.0,
            ack_loss: Some(AckLossPlan { loss_rate: 0.15 }),
            ..FaultPlan::none()
        };
        let (mut w, _, rev, _, _) = tiny_world(plan, 3);
        w.run_until(1.0);
        assert_eq!(w.link_config(rev).loss_rate, 0.0, "not yet started");
        w.run_until(3.0);
        assert_eq!(w.link_config(rev).loss_rate, 0.15);
    }

    #[test]
    fn churn_injects_traffic_only_while_on() {
        let plan = FaultPlan {
            start: 0.0,
            churn: Some(ChurnPlan {
                mean_off_secs: 0.5,
                mean_on_secs: 1.0,
                rate_frac: 0.25,
            }),
            ..FaultPlan::none()
        };
        let (mut w, _, _, sink, inj) = tiny_world(plan, 5);
        w.run_until(30.0);
        let stats = w.agent::<FaultInjector>(inj).unwrap().stats;
        assert!(stats.churn_joins >= 5, "got {} joins", stats.churn_joins);
        let got = w.agent::<CountingSink>(sink).unwrap().packets;
        // Sent = delivered + queue-dropped (+ at most a couple still in
        // flight when the run ends).
        let accounted = got + w.link_stats(0).dropped;
        assert!(
            stats.churn_packets >= accounted && stats.churn_packets <= accounted + 2,
            "sent {} vs accounted {accounted}",
            stats.churn_packets
        );
        assert!(got > 0, "churn traffic must reach the sink");
        // On ~2/3 duty cycle at 100 pkt/s the full-on count would be 3000;
        // the off periods must show up as a materially smaller total.
        assert!(
            (500..2900).contains(&(got as i64)),
            "duty cycle bounds violated: {got} packets"
        );
    }

    #[test]
    fn injector_schedule_is_seed_replayable() {
        let run = |seed| {
            let (mut w, _, _, _, inj) = tiny_world(FaultPlan::suite(1.0), seed);
            w.run_until(40.0);
            w.agent::<FaultInjector>(inj).unwrap().stats
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
    }

    #[test]
    fn spikes_raise_and_restore_delay() {
        let plan = FaultPlan {
            start: 0.0,
            spike: Some(SpikePlan {
                mean_interval_secs: 0.5,
                spike_secs: 0.1,
                extra_delay: 0.2,
            }),
            ..FaultPlan::none()
        };
        let (mut w, fwd, _, _, inj) = tiny_world(plan, 9);
        w.run_until(30.0);
        let stats = w.agent::<FaultInjector>(inj).unwrap().stats;
        assert!(stats.rtt_spikes >= 10, "got {} spikes", stats.rtt_spikes);
        let d = w.link_config(fwd).delay;
        assert!(
            (d - 0.01).abs() < 1e-12 || (d - 0.21).abs() < 1e-12,
            "delay is nominal or spiked, got {d}"
        );
    }
}
