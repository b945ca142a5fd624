//! Links with configurable queueing (drop-tail or RED) and an optional
//! random-loss process.
//!
//! The paper's ns-2 setup uses drop-tail bottlenecks (the default here).
//! RED is provided because the paper's premise — near-random loss patterns
//! (§3, citing Bolot) — is exactly what RED produces, making it the
//! natural ablation for the smoothing machinery; the per-packet random
//! loss models non-congestive (wireless/bit-error) drops.

use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::{secs_to_ns, tx_time_ns};
use std::collections::VecDeque;

/// Random Early Detection parameters (Floyd/Jacobson '93, simplified:
/// plain drop probability, no idle-time compensation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedConfig {
    /// Average-queue threshold (packets) below which nothing is dropped.
    pub min_th: f64,
    /// Average-queue threshold (packets) above which everything is
    /// dropped.
    pub max_th: f64,
    /// Drop probability as the average reaches `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue estimate.
    pub wq: f64,
}

impl RedConfig {
    /// Reasonable defaults relative to a physical queue of `cap` packets.
    pub fn for_queue(cap: usize) -> Self {
        RedConfig {
            min_th: cap as f64 * 0.25,
            max_th: cap as f64 * 0.75,
            max_p: 0.1,
            wq: 0.002,
        }
    }
}

/// Queueing discipline of a link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum QueueKind {
    /// Plain drop-tail (the paper's setting).
    #[default]
    DropTail,
    /// Random Early Detection on the average queue.
    Red(RedConfig),
}

/// Configuration of one unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Bandwidth (bytes/s).
    pub bandwidth: f64,
    /// Propagation delay (seconds).
    pub delay: f64,
    /// Physical queue capacity in packets (excluding the one in service).
    pub queue_packets: usize,
    /// Queueing discipline.
    pub queue_kind: QueueKind,
    /// Probability of random (non-congestive) loss per packet.
    pub loss_rate: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            bandwidth: 125_000.0,
            delay: 0.01,
            queue_packets: 50,
            queue_kind: QueueKind::DropTail,
            loss_rate: 0.0,
        }
    }
}

impl LinkConfig {
    /// A high-capacity, low-delay access/return link that never congests.
    pub fn uncongested() -> Self {
        LinkConfig {
            bandwidth: 125_000_000.0,
            delay: 0.001,
            queue_packets: 10_000,
            ..LinkConfig::default()
        }
    }

    /// The configuration a link runs on: panics unless bandwidth is finite
    /// and positive, delay finite and non-negative and loss rate finite;
    /// clamps the loss rate to `[0, 1]`.
    fn checked(self) -> Self {
        assert!(
            self.bandwidth.is_finite() && self.bandwidth > 0.0,
            "link bandwidth must be finite and positive, got {}",
            self.bandwidth
        );
        assert!(
            self.delay.is_finite() && self.delay >= 0.0,
            "link delay must be finite and non-negative, got {}",
            self.delay
        );
        assert!(
            self.loss_rate.is_finite(),
            "link loss rate must be finite, got {}",
            self.loss_rate
        );
        LinkConfig {
            loss_rate: self.loss_rate.clamp(0.0, 1.0),
            ..self
        }
    }
}

/// One step of a link-condition trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTracePoint {
    /// Time the step takes effect (seconds from trace start).
    pub at: f64,
    /// Link bandwidth from `at` onward (bytes/s).
    pub bandwidth: f64,
}

/// A list of bandwidth steps: the *TraceLink* machinery.
///
/// Each [`LinkTracePoint`] names a time and the bandwidth the link
/// switches to at that time — step changes, the way cellular links and
/// shaped links actually behave. Points are strictly increasing in time;
/// after the last one the link keeps its bandwidth (a schedule does not
/// loop). A trace owns the link's bandwidth only: its delay and loss rate
/// stay whatever the link was built with or a fault last set.
///
/// Schedules are *pre-materialized*: the seeded generators below draw
/// from their own salted [`SimRng`] at construction, so a schedule is a
/// plain value and replaying it never consumes world RNG. Advancement is
/// driven off the event queue by a [`TraceDriver`] agent, which makes
/// trace-driven runs bit-identical across thread counts (pinned by
/// `tests/trace_differential.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSchedule {
    points: Vec<LinkTracePoint>,
}

/// Seed salts decoupling each generator's stream from the world RNG and
/// from each other (same idiom as the fault injector's salted stream).
const LTE_SALT: u64 = 0x17E5_EEDC_E111_0000;
const BLOAT_SALT: u64 = 0xB10A_75EE_DBAD_0000;
/// Salt distinguishing the second path of a bonded pair.
pub const BOND_PATH_SALT: u64 = 0xB0D0_5A17_0000_0000;

impl TraceSchedule {
    /// Schedule from explicit points. Validates strictly increasing
    /// non-negative times and finite positive bandwidth.
    pub fn from_points(points: Vec<LinkTracePoint>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("trace schedule needs at least one point".into());
        }
        let mut prev = f64::NEG_INFINITY;
        for p in &points {
            if !(p.at >= 0.0 && p.at > prev) {
                return Err(format!("point times must strictly increase (at {})", p.at));
            }
            if !(p.bandwidth.is_finite() && p.bandwidth > 0.0) {
                return Err(format!("bandwidth must be positive, got {}", p.bandwidth));
            }
            prev = p.at;
        }
        Ok(TraceSchedule { points })
    }

    /// LTE-style capacity trace: a multiplicative random walk around
    /// `nominal_bw` with dwell times uniform in 100 ms – 1 s (the
    /// fast-fading swing cadence of cellular schedulers), clamped to
    /// `[0.25, 1.5]×nominal`. Deterministic per seed; two calls with the
    /// same arguments produce identical schedules.
    pub fn lte(seed: u64, nominal_bw: f64, duration: f64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ LTE_SALT);
        let mut points = Vec::new();
        let mut t = 0.0;
        let mut factor = 1.0f64;
        while t < duration {
            points.push(LinkTracePoint {
                at: t,
                bandwidth: nominal_bw * factor,
            });
            t += 0.1 + 0.9 * rng.next_f64();
            // Swing by up to ±2x per step, then clamp to the walk band.
            factor = (factor * (-0.7 + 1.4 * rng.next_f64()).exp()).clamp(0.25, 1.5);
        }
        TraceSchedule { points }
    }

    /// On-off bufferbloat trace: alternate full capacity (dwell 1–3 s)
    /// and a choked 30 % capacity (dwell 0.5–2 s). Paired with a deep
    /// standing drop-tail buffer (the scenario layer configures that),
    /// the choked phases fill the queue and inflate RTT by seconds — the
    /// classic bufferbloat signature. Deterministic per seed.
    pub fn bufferbloat(seed: u64, nominal_bw: f64, duration: f64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ BLOAT_SALT);
        let mut points = Vec::new();
        let mut t = 0.0;
        let mut choked = false;
        while t < duration {
            points.push(LinkTracePoint {
                at: t,
                bandwidth: if choked { nominal_bw * 0.3 } else { nominal_bw },
            });
            t += if choked {
                0.5 + 1.5 * rng.next_f64()
            } else {
                1.0 + 2.0 * rng.next_f64()
            };
            choked = !choked;
        }
        TraceSchedule { points }
    }

    /// Diurnal capacity ramp: one full cosine cycle over `period_secs`,
    /// dipping to 40 % of `nominal_bw` mid-cycle, sampled at 48 steps plus
    /// a closing point at `period_secs` that restores the starting
    /// bandwidth (`cos τ` is exactly 1). Fully deterministic (no seed).
    pub fn diurnal(nominal_bw: f64, period_secs: f64) -> Self {
        const STEPS: usize = 48;
        let points = (0..=STEPS)
            .map(|i| {
                let phase = i as f64 / STEPS as f64;
                let dip = 0.5 - 0.5 * (std::f64::consts::TAU * phase).cos();
                LinkTracePoint {
                    at: phase * period_secs,
                    bandwidth: nominal_bw * (1.0 - 0.6 * dip),
                }
            })
            .collect();
        TraceSchedule { points }
    }

    /// The schedule's points (strictly increasing times).
    pub fn points(&self) -> &[LinkTracePoint] {
        &self.points
    }

    /// The point in effect at time `t` (step interpolation): the last
    /// point with `at <= t`, clamped to the first point before it takes
    /// effect.
    pub fn sample(&self, t: f64) -> LinkTracePoint {
        match self.points.iter().rev().find(|p| p.at <= t) {
            Some(p) => *p,
            None => self.points[0],
        }
    }
}

/// One waiting packet: its handle in the world's packet arena and its
/// wire size, so serialization never touches the packet itself.
pub type QueueSlot = (u32, u32);

/// The packet a link serialized last — still in service until the link's
/// `busy_until` — and the `seq` of the `Arrive` event that carries it to
/// its next hop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Serving {
    /// Arena handle.
    pub pkt: u32,
    /// Wire size (bytes), counted into `bytes_out` once service ends.
    pub size: u32,
    /// `seq` of the packet's live `Arrive`.
    pub arrive_seq: u64,
}

/// What [`Link::offer`] did with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Dropped by the tail, RED or the random-loss process: the caller
    /// frees the handle.
    Dropped,
    /// The link was idle: the caller puts the packet into service now.
    Serve,
    /// Queued behind the packet in service. `Some(at)` when it is the only
    /// one waiting: the caller arms the link's link-done at `at`, the
    /// `busy_until` of the packet in service.
    Queued(Option<u64>),
}

/// Runtime state of a link.
///
/// A packet enters service the moment the link is free: an idle link's
/// offer starts it at once, and a link-done event starts the next waiting
/// packet when the one in service finishes. The engine then schedules the
/// packet's arrival at the next hop right away, so the in-service packet
/// is held by its pending `Arrive`, not by [`Link::queue`]; the link keeps
/// only its finish time (`busy_until`) and a `Serving` record.
#[derive(Debug)]
pub struct Link {
    /// Configuration; only the `set_*` methods write it.
    cfg: LinkConfig,
    /// `secs_to_ns(cfg.delay)`.
    delay_ns: u64,
    /// The last serialization time computed: `(size, bandwidth bits, ns)`.
    tx_memo: (u32, u64, u64),
    /// Packets waiting for service (head is next to transmit); the packet
    /// in service is not among them.
    pub queue: VecDeque<QueueSlot>,
    /// When the packet in service finishes serializing (ns); the link is
    /// idle once this has passed and nothing waits.
    pub(crate) busy_until: u64,
    /// The packet serialized last.
    pub(crate) serving: Serving,
    /// RED average-queue estimate (packets).
    pub red_avg: f64,
    /// Counters; `bytes_out` lags by the packet served last
    /// (see [`Link::stats`]).
    stats: LinkStats,
}

/// Per-link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Packets accepted for transmission.
    pub enqueued: u64,
    /// Packets dropped at the tail (or by RED).
    pub dropped: u64,
    /// Packets dropped by the random-loss process.
    pub random_losses: u64,
    /// Bytes fully transmitted.
    pub bytes_out: u64,
    /// Peak queue length observed (packets waiting, excluding the one in
    /// service).
    pub peak_queue: usize,
}

impl Link {
    /// New idle link; panics on a configuration no link can run.
    pub fn new(cfg: LinkConfig) -> Self {
        let cfg = cfg.checked();
        Link {
            cfg,
            delay_ns: secs_to_ns(cfg.delay),
            tx_memo: (0, cfg.bandwidth.to_bits(), 0), // 0 bytes take 0 ns
            queue: VecDeque::new(),
            busy_until: 0,
            serving: Serving::default(),
            red_avg: 0.0,
            stats: LinkStats::default(),
        }
    }

    /// Current configuration.
    pub fn cfg(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Set the bandwidth (bytes/s); panics unless finite and positive.
    pub(crate) fn set_bandwidth(&mut self, bandwidth: f64) {
        self.cfg = LinkConfig {
            bandwidth,
            ..self.cfg
        }
        .checked();
    }

    /// Set the delay (seconds); panics unless finite and non-negative.
    pub(crate) fn set_delay(&mut self, delay: f64) {
        self.cfg = LinkConfig { delay, ..self.cfg }.checked();
        self.delay_ns = secs_to_ns(delay);
    }

    /// Set the random loss probability; panics unless finite, clamps to `[0, 1]`.
    pub(crate) fn set_loss_rate(&mut self, loss_rate: f64) {
        self.cfg = LinkConfig {
            loss_rate,
            ..self.cfg
        }
        .checked();
    }

    /// Propagation delay in ns: `secs_to_ns(cfg().delay)`.
    #[inline]
    pub(crate) fn delay_ns(&self) -> u64 {
        self.delay_ns
    }

    /// `tx_time_ns(size, cfg().bandwidth)`, memoized for the last size and
    /// bandwidth asked.
    #[inline]
    pub(crate) fn tx_ns(&mut self, size: u32) -> u64 {
        let bits = self.cfg.bandwidth.to_bits();
        if (self.tx_memo.0, self.tx_memo.1) != (size, bits) {
            self.tx_memo = (size, bits, tx_time_ns(size, self.cfg.bandwidth));
        }
        self.tx_memo.2
    }

    /// True while a packet is in service at `now_ns`: one is serializing,
    /// or one finishes exactly now and the link-done that starts the next
    /// waiting packet has yet to fire.
    #[inline]
    fn busy(&self, now_ns: u64) -> bool {
        self.busy_until > now_ns || !self.queue.is_empty()
    }

    /// Packets on the link at `now_ns`: waiting plus the one in service.
    pub(crate) fn occupancy(&self, now_ns: u64) -> usize {
        self.queue.len() + usize::from(self.busy(now_ns))
    }

    /// Counters at `now_ns`: `bytes_out` includes the packet served last
    /// once it has finished serializing.
    pub fn stats(&self, now_ns: u64) -> LinkStats {
        let mut stats = self.stats;
        if self.busy_until <= now_ns {
            stats.bytes_out += self.serving.size as u64;
        }
        stats
    }

    /// Record `serving` as in service until `done_ns`; the packet served
    /// before it has finished, so its bytes are counted out.
    #[inline]
    pub(crate) fn serve(&mut self, done_ns: u64, serving: Serving) {
        self.stats.bytes_out += self.serving.size as u64;
        self.busy_until = done_ns;
        self.serving = serving;
    }

    /// Offer the packet with arena handle `pkt` and wire `size` to the
    /// link at `now_ns`. `u_loss` and `u_red` are uniform `[0, 1)` samples
    /// consumed by the loss and RED processes.
    pub fn offer(&mut self, now_ns: u64, pkt: u32, size: u32, u_loss: f64, u_red: f64) -> Offer {
        let waiting = self.queue.len();
        // RED's average-queue estimate must see *every* arrival — including
        // packets the random-loss process removes below — or the average is
        // biased low under non-congestive loss.
        let mut red_drop = false;
        if let QueueKind::Red(red) = self.cfg.queue_kind {
            self.red_avg = (1.0 - red.wq) * self.red_avg + red.wq * waiting as f64;
            if self.red_avg >= red.max_th {
                red_drop = true;
            } else if self.red_avg > red.min_th {
                let p =
                    red.max_p * (self.red_avg - red.min_th) / (red.max_th - red.min_th).max(1e-9);
                red_drop = u_red < p;
            }
        }
        if self.cfg.loss_rate > 0.0 && u_loss < self.cfg.loss_rate {
            self.stats.random_losses += 1;
            return Offer::Dropped;
        }
        if red_drop {
            self.stats.dropped += 1;
            return Offer::Dropped;
        }
        if !self.busy(now_ns) {
            // An idle link always accepts: the packet goes straight into
            // service.
            self.stats.enqueued += 1;
            return Offer::Serve;
        }
        if waiting >= self.cfg.queue_packets {
            self.stats.dropped += 1;
            return Offer::Dropped;
        }
        self.queue.push_back((pkt, size));
        self.stats.enqueued += 1;
        self.stats.peak_queue = self.stats.peak_queue.max(waiting + 1);
        Offer::Queued((waiting == 0).then_some(self.busy_until))
    }
}

/// Agent that replays one [`TraceSchedule`] onto a link off the event
/// scheduler: it arms a timer for each schedule point and applies the
/// point when the timer fires, through the same [`crate::engine::Ctx`]
/// setter — and so with the same runtime-mutation semantics — as fault
/// injection: bandwidth read at serialize start.
///
/// Driving the schedule through ordinary timer events — rather than
/// polling link state on some side channel — is what makes trace replay
/// bit-identical across thread counts: the `(time, seq)` event order
/// fully determines when each point lands relative to every packet.
///
/// The driver draws no world RNG (schedules are pre-materialized), so
/// attaching it perturbs nothing but the bandwidth it writes.
pub struct TraceDriver {
    /// The trace-driven link this driver writes.
    pub link: crate::packet::LinkId,
    /// Schedule points applied so far (diagnostics + outcome hashing).
    pub changes: u64,
    schedule: TraceSchedule,
    /// Index of the next point to apply.
    cursor: usize,
}

const TOK_TRACE: u64 = 0x7_ACE;

impl TraceDriver {
    /// Driver replaying `schedule` onto `link` from its first point.
    pub fn new(link: crate::packet::LinkId, schedule: TraceSchedule) -> Self {
        TraceDriver {
            link,
            changes: 0,
            schedule,
            cursor: 0,
        }
    }

    fn arm(&self, ctx: &mut crate::engine::Ctx) {
        if let Some(p) = self.schedule.points.get(self.cursor) {
            ctx.set_timer_at(p.at, TOK_TRACE);
        }
    }
}

impl Drop for TraceDriver {
    /// Add the points applied to the `laqa-obs` view, once.
    fn drop(&mut self) {
        laqa_obs::add_counts(&[("trace.points_applied", self.changes)]);
    }
}

impl crate::engine::Agent for TraceDriver {
    fn start(&mut self, ctx: &mut crate::engine::Ctx) {
        self.arm(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut crate::engine::Ctx, _pkt: Packet) {
        // Nothing routes to the driver; ignore strays defensively.
    }

    /// Apply every point due at or before now: the link takes the last
    /// one's bandwidth, overwriting whatever bandwidth a fault set (last
    /// writer wins; a fault's delay or loss is never touched — see
    /// `tests/faults_replay.rs`). The sub-nanosecond tolerance absorbs the
    /// timer's integer-nanosecond quantization of the point's f64 time.
    fn on_timer(&mut self, ctx: &mut crate::engine::Ctx, _token: u64) {
        let due = self.schedule.points[self.cursor..]
            .iter()
            .take_while(|p| p.at <= ctx.now + 1e-9)
            .count();
        if due > 0 {
            self.cursor += due;
            let bandwidth = self.schedule.points[self.cursor - 1].bandwidth;
            ctx.set_link_bandwidth(self.link, bandwidth);
            self.changes += due as u64;
        }
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offer a 1000-byte packet with handle `h` at `now` ns with the given
    /// loss and RED samples, as the engine does: a packet the idle link
    /// takes enters service at once.
    fn offer_with(l: &mut Link, now: u64, h: u32, u_loss: f64, u_red: f64) -> Offer {
        let offer = l.offer(now, h, 1000, u_loss, u_red);
        if offer == Offer::Serve {
            let done = now + l.tx_ns(1000);
            l.serve(
                done,
                Serving {
                    pkt: h,
                    size: 1000,
                    arrive_seq: 0,
                },
            );
        }
        offer
    }

    /// [`offer_with`] at time 0 where neither the loss nor the RED sample
    /// fires.
    fn offer(l: &mut Link, h: u32) -> Offer {
        offer_with(l, 0, h, 0.99, 0.99)
    }

    /// 1000-byte packets serialize in 1 ms on this link.
    const MS: u64 = 1_000_000;

    #[test]
    fn drop_tail_when_full_and_busy() {
        let mut l = Link::new(LinkConfig {
            bandwidth: 1e6,
            delay: 0.01,
            queue_packets: 2,
            ..LinkConfig::default()
        });
        assert_eq!(
            offer(&mut l, 1),
            Offer::Serve,
            "first packet enters service"
        );
        assert_eq!(
            offer(&mut l, 2),
            Offer::Queued(Some(MS)),
            "first waiter arms"
        );
        assert_eq!(offer(&mut l, 3), Offer::Queued(None));
        assert_eq!(
            offer(&mut l, 4),
            Offer::Dropped,
            "third queued packet must be dropped"
        );
        assert_eq!(l.stats.dropped, 1);
        assert_eq!(l.stats.enqueued, 3);
    }

    #[test]
    fn idle_link_always_accepts() {
        let mut l = Link::new(LinkConfig {
            bandwidth: 1e6,
            delay: 0.01,
            queue_packets: 0,
            ..LinkConfig::default()
        });
        assert_eq!(
            offer(&mut l, 1),
            Offer::Serve,
            "idle link accepts even with zero queue"
        );
        assert_eq!(
            offer(&mut l, 2),
            Offer::Dropped,
            "busy with zero queue drops"
        );
    }

    #[test]
    fn peak_queue_tracked() {
        let mut l = Link::new(LinkConfig {
            bandwidth: 1e6,
            delay: 0.01,
            queue_packets: 10,
            ..LinkConfig::default()
        });
        for i in 0..5 {
            offer(&mut l, i);
        }
        // One in service + four waiting; peak counts the waiting packets,
        // same as the admission bound.
        assert_eq!(l.stats.peak_queue, 4);
        assert_eq!((l.queue.len(), l.occupancy(0)), (4, 5));
    }

    #[test]
    fn idle_to_busy_boundary() {
        let mut l = Link::new(LinkConfig {
            bandwidth: 1e6,
            delay: 0.01,
            queue_packets: 2,
            ..LinkConfig::default()
        });
        assert_eq!(
            offer(&mut l, 1),
            Offer::Serve,
            "empty link accepts into service"
        );
        assert_eq!((l.occupancy(0), l.occupancy(MS - 1)), (1, 1));
        assert_eq!(l.stats(MS - 1).bytes_out, 0, "still serializing");
        // Service ends at 1 ms: the link is idle then, and its bytes are out.
        assert_eq!((l.occupancy(MS), l.stats(MS).bytes_out), (0, 1000));
        assert_eq!(offer_with(&mut l, MS, 2, 0.99, 0.99), Offer::Serve);
        // Busy until 2 ms. Two may wait; the first arms the link-done.
        let late = 2 * MS - 1;
        assert_eq!(
            offer_with(&mut l, late, 3, 0.99, 0.99),
            Offer::Queued(Some(2 * MS))
        );
        assert_eq!(offer_with(&mut l, late, 4, 0.99, 0.99), Offer::Queued(None));
        assert_eq!(offer_with(&mut l, late, 5, 0.99, 0.99), Offer::Dropped);
        // At 2 ms the packet in service has finished, but the link-done
        // that starts the next has yet to fire: the link still reads busy,
        // with its head in service, and the bound still applies.
        assert_eq!(l.occupancy(2 * MS), 3);
        assert_eq!(offer_with(&mut l, 2 * MS, 6, 0.99, 0.99), Offer::Dropped);
        assert_eq!(l.queue.len(), 2);
        assert_eq!(l.stats.dropped, 2);
        assert_eq!(l.stats.peak_queue, 2);
        assert_eq!(l.stats(2 * MS).bytes_out, 2000);
    }

    #[test]
    fn random_loss_consumes_sample() {
        let mut l = Link::new(LinkConfig {
            loss_rate: 0.5,
            ..LinkConfig::default()
        });
        assert_eq!(
            offer_with(&mut l, 0, 1, 0.4, 0.9),
            Offer::Dropped,
            "u < p drops"
        );
        assert_eq!(
            offer_with(&mut l, 0, 2, 0.6, 0.9),
            Offer::Serve,
            "u >= p passes"
        );
        assert_eq!(l.stats.random_losses, 1);
        assert_eq!(l.stats.dropped, 0, "random losses counted separately");
    }

    #[test]
    fn red_drops_probabilistically_between_thresholds() {
        let red = RedConfig {
            min_th: 1.0,
            max_th: 5.0,
            max_p: 0.5,
            wq: 1.0,
        };
        let mut l = Link::new(LinkConfig {
            queue_packets: 100,
            queue_kind: QueueKind::Red(red),
            ..LinkConfig::default()
        });
        // One in service and three waiting: avg = 3 (wq = 1 tracks
        // instantaneously).
        for i in 0..4 {
            let offer = offer_with(&mut l, 0, i, 0.9, 0.99);
            assert_ne!(offer, Offer::Dropped, "low avg accepts");
        }
        // avg now 3 → p = 0.5 * (3-1)/(5-1) = 0.25.
        assert_eq!(
            offer_with(&mut l, 0, 10, 0.9, 0.2),
            Offer::Dropped,
            "u_red < p drops early"
        );
        assert_eq!(
            offer_with(&mut l, 0, 11, 0.9, 0.3),
            Offer::Queued(None),
            "u_red >= p accepts"
        );
    }

    #[test]
    fn red_hard_drops_above_max_th() {
        let red = RedConfig {
            min_th: 0.0,
            max_th: 2.0,
            max_p: 0.1,
            wq: 1.0,
        };
        let mut l = Link::new(LinkConfig {
            queue_packets: 100,
            queue_kind: QueueKind::Red(red),
            ..LinkConfig::default()
        });
        for i in 0..3 {
            offer_with(&mut l, 0, i, 0.9, 0.99);
        }
        // Two waiting, avg >= 2 now: unconditional drop regardless of u_red.
        assert_eq!(offer_with(&mut l, 0, 10, 0.9, 0.999), Offer::Dropped);
    }

    #[test]
    fn red_average_updates_on_randomly_lost_arrivals() {
        // Regression: the random-loss process used to return before the RED
        // estimate was touched, biasing `red_avg` low under non-congestive
        // loss. Every arrival must update the average, lost or not.
        let red = RedConfig {
            min_th: 1.0,
            max_th: 50.0,
            max_p: 0.1,
            wq: 1.0,
        };
        let mut l = Link::new(LinkConfig {
            queue_packets: 100,
            queue_kind: QueueKind::Red(red),
            ..LinkConfig::default()
        });
        for i in 0..3 {
            offer(&mut l, i);
        }
        l.set_loss_rate(1.0); // every offer from here is randomly lost
        assert_eq!(
            offer_with(&mut l, 0, 10, 0.0, 0.99),
            Offer::Dropped,
            "randomly lost"
        );
        assert_eq!(l.stats.random_losses, 1);
        assert!(
            (l.red_avg - 2.0).abs() < 1e-12,
            "red_avg must track the 2 waiting packets, got {}",
            l.red_avg
        );
    }

    #[test]
    fn red_default_thresholds_scale_with_capacity() {
        let red = RedConfig::for_queue(100);
        assert_eq!(red.min_th, 25.0);
        assert_eq!(red.max_th, 75.0);
    }

    fn p(at: f64, bandwidth: f64) -> LinkTracePoint {
        LinkTracePoint { at, bandwidth }
    }

    #[test]
    fn trace_schedule_rejects_degenerate_inputs() {
        assert!(TraceSchedule::from_points(vec![]).is_err(), "empty");
        assert!(
            TraceSchedule::from_points(vec![p(0.0, 1e5), p(0.0, 2e5)]).is_err(),
            "non-increasing times"
        );
        assert!(
            TraceSchedule::from_points(vec![p(-1.0, 1e5)]).is_err(),
            "negative time"
        );
        assert!(
            TraceSchedule::from_points(vec![p(0.0, 0.0)]).is_err(),
            "non-positive bandwidth"
        );
        assert!(TraceSchedule::from_points(vec![p(0.0, 1e5), p(5.0, 2e5)]).is_ok());
    }

    #[test]
    fn trace_sample_steps_and_holds_the_last_point() {
        let s = TraceSchedule::from_points(vec![p(1.0, 1e5), p(2.0, 5e4)]).unwrap();
        // Before the first point the first point's value holds.
        assert_eq!(s.sample(0.0).bandwidth, 1e5);
        assert_eq!(s.sample(1.5).bandwidth, 1e5);
        assert_eq!(s.sample(2.0).bandwidth, 5e4);
        // No loop: the last step holds for good.
        assert_eq!(s.sample(3.9).bandwidth, 5e4);
        assert_eq!(s.sample(1e6).bandwidth, 5e4);
    }

    #[test]
    fn trace_state_applies_in_order() {
        use crate::engine::World;
        let mut w = World::new(1);
        let link = w.add_link(LinkConfig {
            delay: 0.02,
            loss_rate: 0.01,
            ..LinkConfig::default()
        });
        let s = TraceSchedule::from_points(vec![p(0.0, 1e5), p(1.0, 5e4)]).unwrap();
        let driver = w.add_agent(Box::new(TraceDriver::new(link, s)));
        w.run_until(0.5);
        assert_eq!(w.link_config(link).bandwidth, 1e5);
        w.run_until(1.5);
        let cfg = w.link_config(link);
        assert_eq!(cfg.bandwidth, 5e4);
        // The trace owns bandwidth only.
        assert_eq!((cfg.delay, cfg.loss_rate), (0.02, 0.01));
        // No loop: the driver is done after its last point.
        w.run_until(100.0);
        assert_eq!(w.agent::<TraceDriver>(driver).unwrap().changes, 2);
        assert_eq!(w.events_processed(), 2);
        assert_eq!(w.link_config(link).bandwidth, 5e4);
    }
}
