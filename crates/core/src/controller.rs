//! The quality-adaptation controller: the server-side state machine that
//! ties together the coarse-grain add/drop rules and the fine-grain
//! inter-layer bandwidth allocation (§2–§4).
//!
//! The controller is transport-agnostic. A congestion-controlled sender (the
//! simulator's QA source agent) drives it with:
//!
//! * [`QaController::tick`] once per allocation period (typically one RTT or
//!   a fixed short period) with the current transmission rate — the
//!   controller settles buffer accounting, applies add/drop decisions and
//!   produces per-layer send rates;
//! * [`QaController::on_backoff`] whenever the congestion controller halves
//!   its rate — the controller runs the §2.2 drop rule and switches to the
//!   draining allocator;
//! * [`QaController::next_packet_layer`] for every packet transmission — a
//!   byte-credit scheduler realizes the per-period rates at per-packet
//!   granularity (the paper's `SendPacket` assigns each packet to a layer);
//! * [`QaController::on_packet_delivered`] to keep the sender-side estimate
//!   of the receiver's per-layer buffers honest.
//!
//! Buffer accounting is a sender-side estimate of the receiver's buffers:
//! bytes are credited when the transport confirms their delivery (ACK) and
//! debited by the layer's consumption rate once playout has started. Lost
//! packets are simply never credited.

use crate::adddrop::{drop_count, required_recovery_buffer};
use crate::config::{ConfigError, QaConfig, FILL_HORIZON_BACKOFFS, MAX_LAYERS};
use crate::draining::plan_draining_into;
use crate::filling::allocate_filling_into;
use crate::metrics::{DropReason, MetricsCollector, QaEvent};
use crate::states::StateSequence;

/// Layers transmitted at session start: the paper starts with the base
/// layer only (figure 2 shows layers coming up one at a time).
const INITIAL_LAYERS: usize = 1;

/// Lower bound (bytes/s²) on the additive-increase slope `S` before it is
/// used in the deficit geometry. Guards against division by a near-zero
/// slope when the RTT estimate spikes (§2.2 lists a wrong slope estimate
/// as a source of "critical situations").
const MIN_SLOPE: f64 = 1.0;

/// Which side of the sawtooth the flow is on (figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Transmission rate at or above aggregate consumption: buffers fill.
    Filling,
    /// Transmission rate below aggregate consumption: buffers drain.
    Draining,
}

impl Phase {
    /// Stable lowercase label used in observability exports.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Filling => "filling",
            Phase::Draining => "draining",
        }
    }
}

/// Outcome of one allocation period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// Phase after this tick's decisions.
    pub phase: Phase,
    /// Active layer count after add/drop decisions.
    pub n_active: usize,
    /// Per-layer send rates (bytes/s) for the coming period; length
    /// `n_active`. Sums to (approximately) the offered rate.
    pub per_layer_rate: LayerAllocation,
    /// Layers added this tick (0 or 1; the add conditions re-arm only after
    /// the new layer's states are satisfied).
    pub added: usize,
    /// Layers dropped this tick.
    pub dropped: usize,
    /// True when the base layer's buffer ran dry while rate was below its
    /// consumption — a playback stall.
    pub stalled: bool,
}

/// A tick's per-layer send rates (bytes/s), held inline: up to
/// [`MAX_LAYERS`] rates and their count, so a [`TickReport`] is an owned
/// `Copy` value the caller can keep while calling `&mut` methods on the
/// controller, and handing it over allocates nothing.
///
/// It derefs to the live `[f64]` (`.iter()`, `.len()`, `[i]`, `.get(i)`);
/// `PartialEq` and `Debug` see only that slice, never the array's unused
/// tail.
#[derive(Clone, Copy)]
pub struct LayerAllocation {
    rates: [f64; MAX_LAYERS],
    len: usize,
}

impl LayerAllocation {
    /// Copy `rates` in. [`QaConfig::validated`] bounds the layer count by
    /// [`MAX_LAYERS`], so a controller's allocation always fits.
    fn from_slice(rates: &[f64]) -> Self {
        let mut out = LayerAllocation {
            rates: [0.0; MAX_LAYERS],
            len: rates.len(),
        };
        out.rates[..rates.len()].copy_from_slice(rates);
        out
    }

    /// The live rates, one per active layer.
    pub fn as_slice(&self) -> &[f64] {
        &self.rates[..self.len]
    }
}

impl std::ops::Deref for LayerAllocation {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl PartialEq for LayerAllocation {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for LayerAllocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<'a> IntoIterator for &'a LayerAllocation {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// What a [`QaController`] counts as it runs, always on. Its adds, drops
/// and base stalls are not here: its [`MetricsCollector`] accounts each
/// one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QaCounts {
    /// Calls to [`QaController::tick`].
    pub ticks: u64,
    /// Calls to [`QaController::on_backoff`].
    pub backoffs: u64,
    /// Ticks on which base-layer protection bent the allocation.
    pub base_protect_ticks: u64,
    /// Flips between filling and draining.
    pub phase_transitions: u64,
}

/// Server-side quality-adaptation state machine. See module docs. Not
/// `Clone`: dropping it adds its counts to obs, and a copy would add twice.
#[derive(Debug)]
pub struct QaController {
    cfg: QaConfig,
    n_active: usize,
    /// Sender-side estimate of receiver buffer per active layer (bytes).
    bufs: Vec<f64>,
    /// Bytes handed to the transport per layer since the last tick.
    sent_acc: Vec<f64>,
    /// Additive-increase slope estimate `S` (bytes/s²).
    slope: f64,
    /// Transmission rate at the most recent tick (sawtooth peak tracker).
    last_rate: f64,
    /// Rate from which the latest backoff fell; parameterizes the draining
    /// state path.
    peak_rate: f64,
    phase: Phase,
    /// Draining path at `peak_rate`; current only while `!drain_stale`.
    /// Kept across draining ticks, so the prefix the floor searches have
    /// grown stays.
    drain_seq: StateSequence,
    /// Set by a backoff, add or drop: the path must be reset (into the
    /// storage `drain_seq` already owns) before the next draining plan.
    drain_stale: bool,
    /// Filling path at the tick's rate: reset in place every filling tick
    /// and grown only as far as the add check and the allocator read.
    fill_seq: StateSequence,
    /// Post-add path (`n_active + 1` layers), reset in place on the ticks
    /// where the add rule's cheaper conditions all hold.
    next_seq: StateSequence,
    /// Working storage of the filling allocator (projected buffers, gains).
    fill_projected: Vec<f64>,
    fill_gain: Vec<f64>,
    /// Working storage of the draining planner (bytes drained per layer).
    drain_bytes: Vec<f64>,
    /// Byte credits per layer for the packet scheduler.
    credits: Vec<f64>,
    /// Current per-layer allocation (bytes/s), overwritten in place by the
    /// allocators.
    alloc_rates: Vec<f64>,
    /// True once `now >= playout_delay`: consumption is being charged.
    playing: bool,
    metrics: MetricsCollector,
    /// The adds, drops and base stalls of the latest `tick` or
    /// `on_backoff` call, in order: at most one per layer and a stall.
    decisions: Vec<QaEvent>,
    counts: QaCounts,
}

impl QaController {
    /// Build a controller from a validated configuration.
    pub fn new(cfg: QaConfig) -> Result<Self, ConfigError> {
        let cfg = cfg.validated()?;
        let n = INITIAL_LAYERS;
        Ok(QaController {
            slope: MIN_SLOPE,
            cfg,
            n_active: n,
            bufs: vec![0.0; n],
            sent_acc: vec![0.0; n],
            last_rate: 0.0,
            peak_rate: 0.0,
            phase: Phase::Filling,
            drain_seq: StateSequence::default(),
            drain_stale: true,
            fill_seq: StateSequence::default(),
            next_seq: StateSequence::default(),
            fill_projected: Vec::new(),
            fill_gain: Vec::new(),
            drain_bytes: Vec::new(),
            credits: vec![0.0; n],
            alloc_rates: vec![0.0; n],
            playing: false,
            metrics: MetricsCollector::new(),
            decisions: Vec::new(),
            counts: QaCounts::default(),
        })
    }

    /// Active layer count.
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Sender-side per-layer buffer estimates (bytes).
    pub fn buffers(&self) -> &[f64] {
        &self.bufs
    }

    /// Total *drainable* receiver buffering (bytes): negative per-layer
    /// debts (fluid-model jitter) do not subtract from what other layers
    /// can contribute to recovery.
    pub fn total_buffer(&self) -> f64 {
        self.bufs.iter().map(|b| b.max(0.0)).sum()
    }

    /// Current per-layer allocation (bytes/s) from the last tick.
    pub fn allocation(&self) -> &[f64] {
        &self.alloc_rates
    }

    /// Configuration in use.
    pub fn config(&self) -> &QaConfig {
        &self.cfg
    }

    /// The paper's metrics over every decision so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// The decisions (layer adds, layer drops, base stalls) the latest
    /// [`tick`](Self::tick) or [`on_backoff`](Self::on_backoff) call made,
    /// in order; the next such call replaces them. A caller that keeps a
    /// session's decision log collects it from here after each call.
    pub fn decisions(&self) -> &[QaEvent] {
        &self.decisions
    }

    /// What this controller has counted so far.
    pub fn counts(&self) -> QaCounts {
        self.counts
    }

    /// Current additive-increase slope estimate `S` (bytes/s²) the drop
    /// rule's recovery triangle uses.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// Update the additive-increase slope estimate `S` (bytes/s²). RAP's
    /// slope is one packet per RTT per RTT: `S = packet_size / srtt²`.
    pub fn set_slope(&mut self, slope: f64) {
        self.slope = if slope.is_finite() {
            slope.max(MIN_SLOPE)
        } else {
            MIN_SLOPE
        };
    }

    /// Record `bytes` confirmed **delivered** to the receiver for `layer`
    /// (the transport reports this on ACK). Crediting at delivery rather
    /// than at send keeps bytes sitting in the bottleneck queue — up to a
    /// bandwidth-delay product — out of the buffer estimate; a send-time
    /// estimate is systematically optimistic by exactly that amount.
    pub fn on_packet_delivered(&mut self, layer: usize, bytes: f64) {
        // A NaN/negative credit would poison the buffer estimate and every
        // decision derived from it; transports under fault injection can
        // surface such values, so reject them here.
        if !(bytes.is_finite() && bytes > 0.0) {
            return;
        }
        if let Some(acc) = self.sent_acc.get_mut(layer) {
            *acc += bytes;
        }
    }

    /// Congestion-control backoff: the transmission rate fell to
    /// `post_rate`. Runs the §2.2 drop rule and arms the draining path.
    pub fn on_backoff(&mut self, now: f64, post_rate: f64) {
        // A congestion controller in an RTO storm can report a collapsed
        // rate of 0; anything non-finite or negative is treated the same —
        // the worst legal input, which the drop rule resolves by shedding
        // layers rather than corrupting state.
        let post_rate = if post_rate.is_finite() {
            post_rate.max(0.0)
        } else {
            0.0
        };
        self.counts.backoffs += 1;
        self.decisions.clear();
        if laqa_obs::flight::enabled() {
            laqa_obs::flight::instant("qa.backoff", now, post_rate);
        }
        let phase_before = self.phase;
        self.peak_rate = self.last_rate.max(post_rate);
        self.drain_stale = true; // floors must be re-derived at the new peak
        let total = self.total_buffer();
        let n_drop = drop_count(
            self.n_active,
            self.cfg.layer_rate,
            post_rate,
            self.slope,
            total,
        );
        for _ in 0..n_drop {
            self.drop_top_layer(now, post_rate, DropReason::InsufficientTotalBuffer);
        }
        if post_rate < self.cfg.consumption(self.n_active) {
            self.phase = Phase::Draining;
        }
        self.note_phase_transition(now, phase_before);
        self.last_rate = post_rate;
    }

    /// Choose the layer for the next packet of `pkt_bytes` bytes and charge
    /// its credit. Ties favour the lowest layer, so with equal allocations
    /// the base layer is served first.
    pub fn next_packet_layer(&mut self, pkt_bytes: f64) -> usize {
        let mut best = 0usize;
        let mut best_credit = f64::NEG_INFINITY;
        for (i, &c) in self.credits.iter().enumerate().take(self.n_active) {
            if c > best_credit {
                best_credit = c;
                best = i;
            }
        }
        self.credits[best] -= pkt_bytes;
        best
    }

    /// Run one allocation period: settle the accounting for the `dt`
    /// seconds that just elapsed, make add/drop decisions, and compute the
    /// per-layer rates for the next period at transmission rate `rate`.
    pub fn tick(&mut self, now: f64, rate: f64, dt: f64) -> TickReport {
        // Sanitize adverse inputs (§2.2: every critical situation must be
        // resolved by dropping layers, never by panicking or corrupting the
        // accounting). A non-finite rate is treated as 0 — the draining
        // path then sheds layers; a non-finite or negative dt settles no
        // time at all.
        let rate = if rate.is_finite() { rate.max(0.0) } else { 0.0 };
        let dt = if dt.is_finite() { dt.max(0.0) } else { 0.0 };
        self.counts.ticks += 1;
        self.decisions.clear();
        let phase_before = self.phase;
        let c = self.cfg.layer_rate;
        if !self.playing {
            // Playout begins once the base layer has banked the configured
            // startup buffer (sent bytes count: they are in flight or
            // already delivered).
            let base = self.bufs[0] + self.sent_acc[0];
            if base >= c * self.cfg.startup_buffer_secs {
                self.playing = true;
            }
        }
        let mut stalled = false;
        let mut dropped = 0usize;

        // 1. Settle buffer accounting for the elapsed period. The estimate
        // is a fluid model of a packetized stream and is allowed to carry a
        // small *debt* (down to −underflow_slack) before an underflow is
        // declared; clamping small negatives to zero every tick would mint
        // phantom buffer at exactly the layer consumption rate.
        let consume = if self.playing { c * dt } else { 0.0 };
        let slack = self.cfg.underflow_slack_bytes;
        let mut top_underflow = false;
        for i in 0..self.n_active {
            self.bufs[i] += self.sent_acc[i] - consume;
            self.sent_acc[i] = 0.0;
            if self.bufs[i] < -slack - self.cfg.epsilon_bytes {
                if i == 0 {
                    stalled = true;
                    self.decide(QaEvent::BaseStall { time: now });
                    if laqa_obs::flight::enabled() {
                        laqa_obs::flight::instant("qa.base_stall", now, rate);
                    }
                } else {
                    top_underflow = true;
                }
                // The missed data is skipped; the debt is written off.
                self.bufs[i] = 0.0;
            }
        }
        if top_underflow && self.n_active > 1 {
            self.drop_top_layer(now, rate, DropReason::TopLayerUnderflow);
            dropped += 1;
        }
        // The base layer sliding into debt is itself a critical situation
        // (§2.2): quality yields before continuity. Shed the top layer once
        // the debt crosses half the slack instead of letting the remaining
        // margin burn while upper layers still hold allocation — past this
        // point the whole transmission rate belongs to the base.
        if self.n_active > 1 && self.bufs[0] < -0.5 * slack {
            self.drop_top_layer(now, rate, DropReason::BaseDebt);
            dropped += 1;
        }

        // 2. Phase and decisions.
        let mut added = 0usize;
        let consumption = self.cfg.consumption(self.n_active);
        // Base-layer protection floor: the underflow slack is the margin
        // the stall detector above grants the fluid model, so a base buffer
        // within a quarter-slack of that line is one bad period away from a
        // visible stall. Below the floor, allocation policy bends toward
        // the base layer (see both branches); while filling the trigger is
        // an outright debt, since the state-path allocator already feeds
        // the base first.
        let protect = 0.75 * slack;
        if rate >= consumption {
            self.phase = Phase::Filling;
            // Point the filling path at the current rate and allocate.
            // Ticks run every period on the transport's hot path: the
            // sequences are reset in place and emit only the states their
            // readers reach, and the allocators write into vectors the
            // controller keeps, so once those have reached the session's
            // sizes a tick allocates nothing: the report's
            // `per_layer_rate` is an inline copy.
            Self::reset_seq(
                &self.cfg,
                self.slope,
                &mut self.fill_seq,
                rate,
                self.n_active,
            );
            // Add at most one layer per tick (the paper adds layers one at
            // a time; rationing the ramp also keeps a startup rate
            // overestimate from instantiating the whole encoding at once).
            // This is `adddrop::check_add(..).all_ok()` with the conditions
            // that need only the current path first: the post-add path is
            // grown just on the ticks where they all hold.
            let k_max = self.cfg.k_max;
            let eps = self.cfg.epsilon_bytes;
            let can_add = rate >= (self.n_active as f64 + 1.0) * c
                && self.n_active < self.cfg.max_layers
                && self.fill_seq.satisfied_up_to_k(&self.bufs, k_max, eps)
                && {
                    let next_n = self.n_active + 1;
                    Self::reset_seq(&self.cfg, self.slope, &mut self.next_seq, rate, next_n);
                    self.next_seq
                        .satisfied_up_to_k_post_add(&self.bufs, k_max, eps, self.n_active)
                };
            if can_add {
                self.add_layer(now);
                added += 1;
                // The add required `rate ≥ (n_a+1)·C`: still filling, and
                // the post-add path just grown is the new filling path.
                debug_assert!(rate >= self.cfg.consumption(self.n_active));
                std::mem::swap(&mut self.fill_seq, &mut self.next_seq);
            }
            allocate_filling_into(
                &mut self.fill_seq,
                &self.bufs,
                rate,
                dt,
                eps,
                &mut self.fill_projected,
                &mut self.fill_gain,
                &mut self.alloc_rates,
            );
            // Base-layer protection while filling: the state path invests
            // excess across all layers' targets, but with the base buffer
            // near empty (e.g. right after a deep drop cascade) the §2.3
            // priority applies — base buffering protects against every
            // deeper drop, so the whole excess goes there until the floor
            // is cleared.
            if self.n_active > 1 && self.bufs[0] < 0.0 {
                let c_total = self.cfg.consumption(self.n_active);
                let boost = (rate - c_total).max(0.0);
                for r in self.alloc_rates.iter_mut() {
                    *r = c;
                }
                self.alloc_rates[0] = c + boost;
                self.counts.base_protect_ticks += 1;
            }
        } else {
            self.phase = Phase::Draining;
            // §2.2 drop rule re-checked during the draining phase (rate may
            // keep falling, or the slope estimate may have changed).
            let n_drop = drop_count(self.n_active, c, rate, self.slope, self.total_buffer());
            for _ in 0..n_drop {
                self.drop_top_layer(now, rate, DropReason::InsufficientTotalBuffer);
                dropped += 1;
            }
            // Plan the period's draining; a shortfall is a critical
            // situation (§2.2) resolved by dropping more layers. Shortfalls
            // below half a layer-period are packetization slivers (a layer
            // whose fluid estimate is a few bytes in debt), absorbed by the
            // receiver's real buffer — only a miss of at least half a
            // band's worth of data is a genuine distribution failure.
            let critical = (0.5 * c * dt).max(self.cfg.epsilon_bytes);
            loop {
                self.ensure_drain_seq();
                let shortfall = plan_draining_into(
                    &mut self.drain_seq,
                    &self.bufs,
                    rate,
                    dt,
                    self.cfg.epsilon_bytes,
                    &mut self.drain_bytes,
                    &mut self.alloc_rates,
                );
                if shortfall <= critical || self.n_active == 1 {
                    break;
                }
                self.drop_top_layer(now, rate, DropReason::DistributionShortfall);
                dropped += 1;
            }
            // Base-layer protection: the band profile (§2.4) deliberately
            // serves the top of the stack from the network and drains the
            // bottom from buffers, but once the base buffer has sunk below
            // the underflow slack a further tick of that policy risks a
            // visible stall. Steer send rate to the base layer first, taking
            // it from the top layers' allocations (their buffered remnant is
            // the first thing written off in a drop anyway).
            if self.n_active > 1 && self.bufs[0] < protect {
                let want = (c.min(rate) - self.alloc_rates[0]).max(0.0);
                if want > 0.0 {
                    let mut need = want;
                    for i in (1..self.n_active).rev() {
                        let take = self.alloc_rates[i].min(need);
                        self.alloc_rates[i] -= take;
                        need -= take;
                        if need <= 0.0 {
                            break;
                        }
                    }
                    self.alloc_rates[0] += want - need;
                    self.counts.base_protect_ticks += 1;
                }
            }
        }

        // 3. Refill the packet scheduler's credits.
        self.credits.resize(self.n_active, 0.0);
        for (credit, &r) in self.credits.iter_mut().zip(self.alloc_rates.iter()) {
            // Cap accumulated credit at two periods' worth so a transport
            // that sends slower than allocated cannot bank unbounded credit.
            *credit = (*credit + r * dt).min(2.0 * r.max(c) * dt);
        }

        self.note_phase_transition(now, phase_before);
        self.last_rate = rate;
        if self.phase == Phase::Filling {
            self.peak_rate = self.peak_rate.max(rate);
        }
        if laqa_obs::flight::enabled() {
            // Buffer-level series: the paper's fill/drain trajectories,
            // one sample per allocation period.
            laqa_obs::flight::sample("qa.buf_base", now, self.bufs[0]);
            laqa_obs::flight::sample("qa.buf_total", now, self.total_buffer());
        }
        TickReport {
            phase: self.phase,
            n_active: self.n_active,
            per_layer_rate: LayerAllocation::from_slice(&self.alloc_rates),
            added,
            dropped,
            stalled,
        }
    }

    /// Reset `seq` in place to the state path for `n_active` layers at
    /// `rate` under the controller's geometry parameters.
    fn reset_seq(cfg: &QaConfig, slope: f64, seq: &mut StateSequence, rate: f64, n_active: usize) {
        seq.reset(
            rate,
            n_active,
            cfg.layer_rate,
            slope,
            FILL_HORIZON_BACKOFFS,
            cfg.decrease_factor,
        );
    }

    /// Make `self.drain_seq` current for the present peak rate and layer
    /// count, resetting it in place (reusing its allocations) when stale.
    fn ensure_drain_seq(&mut self) {
        let peak = self.peak_rate.max(self.cfg.consumption(self.n_active));
        if self.drain_stale
            || self.drain_seq.n_active != self.n_active
            || (self.drain_seq.rate - peak).abs() > 1e-9
        {
            Self::reset_seq(
                &self.cfg,
                self.slope,
                &mut self.drain_seq,
                peak,
                self.n_active,
            );
            self.drain_stale = false;
        }
    }

    /// Count and log a phase flip (observability only; no control effect).
    fn note_phase_transition(&mut self, now: f64, before: Phase) {
        if before != self.phase {
            self.counts.phase_transitions += 1;
            if laqa_obs::flight::enabled() {
                // Opens the new QA-state span on this session's timeline
                // track (the exporter closes the previous one here).
                laqa_obs::flight::state(self.phase.label(), now);
            }
        }
    }

    /// Account a decision and keep it until the next `tick` or
    /// `on_backoff` call.
    fn decide(&mut self, event: QaEvent) {
        self.metrics.record(&event);
        self.decisions.push(event);
    }

    fn add_layer(&mut self, now: f64) {
        self.n_active += 1;
        self.bufs.push(0.0);
        self.sent_acc.push(0.0);
        self.credits.push(0.0);
        self.drain_stale = true;
        self.decide(QaEvent::LayerAdded {
            time: now,
            n_active: self.n_active,
        });
        if laqa_obs::flight::enabled() {
            laqa_obs::flight::instant("qa.layer_add", now, self.n_active as f64);
        }
    }

    fn drop_top_layer(&mut self, now: f64, rate: f64, reason: DropReason) {
        if self.n_active <= 1 {
            return;
        }
        let layer = self.n_active - 1;
        let buf_total = self.total_buffer();
        let buf_drop = self.bufs[layer].max(0.0);
        let required = required_recovery_buffer(
            self.n_active,
            self.cfg.layer_rate,
            rate,
            self.slope,
            self.cfg.decrease_factor,
        );
        self.n_active -= 1;
        // The stranded data still plays out, but it no longer contributes
        // to recovery; account it out of the buffer pool (§5 efficiency).
        self.bufs.truncate(self.n_active);
        self.sent_acc.truncate(self.n_active);
        self.credits.truncate(self.n_active);
        self.drain_stale = true;
        self.decide(QaEvent::LayerDropped {
            time: now,
            layer,
            n_active: self.n_active,
            buf_total,
            buf_drop,
            required,
            reason,
        });
        if laqa_obs::flight::enabled() {
            // The timeline instant carries the reason in its static name.
            let instant = match reason {
                DropReason::InsufficientTotalBuffer => "qa.layer_drop.insufficient_total_buffer",
                DropReason::DistributionShortfall => "qa.layer_drop.distribution_shortfall",
                DropReason::TopLayerUnderflow => "qa.layer_drop.top_layer_underflow",
                DropReason::BaseDebt => "qa.layer_drop.base_debt",
            };
            laqa_obs::flight::instant(instant, now, layer as f64);
        }
    }
}

impl Drop for QaController {
    /// Add this controller's counts, and the adds, drops by reason and
    /// base stalls its metrics hold, to the `laqa-obs` view: once, at the
    /// end of its life.
    fn drop(&mut self) {
        use DropReason::*;
        let (c, m) = (self.counts, &self.metrics);
        let [buffer, shortfall, underflow, debt] = [
            InsufficientTotalBuffer,
            DistributionShortfall,
            TopLayerUnderflow,
            BaseDebt,
        ]
        .map(|reason| m.drops_for(reason) as u64);
        laqa_obs::add_counts(&[
            ("qa.ticks", c.ticks),
            ("qa.backoffs", c.backoffs),
            ("qa.base_protect_ticks", c.base_protect_ticks),
            ("qa.phase_transitions", c.phase_transitions),
            ("qa.layer_adds", m.adds() as u64),
            ("qa.layer_drops", m.drops() as u64),
            ("qa.layer_drops.insufficient_total_buffer", buffer),
            ("qa.layer_drops.distribution_shortfall", shortfall),
            ("qa.layer_drops.top_layer_underflow", underflow),
            ("qa.layer_drops.base_debt", debt),
            ("qa.base_stalls", m.stalls() as u64),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 10_000.0;

    fn cfg() -> QaConfig {
        QaConfig {
            layer_rate: C,
            max_layers: 8,
            k_max: 2,
            ..QaConfig::default()
        }
    }

    fn controller() -> QaController {
        QaController::new(cfg()).unwrap()
    }

    /// Drive the controller like a transport would: ticks at `dt`, sending
    /// exactly the allocated bytes per layer.
    fn drive(ctl: &mut QaController, now: &mut f64, rate: f64, dt: f64) -> TickReport {
        let report = ctl.tick(*now, rate, dt);
        for (layer, &r) in report.per_layer_rate.iter().enumerate() {
            ctl.on_packet_delivered(layer, r * dt);
        }
        *now += dt;
        report
    }

    #[test]
    fn starts_with_initial_layers() {
        let ctl = controller();
        assert_eq!(ctl.n_active(), 1);
        assert_eq!(ctl.phase(), Phase::Filling);
        assert_eq!(ctl.total_buffer(), 0.0);
    }

    #[test]
    fn filling_builds_buffers() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        for _ in 0..20 {
            drive(&mut ctl, &mut now, 15_000.0, 0.1);
        }
        assert!(
            ctl.total_buffer() > 0.0,
            "buffers should grow in filling phase"
        );
        assert_eq!(ctl.phase(), Phase::Filling);
    }

    #[test]
    fn adds_layer_when_conditions_met() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        let mut added_total = 0;
        // Plenty of bandwidth for two layers; buffers will fill and the
        // second layer should be added.
        for _ in 0..600 {
            let r = drive(&mut ctl, &mut now, 25_000.0, 0.1);
            added_total += r.added;
            if added_total > 0 {
                break;
            }
        }
        assert!(added_total >= 1, "expected a layer add");
        assert_eq!(ctl.n_active(), 2);
        assert_eq!(ctl.metrics().adds(), added_total);
    }

    #[test]
    fn no_add_without_bandwidth_headroom() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        // 15 KB/s: enough to fill base-layer buffers forever but never
        // enough instantaneous rate for a second layer (needs 20 KB/s).
        for _ in 0..1000 {
            let r = drive(&mut ctl, &mut now, 15_000.0, 0.1);
            assert_eq!(r.added, 0);
        }
        assert_eq!(ctl.n_active(), 1);
    }

    #[test]
    fn backoff_with_no_buffer_drops_layers() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        // Force three active layers with a generous rate.
        for _ in 0..3000 {
            drive(&mut ctl, &mut now, 35_000.0, 0.1);
            if ctl.n_active() == 3 {
                break;
            }
        }
        assert_eq!(ctl.n_active(), 3);
        // Artificially wipe the buffers, then back off hard: the §2.2 rule
        // must shed layers.
        for b in ctl.bufs.iter_mut() {
            *b = 0.0;
        }
        ctl.on_backoff(now, 10_000.0);
        assert!(ctl.n_active() < 3, "drop rule should shed layers");
        assert!(ctl.metrics().drops() > 0);
    }

    #[test]
    fn draining_steers_rate_to_a_starving_base_layer() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        for _ in 0..3000 {
            drive(&mut ctl, &mut now, 35_000.0, 0.1);
            if ctl.n_active() == 3 {
                break;
            }
        }
        assert_eq!(ctl.n_active(), 3);
        // Invert the distribution: base nearly dry (below the underflow
        // slack), upper layers holding plenty. The band profile alone would
        // keep draining the base toward a stall.
        ctl.bufs[0] = 500.0;
        ctl.bufs[1] = 5_000.0;
        ctl.bufs[2] = 20_000.0;
        let report = ctl.tick(now, 25_000.0, 0.1);
        assert_eq!(report.phase, Phase::Draining);
        assert_eq!(ctl.n_active(), 3);
        let alloc = ctl.allocation();
        assert!(
            (alloc[0] - C).abs() < 1e-6,
            "base must get its full consumption rate, got {alloc:?}"
        );
        assert!(
            alloc[2] < C - 1e-6,
            "the boost comes out of the top layer, got {alloc:?}"
        );
        assert!(
            alloc.iter().all(|&r| r >= 0.0),
            "no negative rates: {alloc:?}"
        );
    }

    #[test]
    fn backoff_with_ample_buffer_keeps_layers() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        for _ in 0..3000 {
            drive(&mut ctl, &mut now, 35_000.0, 0.1);
            if ctl.n_active() == 3 {
                break;
            }
        }
        assert_eq!(ctl.n_active(), 3);
        // Long filling at high rate banks plenty of buffering.
        for _ in 0..400 {
            drive(&mut ctl, &mut now, 35_000.0, 0.1);
        }
        ctl.on_backoff(now, 22_500.0);
        assert_eq!(ctl.n_active(), 3, "buffers should absorb a single backoff");
        assert_eq!(ctl.phase(), Phase::Draining);
    }

    #[test]
    fn draining_consumes_buffers_and_recovers() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        for _ in 0..3000 {
            drive(&mut ctl, &mut now, 35_000.0, 0.1);
            if ctl.n_active() == 3 {
                break;
            }
        }
        for _ in 0..400 {
            drive(&mut ctl, &mut now, 35_000.0, 0.1);
        }
        let buf_before = ctl.total_buffer();
        ctl.on_backoff(now, 22_500.0);
        // Linear recovery at S = 25 KB/s²; consumption 30 KB/s.
        let mut rate = 22_500.0;
        let dt = 0.1;
        while rate < 30_000.0 {
            let r = drive(&mut ctl, &mut now, rate, dt);
            assert_eq!(r.phase, Phase::Draining);
            assert!(!r.stalled, "must not stall with ample buffers");
            rate += 25_000.0 * dt;
        }
        assert!(ctl.total_buffer() < buf_before, "draining must use buffer");
        assert_eq!(ctl.n_active(), 3);
        let r = drive(&mut ctl, &mut now, rate, dt);
        assert_eq!(r.phase, Phase::Filling);
    }

    #[test]
    fn credit_scheduler_tracks_allocation() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        for _ in 0..3000 {
            drive(&mut ctl, &mut now, 35_000.0, 0.1);
            if ctl.n_active() == 3 {
                break;
            }
        }
        // One tick, then draw packets: per-layer counts should approximate
        // the allocation proportions.
        let report = ctl.tick(now, 35_000.0, 1.0);
        let pkt = 500.0;
        let mut counts = vec![0usize; ctl.n_active()];
        let total_bytes: f64 = report.per_layer_rate.iter().sum::<f64>() * 1.0;
        let n_pkts = (total_bytes / pkt) as usize;
        for _ in 0..n_pkts {
            let layer = ctl.next_packet_layer(pkt);
            counts[layer] += 1;
        }
        for (i, &cnt) in counts.iter().enumerate() {
            let want = report.per_layer_rate[i] * 1.0 / pkt;
            assert!(
                (cnt as f64 - want).abs() <= 2.0,
                "layer {i}: {cnt} packets vs allocation {want}"
            );
        }
    }

    #[test]
    fn only_delivered_bytes_are_credited() {
        // Losses are never credited: a transport that sends X but only has
        // Y < X confirmed delivered yields a buffer estimate based on Y.
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        for _ in 0..50 {
            let report = ctl.tick(now, 20_000.0, 0.1);
            for (layer, &r) in report.per_layer_rate.iter().enumerate() {
                // 10% of the bytes are lost in transit: never delivered.
                ctl.on_packet_delivered(layer, 0.9 * r * 0.1);
            }
            now += 0.1;
        }
        // Compare to a lossless twin.
        let mut clean = controller();
        clean.set_slope(25_000.0);
        let mut now2 = 0.0;
        for _ in 0..50 {
            drive(&mut clean, &mut now2, 20_000.0, 0.1);
        }
        assert!(
            ctl.total_buffer() < clean.total_buffer(),
            "lossy path must credit less: {} vs {}",
            ctl.total_buffer(),
            clean.total_buffer()
        );
    }

    #[test]
    fn base_layer_stall_recorded_not_dropped() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        // Bank just past the startup buffer, then starve the base layer:
        // one second of consumption against ~0.6 s of data must stall.
        ctl.on_packet_delivered(0, 6_000.0);
        let _ = ctl.tick(0.0, 0.0, 0.0);
        let r = ctl.tick(1.0, 0.0, 1.0);
        assert!(r.stalled);
        assert_eq!(ctl.n_active(), 1);
        assert_eq!(ctl.metrics().stalls(), 1);
        assert_eq!(ctl.buffers()[0], 0.0);
    }

    #[test]
    fn playout_waits_for_startup_buffer() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        // Tiny trickle below the startup threshold: no consumption charged,
        // buffers only grow.
        ctl.on_packet_delivered(0, 1_000.0);
        let r = ctl.tick(0.5, 2_000.0, 0.5);
        assert!(!r.stalled);
        assert!((ctl.buffers()[0] - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn drop_events_capture_efficiency_inputs() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        for _ in 0..3000 {
            drive(&mut ctl, &mut now, 35_000.0, 0.1);
            if ctl.n_active() == 3 {
                break;
            }
        }
        for b in ctl.bufs.iter_mut() {
            *b = 0.0;
        }
        ctl.bufs[0] = 1_000.0;
        ctl.on_backoff(now, 5_000.0);
        let drops: Vec<_> = ctl
            .decisions()
            .iter()
            .filter(|e| matches!(e, QaEvent::LayerDropped { .. }))
            .collect();
        assert!(!drops.is_empty());
        if let QaEvent::LayerDropped {
            buf_total,
            buf_drop,
            ..
        } = drops[0]
        {
            assert!(*buf_total >= *buf_drop);
        }
        assert!(ctl.metrics().efficiency().is_some());
    }

    #[test]
    fn never_drops_base_layer() {
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        ctl.on_backoff(0.0, 0.0);
        assert_eq!(ctl.n_active(), 1);
        let r = ctl.tick(0.1, 0.0, 0.1);
        assert_eq!(r.n_active, 1);
    }

    #[test]
    fn sawtooth_cycles_keep_quality_stable_once_buffered() {
        // A clean periodic sawtooth between 14 and 28 KB/s: two layers
        // (20 KB/s) are sustainable — each cycle banks more excess than a
        // backoff drains — while a third layer can never be added (peaks
        // stay below 30 KB/s). After warm-up the layer count must freeze.
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        let dt = 0.05;
        let mut rate: f64 = 14_000.0;
        let mut changes_after_warmup = 0;
        let warmup = 30.0;
        for _ in 0..6000 {
            if rate >= 28_000.0 {
                rate /= 2.0;
                ctl.on_backoff(now, rate);
            }
            let r = drive(&mut ctl, &mut now, rate, dt);
            if now > warmup {
                changes_after_warmup += r.added + r.dropped;
            }
            rate += 25_000.0 * dt;
        }
        assert_eq!(ctl.n_active(), 2, "should sustain exactly 2 layers");
        assert_eq!(
            changes_after_warmup, 0,
            "quality should be stable after warm-up"
        );
        assert_eq!(ctl.metrics().stalls(), 0);
    }

    #[test]
    fn gentler_decrease_factor_adds_layers_sooner() {
        // A controller told its transport backs off to 0.85·R anticipates
        // far smaller deficit triangles than one bracing for halvings, so
        // at the same steady rate it clears the §3.1 add condition first.
        let ticks_to_two_layers = |factor: f64| -> usize {
            let mut ctl = QaController::new(QaConfig {
                decrease_factor: factor,
                ..cfg()
            })
            .unwrap();
            ctl.set_slope(25_000.0);
            let mut now = 0.0;
            for i in 0..5000 {
                drive(&mut ctl, &mut now, 25_000.0, 0.1);
                if ctl.n_active() == 2 {
                    return i;
                }
            }
            usize::MAX
        };
        let t50 = ticks_to_two_layers(0.5);
        let t85 = ticks_to_two_layers(0.85);
        assert!(t50 < usize::MAX, "0.5 controller must eventually add");
        assert!(
            t85 < t50,
            "0.85 controller should add sooner: {t85} vs {t50} ticks"
        );
    }

    #[test]
    fn modem_link_effect_third_layer_part_time() {
        // §3.1's 2.9-layer-link argument: on a link whose average is between
        // 2 and 3 layers, the buffer-based add rule still streams the third
        // layer part of the time (the average-bandwidth rule never would).
        let mut ctl = controller();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        let dt = 0.05;
        let mut rate: f64 = 19_000.0;
        let mut three_layer_time = 0.0;
        let mut total_time = 0.0;
        for _ in 0..20_000 {
            if rate >= 38_000.0 {
                rate /= 2.0;
                ctl.on_backoff(now, rate);
            }
            let r = drive(&mut ctl, &mut now, rate, dt);
            if now > 30.0 {
                total_time += dt;
                if r.n_active >= 3 {
                    three_layer_time += dt;
                }
            }
            rate += 25_000.0 * dt;
        }
        // Average rate is 28.5 KB/s = 2.85 layers; the third layer should be
        // up a meaningful fraction of the time.
        assert!(
            three_layer_time > 0.2 * total_time,
            "third layer up only {:.0}% of the time",
            100.0 * three_layer_time / total_time
        );
        assert_eq!(ctl.metrics().stalls(), 0, "base layer must never stall");
    }
}

#[cfg(test)]
mod boundary_tests {
    use super::*;
    use crate::config::QaConfig;

    #[test]
    fn add_blocked_at_encoding_maximum() {
        let cfg = QaConfig {
            layer_rate: 10_000.0,
            max_layers: 2,
            ..QaConfig::default()
        };
        let mut ctl = QaController::new(cfg).unwrap();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        for _ in 0..2000 {
            let r = ctl.tick(now, 100_000.0, 0.1);
            for (layer, &rate) in r.per_layer_rate.iter().enumerate() {
                ctl.on_packet_delivered(layer, rate * 0.1);
            }
            now += 0.1;
        }
        assert_eq!(ctl.n_active(), 2, "must stop at max_layers");
    }

    #[test]
    fn rate_exactly_at_consumption_is_filling() {
        let mut ctl = QaController::new(QaConfig::default()).unwrap();
        ctl.set_slope(25_000.0);
        let r = ctl.tick(0.0, 10_000.0, 0.1); // 1 layer * 10 KB/s exactly
        assert_eq!(r.phase, Phase::Filling);
        // At exact parity there is no excess: allocation == consumption.
        assert!((r.per_layer_rate[0] - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_accessor_matches_last_report() {
        let mut ctl = QaController::new(QaConfig::default()).unwrap();
        ctl.set_slope(25_000.0);
        let r = ctl.tick(0.0, 25_000.0, 0.1);
        assert_eq!(ctl.allocation(), r.per_layer_rate.as_slice());
    }

    #[test]
    fn report_shrinks_on_a_drop_and_compares_only_live_rates() {
        let mut ctl = QaController::new(QaConfig::default()).unwrap();
        ctl.set_slope(25_000.0);
        let mut now = 0.0;
        let mut before = ctl.tick(now, 35_000.0, 0.1);
        while before.n_active < 3 {
            for (layer, &rate) in before.per_layer_rate.iter().enumerate() {
                ctl.on_packet_delivered(layer, rate * 0.1);
            }
            now += 0.1;
            before = ctl.tick(now, 35_000.0, 0.1);
        }
        assert_eq!(before.per_layer_rate.len(), 3);
        // Empty buffers and a collapsed rate: the drop rule sheds layers.
        ctl.bufs.iter_mut().for_each(|b| *b = 0.0);
        ctl.on_backoff(now, 5_000.0);
        let after = ctl.tick(now + 0.1, 5_000.0, 0.1);
        assert!(after.n_active < 3, "the backoff must drop a layer");
        assert_eq!(after.per_layer_rate.len(), after.n_active);
        assert_eq!(after.per_layer_rate.as_slice(), ctl.allocation());
        // A stale rate past the live length changes neither equality nor
        // the debug text.
        let mut stale = after.per_layer_rate;
        stale.rates[after.n_active] = 99.0;
        assert_eq!(stale, after.per_layer_rate);
        assert_eq!(format!("{stale:?}"), format!("{:?}", ctl.allocation()));
        assert_ne!(before.per_layer_rate, after.per_layer_rate);
    }

    #[test]
    fn controller_refuses_more_layers_than_a_report_holds() {
        let cfg = QaConfig {
            max_layers: MAX_LAYERS + 1,
            ..QaConfig::default()
        };
        assert_eq!(
            QaController::new(cfg).unwrap_err(),
            ConfigError::TooManyLayers
        );
    }

    #[test]
    fn adversarial_inputs_never_panic_or_kill_base_layer() {
        // Fault-injected transports can report collapsed, negative, huge or
        // non-finite rates and degenerate tick intervals. Whatever arrives,
        // the controller must resolve it by dropping layers (never below the
        // base layer), keep every estimate finite, and never panic.
        let mut ctl = QaController::new(QaConfig {
            layer_rate: 10_000.0,
            max_layers: 8,
            k_max: 2,
            ..QaConfig::default()
        })
        .unwrap();
        let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let mut rand = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64 / (1u64 << 24) as f64
        };
        let hostile = |u: f64, scale: f64| match (u * 8.0) as u32 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -scale,
            4 => 0.0,
            5 => scale * 1e9,
            _ => u * scale,
        };
        let mut now = 0.0;
        for i in 0..20_000 {
            match (rand() * 4.0) as u32 {
                0 => ctl.on_backoff(now, hostile(rand(), 60_000.0)),
                1 => {
                    let rate = hostile(rand(), 60_000.0);
                    let dt = hostile(rand(), 0.5);
                    let r = ctl.tick(now, rate, dt);
                    assert!(
                        r.per_layer_rate.iter().all(|x| x.is_finite() && *x >= 0.0),
                        "op {i}: allocation corrupted: {:?}",
                        r.per_layer_rate
                    );
                    now += 0.01;
                }
                2 => ctl.on_packet_delivered((rand() * 10.0) as usize, hostile(rand(), 50_000.0)),
                _ => {
                    ctl.set_slope(hostile(rand(), 25_000.0));
                    let _ = ctl.next_packet_layer(1_000.0);
                }
            }
            assert!(ctl.n_active() >= 1, "op {i}: base layer must survive");
            assert!(
                ctl.buffers().iter().all(|b| b.is_finite()),
                "op {i}: buffer estimate corrupted: {:?}",
                ctl.buffers()
            );
        }
        // After the storm the controller still works on sane inputs.
        ctl.set_slope(25_000.0);
        let r = ctl.tick(now, 25_000.0, 0.1);
        assert!(r.n_active >= 1);
        assert!(r.per_layer_rate.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn non_finite_slope_falls_back_to_minimum() {
        let mut ctl = QaController::new(QaConfig::default()).unwrap();
        ctl.set_slope(f64::NAN);
        let r = ctl.tick(0.0, 25_000.0, 0.1);
        assert!(r.per_layer_rate.iter().all(|x| x.is_finite()));
        ctl.set_slope(f64::INFINITY);
        let r = ctl.tick(0.1, 25_000.0, 0.1);
        assert!(r.per_layer_rate.iter().all(|x| x.is_finite()));
    }
}
