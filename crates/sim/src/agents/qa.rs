//! The quality-adaptive streaming pair: a source that runs the
//! [`laqa_core::QaController`] over any congestion controller (see
//! [`RateController`]) and a layered-receiver sink — over RAP, the system
//! under test in every figure of the paper's §5.

use super::rap::{count_fire, rearm, send_ack};
use crate::engine::{Agent, Ctx};
use crate::packet::{AgentId, Packet, PacketKind, Route};
use laqa_core::metrics::{DropReason, QaEvent};
use laqa_core::{QaConfig, QaController};
use laqa_layered::{LayeredEncoding, LayeredReceiver};
use laqa_rap::{RapEvent, RapReceiverState, RateController};
use laqa_trace::{Section, TimeSeries, TraceHasher};
use std::iter;

/// Per-run traces recorded by the QA source (the figure-11 panels; the
/// consumption and drain-rate panels are derived, see
/// [`QaTraces::consumption_and_drain`]): one sample per allocation tick in
/// every series, so all of them carry the same times; and the
/// controller's decision log.
#[derive(Debug, Clone, Default)]
pub struct QaTraces {
    /// Total transmission rate (bytes/s) per tick.
    pub tx_rate: TimeSeries,
    /// Active layer count per tick.
    pub n_active: TimeSeries,
    /// Allocated send rate per layer per tick (`layer_rate_<i>`).
    pub layer_rate: Vec<TimeSeries>,
    /// Sender-estimated receiver buffer per layer per tick (`buffer_<i>`,
    /// bytes).
    pub buffer: Vec<TimeSeries>,
    /// Every decision the controller made (layer adds, layer drops, base
    /// stalls), in order.
    pub decisions: Vec<QaEvent>,
}

/// One empty series per layer, named `<prefix><i>`.
fn per_layer(prefix: &str, layers: usize) -> Vec<TimeSeries> {
    (0..layers)
        .map(|i| TimeSeries::new(format!("{prefix}{i}")))
        .collect()
}

/// Append the sample at `t` to each of `series`: the `i`-th of `values`,
/// or `+0.0` past its end.
fn push_each(series: &mut [TimeSeries], t: f64, values: impl Iterator<Item = f64>) {
    for (s, v) in series.iter_mut().zip(values.chain(iter::repeat(0.0))) {
        s.push(t, v);
    }
}

impl QaTraces {
    /// Empty trace set for `max_layers` layers.
    pub fn new(max_layers: usize) -> Self {
        QaTraces {
            tx_rate: TimeSeries::new("tx_rate"),
            n_active: TimeSeries::new("n_active"),
            layer_rate: per_layer("layer_rate_", max_layers),
            buffer: per_layer("buffer_", max_layers),
            decisions: Vec::new(),
        }
    }

    /// Append the tick at `t`: every layer past the end of `rates` or
    /// `buffers` records `+0.0`.
    fn record(
        &mut self,
        t: f64,
        tx_rate: f64,
        n_active: f64,
        rates: impl IntoIterator<Item = f64>,
        buffers: impl IntoIterator<Item = f64>,
    ) {
        self.tx_rate.push(t, tx_rate);
        self.n_active.push(t, n_active);
        push_each(&mut self.layer_rate, t, rates.into_iter());
        push_each(&mut self.buffer, t, buffers.into_iter());
    }

    /// The aggregate consumption `n_active·C` and the per-layer drain
    /// rates (`max(0, C − alloc)` for active layers, else 0), derived
    /// tick by tick from `n_active` and `layer_rate` for layer rate `c`.
    pub fn consumption_and_drain(&self, c: f64) -> (TimeSeries, Vec<TimeSeries>) {
        let n_active = &self.n_active.points;
        let consumption = TimeSeries {
            name: "consumption".into(),
            points: n_active.iter().map(|&(t, n)| (t, n * c)).collect(),
        };
        let drain = self.layer_rate.iter().enumerate().map(|(i, rate)| {
            let ticks = n_active.iter().zip(&rate.points);
            let points = ticks.map(|(&(t, n), &(_, a))| {
                let active = (i as f64) < n;
                (t, if active { (c - a).max(0.0) } else { 0.0 })
            });
            TimeSeries {
                name: format!("drain_rate_{i}"),
                points: points.collect(),
            }
        });
        (consumption, drain.collect())
    }
}

/// The QA source's streamed trace digests: one [`Section`] per stream,
/// fed as the run produces it whether or not [`QaTraces`] keeps its rows,
/// so a session that stores nothing still digests everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QaSections {
    /// Every decision the controller made, in order (see [`fold_decision`]).
    pub decisions: Section,
    /// `(time, tx_rate)` per tick.
    pub tx_rate: Section,
    /// `(time, n_active)` per tick.
    pub n_active: Section,
}

/// Fold one controller decision into `h`: a tag (1 add, 2 drop, 3 base
/// stall), then the event's fields in declaration order, a drop's reason
/// as a code. Both underflow sites code as the one `2` they shared before
/// each had its own reason, so the split moved no digest.
pub fn fold_decision(h: &mut TraceHasher, event: &QaEvent) {
    match *event {
        QaEvent::LayerAdded { time, n_active } => {
            h.u64(1).f64(time).u64(n_active as u64);
        }
        QaEvent::LayerDropped {
            time,
            layer,
            n_active,
            buf_total,
            buf_drop,
            required,
            reason,
        } => {
            let code = match reason {
                DropReason::InsufficientTotalBuffer => 0,
                DropReason::DistributionShortfall => 1,
                DropReason::TopLayerUnderflow | DropReason::BaseDebt => 2,
            };
            h.u64(2)
                .f64(time)
                .u64(layer as u64)
                .u64(n_active as u64)
                .f64(buf_total)
                .f64(buf_drop)
                .f64(required)
                .u64(code);
        }
        QaEvent::BaseStall { time } => {
            h.u64(3).f64(time);
        }
    }
}

/// Quality-adaptive video source over any congestion controller (see
/// [`RateController`]). Over [`laqa_rap::RapSender`] it is the paper's
/// QA-over-RAP system; any other controller (BBR-style, NADA-style,
/// ACK-clocked window) drives the identical quality-adaptation machinery.
pub struct QaSourceAgent {
    rap: Box<dyn RateController>,
    qa: QaController,
    /// Sink agent.
    pub dst: AgentId,
    /// Forward route.
    pub route: Route,
    /// Flow id.
    pub flow: u32,
    packet_size: u32,
    tick_dt: f64,
    next_tick: f64,
    armed_at: f64,
    /// Time the flow starts sending (seconds).
    pub start_at: f64,
    /// Recorded traces (figure panels); `None` (the default, see
    /// [`with_traces`](Self::with_traces)) keeps no rows.
    pub traces: Option<QaTraces>,
    /// Digests of what `traces` would hold, always fed.
    pub(crate) sections: QaSections,
    /// Reused buffer for draining sender events without reallocating.
    ev_scratch: Vec<RapEvent>,
}

impl QaSourceAgent {
    /// New QA source over `controller`, sending `packet_size`-byte packets
    /// and allocating every `tick_dt` seconds, recording no trace rows.
    /// The controller should be constructed with its clock at `0.0`; a
    /// delayed `start_at` restarts it at the join time via
    /// [`RateController::restart`].
    pub fn new(
        dst: AgentId,
        route: impl Into<Route>,
        flow: u32,
        controller: Box<dyn RateController>,
        packet_size: u32,
        qa_cfg: QaConfig,
        tick_dt: f64,
    ) -> Self {
        QaSourceAgent {
            rap: controller,
            qa: QaController::new(qa_cfg).expect("valid QA config"),
            dst,
            route: route.into(),
            flow,
            packet_size,
            tick_dt,
            next_tick: 0.0,
            armed_at: f64::NEG_INFINITY,
            start_at: 0.0,
            traces: None,
            sections: QaSections::default(),
            ev_scratch: Vec::new(),
        }
    }

    /// Record every figure panel ([`QaTraces`]) as well.
    pub fn with_traces(mut self) -> Self {
        self.traces = Some(QaTraces::new(self.qa.config().max_layers));
        self
    }

    /// The controller (metrics, buffers) for post-run inspection.
    pub fn qa(&self) -> &QaController {
        &self.qa
    }

    fn drain_events(&mut self, now: f64) {
        let mut events = std::mem::take(&mut self.ev_scratch);
        self.rap.drain_events_into(&mut events);
        for e in events.drain(..) {
            match e {
                RapEvent::Backoff { rate, .. } => {
                    self.qa.on_backoff(now, rate);
                    self.log_decisions();
                }
                RapEvent::PacketAcked { size, tag, .. } => {
                    self.qa.on_packet_delivered(tag as usize, size);
                }
                RapEvent::PacketLost { .. } | RapEvent::RateIncrease { .. } => {}
            }
        }
        self.ev_scratch = events;
    }

    /// Digest, and keep if recording, the latest controller call's
    /// decisions.
    fn log_decisions(&mut self) {
        for event in self.qa.decisions() {
            fold_decision(self.sections.decisions.item(), event);
        }
        if let Some(traces) = &mut self.traces {
            traces.decisions.extend_from_slice(self.qa.decisions());
        }
    }

    fn record_tick(&mut self, now: f64, report: &laqa_core::TickReport) {
        let (tx_rate, n_active) = (self.rap.tick_rate(), report.n_active as f64);
        self.sections.tx_rate.sample(now, tx_rate);
        self.sections.n_active.sample(now, n_active);
        let Some(traces) = &mut self.traces else {
            return;
        };
        let rates = report.per_layer_rate.iter().copied();
        // Report the drainable buffer (debt shows as empty, matching what
        // the receiver actually holds).
        let buffers = self.qa.buffers().iter().map(|b| b.max(0.0));
        traces.record(now, tx_rate, n_active, rates, buffers);
    }

    fn pump(&mut self, ctx: &mut Ctx) {
        self.rap.poll_timers(ctx.now);
        self.drain_events(ctx.now);
        while ctx.now + 1e-12 >= self.next_tick {
            let now = self.next_tick;
            self.qa.set_slope(self.rap.slope());
            let report = self.qa.tick(now, self.rap.tick_rate(), self.tick_dt);
            self.log_decisions();
            self.record_tick(now, &report);
            self.next_tick += self.tick_dt;
        }
        while ctx.now >= self.rap.next_send_time(ctx.now) {
            let size = self.packet_size as f64;
            let layer = self.qa.next_packet_layer(size);
            let seq = self.rap.register_send(ctx.now, size, layer as u32);
            ctx.send(Packet {
                flow: self.flow,
                size: self.packet_size,
                kind: PacketKind::RapData {
                    seq,
                    layer: layer as u8,
                    n_active: self.qa.n_active() as u8,
                },
                dst: self.dst,
                route: self.route,
            });
        }
        let next = self
            .rap
            .next_send_time(ctx.now)
            .min(self.rap.next_timer())
            .min(self.next_tick);
        rearm(ctx, &mut self.armed_at, next);
    }
}

impl Agent for QaSourceAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        if self.start_at > 0.0 {
            self.rap.restart(self.start_at);
            self.next_tick = self.start_at;
            ctx.set_timer_at(self.start_at, 0);
        } else {
            self.pump(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        if let PacketKind::RapAck(info) = pkt.kind {
            self.rap.on_ack(ctx.now, info);
            self.drain_events(ctx.now);
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        count_fire(ctx, self.armed_at);
        self.pump(ctx);
    }
}

/// Quality-adaptive sink: RAP receiver + layered playout engine.
pub struct QaSinkAgent {
    rap_rx: RapReceiverState,
    /// Playout ground truth.
    pub receiver: LayeredReceiver,
    /// Source agent id.
    pub src: AgentId,
    /// Reverse route.
    pub reverse_route: Route,
    /// Flow id.
    pub flow: u32,
    adv_dt: f64,
    /// Receiver-observed buffer per layer over time (figure 11 bottom
    /// panel, ground truth); `None` (the default, see
    /// [`with_buffer_trace`](Self::with_buffer_trace)) records no rows.
    pub buffer_trace: Option<Vec<TimeSeries>>,
    /// Underflow events observed during playout, per advance step.
    pub underflows: u64,
}

impl QaSinkAgent {
    /// New sink for `encoding`, advancing playout every `adv_dt` seconds
    /// and recording no rows.
    ///
    /// `startup_secs` should include a margin over the server's
    /// `startup_buffer_secs`: the server only learns of deliveries an RTT
    /// later, so a client that starts the moment its own threshold is met
    /// runs ahead of the server's accounting by about one RTT of
    /// consumption (use ~2x the server's value).
    pub fn new(
        src: AgentId,
        reverse_route: impl Into<Route>,
        flow: u32,
        encoding: LayeredEncoding,
        startup_secs: f64,
        adv_dt: f64,
    ) -> Self {
        QaSinkAgent {
            rap_rx: RapReceiverState::new(),
            receiver: LayeredReceiver::new(encoding, 1, startup_secs),
            src,
            reverse_route: reverse_route.into(),
            flow,
            adv_dt,
            buffer_trace: None,
            underflows: 0,
        }
    }

    /// Record the receiver's per-layer buffers (`rx_buffer_<i>`) as well.
    pub fn with_buffer_trace(mut self) -> Self {
        let layers = self.receiver.n_layers();
        self.buffer_trace = Some(per_layer("rx_buffer_", layers));
        self
    }

    /// Arrivals its RAP receiver could no longer track (see
    /// [`RapReceiverState::beyond_horizon`]).
    pub fn beyond_horizon(&self) -> u64 {
        self.rap_rx.beyond_horizon()
    }
}

impl Agent for QaSinkAgent {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer_after(self.adv_dt, 1);
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        if let PacketKind::RapData {
            seq,
            layer,
            n_active,
        } = pkt.kind
        {
            self.receiver
                .on_data(ctx.now, layer as usize, pkt.size as f64);
            self.receiver.set_active_layers(n_active as usize);
            let ack = PacketKind::RapAck(self.rap_rx.on_data(seq));
            send_ack(ctx, self.flow, ack, self.src, self.reverse_route);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token == 1 {
            self.underflows += self.receiver.advance(self.adv_dt) as u64;
            for (i, series) in self.buffer_trace.iter_mut().flatten().enumerate() {
                series.push(ctx.now, self.receiver.buffered(i));
            }
            ctx.set_timer_after(self.adv_dt, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;
    use crate::link::LinkConfig;
    use laqa_rap::{RapConfig, RapSender, WindowConfig, WindowSender};

    /// One QA flow over `controller` with 500-byte packets through a
    /// bottleneck, recording its traces, its sink the agent `sink` makes
    /// of a [`QaSinkAgent`]; returns (world, src id, sink id).
    fn run_flow(
        seed: u64,
        bw: f64,
        queue: usize,
        dur: f64,
        controller: Box<dyn RateController>,
        sink: fn(QaSinkAgent) -> Box<dyn Agent>,
    ) -> (World, AgentId, AgentId) {
        let mut w = World::new(seed);
        let fwd = w.add_link(LinkConfig {
            bandwidth: bw,
            delay: 0.02,
            queue_packets: queue,
            ..LinkConfig::default()
        });
        let rev = w.add_link(LinkConfig::uncongested());
        let sink_id = 0;
        let src_id = 1;
        let qa_cfg = QaConfig {
            layer_rate: 5_000.0,
            max_layers: 6,
            k_max: 2,
            underflow_slack_bytes: 2_000.0,
            ..QaConfig::default()
        };
        let encoding = LayeredEncoding::linear(qa_cfg.max_layers, qa_cfg.layer_rate).unwrap();
        assert_eq!(
            w.add_agent(sink(QaSinkAgent::new(
                src_id,
                vec![rev],
                1,
                encoding,
                2.0 * qa_cfg.startup_buffer_secs,
                0.05,
            ))),
            sink_id
        );
        let src = QaSourceAgent::new(sink_id, vec![fwd], 1, controller, 500, qa_cfg, 0.05);
        assert_eq!(w.add_agent(Box::new(src.with_traces())), src_id);
        w.run_until(dur);
        (w, src_id, sink_id)
    }

    /// [`run_flow`] over RAP.
    fn qa_flow(
        bw: f64,
        queue: usize,
        dur: f64,
        sink: fn(QaSinkAgent) -> Box<dyn Agent>,
    ) -> (World, AgentId, AgentId) {
        let rap_cfg = RapConfig {
            packet_size: 500.0,
            initial_rate: 2_000.0,
            initial_rtt: 0.08,
            max_rate: 45_000.0,
        };
        let controller = Box::new(RapSender::new(rap_cfg, 0.0));
        run_flow(17, bw, queue, dur, controller, sink)
    }

    /// [`run_flow`] over the ACK-clocked AIMD window (the paper's §7 "other
    /// AIMD schemes" port).
    fn window_flow(bw: f64, dur: f64) -> (World, AgentId, AgentId) {
        let cc = WindowConfig {
            packet_size: 500.0,
            initial_rtt: 0.06,
            max_cwnd: 60.0,
        };
        let controller = Box::new(WindowSender::new(cc, 0.0));
        run_flow(23, bw, 20, dur, controller, |s| Box::new(s))
    }

    /// Mean active-layer count after `after` seconds.
    fn mean_layers(w: &World, src: AgentId, after: f64) -> f64 {
        let s: &QaSourceAgent = w.agent(src).unwrap();
        let steady: Vec<f64> = s
            .traces
            .as_ref()
            .expect("the flow records its traces")
            .n_active
            .points
            .iter()
            .filter(|&&(t, _)| t > after)
            .map(|&(_, v)| v)
            .collect();
        steady.iter().sum::<f64>() / steady.len() as f64
    }

    #[test]
    fn window_cc_qa_adapts_without_stalling() {
        let (w, src, sink) = window_flow(25_000.0, 30.0);
        let mean = mean_layers(&w, src, 12.0);
        assert!((2.0..=5.9).contains(&mean), "mean layers {mean}");
        let s: &QaSourceAgent = w.agent(src).unwrap();
        assert!(
            s.qa().counts().backoffs > 0,
            "ACK-clocked AIMD must back off at a bottleneck"
        );
        assert_eq!(s.qa().metrics().stalls(), 0);
        let sk: &QaSinkAgent = w.agent(sink).unwrap();
        let base = sk.receiver.layer(0);
        assert_eq!(base.underflow_events(), 0, "base never starves");
    }

    #[test]
    fn window_cc_tracks_bandwidth_ordering() {
        let (w_lo, src_lo, _) = window_flow(12_000.0, 25.0);
        let (w_hi, src_hi, _) = window_flow(28_000.0, 25.0);
        assert!(
            mean_layers(&w_hi, src_hi, 10.0) > mean_layers(&w_lo, src_lo, 10.0),
            "more bandwidth must mean more layers"
        );
    }

    #[test]
    fn derived_series_follow_layer_count_and_allocation() {
        let mut traces = QaTraces::new(2);
        traces.record(0.0, 30.0, 1.0, [3.0], []);
        traces.record(0.1, 20.0, 2.0, [12.0, 7.0], []);
        // One series per quantity, each with a sample per tick.
        assert_eq!((traces.layer_rate.len(), traces.buffer.len()), (2, 2));
        assert_eq!(traces.tx_rate.points, [(0.0, 30.0), (0.1, 20.0)]);
        assert_eq!(traces.layer_rate[1].name, "layer_rate_1");
        assert_eq!(traces.layer_rate[1].points, [(0.0, 0.0), (0.1, 7.0)]);
        assert_eq!(traces.buffer[1].name, "buffer_1");
        assert_eq!(traces.buffer[1].points, [(0.0, 0.0), (0.1, 0.0)]);
        let (consumption, drain) = traces.consumption_and_drain(10.0);
        assert_eq!(consumption.name, "consumption");
        assert_eq!(consumption.points, [(0.0, 10.0), (0.1, 20.0)]);
        // Layer 1 is inactive at t = 0 (drains nothing) and over-fed at
        // t = 0.1 on layer 0 (clamped at 0).
        assert_eq!(drain[0].name, "drain_rate_0");
        assert_eq!(drain[0].points, [(0.0, 7.0), (0.1, 0.0)]);
        assert_eq!(drain[1].points, [(0.0, 0.0), (0.1, 3.0)]);
    }

    #[test]
    fn single_qa_flow_adapts_to_bottleneck() {
        let (w, src, sink) = qa_flow(25_000.0, 15, 25.0, |s| Box::new(s));
        // 25 KB/s bottleneck and 5 KB/s layers: should settle at 4-5
        // layers, not pinned at 1 or 6.
        let mean = mean_layers(&w, src, 10.0);
        assert!((2.5..=5.5).contains(&mean), "mean layers {mean}");
        let s: &QaSourceAgent = w.agent(src).unwrap();
        assert!(s.qa().counts().backoffs > 0);
        let sk: &QaSinkAgent = w.agent(sink).unwrap();
        let base = sk.receiver.layer(0);
        assert_eq!(base.underflow_events(), 0, "base never starves");
    }

    /// A [`QaSinkAgent`] that also counts the data bytes it is handed,
    /// per layer.
    struct LayerBytes {
        sink: QaSinkAgent,
        bytes: Vec<f64>,
    }

    impl Agent for LayerBytes {
        fn start(&mut self, ctx: &mut Ctx) {
            self.sink.start(ctx);
        }
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            if let PacketKind::RapData { layer, .. } = pkt.kind {
                self.bytes[usize::from(layer)] += f64::from(pkt.size);
            }
            self.sink.on_packet(ctx, pkt);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            self.sink.on_timer(ctx, token);
        }
    }

    #[test]
    fn received_per_layer_matches_active_layers() {
        let (w, _, sink) = qa_flow(25_000.0, 15, 15.0, |sink| {
            let bytes = vec![0.0; sink.receiver.n_layers()];
            Box::new(LayerBytes { sink, bytes })
        });
        let bytes = &w.agent::<LayerBytes>(sink).unwrap().bytes;
        // Lower layers must carry at least as many bytes as higher ones
        // over the run (they are always active), within 50 packets.
        assert!(bytes[0] > 0.0);
        for w2 in bytes.windows(2) {
            assert!(
                w2[0] + 50.0 * 500.0 >= w2[1],
                "layer bytes should roughly decrease: {bytes:?}"
            );
        }
    }
}
