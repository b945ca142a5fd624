//! Canned experiment scenarios: the paper's T1 and T2 workloads and the
//! single-flow figure-1 setup, parameterized so the regenerators can sweep
//! `K_max`, bottleneck bandwidth and durations.

use crate::agents::cbr::{CbrAgent, CountingSink};
use crate::agents::monitor::QueueMonitor;
use crate::agents::qa::{QaSections, QaSinkAgent, QaSourceAgent, QaTraces};
use crate::agents::rap::{RapFlowAgent, RapSinkAgent};
use crate::agents::tcp::{TcpAgent, TcpSinkAgent};
use crate::engine::World;
use crate::faults::{suite_intensity, FaultInjector, FaultStats, FaultWiring};
use crate::link::{LinkStats, TraceDriver, TraceSchedule, BOND_PATH_SALT};
use crate::packet::{AgentId, LinkId, Route};
use crate::topology::{Dumbbell, DumbbellConfig};
use laqa_core::{MetricsCollector, QaConfig};
use laqa_layered::LayeredEncoding;
use laqa_rap::{
    BbrSender, NadaSender, RapConfig, RapSender, RateController, WindowConfig, WindowSender,
};
use laqa_trace::{Section, TimeSeries};

/// Which congestion controller drives the QA flow (the interop axis of
/// the QA × transport matrix). Background cross-traffic is unaffected:
/// the 9 RAP and 10 TCP competitors stay the same in every cell, so the
/// axis isolates how the quality-adaptation machinery behaves over each
/// controller family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transport {
    /// Rate-paced AIMD (the paper's RAP). The default; every seed-pinned
    /// golden runs this transport.
    #[default]
    Rap,
    /// BBR-style delivery-rate-model pacing (`laqa_rap::BbrSender`).
    Bbr,
    /// NADA-style delay-gradient pacing (`laqa_rap::NadaSender`).
    Nada,
    /// ACK-clocked TCP-like AIMD window (`laqa_rap::WindowSender`).
    Tcp,
}

impl Transport {
    /// All transports, in matrix order.
    pub const ALL: [Transport; 4] = [
        Transport::Rap,
        Transport::Bbr,
        Transport::Nada,
        Transport::Tcp,
    ];

    /// Short label used in session labels and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Rap => "rap",
            Transport::Bbr => "bbr",
            Transport::Nada => "nada",
            Transport::Tcp => "tcp",
        }
    }

    /// Nominal multiplicative decrease factor of this transport's backoff
    /// (what [`QaConfig::decrease_factor`] should be for its geometry to
    /// anticipate real backoffs).
    pub fn nominal_decrease(&self) -> f64 {
        match self {
            Transport::Rap | Transport::Tcp => 0.5,
            Transport::Bbr => laqa_rap::bbr::LOSS_BETA,
            Transport::Nada => laqa_rap::nada::NOMINAL_GAMMA,
        }
    }

    /// This transport's controller for a QA flow whose RAP parameters are
    /// `rap`, its clock at zero.
    pub fn controller(&self, rap: &RapConfig) -> Box<dyn RateController> {
        let rap = rap.clone();
        match self {
            Transport::Rap => Box::new(RapSender::new(rap, 0.0)),
            Transport::Bbr => Box::new(BbrSender::new(rap, 0.0)),
            Transport::Nada => Box::new(NadaSender::new(rap, 0.0)),
            Transport::Tcp => {
                let window = WindowConfig {
                    packet_size: rap.packet_size,
                    initial_rtt: rap.initial_rtt,
                    // Flow-control cap equivalent to RAP's max_rate at a
                    // generous queueing-inclusive RTT of 0.5 s; the floor
                    // keeps the window usable on fast paths.
                    max_cwnd: (rap.max_rate * 0.5 / rap.packet_size).max(8.0),
                };
                Box::new(WindowSender::new(window, 0.0))
            }
        }
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Transport::ALL
            .into_iter()
            .find(|t| t.label() == s)
            .ok_or_else(|| format!("unknown transport {s:?} (expected rap|bbr|nada|tcp)"))
    }
}

/// Which hostile link-condition trace drives the bottleneck (the
/// `hostile_grid` campaign axis). `None` on a [`ScenarioConfig`] keeps
/// the paper's static dumbbell — and every pre-existing label, scenario
/// and fingerprint — byte-identical. Schedules are generated per
/// `(kind, seed)` by [`crate::link::TraceSchedule`]'s constructors and
/// advanced by [`crate::link::TraceDriver`] agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// LTE-style capacity random walk (100 ms – 1 s swings).
    Lte,
    /// On-off choke against a deep standing drop-tail buffer
    /// (bufferbloat: the choked phases fill the queue and inflate RTT).
    Bloat,
    /// Slow deterministic capacity ramp: one cosine cycle over the run,
    /// ending where it began.
    Diurnal,
    /// Two bonded forward paths with independent LTE-style schedules and
    /// a deterministic round-robin striping relay
    /// ([`crate::agents::bond::BondAgent`]).
    Bonded,
}

impl TraceKind {
    /// All trace kinds, in corpus order.
    pub const ALL: [TraceKind; 4] = [
        TraceKind::Lte,
        TraceKind::Bloat,
        TraceKind::Diurnal,
        TraceKind::Bonded,
    ];

    /// Short label used in session labels and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Lte => "lte",
            TraceKind::Bloat => "bloat",
            TraceKind::Diurnal => "diurnal",
            TraceKind::Bonded => "bonded",
        }
    }
}

impl std::str::FromStr for TraceKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TraceKind::ALL
            .into_iter()
            .find(|t| t.label() == s)
            .ok_or_else(|| format!("unknown trace {s:?} (expected lte|bloat|diurnal|bonded)"))
    }
}

/// Background RAP flows competing with the QA flow (the paper uses 9).
pub const N_RAP: usize = 9;

/// Background TCP flows competing with the QA flow (the paper uses 10).
pub const N_TCP: usize = 10;

/// When the QA flow joins (seconds). Letting the background flows
/// saturate the bottleneck first gives the QA flow the gentle ramp of
/// the paper's figure 11 instead of an empty-network rate overshoot.
pub const QA_START: f64 = 5.0;

/// Packet-arena slots a scenario reserves per flow beyond its forward
/// bottleneck queues: what the flow has on its access links, in
/// propagation and in ACKs. Without faults the pinned grids need at most
/// 3.25 (the 8 s `fp0` pin's start-up bursts; Tables 1-2 need 1.95).
const PACKETS_PER_FLOW: usize = 4;

/// Packet-arena slots reserved on top for a fault injector, whose delay
/// spikes hold packets in propagation: the `faults` pin at intensity 1.0
/// needs 48 beyond [`PACKETS_PER_FLOW`], the hostile corpus 28.
const FAULT_PACKETS: usize = 64;

/// Scenario parameters (defaults = the paper's T1 at `K_max = 2`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Dumbbell parameters.
    pub dumbbell: DumbbellConfig,
    /// Optional CBR burst `(start, stop, rate_bytes_per_sec)` — T2's
    /// half-bottleneck burst.
    pub cbr: Option<(f64, f64, f64)>,
    /// QA configuration (layer rate, `K_max`, …).
    pub qa: QaConfig,
    /// RAP protocol parameters shared by all RAP flows.
    pub rap: RapConfig,
    /// Simulated duration (seconds).
    pub duration: f64,
    /// RNG seed.
    pub seed: u64,
    /// QA allocation period (seconds).
    pub tick_dt: f64,
    /// Fault-suite intensity (see [`crate::faults`]). `None` (the default
    /// for T1 and T2), or any value that is not finite and positive, adds
    /// no agent at all, so baseline trajectories — and every seed-pinned
    /// golden built on them — stay bit-identical; values above 1 clamp.
    pub fault_intensity: Option<f64>,
    /// Congestion controller driving the QA flow. [`Transport::Rap`] (the
    /// default) reproduces the paper's system exactly.
    pub transport: Transport,
    /// Hostile link-condition trace on the bottleneck. `None` (the
    /// default for T1 and T2) attaches no schedule and no driver agent,
    /// so baseline trajectories stay bit-identical.
    pub trace: Option<TraceKind>,
}

impl ScenarioConfig {
    /// The paper's T1: 1 QA-RAP + 9 RAP + 10 TCP through an 800 Kb/s,
    /// 40 ms-RTT dumbbell.
    ///
    /// The paper's per-flow fair share at 800 Kb/s over 20 flows is
    /// ~5 KB/s; for the layer geometry to span 3–4 layers (as in the
    /// paper's figures) the layer rate defaults to `C = 1.25 KB/s` with
    /// 250-byte packets, preserving all the ratios of the original setup
    /// (fair share ≈ 4·C, packet ≈ C/5·s).
    pub fn t1(k_max: u32, duration: f64, seed: u64) -> Self {
        ScenarioConfig {
            dumbbell: DumbbellConfig::paper_base(),
            cbr: None,
            qa: QaConfig {
                layer_rate: 1_250.0,
                max_layers: 10,
                k_max,
                startup_buffer_secs: 0.5,
                underflow_slack_bytes: 1_000.0, // 4 packets of 250 B
                ..QaConfig::default()
            },
            rap: RapConfig {
                packet_size: 250.0,
                initial_rate: 1_000.0,
                initial_rtt: 0.06,
                // A stored-video server has no use for bandwidth beyond the
                // full encoding rate plus filling headroom (the paper's
                // footnote 2: implementations must not ignore flow
                // control); the cap also keeps RAP's pre-loss startup ramp
                // from instantiating the whole layer stack at once.
                max_rate: 1.25 * 10.0 * 1_250.0,
            },
            duration,
            seed,
            tick_dt: 0.05,
            fault_intensity: None,
            transport: Transport::Rap,
            trace: None,
        }
    }

    /// Switch the QA flow onto `transport` and thread the transport's
    /// nominal decrease factor into the QA geometry. For
    /// [`Transport::Rap`] this is the identity (factor 0.5 is the
    /// default), so RAP configs stay bit-identical.
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self.qa.decrease_factor = transport.nominal_decrease();
        self
    }

    /// Put the bottleneck on a hostile link-condition trace (and, for
    /// [`TraceKind::Bloat`], deepen the drop-tail queue into the standing
    /// buffer that makes choke phases bloat instead of drop): ~4x the
    /// paper's queue, over a second of buffering at nominal rate.
    pub fn with_trace(mut self, kind: TraceKind) -> Self {
        self.trace = Some(kind);
        if kind == TraceKind::Bloat {
            self.dumbbell.queue_packets = 600;
        }
        self
    }

    /// The paper's T2: T1 plus a CBR burst at half the bottleneck from
    /// `t = start` to `t = stop` (the paper uses 30 s → 60 s of a 90 s
    /// run).
    pub fn t2(k_max: u32, duration: f64, seed: u64) -> Self {
        let mut cfg = Self::t1(k_max, duration, seed);
        let half = cfg.dumbbell.bottleneck_bw / 2.0;
        cfg.cbr = Some((duration / 3.0, 2.0 * duration / 3.0, half));
        cfg
    }
}

/// Everything a regenerator needs after a scenario run. The recorded
/// series (`traces`, `rx_buffers`, `queue_trace`) are empty after
/// [`run_session`](crate::campaign::run_session), which keeps only their
/// digests (`qa_sections`, `queue_section`).
pub struct ScenarioOutcome {
    /// Traces from the QA source (figure panels) and its decision log.
    pub traces: QaTraces,
    /// Digests of the QA source's decisions, `tx_rate` and `n_active`.
    pub qa_sections: QaSections,
    /// QA metrics (Tables 1 and 2 inputs).
    pub metrics: MetricsCollector,
    /// Receiver-side per-layer buffer traces (`rx_buffer_<i>`, ground
    /// truth), one sample per playout advance.
    pub rx_buffers: Vec<TimeSeries>,
    /// Receiver-observed playout underflows (all layers).
    pub rx_underflows: u64,
    /// RAP arrivals, at the QA sink and every background RAP sink, that
    /// landed below their receiver's reception horizon (see
    /// [`laqa_rap::RapReceiverState::beyond_horizon`]). While 0, every
    /// ACK of the run was exact.
    pub rx_beyond_horizon: u64,
    /// Receiver-observed *base-layer* underflow events (visible stalls;
    /// should be zero in a healthy run).
    pub rx_base_underflows: u64,
    /// Backoffs the QA flow experienced.
    pub backoffs: u64,
    /// Bottleneck link counters.
    pub bottleneck: LinkStats,
    /// Background RAP throughput (bytes/s averaged over the run).
    pub rap_throughput: Vec<f64>,
    /// Background TCP goodput (bytes/s averaged over the run).
    pub tcp_goodput: Vec<f64>,
    /// Final sender-side buffer estimates.
    pub final_buffers: Vec<f64>,
    /// Bottleneck queue occupancy over time (packets).
    pub queue_trace: TimeSeries,
    /// Digest of the bottleneck queue samples.
    pub queue_section: Section,
    /// Discrete events the engine dispatched during the run (deterministic;
    /// feeds the events/sec throughput figure in run summaries).
    pub events_processed: u64,
    /// Fault-injection transition counters (all zero when the scenario ran
    /// without a fault plan).
    pub fault_stats: FaultStats,
    /// Bytes the receiver's *base layer* wanted but could not play
    /// (starvation depth; zero in a healthy run).
    pub base_starved_bytes: f64,
    /// Receiver bytes written off by layer drops (satellite of the §5
    /// efficiency metric; see `LayerBuffer::discarded_bytes`).
    pub discarded_bytes: f64,
    /// Trace schedule points applied across all trace-driven links (zero
    /// when the scenario ran without a trace).
    pub trace_changes: u64,
    /// Counters of the second bonded forward path, when the scenario was
    /// bonded (the primary path's counters are in `bottleneck`).
    pub bond_leg: Option<LinkStats>,
}

/// Build and run a scenario, returning the collected outcome with every
/// figure panel recorded: the QA source's series and decision log, the
/// sink's receiver buffers and the queue samples.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioOutcome {
    run_recording(cfg, Recording::Figures)
}

/// What a scenario keeps while it runs. Either way the simulated
/// history, every digest and every outcome field but the recorded rows
/// are the same bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recording {
    /// Every figure panel: the source's `tx_rate`, `n_active`,
    /// `layer_rate_<i>` and `buffer_<i>` series and decision log, the
    /// sink's `rx_buffer_<i>` series and the queue samples
    /// ([`run_scenario`]).
    Figures,
    /// Only what a campaign session's result reads, none of which grows
    /// with the session's length: the digests
    /// [`hash_outcome`](crate::campaign::hash_outcome) folds and the
    /// running metrics; no row at all
    /// ([`crate::campaign::run_session`]).
    Session,
}

/// Build and run a scenario that records what `recording` names.
pub(crate) fn run_recording(cfg: &ScenarioConfig, recording: Recording) -> ScenarioOutcome {
    let (mut world, handles) = build_scenario(cfg, recording);
    world.run_until(cfg.duration);
    extract_outcome(cfg, &mut world, &handles)
}

/// Agent ids and link handles recorded while building a scenario, so the
/// outcome can be extracted once the world has run.
struct ScenarioHandles {
    qa_sink: AgentId,
    qa_src: AgentId,
    rap_sinks: Vec<AgentId>,
    tcp_sinks: Vec<AgentId>,
    injector: Option<AgentId>,
    monitor: AgentId,
    bottleneck: LinkId,
    /// Trace drivers advancing the traced links (empty without a trace).
    trace_drivers: Vec<AgentId>,
    /// Second bonded forward path (bonded scenarios only).
    bond_leg: Option<LinkId>,
}

/// Build a world holding the scenario's dumbbell and agents without
/// running it; the returned [`ScenarioHandles`] lets [`extract_outcome`]
/// find everything afterward. Construction order — and therefore every
/// agent id, link id and RNG draw — is identical to what the monolithic
/// scenario body always did, so trajectories stay bit-identical;
/// `recording` changes what the QA pair and the queue monitor keep,
/// never what they do.
fn build_scenario(cfg: &ScenarioConfig, recording: Recording) -> (World, ScenarioHandles) {
    let bonded = cfg.trace == Some(TraceKind::Bonded);
    let faulted = suite_intensity(cfg.fault_intensity).is_some();
    // Every link added below: the two bottlenecks, the bond leg, an
    // access link each way per QA, RAP and TCP flow, and the forward
    // access links of the CBR source and the churn source.
    let links = 2 + usize::from(bonded) + 2 * (1 + N_RAP + N_TCP);
    let links = links + usize::from(cfg.cbr.is_some()) + usize::from(faulted);
    let mut d = Dumbbell::new(cfg.dumbbell, cfg.seed, links);
    // Every packet in flight at once: full forward bottleneck queues, the
    // rest of each flow's packets (the QA, RAP, TCP, CBR and churn
    // sources) and what the faults' delay spikes hold up.
    let flows = 1 + N_RAP + N_TCP + usize::from(cfg.cbr.is_some()) + usize::from(faulted);
    let legs = 1 + usize::from(bonded);
    let packets = legs * cfg.dumbbell.queue_packets + flows * PACKETS_PER_FLOW;
    d.world
        .reserve_packets(packets + if faulted { FAULT_PACKETS } else { 0 });
    // The bonded corpus adds its second forward bottleneck *before* any
    // per-flow access links, so link numbering in every other scenario —
    // and therefore every pre-existing golden — is untouched.
    let bond_leg = bonded.then(|| d.add_bond_path());
    let pkt = cfg.rap.packet_size as u32;
    // Deterministic per-seed jitter for flow start times (phase effects in
    // drop-tail queues are otherwise identical across seeds).
    let mut jitter_state = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut jitter = move || {
        jitter_state ^= jitter_state >> 12;
        jitter_state ^= jitter_state << 25;
        jitter_state ^= jitter_state >> 27;
        (jitter_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64 / (1u64 << 24) as f64
    };

    // Agent ids are assigned in creation order. Create sinks first (they
    // need their source id, which we can predict): layout is
    //   0: QA sink, 1: QA source,
    //   then per background RAP flow: sink, source,
    //   then per TCP flow: sink, source,
    //   then CBR sink + source (if any).
    let qa_sink_id = 0;
    let qa_src_id = 1;
    // Bonded scenarios interpose the striping relay between the QA source
    // and sink: the source addresses packets to the relay (created at the
    // predicted id right after the source), which re-routes each one onto
    // a bonded leg toward the real sink. ACKs flow sink → source directly,
    // so only the forward data path is striped.
    let bond_relay_id = bond_leg.map(|_| qa_src_id + 1);
    let qa_dst = bond_relay_id.unwrap_or(qa_sink_id);
    {
        let rev = d.reverse_route();
        let encoding =
            LayeredEncoding::linear(cfg.qa.max_layers, cfg.qa.layer_rate).expect("valid encoding");
        let mut sink = QaSinkAgent::new(
            qa_src_id,
            rev,
            0,
            encoding,
            // Margin over the server's threshold: see QaSinkAgent::new.
            2.0 * cfg.qa.startup_buffer_secs,
            cfg.tick_dt,
        );
        if recording == Recording::Figures {
            sink = sink.with_buffer_trace();
        }
        assert_eq!(d.world.add_agent(Box::new(sink)), qa_sink_id);
        let fwd = if bond_leg.is_some() {
            d.access_route() // relay picks the bottleneck leg per packet
        } else {
            d.forward_route()
        };
        let controller = cfg.transport.controller(&cfg.rap);
        let qa = cfg.qa.clone();
        let mut src = QaSourceAgent::new(qa_dst, fwd, 0, controller, pkt, qa, cfg.tick_dt);
        if recording == Recording::Figures {
            src = src.with_traces();
        }
        src.start_at = QA_START;
        assert_eq!(d.world.add_agent(Box::new(src)), qa_src_id);
    }

    if let Some(leg_b) = bond_leg {
        let relay = d
            .world
            .add_agent(Box::new(crate::agents::bond::BondAgent::new(
                qa_sink_id,
                vec![Route::from([d.bottleneck()]), Route::from([leg_b])],
            )));
        assert_eq!(Some(relay), bond_relay_id, "relay id predicted above");
    }

    // Background flows take the next free ids, each as sink then source;
    // a sink is built knowing its source (the next id) and its reverse
    // route (created before the forward one, as for the QA pair).
    let mut sink_id = bond_relay_id.unwrap_or(qa_src_id) + 1;
    let mut rap_sinks = Vec::new();
    for i in 0..N_RAP {
        let flow = 1 + i as u32;
        let sink = RapSinkAgent::new(sink_id + 1, d.reverse_route(), flow);
        assert_eq!(d.world.add_agent(Box::new(sink)), sink_id);
        let fwd = d.forward_route();
        let mut rap_src = RapFlowAgent::new(sink_id, fwd, flow, cfg.rap.clone());
        rap_src.start_at = 0.05 + i as f64 * 0.11 + 0.2 * jitter(); // staggered joins
        assert_eq!(d.world.add_agent(Box::new(rap_src)), sink_id + 1);
        rap_sinks.push(sink_id);
        sink_id += 2;
    }

    let mut tcp_sinks = Vec::new();
    for i in 0..N_TCP {
        let flow = 100 + i as u32;
        let sink = TcpSinkAgent::new(sink_id + 1, d.reverse_route(), flow);
        assert_eq!(d.world.add_agent(Box::new(sink)), sink_id);
        let fwd = d.forward_route();
        // Stagger TCP starts slightly to avoid phase effects.
        let start = 0.1 + i as f64 * 0.037 + 0.2 * jitter();
        let src = TcpAgent::new(sink_id, fwd, flow, pkt, start);
        assert_eq!(d.world.add_agent(Box::new(src)), sink_id + 1);
        tcp_sinks.push(sink_id);
        sink_id += 2;
    }

    if let Some((start, stop, rate)) = cfg.cbr {
        let sink_id = d.world.add_agent(Box::new(CountingSink::default()));
        let fwd = d.forward_route();
        d.world.add_agent(Box::new(CbrAgent::new(
            sink_id, fwd, 999, rate, pkt, start, stop,
        )));
    }

    // The fault injector (and its churn sink) exist only for an intensity
    // inside the suite's domain; any other leaves the agent list, the link
    // set and every RNG stream untouched.
    let injector_id = suite_intensity(cfg.fault_intensity).map(|intensity| {
        let churn_sink = d.world.add_agent(Box::new(CountingSink::default()));
        let churn_route = d.forward_route();
        let wiring = FaultWiring {
            forward: d.bottleneck(),
            reverse: d.reverse_bottleneck(),
            churn_dst: churn_sink,
            churn_route,
            churn_packet: pkt,
        };
        let injector = FaultInjector::new(intensity, cfg.seed, wiring);
        d.world.add_agent(Box::new(injector))
    });

    let bottleneck = d.bottleneck();
    let mut monitor = QueueMonitor::new(bottleneck, cfg.tick_dt * 4.0);
    if recording == Recording::Figures {
        monitor = monitor.with_series();
    }
    let monitor_id = d.world.add_agent(Box::new(monitor));

    // Trace-driven links last: one driver agent per traced link, each
    // owning its schedule (pre-materialized from its own salted RNG — no
    // world RNG is consumed). Baseline scenarios skip this entirely.
    let mut trace_drivers = Vec::new();
    if let Some(kind) = cfg.trace {
        let nominal = cfg.dumbbell.bottleneck_bw;
        let mut traced: Vec<(LinkId, TraceSchedule)> = Vec::new();
        match kind {
            TraceKind::Lte => {
                traced.push((
                    bottleneck,
                    TraceSchedule::lte(cfg.seed, nominal, cfg.duration),
                ));
            }
            TraceKind::Bloat => traced.push((
                bottleneck,
                TraceSchedule::bufferbloat(cfg.seed, nominal, cfg.duration),
            )),
            TraceKind::Diurnal => traced.push((
                bottleneck,
                TraceSchedule::diurnal(nominal, cfg.duration.max(1.0)),
            )),
            TraceKind::Bonded => {
                traced.push((
                    bottleneck,
                    TraceSchedule::lte(cfg.seed, nominal, cfg.duration),
                ));
                traced.push((
                    bond_leg.expect("bonded scenarios create the second leg"),
                    TraceSchedule::lte(cfg.seed ^ BOND_PATH_SALT, nominal, cfg.duration),
                ));
            }
        }
        for (link, schedule) in traced {
            let driver = TraceDriver::new(link, schedule);
            trace_drivers.push(d.world.add_agent(Box::new(driver)));
        }
    }
    debug_assert_eq!(d.world.link_room(), (links, links), "links counted above");
    (
        d.world,
        ScenarioHandles {
            qa_sink: qa_sink_id,
            qa_src: qa_src_id,
            rap_sinks,
            tcp_sinks,
            injector: injector_id,
            monitor: monitor_id,
            bottleneck,
            trace_drivers,
            bond_leg,
        },
    )
}

/// Collect a [`ScenarioOutcome`] from a finished world. The recorded
/// traces and digests are moved out, not copied: the caller drops the
/// world next.
fn extract_outcome(
    cfg: &ScenarioConfig,
    world: &mut World,
    handles: &ScenarioHandles,
) -> ScenarioOutcome {
    let pkt = cfg.rap.packet_size as u32;
    let rap_sinks = || {
        let sinks = handles.rap_sinks.iter();
        sinks.map(|&s| world.agent::<RapSinkAgent>(s).unwrap())
    };
    let rap_throughput: Vec<f64> = rap_sinks()
        .map(|s| s.bytes_received as f64 / cfg.duration)
        .collect();
    let mut rx_beyond_horizon: u64 = rap_sinks().map(RapSinkAgent::beyond_horizon).sum();
    let tcp_goodput: Vec<f64> = handles
        .tcp_sinks
        .iter()
        .map(|&s| {
            world.agent::<TcpSinkAgent>(s).unwrap().delivered as f64 * pkt as f64 / cfg.duration
        })
        .collect();

    let bottleneck_stats = world.link_stats(handles.bottleneck);
    let (rx_buffers, rx_underflows, rx_base_underflows, base_starved_bytes, discarded_bytes) = {
        let sink: &mut QaSinkAgent = world.agent_mut(handles.qa_sink).unwrap();
        rx_beyond_horizon += sink.beyond_horizon();
        let base = sink.receiver.layer(0);
        (
            sink.buffer_trace.take().unwrap_or_default(),
            sink.underflows,
            base.underflow_events(),
            base.starved_bytes(),
            sink.receiver.total_discarded(),
        )
    };
    let fault_stats = handles
        .injector
        .and_then(|id| world.agent::<FaultInjector>(id))
        .map(|f| f.stats)
        .unwrap_or_default();
    let monitor: &mut QueueMonitor = world.agent_mut(handles.monitor).unwrap();
    let queue_trace = monitor.series.take().unwrap_or_default();
    let queue_section = std::mem::take(&mut monitor.samples);
    let events_processed = world.events_processed();
    let trace_changes = handles
        .trace_drivers
        .iter()
        .filter_map(|&id| world.agent::<TraceDriver>(id))
        .map(|t| t.changes)
        .sum();
    let bond_leg = handles.bond_leg.map(|l| world.link_stats(l));
    let src: &mut QaSourceAgent = world.agent_mut(handles.qa_src).unwrap();
    ScenarioOutcome {
        traces: src.traces.take().unwrap_or_default(),
        qa_sections: std::mem::take(&mut src.sections),
        metrics: src.qa().metrics().clone(),
        backoffs: src.qa().counts().backoffs,
        final_buffers: src.qa().buffers().to_vec(),
        rx_buffers,
        rx_underflows,
        rx_beyond_horizon,
        rx_base_underflows,
        bottleneck: bottleneck_stats,
        rap_throughput,
        tcp_goodput,
        queue_trace,
        queue_section,
        events_processed,
        fault_stats,
        base_starved_bytes,
        discarded_bytes,
        trace_changes,
        bond_leg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignSpec, SessionSpec, TestKind};

    /// The default Tables 1-2 grid, the hostile corpus at seeds 7 and 21,
    /// and the eleven campaigns `tests/pinned_fingerprints.rs` pins.
    fn pinned_grids() -> Vec<(String, CampaignSpec)> {
        let (t1, rap, k2, pair) = ([TestKind::T1], [Transport::Rap], [2], [7, 21]);
        let small = |traces: &[TraceKind], transport: Transport| {
            CampaignSpec::product(&t1, traces, &[transport], &k2, &[0.0], &pair, 8.0)
        };
        let mut grids = vec![
            (
                "tables".to_string(),
                CampaignSpec::grid(&TestKind::ALL, &[2, 3, 4, 5, 8], &[7, 21, 42, 77, 99], 90.0),
            ),
            (
                "hostile".to_string(),
                CampaignSpec::hostile_grid(
                    &t1,
                    &TraceKind::ALL,
                    &Transport::ALL,
                    &[2, 4],
                    &pair,
                    60.0,
                    Some(0.5),
                ),
            ),
            (
                "fp0".to_string(),
                CampaignSpec::grid(&t1, &[2, 4], &[7, 21, 35, 49, 63, 77, 91, 105], 8.0),
            ),
        ];
        for transport in Transport::ALL {
            grids.push((
                format!("interop/{}", transport.label()),
                small(&[], transport),
            ));
        }
        for trace in TraceKind::ALL {
            grids.push((
                format!("hostile/{}", trace.label()),
                small(&[trace], Transport::Rap),
            ));
        }
        grids.push((
            "faults".to_string(),
            CampaignSpec::product(&t1, &[], &rap, &k2, &[0.5, 1.0], &pair, 30.0),
        ));
        grids.push((
            "hostile+faults".to_string(),
            CampaignSpec::product(&t1, &TraceKind::ALL, &rap, &k2, &[1.0], &pair, 20.0),
        ));
        grids
    }

    /// `(label, most packets in flight, arena slots reserved at build)` of
    /// every session in `cells` whose arena grew past its reservation.
    fn arena_regrowths(cells: &[SessionSpec]) -> Vec<(String, usize, usize)> {
        let mut grew = Vec::new();
        for spec in cells {
            let cfg = spec.scenario();
            let (mut world, _) = build_scenario(&cfg, Recording::Session);
            let (_, reserved) = world.packet_room();
            world.run_until(cfg.duration);
            let (footprint, capacity) = world.packet_room();
            if capacity != reserved {
                grew.push((spec.label(), footprint, reserved));
            }
        }
        grew
    }

    #[test]
    fn no_pinned_session_grows_its_packet_arena() {
        for (name, spec) in pinned_grids() {
            // Two halves on two threads: the grids hold 158 sessions.
            let (a, b) = spec.sessions.split_at(spec.len() / 2);
            let grew = std::thread::scope(|s| {
                let first = s.spawn(|| arena_regrowths(a));
                let mut grew = arena_regrowths(b);
                grew.extend(first.join().expect("the first half"));
                grew
            });
            assert!(
                grew.is_empty(),
                "{name}: (session, packets in flight, reserved) past the reservation: {grew:?}"
            );
        }
    }

    #[test]
    fn t1_runs_and_adapts() {
        let cfg = ScenarioConfig::t1(2, 30.0, 7);
        let out = run_scenario(&cfg);
        // The QA flow must have reached more than one layer and survived
        // backoffs without starving the base layer.
        let max_layers = out.traces.n_active.max().unwrap_or(0.0);
        assert!(max_layers >= 2.0, "n_active peaked at {max_layers}");
        assert!(out.backoffs > 0, "competition must cause backoffs");
        assert!(out.bottleneck.dropped > 0);
        assert_eq!(out.metrics.stalls(), 0, "base layer must not stall");
        // Background flows made progress.
        assert!(out.rap_throughput.iter().all(|&t| t > 0.0));
        assert!(out.tcp_goodput.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn t2_burst_forces_quality_reduction() {
        let cfg = ScenarioConfig::t2(2, 45.0, 7);
        let out = run_scenario(&cfg);
        let n = &out.traces.n_active;
        // Peak layer count before the burst vs the minimum during it.
        let before: f64 = n
            .points
            .iter()
            .filter(|&&(t, _)| t > 5.0 && t < 15.0)
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        let during: f64 = n
            .points
            .iter()
            .filter(|&&(t, _)| t > 17.0 && t < 30.0)
            .map(|&(_, v)| v)
            .fold(f64::MAX, f64::min);
        assert!(
            during < before,
            "CBR burst should reduce quality: before {before}, during {during}"
        );
        assert_eq!(out.metrics.stalls(), 0);
    }

    /// The sections a run streams, recomputed from the rows the figures
    /// path keeps: the decision log, `tx_rate`, `n_active` and the queue
    /// samples.
    fn sections_from_rows(out: &ScenarioOutcome) -> (QaSections, Section) {
        let samples = |points: &[(f64, f64)]| {
            let mut section = Section::default();
            points.iter().for_each(|&(t, v)| section.sample(t, v));
            section
        };
        let mut qa = QaSections {
            tx_rate: samples(&out.traces.tx_rate.points),
            n_active: samples(&out.traces.n_active.points),
            ..QaSections::default()
        };
        for event in &out.traces.decisions {
            crate::agents::qa::fold_decision(qa.decisions.item(), event);
        }
        (qa, samples(&out.queue_trace.points))
    }

    #[test]
    fn a_session_records_only_what_its_result_reads() {
        use crate::campaign::{hash_outcome, run_session, SessionSpec, TestKind};
        let cell = |test, transport, trace, fault_intensity| SessionSpec {
            test,
            k_max: 3,
            seed: 11,
            duration: 15.0,
            fault_intensity,
            transport,
            trace,
        };
        let bonded = Some(TraceKind::Bonded);
        for spec in [
            cell(TestKind::T1, Transport::Rap, None, None),
            cell(TestKind::T2, Transport::Rap, None, None),
            cell(TestKind::T1, Transport::Bbr, bonded, Some(0.5)),
        ] {
            let cfg = spec.scenario();
            let label = spec.label();
            let figures = run_scenario(&cfg);
            let layers = cfg.qa.max_layers;
            let traces = &figures.traces;
            assert_eq!(traces.layer_rate.len(), layers);
            assert_eq!(traces.buffer.len(), layers);
            assert_eq!(figures.rx_buffers.len(), layers);
            assert!(!traces.decisions.is_empty(), "{label}");
            // Every QA series samples the ticks `tx_rate` does, and every
            // receiver series the sink's playout advances.
            let times = |s: &TimeSeries| s.points.iter().map(|p| p.0).collect::<Vec<_>>();
            let ticks = times(&traces.tx_rate);
            assert!(!ticks.is_empty(), "{label}");
            let per_layer = traces.layer_rate.iter().chain(&traces.buffer);
            for series in per_layer.chain([&traces.n_active]) {
                assert_eq!(times(series), ticks, "{label}: {}", series.name);
            }
            let advances = times(&figures.rx_buffers[0]);
            let steps = std::iter::once(0.0).chain(advances.iter().copied());
            let gaps: Vec<f64> = steps.zip(&advances).map(|(a, b)| b - a).collect();
            let every_tick = |gap: &f64| (gap - cfg.tick_dt).abs() < 1e-9;
            assert!(!gaps.is_empty() && gaps.iter().all(every_tick), "{label}");
            for series in &figures.rx_buffers {
                assert_eq!(times(series), advances, "{label}: {}", series.name);
            }
            // The streamed sections are the stored rows', digested.
            let (qa, queue) = sections_from_rows(&figures);
            assert_eq!(figures.qa_sections, qa, "{label}");
            assert_eq!(figures.queue_section, queue, "{label}");
            assert!(qa.decisions.count() > 0 && queue.count() > 0, "{label}");
            let hash = hash_outcome(&figures);
            assert_eq!(run_session(&spec).trace_hash, hash, "{label}");
            // The session path keeps the same digests and metrics, and
            // no row.
            let session = run_recording(&cfg, Recording::Session);
            assert_eq!(session.qa_sections, figures.qa_sections, "{label}");
            assert_eq!(session.queue_section, figures.queue_section, "{label}");
            assert_eq!(session.metrics, figures.metrics, "{label}");
            let kept = &session.traces;
            assert_eq!(kept.tx_rate.points.capacity(), 0, "{label}");
            assert_eq!(kept.n_active.points.capacity(), 0, "{label}");
            assert!(
                kept.layer_rate.is_empty() && kept.buffer.is_empty(),
                "{label}"
            );
            assert_eq!(kept.decisions.capacity(), 0, "{label}");
            assert!(session.rx_buffers.is_empty(), "{label}");
            assert_eq!(session.queue_trace.points.capacity(), 0, "{label}");
            assert_eq!(hash_outcome(&session), hash, "{label}");
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let cfg = ScenarioConfig::t1(2, 10.0, 99);
        let a = run_scenario(&cfg);
        let b = run_scenario(&cfg);
        assert_eq!(a.traces.n_active, b.traces.n_active);
        assert_eq!(a.bottleneck.dropped, b.bottleneck.dropped);
    }
}
