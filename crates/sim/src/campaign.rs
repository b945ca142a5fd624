//! Parallel scenario-campaign runner.
//!
//! The paper's tables are sweeps: every combination of workload (T1/T2),
//! smoothing factor `K_max`, and seed is one independent simulator session.
//! [`CampaignSpec::product`] builds every grid (with optional trace,
//! transport and fault-intensity axes). This module fans such a grid across OS threads with a work-stealing
//! index queue, runs each discrete-event session in isolation, and
//! aggregates the paper's metrics (buffering efficiency, avoidable drops,
//! quality changes) into summary rows.
//!
//! **Determinism contract.** A session's result — including its 64-bit
//! event-trace fingerprint — depends only on its [`SessionSpec`], never on
//! which worker ran it, how many workers there were, or in what order the
//! queue drained. Each worker deposits `(index, result)` pairs into its own
//! private buffer; a single-threaded merge afterwards places them by grid
//! index, so the aggregate [`CampaignResult::fingerprint`] is bit-identical
//! across thread counts; `tests/replay.rs` pins this with 1, 2, 8 and 16
//! workers. Wall-clock fields are the one exception and are excluded from
//! every fingerprint. A session's flight-recorder timeline travels in
//! its result the same way ([`CampaignResult::flight`]). The worker count
//! is the only execution choice
//! ([`CampaignOptions`]): every session runs on the engine's one event
//! queue.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use laqa_core::metrics::QaEvent;
use laqa_obs::FlightTrace;
use laqa_trace::{RunSummary, Table, TraceHasher};

use crate::scenarios::{run_scenario, ScenarioConfig, ScenarioOutcome, TraceKind, Transport};

/// Which of the paper's dumbbell workloads a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestKind {
    /// T1: one QA-RAP source vs 9 RAP + 10 TCP flows.
    T1,
    /// T2: T1 plus a CBR burst through the middle of the run.
    T2,
}

impl TestKind {
    /// Both workloads, in table order.
    pub const ALL: [TestKind; 2] = [TestKind::T1, TestKind::T2];

    /// Short label used in tables and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            TestKind::T1 => "T1",
            TestKind::T2 => "T2",
        }
    }
}

/// One cell of the sweep grid: a fully-specified simulator session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Workload.
    pub test: TestKind,
    /// QA smoothing factor `K_max`.
    pub k_max: u32,
    /// Simulation seed.
    pub seed: u64,
    /// Simulated duration (seconds).
    pub duration: f64,
    /// Fault-suite intensity in `(0, 1]`; `None` runs the scenario with
    /// no fault injection at all (see [`crate::faults`]).
    pub fault_intensity: Option<f64>,
    /// Congestion controller under the QA flow (the interop-matrix axis).
    /// [`Transport::Rap`] reproduces the paper's system — and the label,
    /// scenario and fingerprint of every pre-existing RAP cell,
    /// byte-identical.
    pub transport: Transport,
    /// Hostile link-condition trace on the bottleneck (the `hostile_grid`
    /// axis). `None` — the default — keeps the static dumbbell and its
    /// fingerprints byte-identical.
    pub trace: Option<TraceKind>,
}

impl SessionSpec {
    /// The scenario configuration this spec denotes.
    pub fn scenario(&self) -> ScenarioConfig {
        let mut cfg = match self.test {
            TestKind::T1 => ScenarioConfig::t1(self.k_max, self.duration, self.seed),
            TestKind::T2 => ScenarioConfig::t2(self.k_max, self.duration, self.seed),
        };
        cfg.fault_intensity = self.fault_intensity;
        let cfg = cfg.with_transport(self.transport);
        match self.trace {
            Some(trace) => cfg.with_trace(trace),
            None => cfg,
        }
    }

    /// Stable label, e.g. `T1/k3/seed42` (`T1/k3/seed42/f060` with a
    /// fault suite at intensity 0.60; non-RAP transports append their
    /// label, e.g. `T1/k3/seed42/bbr`, and hostile-trace cells theirs,
    /// e.g. `T1/k3/seed42/bbr/lte` — RAP no-trace cells keep the
    /// historical byte-identical label).
    pub fn label(&self) -> String {
        let base = format!("{}/k{}/seed{}", self.test.label(), self.k_max, self.seed);
        let base = match self.fault_intensity {
            Some(i) => format!("{base}/f{:03}", (i * 100.0).round() as u32),
            None => base,
        };
        let base = match self.transport {
            Transport::Rap => base,
            t => format!("{base}/{}", t.label()),
        };
        match self.trace {
            Some(trace) => format!("{base}/{}", trace.label()),
            None => base,
        }
    }
}

/// A full sweep: the list of sessions to run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignSpec {
    /// Sessions in grid order ([`Self::product`]'s, outermost axis first).
    pub sessions: Vec<SessionSpec>,
}

impl CampaignSpec {
    /// The one grid builder: the Cartesian product test → trace →
    /// transport → `K_max` → fault intensity → seed, outermost first, each
    /// cell `duration` simulated seconds. An empty `traces` runs steady
    /// links (no trace axis); an intensity of `0.0` is the unlabelled,
    /// fault-free baseline cell. A grid without an axis passes a
    /// singleton for it (`&[Transport::Rap]`, `&[0.0]`).
    pub fn product(
        tests: &[TestKind],
        traces: &[TraceKind],
        transports: &[Transport],
        k_values: &[u32],
        intensities: &[f64],
        seeds: &[u64],
        duration: f64,
    ) -> Self {
        let traces: Vec<Option<TraceKind>> = match traces {
            [] => vec![None],
            _ => traces.iter().copied().map(Some).collect(),
        };
        let intensities: Vec<Option<f64>> = intensities
            .iter()
            .map(|&i| (i > 0.0).then_some(i))
            .collect();
        let cells = tests.len() * traces.len() * transports.len();
        let cells = cells * k_values.len() * intensities.len() * seeds.len();
        let mut sessions = Vec::with_capacity(cells);
        for &test in tests {
            for &trace in &traces {
                for &transport in transports {
                    for &k_max in k_values {
                        for &fault_intensity in &intensities {
                            for &seed in seeds {
                                sessions.push(SessionSpec {
                                    test,
                                    k_max,
                                    seed,
                                    duration,
                                    fault_intensity,
                                    transport,
                                    trace,
                                });
                            }
                        }
                    }
                }
            }
        }
        CampaignSpec { sessions }
    }

    /// [`Self::product`] over `tests × k_values × seeds`: RAP on steady,
    /// fault-free links.
    pub fn grid(tests: &[TestKind], k_values: &[u32], seeds: &[u64], duration: f64) -> Self {
        Self::product(tests, &[], &[Transport::Rap], k_values, &[0.0], seeds, duration)
    }

    /// [`Self::product`] over the hostile corpus, with one fault intensity
    /// (`None` = fault-free) composed on top of every cell (faults mutate
    /// the same links the traces drive; the trace's next schedule point
    /// overwrites a fault's bandwidth, never its delay or loss — see
    /// `tests/faults_replay.rs` for the pinned precedence).
    pub fn hostile_grid(
        tests: &[TestKind],
        traces: &[TraceKind],
        transports: &[Transport],
        k_values: &[u32],
        seeds: &[u64],
        duration: f64,
        fault_intensity: Option<f64>,
    ) -> Self {
        let intensity = [fault_intensity.unwrap_or(0.0)];
        Self::product(tests, traces, transports, k_values, &intensity, seeds, duration)
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

/// Paper metrics and the determinism fingerprint of one finished session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// The spec this session ran.
    pub spec: SessionSpec,
    /// Buffering efficiency `(buf_total − buf_drop) / buf_total` over all
    /// drops (`None` when nothing was ever dropped).
    pub efficiency: Option<f64>,
    /// Fraction of drops that were avoidable (`None` without drops).
    pub avoidable_drops: Option<f64>,
    /// Layer adds + drops (Table 2's quality-change count).
    pub quality_changes: usize,
    /// Layer adds.
    pub adds: usize,
    /// Layer drops.
    pub drops: usize,
    /// Base-layer stalls (should be zero in a healthy run).
    pub stalls: usize,
    /// Congestion backoffs the QA flow took.
    pub backoffs: u64,
    /// Packets dropped at the bottleneck (all flows).
    pub bottleneck_drops: u64,
    /// Receiver-observed playout underflows (all layers).
    pub rx_underflows: u64,
    /// Receiver-observed base-layer underflows.
    pub rx_base_underflows: u64,
    /// Quality changes per simulated second (the fault suite's headline
    /// stability metric).
    pub layer_change_rate: f64,
    /// Mean seconds from a layer drop to the next layer add (`None` when
    /// the run never dropped, or never re-added after its last drop) —
    /// how fast the controller recovers quality after a fault.
    pub recovery_secs_mean: Option<f64>,
    /// Bytes the receiver's base layer wanted but could not play.
    pub base_starved_bytes: f64,
    /// Receiver bytes written off by layer drops.
    pub discarded_bytes: f64,
    /// Fault transitions injected (0 without a fault plan).
    pub fault_transitions: u64,
    /// Link-condition schedule points applied by [`crate::TraceDriver`]s
    /// (0 for steady-link cells).
    pub trace_changes: u64,
    /// Bytes the second path of a bonded cell carried (`None` unless the
    /// cell runs [`TraceKind::Bonded`]).
    pub bond_leg_bytes: Option<u64>,
    /// FNV-1a fingerprint of the session's event trace (see
    /// [`hash_outcome`]).
    pub trace_hash: u64,
    /// Wall-clock seconds this session took (excluded from fingerprints).
    pub wall_secs: f64,
    /// Discrete events the engine dispatched (deterministic, but excluded
    /// from fingerprints to keep existing goldens stable; with `wall_secs`
    /// it yields the events/sec throughput in run summaries).
    pub events_processed: u64,
    /// The session's flight-recorder timeline in emission order (empty
    /// unless [`laqa_obs::flight`] was enabled when it started; excluded
    /// from fingerprints).
    pub flight: Vec<laqa_obs::flight::Record>,
}

impl SessionResult {
    /// Fold everything except wall-clock into `h`.
    fn fingerprint_into(&self, h: &mut TraceHasher) {
        h.str(&self.spec.label());
        h.f64(self.spec.duration);
        h.f64(self.efficiency.unwrap_or(f64::NEG_INFINITY));
        h.f64(self.avoidable_drops.unwrap_or(f64::NEG_INFINITY));
        h.u64(self.quality_changes as u64);
        h.u64(self.adds as u64);
        h.u64(self.drops as u64);
        h.u64(self.stalls as u64);
        h.u64(self.backoffs);
        h.u64(self.bottleneck_drops);
        h.u64(self.rx_underflows);
        h.u64(self.rx_base_underflows);
        h.f64(self.layer_change_rate);
        h.f64(self.recovery_secs_mean.unwrap_or(f64::NEG_INFINITY));
        h.f64(self.base_starved_bytes);
        h.f64(self.discarded_bytes);
        h.u64(self.fault_transitions);
        // Gated exactly like `hash_outcome`: steady-link cells keep their
        // historical campaign fingerprints byte-identical.
        if self.trace_changes != 0 {
            h.u64(self.trace_changes);
        }
        if let Some(b) = self.bond_leg_bytes {
            h.u64(b);
        }
        h.u64(self.trace_hash);
    }

    /// Machine-readable summary for EXPERIMENTS.md tooling.
    pub fn summary(&self) -> RunSummary {
        let mut s = RunSummary::new(format!("campaign/{}", self.spec.label()));
        s.param("test", self.spec.test.label())
            .param("k_max", self.spec.k_max)
            .param("seed", self.spec.seed)
            .param("duration", self.spec.duration);
        if let Some(e) = self.efficiency {
            s.metric("efficiency", e);
        }
        if let Some(a) = self.avoidable_drops {
            s.metric("avoidable_drops", a);
        }
        if let Some(i) = self.spec.fault_intensity {
            s.param("fault_intensity", i);
        }
        if self.spec.transport != Transport::Rap {
            // RAP rows keep their historical parameter set byte-identical;
            // only interop cells carry the transport column.
            s.param("transport", self.spec.transport.label());
        }
        if let Some(trace) = self.spec.trace {
            s.param("trace", trace.label());
            s.metric("trace_changes", self.trace_changes as f64);
        }
        if let Some(b) = self.bond_leg_bytes {
            s.metric("bond_leg_bytes", b as f64);
        }
        if let Some(r) = self.recovery_secs_mean {
            s.metric("recovery_secs_mean", r);
        }
        s.metric("quality_changes", self.quality_changes as f64)
            .metric("adds", self.adds as f64)
            .metric("drops", self.drops as f64)
            .metric("stalls", self.stalls as f64)
            .metric("backoffs", self.backoffs as f64)
            .metric("bottleneck_drops", self.bottleneck_drops as f64)
            .metric("rx_underflows", self.rx_underflows as f64)
            .metric("layer_change_rate", self.layer_change_rate)
            .metric("base_starved_bytes", self.base_starved_bytes)
            .metric("discarded_bytes", self.discarded_bytes)
            .metric("fault_transitions", self.fault_transitions as f64)
            .metric("trace_hash_lo32", (self.trace_hash & 0xffff_ffff) as f64)
            .timing(self.wall_secs, self.events_processed);
        s
    }
}

/// Aggregate of a finished sweep.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-session results, in spec order (independent of scheduling).
    pub sessions: Vec<SessionResult>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds the worker threads spent simulating — from
    /// launch until the last worker finished, merge excluded — so
    /// events/sec computed against this measures simulation, not
    /// aggregation. Excluded from fingerprints.
    pub wall_secs: f64,
    /// Wall-clock seconds of the final single-threaded result merge
    /// (buffer collection and index placement). Excluded from
    /// fingerprints.
    pub merge_secs: f64,
}

impl CampaignResult {
    /// Order-stable 64-bit digest of every session's metrics and trace
    /// hash. Equal across runs with different thread counts.
    pub fn fingerprint(&self) -> u64 {
        let mut h = TraceHasher::new();
        h.u64(self.sessions.len() as u64);
        for s in &self.sessions {
            s.fingerprint_into(&mut h);
        }
        h.finish()
    }

    /// Paper-style text table of the sweep.
    pub fn table(&self) -> String {
        let mut tbl = Table::new(
            "campaign results",
            &[
                "session", "eff", "avoid", "chg", "adds", "drops", "stalls", "backoffs",
                "btl drops", "underflows", "recov", "starved", "trace hash",
            ],
        );
        for s in &self.sessions {
            let opt = |v: Option<f64>| match v {
                Some(x) => format!("{x:.4}"),
                None => "-".to_string(),
            };
            tbl.row(vec![
                s.spec.label(),
                opt(s.efficiency),
                opt(s.avoidable_drops),
                s.quality_changes.to_string(),
                s.adds.to_string(),
                s.drops.to_string(),
                s.stalls.to_string(),
                s.backoffs.to_string(),
                s.bottleneck_drops.to_string(),
                s.rx_underflows.to_string(),
                match s.recovery_secs_mean {
                    Some(r) => format!("{r:.2}s"),
                    None => "-".to_string(),
                },
                format!("{:.0}", s.base_starved_bytes),
                format!("{:016x}", s.trace_hash),
            ]);
        }
        tbl.render()
    }

    /// The sweep's flight-recorder timeline: session `i`'s records on
    /// track `i`, whichever worker ran it.
    pub fn flight(&self) -> FlightTrace {
        FlightTrace::from_sessions(self.sessions.iter().map(|s| s.flight.as_slice()))
    }

    /// Machine-readable per-session summaries.
    pub fn summaries(&self) -> Vec<RunSummary> {
        self.sessions.iter().map(SessionResult::summary).collect()
    }

    /// Mean of a metric over the sessions whose spec `cell` selects, in
    /// spec order; `None` when none of them has a sample.
    pub fn mean_metric(
        &self,
        cell: impl Fn(&SessionSpec) -> bool,
        metric: impl Fn(&SessionResult) -> Option<f64>,
    ) -> Option<f64> {
        let vals: Vec<f64> = self
            .sessions
            .iter()
            .filter(|s| cell(&s.spec))
            .filter_map(metric)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// Fold a scenario outcome's observable event trace into a 64-bit digest.
///
/// Covers the QA event log, the tick-level rate/layer traces, the
/// bottleneck counters and the final buffer estimates; floats enter via
/// their exact bit patterns, so two outcomes hash equal only when the
/// simulated histories are bit-identical.
pub fn hash_outcome(out: &ScenarioOutcome) -> u64 {
    let mut h = TraceHasher::new();
    h.u64(out.metrics.events().len() as u64);
    for ev in out.metrics.events() {
        hash_event(&mut h, ev);
    }
    h.samples(&out.traces.tx_rate.points);
    h.samples(&out.traces.n_active.points);
    h.samples(&out.queue_trace.points);
    h.u64(out.backoffs);
    h.u64(out.rx_underflows);
    h.u64(out.rx_base_underflows);
    h.u64(out.bottleneck.enqueued);
    h.u64(out.bottleneck.dropped);
    h.u64(out.bottleneck.random_losses);
    h.u64(out.bottleneck.bytes_out);
    h.u64(out.bottleneck.peak_queue as u64);
    h.u64(out.final_buffers.len() as u64);
    for &b in &out.final_buffers {
        h.f64(b);
    }
    for series in [&out.rap_throughput, &out.tcp_goodput] {
        h.u64(series.len() as u64);
        for &v in series {
            h.f64(v);
        }
    }
    h.u64(out.fault_stats.flap_downs);
    h.f64(out.fault_stats.flap_down_secs);
    h.u64(out.fault_stats.rtt_spikes);
    h.u64(out.fault_stats.loss_bursts);
    h.u64(out.fault_stats.churn_joins);
    h.u64(out.fault_stats.churn_packets);
    h.f64(out.base_starved_bytes);
    h.f64(out.discarded_bytes);
    // Hostile-corpus fields hash only when present, so every pre-existing
    // (untraced, unbonded) outcome keeps its historical digest.
    if out.trace_changes != 0 {
        h.u64(out.trace_changes);
    }
    if let Some(leg) = out.bond_leg {
        h.u64(leg.enqueued);
        h.u64(leg.dropped);
        h.u64(leg.random_losses);
        h.u64(leg.bytes_out);
        h.u64(leg.peak_queue as u64);
    }
    h.finish()
}

fn hash_event(h: &mut TraceHasher, ev: &QaEvent) {
    match ev {
        QaEvent::LayerAdded { time, n_active } => {
            h.u64(1).f64(*time).u64(*n_active as u64);
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
            h.u64(2)
                .f64(*time)
                .u64(*layer as u64)
                .u64(*n_active as u64)
                .f64(*buf_total)
                .f64(*buf_drop)
                .f64(*required)
                .u64(*reason as u64);
        }
        QaEvent::BaseStall { time } => {
            h.u64(3).f64(*time);
        }
    }
}

/// Mean seconds from the first drop of each degradation episode to the
/// next layer add — the fault suite's recovery-time metric. `None` when
/// no drop was ever followed by an add.
pub fn mean_recovery_secs(events: &[QaEvent]) -> Option<f64> {
    let mut gaps: Vec<f64> = Vec::new();
    let mut episode_start: Option<f64> = None;
    for ev in events {
        match ev {
            QaEvent::LayerDropped { time, .. } => {
                episode_start.get_or_insert(*time);
            }
            QaEvent::LayerAdded { time, .. } => {
                if let Some(t0) = episode_start.take() {
                    gaps.push(time - t0);
                }
            }
            _ => {}
        }
    }
    if gaps.is_empty() {
        None
    } else {
        Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
    }
}

/// Run one session to a result (synchronously, on the calling thread).
///
/// With the flight recorder on, the session owns what this thread
/// records while it runs; with it off, the thread's buffer is never
/// touched.
pub fn run_session(spec: &SessionSpec) -> SessionResult {
    let recording = laqa_obs::flight::enabled();
    if recording {
        laqa_obs::flight::take();
    }
    let started = Instant::now();
    let out = run_scenario(&spec.scenario());
    let mut result = outcome_to_result(spec, out, started.elapsed().as_secs_f64());
    if recording {
        result.flight = laqa_obs::flight::take();
    }
    result
}

/// Distill a finished scenario into its [`SessionResult`] row.
fn outcome_to_result(spec: &SessionSpec, out: ScenarioOutcome, wall_secs: f64) -> SessionResult {
    laqa_obs::counter!("campaign.sessions").inc();
    laqa_obs::histogram!("campaign.session_wall_ms", laqa_obs::LOG_MS_BOUNDS)
        .observe(wall_secs * 1e3);
    SessionResult {
        spec: spec.clone(),
        efficiency: out.metrics.efficiency(),
        avoidable_drops: out.metrics.avoidable_drop_fraction(),
        quality_changes: out.metrics.quality_changes(),
        adds: out.metrics.adds(),
        drops: out.metrics.drops(),
        stalls: out.metrics.stalls(),
        backoffs: out.backoffs,
        bottleneck_drops: out.bottleneck.dropped,
        rx_underflows: out.rx_underflows,
        rx_base_underflows: out.rx_base_underflows,
        layer_change_rate: out.metrics.quality_changes() as f64 / spec.duration.max(1e-9),
        recovery_secs_mean: mean_recovery_secs(out.metrics.events()),
        base_starved_bytes: out.base_starved_bytes,
        discarded_bytes: out.discarded_bytes,
        fault_transitions: out.fault_stats.transitions(),
        trace_changes: out.trace_changes,
        bond_leg_bytes: out.bond_leg.map(|l| l.bytes_out),
        trace_hash: hash_outcome(&out),
        wall_secs,
        events_processed: out.events_processed,
        flight: Vec::new(),
    }
}

/// Run the sweep on `threads` worker threads (clamped to at least 1).
///
/// Workers steal session indices from a shared atomic counter — no
/// per-thread pre-partitioning, so a slow session never idles the other
/// workers — and deposit results into the slot matching the session's
/// grid index. The returned order (and every fingerprint) is therefore
/// identical for any thread count.
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> CampaignResult {
    run_campaign_opts(spec, CampaignOptions::new(threads))
}

/// How a campaign executes. Everything here is invisible to the simulated
/// results — only wall-clock behaviour changes.
#[derive(Debug, Clone, Copy)]
pub struct CampaignOptions {
    /// Worker threads (clamped to `[1, sessions]` at run time).
    pub threads: usize,
}

impl CampaignOptions {
    /// `threads` workers.
    pub fn new(threads: usize) -> Self {
        CampaignOptions { threads }
    }
}

/// Worker threads actually spawned for a request of `requested` threads:
/// clamped to `[1, sessions]` (a worker with no session to steal is
/// pure overhead) and to the host's available parallelism — spawning 16
/// workers on a 1-core host buys no scaling but multiplies the result
/// buffers the deterministic merge has to walk (the `merge_secs` blowup
/// the bench recorded before PR 10).
fn effective_threads(requested: usize, sessions: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.max(1).min(sessions.max(1)).min(cores)
}

/// Per-worker steal-and-run loop: `(index, result)` for every session
/// this worker stole, in steal order.
fn worker_loop(spec: &CampaignSpec, next: &AtomicUsize) -> Vec<(usize, SessionResult)> {
    let mut buf = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(session) = spec.sessions.get(i) else {
            return buf;
        };
        laqa_obs::counter!("campaign.steals").inc();
        buf.push((i, run_session(session)));
    }
}

/// Run the sweep under explicit [`CampaignOptions`]. Workers steal session
/// indices from a shared atomic counter and deposit `(index, result)` into
/// their own private buffers — no shared lock anywhere on the hot path —
/// and a deterministic index-ordered merge assembles the final vector
/// after the last worker exits. The fingerprint is bit-identical for
/// every thread count.
pub fn run_campaign_opts(spec: &CampaignSpec, opts: CampaignOptions) -> CampaignResult {
    let threads = effective_threads(opts.threads, spec.sessions.len());
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let (buffers, wall_secs) = std::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(move || worker_loop(spec, next)))
            .collect();
        let buffers: Vec<Vec<(usize, SessionResult)>> = handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect();
        // All workers have exited: this is the simulation wall time; the
        // merge below is timed separately (see CampaignResult::wall_secs).
        (buffers, started.elapsed().as_secs_f64())
    });

    let merge_started = Instant::now();
    let mut slots: Vec<Option<SessionResult>> = vec![None; spec.sessions.len()];
    for (i, result) in buffers.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "session {i} ran twice");
        slots[i] = Some(result);
    }
    let sessions: Vec<SessionResult> = slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("session {i} produced no result")))
        .collect();
    CampaignResult {
        sessions,
        threads,
        wall_secs,
        merge_secs: merge_started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::grid(&[TestKind::T1], &[2], &[7, 21], 4.0)
    }

    #[test]
    fn grid_enumerates_test_major() {
        let spec = CampaignSpec::grid(&TestKind::ALL, &[2, 4], &[1, 2], 10.0);
        assert_eq!(spec.len(), 8);
        assert_eq!(spec.sessions[0].label(), "T1/k2/seed1");
        assert_eq!(spec.sessions[3].label(), "T1/k4/seed2");
        assert_eq!(spec.sessions[4].label(), "T2/k2/seed1");
    }

    #[test]
    fn single_session_is_reproducible() {
        let spec = SessionSpec {
            test: TestKind::T1,
            k_max: 2,
            seed: 7,
            duration: 4.0,
            fault_intensity: None,
            transport: Transport::Rap,
            trace: None,
        };
        let a = run_session(&spec);
        let b = run_session(&spec);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.quality_changes, b.quality_changes);
        assert_eq!(a.backoffs, b.backoffs);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = tiny_spec();
        let serial = run_campaign(&spec, 1);
        let parallel = run_campaign(&spec, 4);
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        for (a, b) in serial.sessions.iter().zip(&parallel.sessions) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.trace_hash, b.trace_hash);
        }
    }

    #[test]
    fn product_enumerates_intensities_and_labels_them() {
        let (rap, intensities) = ([Transport::Rap], [0.0, 0.5, 1.0]);
        let spec = CampaignSpec::product(&[TestKind::T1], &[], &rap, &[2], &intensities, &[7], 10.0);
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.sessions[0].label(), "T1/k2/seed7");
        assert_eq!(spec.sessions[0].fault_intensity, None, "0.0 = baseline");
        assert_eq!(spec.sessions[1].label(), "T1/k2/seed7/f050");
        assert_eq!(spec.sessions[2].label(), "T1/k2/seed7/f100");
        assert_eq!(spec.sessions[2].scenario().fault_intensity, Some(1.0));
        assert_eq!(spec.sessions[0].scenario().fault_intensity, None);
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let spec = tiny_spec();
        let r = run_campaign(&spec, 2);
        assert_ne!(r.sessions[0].trace_hash, r.sessions[1].trace_hash);
    }

    #[test]
    fn table_and_summaries_cover_every_session() {
        let spec = tiny_spec();
        let r = run_campaign(&spec, 2);
        let table = r.table();
        for s in &r.sessions {
            assert!(table.contains(&s.spec.label()), "missing {}", s.spec.label());
        }
        let summaries = r.summaries();
        assert_eq!(summaries.len(), spec.len());
        assert!(summaries[0].experiment.starts_with("campaign/T1"));
    }
}
