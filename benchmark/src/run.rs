//! One workload, start to finish: set-up (several times, for a steady
//! `setup_s`), closed-loop timed passes with tracing off, the output
//! checks, and — when asked — the traced run that fills the per-layer
//! table.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use laqa_sim::Transport;

use crate::metrics::{EndToEnd, END_TO_END, FAILED_FRAC, PER_LAYER};
use crate::spans::{Off, Probe, Span, SpanLog};
use crate::workload::{PassOutcome, Workload};
use crate::{alloc, host, kernels, stats};

/// Set-ups per run; `setup_s` is the fastest of them.
const SETUPS: usize = 5;
/// Fewest timed passes a run reports on.
const MIN_PASSES: usize = 3;
/// Timed passes when neither `--passes` nor `--seconds` says otherwise.
const DEFAULT_PASSES: usize = 7;
/// Untraced passes a traced-only run makes first, as its obs-off,
/// spans-off reference.
const REFERENCE_PASSES: usize = 3;
/// Failure messages kept per report.
const MAX_MESSAGES: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// Timed passes only: the end-to-end metrics.
    Off,
    /// Reference passes, then the traced run: the per-layer metrics.
    Only,
    /// Timed passes, then the traced run against them: both tables.
    Both,
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub passes: Option<usize>,
    pub seconds: Option<f64>,
    pub trace: Trace,
    pub smoke: bool,
}

/// Everything one workload's run reports.
pub struct Report {
    pub workload: &'static str,
    pub why: &'static str,
    pub passes: usize,
    pub sessions: usize,
    pub sim_seconds: f64,
    pub attempted: usize,
    pub failed: usize,
    pub messages: Vec<String>,
    pub fingerprint: u64,
    /// Samples behind each end-to-end metric (empty on a traced-only run).
    pub end_to_end: Vec<(EndToEnd, Vec<f64>)>,
    /// Per-layer values in table order (empty without a traced run).
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// Size of each timing sample behind a percentile, by metric stem.
    pub sample_sizes: Vec<(&'static str, usize)>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The gated metrics' samples plus `failed_frac`, for the printed
    /// table, the output file and `compare`.
    pub fn gated(&self) -> Vec<(EndToEnd, Vec<f64>)> {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let mut gated = self.end_to_end.clone();
        gated.push((FAILED_FRAC, vec![frac]));
        gated
    }

    fn fail(&mut self, sessions: usize, what: impl Into<String>) {
        self.failed += sessions;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(what.into());
        }
    }
}

struct TimedPass {
    wall_s: f64,
    allocs: u64,
    bytes: u64,
    /// `None` when the pass panicked.
    outcome: Option<PassOutcome>,
}

fn timed_pass<P: Probe>(w: &Workload, probe: &mut P) -> TimedPass {
    let (a0, b0) = alloc::counts();
    let t = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| w.pass(probe))).ok();
    let wall_s = t.elapsed().as_secs_f64();
    let (a1, b1) = alloc::counts();
    TimedPass {
        wall_s,
        allocs: a1 - a0,
        bytes: b1 - b0,
        outcome,
    }
}

/// Count one pass's failures into `report`, holding its fingerprint to
/// `reference` (the first good pass's).
fn account(report: &mut Report, label: &str, pass: &TimedPass, reference: Option<u64>) {
    report.attempted += report.sessions;
    let Some(outcome) = &pass.outcome else {
        report.fail(
            report.sessions,
            format!("{label}: panicked; all its sessions fail"),
        );
        return;
    };
    if reference.is_some_and(|fp| fp != outcome.fingerprint) {
        report.fail(
            report.sessions,
            format!(
                "{label}: fingerprint {:016x} differs from pass 1's {:016x}",
                outcome.fingerprint,
                reference.unwrap_or(0)
            ),
        );
        return;
    }
    report.failed += outcome.failed_sessions();
    for f in &outcome.failures {
        if report.messages.len() < MAX_MESSAGES {
            report
                .messages
                .push(format!("{label}: session {}: {}", f.session, f.what));
        }
    }
}

/// Run `name` under `opts`. `None` for an unknown workload name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Option<Report> {
    let (workload, why) = crate::workload::WORKLOADS
        .into_iter()
        .find(|(n, _)| *n == name)?;

    // Set-up: input generation from the seed plus the untimed warm-up.
    let set_up = || {
        let t = Instant::now();
        let w = Workload::build(workload, opts.seed, opts.smoke)?;
        w.warm_up();
        Some((w, t.elapsed().as_secs_f64()))
    };
    // A traced-only run does not report `setup_s`, so it sets up once.
    let setups = if opts.trace == Trace::Only { 1 } else { SETUPS };
    let (w, first_setup_s) = set_up()?;
    let mut setup_s = vec![first_setup_s];

    let mut report = Report {
        workload,
        why,
        passes: 0,
        sessions: w.sessions(),
        sim_seconds: w.sim_seconds(),
        attempted: 0,
        failed: 0,
        messages: Vec::new(),
        fingerprint: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        sample_sizes: Vec::new(),
        spans: Vec::new(),
    };

    // Timed passes, one after the other, tracing off. The remaining
    // set-ups are repeated between them rather than up front: the host's
    // slow spells outlast five set-ups in a row, so only samples spread
    // over the whole run give `setup_s` the chance the passes have of
    // meeting the host at full speed.
    let started = Instant::now();
    let mut passes: Vec<TimedPass> = Vec::new();
    loop {
        passes.push(timed_pass(&w, &mut Off));
        if setup_s.len() < setups {
            setup_s.push(set_up()?.1);
        }
        let n = passes.len();
        let done = match (opts.trace, opts.passes, opts.seconds) {
            (Trace::Only, ..) => n >= REFERENCE_PASSES,
            (_, Some(want), _) => n >= want.max(2),
            (_, None, Some(secs)) => n >= MIN_PASSES && started.elapsed().as_secs_f64() >= secs,
            (_, None, None) => n >= DEFAULT_PASSES,
        };
        if done {
            break;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    report.passes = passes.len();
    while setup_s.len() < setups {
        setup_s.push(set_up()?.1);
    }

    let reference: Option<&PassOutcome> = passes.iter().find_map(|p| p.outcome.as_ref());
    report.fingerprint = reference.map_or(0, |o| o.fingerprint);
    let reference_fp = reference.map(|o| o.fingerprint);
    for (i, pass) in passes.iter().enumerate() {
        account(&mut report, &format!("pass {}", i + 1), pass, reference_fp);
    }
    if let (Workload::Sim(sim), Some(reference)) = (&w, reference) {
        report.attempted += sim.sampled.len();
        for f in sim.check_sampled_cells(reference) {
            report.fail(1, format!("sampled cell {}: {}", f.session, f.what));
        }
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    if opts.trace != Trace::Only {
        let per_session = |f: &dyn Fn(&TimedPass) -> u64| -> Vec<f64> {
            // Pass 1 still grows pools and arenas; steady state starts at 2.
            passes[1..]
                .iter()
                .map(|p| f(p) as f64 / report.sessions as f64)
                .collect()
        };
        let samples = [
            walls.iter().map(|w| report.sim_seconds / w).collect(),
            walls,
            per_session(&|p| p.allocs),
            per_session(&|p| p.bytes),
            vec![peak_rss_mb],
            setup_s,
        ];
        report.end_to_end = END_TO_END.into_iter().zip(samples).collect();
    }

    if opts.trace != Trace::Off {
        if let Some(reference) = reference.cloned() {
            traced_run(&w, &passes, &reference, opts, &mut report);
        }
    }
    Some(report)
}

/// The traced run: (a) one pass with obs on, harvesting the libraries'
/// own counters and histograms; (b) one pass under harness spans; (c) the
/// layer kernels. `untraced` are the passes it is compared against.
fn traced_run(
    w: &Workload,
    untraced: &[TimedPass],
    reference: &PassOutcome,
    opts: &RunOpts,
    report: &mut Report,
) {
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let wall_ref = stats::median(&walls);
    let scale = if opts.smoke { 0.02 } else { 1.0 };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.extend(reference.counts.iter().map(|(k, x)| (*k, *x)));

    // (a) obs on.
    laqa_obs::reset();
    laqa_obs::set_enabled(true);
    let obs_pass = timed_pass(w, &mut Off);
    laqa_obs::set_enabled(false);
    let snap = laqa_obs::snapshot();
    account(
        report,
        "obs-on pass",
        &obs_pass,
        Some(reference.fingerprint),
    );
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let quantile = |name: &str, q: f64| {
        snap.histogram(name)
            .and_then(|h| h.quantile(q))
            .unwrap_or(0.0)
    };
    v.insert("obs.overhead_ratio", ratio(obs_pass.wall_s, wall_ref));
    v.insert("obs.ring_evicted", snap.events_evicted as f64);
    v.insert("engine.dispatch_ns_p50", quantile("sched.dispatch_ns", 0.5));
    v.insert(
        "engine.dispatch_ns_p99",
        quantile("sched.dispatch_ns", 0.99),
    );
    let inserts = counter("sched.wheel_insert_active")
        + counter("sched.wheel_insert_window")
        + counter("sched.wheel_insert_overflow");
    v.insert(
        "sched.insert_active_frac",
        ratio(counter("sched.wheel_insert_active"), inserts),
    );
    v.insert(
        "sched.insert_overflow_frac",
        ratio(counter("sched.wheel_insert_overflow"), inserts),
    );
    v.insert("campaign.steals", counter("campaign.steals"));
    v.insert("core.ticks", counter("qa.ticks"));
    let lookups = counter("qa.geometry_cache.hits") + counter("qa.geometry_cache.misses");
    v.insert("core.geometry_lookups", lookups);
    v.insert(
        "core.geometry_hit_frac",
        ratio(counter("qa.geometry_cache.hits"), lookups),
    );
    for name in [
        "rap.backoffs_loss",
        "rap.backoffs_timeout",
        "rap.rtt_samples",
    ] {
        v.insert(name, counter(name));
    }

    // (b) harness spans on.
    let mut log = SpanLog::new(w.batch_names());
    let root = log.enter("harness.pass");
    let span_pass = timed_pass(w, &mut log);
    log.exit(root);
    account(
        report,
        "spans-on pass",
        &span_pass,
        Some(reference.fingerprint),
    );
    v.insert(
        "harness.trace_overhead_ratio",
        ratio(span_pass.wall_s, wall_ref),
    );
    v.insert("harness.pass_spread", stats::spread(&walls));
    report.spans = log.into_spans();

    // Campaign layer: only a grid has one.
    if let Workload::Sim(sim) = w {
        let nproc = host::nproc();
        let (wall_n, fp_n) = sim.threaded_pass(nproc);
        report.attempted += report.sessions;
        if fp_n != reference.fingerprint {
            report.fail(
                report.sessions,
                format!("{nproc}-thread pass: fingerprint {fp_n:016x} differs from 1 thread's"),
            );
        }
        v.insert("campaign.speedup_nproc", ratio(wall_ref, wall_n));
        v.insert("campaign.session_fixed_us", sim.session_fixed_us());
        v.insert("campaign.merge_s", reference.merge_s);
        let cell_ms: Vec<f64> = untraced
            .iter()
            .filter_map(|p| p.outcome.as_ref())
            .flat_map(|o| o.cell_ms.iter().copied())
            .collect();
        v.insert("campaign.cell_ms_p50", stats::percentile(&cell_ms, 50.0));
        v.insert("campaign.cell_ms_p95", stats::percentile(&cell_ms, 95.0));
        report
            .sample_sizes
            .push(("campaign.cell_ms", cell_ms.len()));
    }

    // (c) layer kernels.
    v.insert(
        "engine.forward_ns_per_pkt",
        kernels::engine_forward_ns_per_pkt(scale),
    );
    let hold_64 = kernels::sched_hold_ns_per_op(64, scale);
    v.insert("sched.hold_ns_per_op_p64", hold_64);
    v.insert(
        "sched.hold_ns_per_op_p4096",
        kernels::sched_hold_ns_per_op(4_096, scale),
    );
    let (configs, dt) = w.qa_mix();
    let core = kernels::core_kernel(&configs, dt, scale);
    // Where the harness itself calls `tick` and `on_backoff`, pass (b)
    // timed the workload's own calls one by one; those beat the kernel's
    // replay. Inside the simulator the harness sees neither call.
    let span_ns = |name: &str| -> Vec<f64> {
        report
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    };
    let (mut tick_ns, backoff_spans) = (span_ns("core.tick"), span_ns("core.on_backoff"));
    if tick_ns.is_empty() {
        tick_ns = core.tick_ns;
    }
    let tick_p50 = stats::percentile(&tick_ns, 50.0);
    report.sample_sizes.push(("core.tick_ns", tick_ns.len()));
    v.insert("core.tick_ns_p50", tick_p50);
    v.insert("core.tick_ns_p99", stats::percentile(&tick_ns, 99.0));
    v.insert(
        "core.backoff_ns",
        if backoff_spans.is_empty() {
            core.backoff_ns
        } else {
            backoff_spans.iter().sum::<f64>() / backoff_spans.len() as f64
        },
    );
    v.insert("core.pkt_assign_ns", core.pkt_assign_ns);
    v.insert("core.allocs_per_tick", core.allocs_per_tick);
    v.insert("core.seq_build_ns_k2", kernels::seq_build_ns(2, scale));
    v.insert("core.seq_build_ns_k16", kernels::seq_build_ns(16, scale));
    let mut round_allocs = 0.0;
    for (t, name) in Transport::ALL.into_iter().zip([
        "rap.pkt_round_ns.rap",
        "rap.pkt_round_ns.bbr",
        "rap.pkt_round_ns.nada",
        "rap.pkt_round_ns.tcp",
    ]) {
        let round = kernels::pkt_round(t, scale);
        v.insert(name, round.ns);
        round_allocs += round.allocs / Transport::ALL.len() as f64;
    }
    v.insert("rap.allocs_per_pkt", round_allocs);
    let (on_data_ns, advance_ns) = kernels::layered_ns(scale);
    v.insert("layered.on_data_ns", on_data_ns);
    v.insert("layered.advance_ns", advance_ns);
    let trace_spec = match w {
        Workload::Sim(sim) => sim.spec.sessions[0].clone(),
        _ => kernels::default_trace_spec(),
    };
    let (hash_us, json_us) = kernels::trace_us(&trace_spec, scale);
    v.insert("trace.hash_outcome_us", hash_us);
    v.insert("trace.summary_json_us", json_us);

    // Shares of the untraced pass, from counts in (a) and costs in (c).
    let wall_ns = wall_ref * 1e9;
    let events = v.get("engine.events").copied().unwrap_or(0.0);
    v.insert("engine.ns_per_event", ratio(wall_ns, events));
    // Every dispatched event was inserted once and popped once.
    v.insert("sched.share_est", ratio(2.0 * events * hold_64, wall_ns));
    v.insert(
        "core.tick_share",
        ratio(counter("qa.ticks") * tick_p50, wall_ns),
    );
    v.insert(
        "sim.fingerprint_lo32",
        (reference.fingerprint & 0xffff_ffff) as f64,
    );
    v.insert("harness.cpu_s", host::cpu_s());

    report.per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let x = v.get(m.name).copied().unwrap_or(0.0);
            (m.name, m.unit, if x.is_finite() { x } else { 0.0 })
        })
        .collect();
}
