//! `campaign_bench` — warm-world campaign executor baseline.
//!
//! Sweeps the campaign smoke grid across thread counts on cold vs. warm
//! worlds under both scheduler kinds, cross-checks that every one of the
//! `{cold, warm} × {threads} × {heap, wheel}` fingerprints is bit-identical
//! (exiting non-zero on any divergence — warm pools must be invisible to
//! the simulation), probes steady-state allocations
//! for a warm pool's second session, and writes `BENCH_campaign.json` at
//! the repo root so campaign throughput is tracked in-tree.
//!
//! ```text
//! campaign_bench                   # full baseline (3 reps, best-of)
//! campaign_bench --smoke           # 1 rep, short duration (CI wiring)
//! campaign_bench --profile         # per-dispatch-site time breakdown from
//!                                  # the instrumented rep (no extra deps)
//! options: --threads LIST (default 1,2,8,16)  --reps N  --duration S
//!          --out FILE  --check FILE (>20% events/sec regression gate;
//!          skipped, loudly, when FILE was recorded on a host with a
//!          different core count)
//! ```

use laqa_bench::cli::Args;
use laqa_sim::{
    run_campaign_fold, run_campaign_opts, run_session_pooled, CampaignOptions, CampaignSpec,
    SchedulerKind, SessionSpec, TestKind, Transport, WorldPool,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with allocation counters: the whole point of
/// the warm-world path is the allocations it does *not* make, so the
/// report pins allocs/session per mode as a hard number.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// laqa crates are all `deny(unsafe_code)`; the one unavoidable unsafe
// surface (the global-allocator hook) lives here in the bench binary.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

type AnyError = Box<dyn std::error::Error>;

/// One measured cell: a (world mode, scheduler, thread count) triple.
struct Cell {
    mode: &'static str,
    /// QA-flow congestion controller ("rap" for the whole gated grid;
    /// other labels only appear in the interop probe's cells).
    transport: &'static str,
    sched: SchedulerKind,
    threads: usize,
    /// Workers the executor actually spawned: `threads` clamped to the
    /// session count and the host's available parallelism.
    threads_effective: usize,
    fingerprint: u64,
    events: u64,
    /// Best-of-reps worker wall time (merge excluded; seconds).
    wall_secs: f64,
    merge_secs: f64,
    allocations: u64,
    sessions: usize,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
    fn allocs_per_session(&self) -> u64 {
        self.allocations / self.sessions.max(1) as u64
    }
}

fn measure_rep(spec: &CampaignSpec, opts: CampaignOptions, mode: &'static str) -> Cell {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let result = run_campaign_opts(spec, opts);
    Cell {
        mode,
        transport: "rap",
        sched: opts.sched,
        threads: opts.threads,
        threads_effective: result.threads,
        fingerprint: result.fingerprint(),
        events: result.sessions.iter().map(|s| s.events_processed).sum(),
        wall_secs: result.wall_secs,
        merge_secs: result.merge_secs,
        allocations: ALLOCS.load(Ordering::Relaxed) - a0,
        sessions: result.sessions.len(),
    }
}

/// Best-of-`reps` for one configuration, with a discarded warmup rep and a
/// rep-to-rep fingerprint assert.
fn measure(spec: &CampaignSpec, opts: CampaignOptions, mode: &'static str, reps: usize) -> Cell {
    let _ = measure_rep(spec, opts, mode);
    let mut best: Option<Cell> = None;
    for _ in 0..reps.max(1) {
        let cell = measure_rep(spec, opts, mode);
        match &best {
            Some(prev) => {
                assert_eq!(
                    prev.fingerprint, cell.fingerprint,
                    "{mode}/{}/t{}: rep-to-rep divergence",
                    opts.sched.label(),
                    opts.threads
                );
                if cell.wall_secs < prev.wall_secs {
                    best = Some(cell);
                }
            }
            None => best = Some(cell),
        }
    }
    best.expect("reps >= 1")
}

/// One extra instrumented rep with laqa-obs enabled, run outside the
/// timed best-of reps: proves the instrumentation is inert (fingerprint
/// unchanged vs. the timed cells) and harvests the latency histograms the
/// hot paths feed — scheduler dispatch time, timer-wheel arming horizon
/// and per-session campaign wall time.
fn quantile_probe(
    spec: &CampaignSpec,
    threads: usize,
    fp0: u64,
) -> Result<laqa_obs::Snapshot, AnyError> {
    laqa_obs::reset();
    laqa_obs::set_enabled(true);
    let warm = run_campaign_opts(spec, CampaignOptions::new(threads));
    if warm.fingerprint() != fp0 {
        return Err(format!(
            "OBS NOT INERT: instrumented fingerprint {:016x} != {fp0:016x}",
            warm.fingerprint()
        )
        .into());
    }
    laqa_obs::set_enabled(false);
    let snap = laqa_obs::snapshot();
    laqa_obs::reset();
    Ok(snap)
}

/// `--profile`: time breakdown from the instrumented rep's snapshot —
/// count, total and mean wall time of event dispatch and of every span,
/// plus the timer wheel's insert-path split. Zero external dependencies:
/// every number is already in the laqa-obs registries.
fn print_profile(snap: &laqa_obs::Snapshot) {
    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>7}",
        "site", "count", "total (ms)", "mean (ns)", "share"
    );
    // Engine event dispatch; the spans below cover the enclosing scopes.
    if let Some(h) = snap.histogram("sched.dispatch_ns") {
        println!(
            "{:<26} {:>12} {:>12.3} {:>10.1} {:>7}",
            h.name,
            h.count,
            h.sum / 1e6,
            h.mean().unwrap_or(0.0),
            "-"
        );
    }
    for (name, s) in &snap.spans {
        if s.count == 0 {
            continue;
        }
        println!(
            "{:<26} {:>12} {:>12.3} {:>10.1} {:>7}",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.mean_ns().unwrap_or(0.0),
            "-"
        );
    }
    // Wheel insert-path split: which of the three schedule() arms the
    // workload actually exercises (active-tick merge / slot window /
    // overflow tree).
    let paths = [
        "sched.wheel_insert_active",
        "sched.wheel_insert_window",
        "sched.wheel_insert_overflow",
    ];
    let inserts: u64 = paths
        .iter()
        .map(|n| snap.counter(n).unwrap_or(0))
        .sum();
    for name in paths {
        let n = snap.counter(name).unwrap_or(0);
        println!(
            "{:<26} {:>12} {:>12} {:>10} {:>6.1}%",
            name,
            n,
            "-",
            "-",
            100.0 * n as f64 / inserts.max(1) as f64
        );
    }
}

/// Look up one quantile of a named histogram from the probe's snapshot.
fn probe_quantile(hists: &[laqa_obs::HistogramSnapshot], name: &str, q: f64) -> Option<f64> {
    hists.iter().find(|h| h.name == name)?.quantile(q)
}

/// Steady-state probe: allocations charged to a warm pool's first two
/// sessions. The first pays world construction; from the second on,
/// engine storage is recycled — the number
/// `crates/bench/tests/warm_alloc.rs` budgets.
fn steady_state_allocs(duration: f64) -> (u64, u64) {
    let spec = SessionSpec {
        test: TestKind::T1,
        k_max: 2,
        seed: 7,
        duration,
        fault_intensity: None,
        transport: Transport::Rap,
        trace: None,
    };
    let mut pool = WorldPool::new();
    let mut session = || {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let _ = run_session_pooled(&spec, SchedulerKind::Wheel, &mut pool);
        ALLOCS.load(Ordering::Relaxed) - a0
    };
    let first = session();
    (first, session())
}

/// QA × transport interop probe: a small T1 grid run once per transport
/// on the warm executor, replayed on a second thread count to prove each
/// controller's trace is deterministic. Reported in its own JSON block,
/// deliberately OUTSIDE the executor fingerprint gate — different
/// congestion controllers legitimately produce different traces, so
/// their fingerprints must never be folded into the `fp0` assertion.
fn interop_probe(duration: f64, reps: usize) -> Result<Vec<Cell>, AnyError> {
    let mut out = Vec::new();
    for &t in Transport::ALL.iter() {
        let mut spec = CampaignSpec::grid(&[TestKind::T1], &[2], &[7, 21], duration);
        for s in &mut spec.sessions {
            s.transport = t;
        }
        eprintln!("measuring interop/{} ({} sessions)...", t.label(), spec.len());
        let mut cell = measure(&spec, CampaignOptions::new(1), "interop", reps);
        cell.transport = t.label();
        let replay = measure_rep(&spec, CampaignOptions::new(2), "interop");
        if replay.fingerprint != cell.fingerprint {
            return Err(format!(
                "INTEROP DIVERGENCE: {} fingerprint {:016x} at 2 threads != {:016x} at 1",
                t.label(),
                replay.fingerprint,
                cell.fingerprint
            )
            .into());
        }
        out.push(cell);
    }
    Ok(out)
}

/// Hostile-network probe: the smoke grid re-run once per trace family
/// (LTE swings, bufferbloat, diurnal ramp, bonded two-path) on the warm
/// executor, replayed at 2 threads to prove trace-driven cells stay
/// deterministic. Like the interop block this is deliberately OUTSIDE the
/// `fp0` executor gate — a schedule-driven bottleneck legitimately
/// produces a different trajectory per family, so these fingerprints must
/// never be folded into the executor assertion.
/// (`Cell::transport` carries the trace label here.)
fn hostile_probe(duration: f64, reps: usize) -> Result<Vec<Cell>, AnyError> {
    let mut out = Vec::new();
    for &t in laqa_sim::TraceKind::ALL.iter() {
        let mut spec = CampaignSpec::grid(&[TestKind::T1], &[2], &[7, 21], duration);
        for s in &mut spec.sessions {
            s.trace = Some(t);
        }
        eprintln!("measuring hostile/{} ({} sessions)...", t.label(), spec.len());
        let mut cell = measure(&spec, CampaignOptions::new(1), "hostile", reps);
        cell.transport = t.label();
        let replay = measure_rep(&spec, CampaignOptions::new(2), "hostile");
        if replay.fingerprint != cell.fingerprint {
            return Err(format!(
                "HOSTILE DIVERGENCE: {} fingerprint {:016x} at 2 threads != {:016x} at 1",
                t.label(),
                replay.fingerprint,
                cell.fingerprint
            )
            .into());
        }
        out.push(cell);
    }
    Ok(out)
}

fn default_out() -> std::path::PathBuf {
    // crates/bench -> repo root, independent of cargo's working directory.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json")
}

/// Pull `"key": <number>` out of a baseline JSON by string scan (the
/// bench JSON is handwritten, flat, and trusted — no parser needed).
fn scan_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn run(args: &Args) -> Result<(), AnyError> {
    let smoke = args.flag("smoke");
    let reps: usize = args.get("reps", if smoke { 1 } else { 3 })?;
    // Even the smoke duration stays past qa_start (5 s) so the QA
    // controller is actually exercised.
    let duration: f64 = args.get("duration", if smoke { 6.0 } else { 8.0 })?;
    let thread_counts: Vec<usize> = args.get_list("threads", &[1, 2, 8, 16])?;

    // 16 sessions (T1 × k{2,4} × 8 seeds) so a 16-thread run actually gets
    // one session per worker instead of clamping down.
    let seeds: [u64; 8] = [7, 21, 35, 49, 63, 77, 91, 105];
    let spec = CampaignSpec::grid(&[TestKind::T1], &[2, 4], &seeds, duration);

    let mut cells: Vec<Cell> = Vec::new();
    for &sched in SchedulerKind::ALL.iter() {
        for &threads in &thread_counts {
            let modes = [
                ("cold", CampaignOptions::new(threads).sched(sched).cold()),
                ("warm", CampaignOptions::new(threads).sched(sched)),
            ];
            for (mode, opts) in modes {
                eprintln!(
                    "measuring {mode}/{}/t{threads} ({} sessions, {reps} rep(s))...",
                    sched.label(),
                    spec.len()
                );
                cells.push(measure(&spec, opts, mode, reps));
            }
        }
    }

    // Fingerprint gate: every {mode, sched, threads} combination must
    // reproduce the same campaign bit for bit.
    let fp0 = cells[0].fingerprint;
    for c in &cells {
        if c.fingerprint != fp0 {
            return Err(format!(
                "EXECUTOR DIVERGENCE: {}/{}/t{} fingerprint {:016x} != {:016x}",
                c.mode,
                c.sched.label(),
                c.threads,
                c.fingerprint,
                fp0
            )
            .into());
        }
    }

    // The streaming fold must reproduce the full-mode fingerprint too.
    let fold = run_campaign_fold(
        &spec,
        CampaignOptions::new(*thread_counts.iter().max().unwrap_or(&1)),
        0u64,
        |acc, r| *acc += r.events_processed,
    );
    if fold.fingerprint != fp0 {
        return Err(format!(
            "STREAMING DIVERGENCE: fold fingerprint {:016x} != full {:016x}",
            fold.fingerprint, fp0
        )
        .into());
    }

    let (cold_first, warm_second) = steady_state_allocs(duration);

    eprintln!("measuring instrumented quantile rep (obs enabled, untimed)...");
    let probe_threads = *thread_counts.iter().max().unwrap_or(&1);
    let probe_snap = quantile_probe(&spec, probe_threads, fp0)?;
    let hists = &probe_snap.histograms;

    let interop = interop_probe(duration, reps)?;
    let hostile = hostile_probe(duration, reps)?;

    println!(
        "{:<6} {:>6} {:>3} {:>12} {:>10} {:>12} {:>14} {:>10}",
        "mode", "sched", "thr", "events", "wall (s)", "events/s", "allocs/sess", "merge (ms)"
    );
    for c in &cells {
        println!(
            "{:<6} {:>6} {:>3} {:>12} {:>10.3} {:>12.0} {:>14} {:>10.3}",
            c.mode,
            c.sched.label(),
            c.threads,
            c.events,
            c.wall_secs,
            c.events_per_sec(),
            c.allocs_per_session(),
            c.merge_secs * 1e3
        );
    }

    let find = |mode: &str, sched: SchedulerKind, threads: usize| -> Option<&Cell> {
        cells
            .iter()
            .find(|c| c.mode == mode && c.sched == sched && c.threads == threads)
    };
    let base_threads = *thread_counts.first().unwrap_or(&1);
    let warm_vs_cold = match (
        find("warm", SchedulerKind::Wheel, base_threads),
        find("cold", SchedulerKind::Wheel, base_threads),
    ) {
        (Some(w), Some(c)) => w.events_per_sec() / c.events_per_sec().max(1e-9),
        _ => 1.0,
    };
    // A thread-scaling number only exists when the 8-thread cell really
    // ran on more than one worker; a 1-core host records none.
    let agg_8_vs_1 = match (
        find("warm", SchedulerKind::Wheel, 8),
        find("warm", SchedulerKind::Wheel, 1),
    ) {
        (Some(w8), Some(w1)) if w8.threads_effective > 1 => {
            Some(w8.events_per_sec() / w1.events_per_sec().max(1e-9))
        }
        _ => None,
    };
    // Overall events/sec over every cell — the number the `--check` gate
    // compares against.
    let overall: f64 = {
        let events: u64 = cells.iter().map(|c| c.events).sum();
        let wall: f64 = cells.iter().map(|c| c.wall_secs).sum();
        events as f64 / wall.max(1e-9)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "warm/cold @{base_threads} thread(s) (wheel): {warm_vs_cold:.2}x; \
         warm 8-vs-1 threads: {}; overall {overall:.0} events/s on {host_cores} core(s)",
        agg_8_vs_1.map_or("n/a (one worker)".to_string(), |r| format!("{r:.2}x")),
    );
    println!(
        "steady-state allocs: first (cold) session {cold_first}, second (warm) {warm_second}"
    );
    for c in &interop {
        println!(
            "interop {:>4}: fingerprint {:016x}, {:.0} events/s (deterministic at 1 and 2 threads)",
            c.transport,
            c.fingerprint,
            c.events_per_sec()
        );
    }
    for c in &hostile {
        println!(
            "hostile {:>7}: fingerprint {:016x}, {:.0} events/s \
             (deterministic at 1 and 2 threads)",
            c.transport,
            c.fingerprint,
            c.events_per_sec()
        );
    }

    // Quantile table from the instrumented rep. Dispatch and horizon are
    // nanoseconds, session wall is milliseconds.
    let probe_names = [
        "sched.dispatch_ns",
        "sched.wheel_horizon_ns",
        "campaign.session_wall_ms",
    ];
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "latency histogram", "count", "p50", "p90", "p99", "p999"
    );
    for name in probe_names {
        let Some(h) = hists.iter().find(|h| h.name == name) else {
            continue;
        };
        let fmt = |q: f64| match h.quantile(q) {
            Some(v) => format!("{v:.1}"),
            None => "-".to_string(),
        };
        println!(
            "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12}",
            h.name,
            h.count,
            fmt(0.5),
            fmt(0.9),
            fmt(0.99),
            fmt(0.999)
        );
    }

    if args.flag("profile") {
        print_profile(&probe_snap);
    }

    if let Some(path) = args.options.get("check") {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let base_eps = scan_number(&baseline, "events_per_sec_overall")
            .filter(|&eps| eps > 0.0)
            .ok_or_else(|| format!("baseline {path} has no events_per_sec_overall"))?;
        // Events/sec is only comparable on the hardware that recorded it
        // (baselines older than the field count as another host).
        let base_cores = scan_number(&baseline, "host_cores").map(|c| c as usize);
        if base_cores != Some(host_cores) {
            let recorded = match base_cores {
                Some(c) => format!("was recorded on {c} core(s)"),
                None => "records no host_cores".to_string(),
            };
            println!(
                "regression gate: SKIPPED — {path} {recorded}, this host has {host_cores}; \
                 regenerate the baseline here to re-arm the gate"
            );
        } else {
            let ratio = overall / base_eps;
            println!(
                "regression gate: {overall:.0} events/s vs baseline {base_eps:.0} ({ratio:.2}x)"
            );
            if ratio < 0.8 {
                return Err(format!(
                    "PERF REGRESSION: events/sec dropped >20% vs {path} \
                     ({overall:.0} vs {base_eps:.0})"
                )
                .into());
            }
        }
    }

    let out = args
        .options
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_out);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"campaign\",\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"duration_secs\": {duration},\n"));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!(
        "  \"grid\": {{\"tests\": [\"T1\"], \"k_values\": [2, 4], \"seeds\": {}, \
         \"sessions\": {}}},\n",
        seeds.len(),
        spec.len()
    ));
    json.push_str(&format!(
        "  \"thread_counts\": [{}],\n",
        thread_counts
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"speedup_warm_vs_cold_1thread\": {warm_vs_cold:.4},\n"
    ));
    if let Some(r) = agg_8_vs_1 {
        json.push_str(&format!("  \"speedup_warm_8_vs_1_threads\": {r:.4},\n"));
    }
    json.push_str(&format!("  \"events_per_sec_overall\": {overall:.1},\n"));
    json.push_str(&format!(
        "  \"steady_state_allocs\": {{\"first_session\": {cold_first}, \
         \"second_session_warm\": {warm_second}}},\n"
    ));
    // p99 latencies from the instrumented rep — tracked for trend-spotting
    // only, never gated: they are wall-clock noise on shared hardware.
    {
        let q = |name: &str| probe_quantile(hists, name, 0.99);
        let mut fields: Vec<String> = Vec::new();
        let mut push = |key: &str, v: Option<f64>| {
            if let Some(v) = v {
                fields.push(format!("\"{key}\": {v:.1}"));
            }
        };
        push("sched_dispatch_p99_ns", q("sched.dispatch_ns"));
        // Renamed from sched_wheel_slack_p99_ns in PR 10: the value is the
        // arming horizon (how far ahead of the cursor timers land), which
        // legitimately sits around ~1 s — it was never delivery lateness.
        push("sched_wheel_horizon_p99_ns", q("sched.wheel_horizon_ns"));
        push("campaign_session_wall_p99_ms", q("campaign.session_wall_ms"));
        if !fields.is_empty() {
            json.push_str(&format!(
                "  \"latency_p99\": {{{}}},\n",
                fields.join(", ")
            ));
        }
    }
    json.push_str(&format!("  \"fingerprint\": \"{fp0:016x}\",\n"));
    // Per-transport interop fingerprints live in their own block: unlike
    // `cells`, these are *expected* to differ from `fingerprint` and from
    // each other (different congestion controllers, different traces).
    json.push_str("  \"interop\": [\n");
    for (i, c) in interop.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"transport\": \"{}\", \"fingerprint\": \"{:016x}\", \"sessions\": {}, \
             \"events\": {}, \"events_per_sec\": {:.1}}}{}\n",
            c.transport,
            c.fingerprint,
            c.sessions,
            c.events,
            c.events_per_sec(),
            if i + 1 < interop.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Hostile (TraceLink) fingerprints: same contract as `interop` —
    // outside the fp0 gate, expected to differ per trace family, pinned
    // here so schedule or striping drift shows up in review.
    json.push_str("  \"hostile\": [\n");
    for (i, c) in hostile.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"trace\": \"{}\", \"fingerprint\": \"{:016x}\", \"sessions\": {}, \
             \"events\": {}, \"events_per_sec\": {:.1}}}{}\n",
            c.transport,
            c.fingerprint,
            c.sessions,
            c.events,
            c.events_per_sec(),
            if i + 1 < hostile.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"transport\": \"{}\", \"scheduler\": \"{}\", \
             \"threads\": {}, \"threads_effective\": {}, \
             \"events\": {}, \"wall_secs\": {:.6}, \"merge_secs\": {:.6}, \
             \"events_per_sec\": {:.1}, \"allocs_per_session\": {}}}{}\n",
            c.mode,
            c.transport,
            c.sched.label(),
            c.threads,
            c.threads_effective,
            c.events,
            c.wall_secs,
            c.merge_secs,
            c.events_per_sec(),
            c.allocs_per_session(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json)?;
    println!("wrote {}", out.display());
    Ok(())
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_none_or(|a| a.starts_with("--")) {
        raw.insert(0, "run".to_string());
    }
    let valued = ["threads", "reps", "duration", "out", "check"];
    let args = match Args::parse(raw, &["smoke", "profile"], &valued) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.command != "run" {
        eprintln!(
            "error: unexpected argument '{}' — this binary takes options only \
             (--smoke, --profile, --threads LIST, --duration S, --reps N, \
             --out FILE, --check FILE)",
            args.command
        );
        std::process::exit(2);
    }
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
