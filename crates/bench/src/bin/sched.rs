//! `sched` — event-scheduler baseline: heap oracle vs timer wheel.
//!
//! Drives the campaign smoke grid and the fault-suite sweep under both
//! [`laqa_sim::SchedulerKind`]s, cross-checks that every fingerprint is
//! bit-identical (exiting non-zero on any divergence), and reports
//! events/sec and heap-allocation counts per scheduler. Results land in
//! `BENCH_sched.json` at the repo root so the speedup is tracked in-tree.
//!
//! ```text
//! sched                    # full baseline (3 reps per cell, best-of)
//! sched --smoke            # 1 rep, shorter durations (CI wiring)
//! options: --threads N (default 1: scheduler-bound timing)
//!          --duration S  --reps N  --out FILE
//!          --kmax LIST (default 2,4)  --seeds LIST (default 7,21)
//! ```
//!
//! Every knob — including the grid — is recorded in the output JSON so
//! bench trajectories are comparable across machines and configurations.

use laqa_bench::cli::Args;
use laqa_sim::{run_campaign_with, CampaignSpec, SchedulerKind, TestKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapped with allocation counters, so the report can
/// show the arena/`Route` effect (events routed through slab storage and
/// refcounted routes instead of per-event boxes) as a hard number.
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

/// One measured cell: a (workload, scheduler) pair.
struct Cell {
    workload: &'static str,
    sched: SchedulerKind,
    fingerprint: u64,
    events: u64,
    /// Best-of-reps wall time (seconds).
    wall_secs: f64,
    allocations: u64,
    alloc_bytes: u64,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
}

fn measure_rep(
    workload: &'static str,
    spec: &CampaignSpec,
    sched: SchedulerKind,
    threads: usize,
) -> Cell {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let started = Instant::now();
    let result = run_campaign_with(spec, threads, sched);
    let wall_secs = started.elapsed().as_secs_f64();
    Cell {
        workload,
        sched,
        fingerprint: result.fingerprint(),
        events: result.sessions.iter().map(|s| s.events_processed).sum(),
        wall_secs,
        allocations: ALLOCS.load(Ordering::Relaxed) - a0,
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    }
}

/// Measure every scheduler on `spec`, alternating schedulers within each
/// rep so machine noise hits all of them equally, keeping the best wall
/// time per scheduler. Reps must reproduce the same fingerprint bit for
/// bit or the run aborts.
fn measure(
    workload: &'static str,
    spec: &CampaignSpec,
    threads: usize,
    reps: usize,
) -> Vec<Cell> {
    // One discarded warmup pass per scheduler: the first run after process
    // start pays page faults, allocator growth, and CPU frequency ramp,
    // which would otherwise land entirely on whichever scheduler happens
    // to be measured first.
    for &kind in SchedulerKind::ALL.iter() {
        let _ = measure_rep(workload, spec, kind, threads);
    }
    let mut best: Vec<Option<Cell>> = SchedulerKind::ALL.iter().map(|_| None).collect();
    for _ in 0..reps.max(1) {
        for (slot, &kind) in best.iter_mut().zip(SchedulerKind::ALL.iter()) {
            let cell = measure_rep(workload, spec, kind, threads);
            match slot {
                Some(prev) => {
                    assert_eq!(
                        prev.fingerprint,
                        cell.fingerprint,
                        "{workload}/{}: rep-to-rep divergence",
                        kind.label()
                    );
                    if cell.wall_secs < prev.wall_secs {
                        *slot = Some(cell);
                    }
                }
                None => *slot = Some(cell),
            }
        }
    }
    best.into_iter().map(|c| c.expect("reps >= 1")).collect()
}

fn default_out() -> std::path::PathBuf {
    // crates/bench -> repo root; keeps the baseline working no matter the
    // working directory cargo was invoked from.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sched.json")
}

fn run(args: &Args) -> Result<(), AnyError> {
    let smoke = args.flag("smoke");
    let threads: usize = args.get("threads", 1)?;
    let reps: usize = args.get("reps", if smoke { 1 } else { 3 })?;
    let duration: f64 = args.get("duration", if smoke { 4.0 } else { 8.0 })?;
    let k_values: Vec<u32> = args.get_list("kmax", &[2, 4])?;
    let seeds: Vec<u64> = args.get_list("seeds", &[7, 21])?;

    let smoke_spec = CampaignSpec::grid(&[TestKind::T1], &k_values, &seeds, duration);
    let faults_spec = CampaignSpec::faults_grid(
        &[TestKind::T1],
        &k_values[..1.min(k_values.len())],
        &[0.0, 1.0],
        &seeds[..1.min(seeds.len())],
        duration.max(10.0),
    );
    let workloads: [(&'static str, &CampaignSpec); 2] =
        [("campaign_smoke", &smoke_spec), ("faults_suite", &faults_spec)];

    let mut cells: Vec<Cell> = Vec::new();
    for (name, spec) in workloads {
        eprintln!(
            "measuring {name} ({} sessions, {reps} interleaved rep(s), {threads} thread(s))...",
            spec.len()
        );
        cells.extend(measure(name, spec, threads, reps));
    }

    // Fingerprint gate: heap and wheel must agree per workload, bit for bit.
    for pair in cells.chunks(2) {
        let (heap, wheel) = (&pair[0], &pair[1]);
        if heap.fingerprint != wheel.fingerprint {
            return Err(format!(
                "SCHEDULER DIVERGENCE on {}: heap fingerprint {:016x} != wheel {:016x}",
                heap.workload, heap.fingerprint, wheel.fingerprint
            )
            .into());
        }
        if heap.events != wheel.events {
            return Err(format!(
                "SCHEDULER DIVERGENCE on {}: heap processed {} events, wheel {}",
                heap.workload, heap.events, wheel.events
            )
            .into());
        }
    }

    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12} {:>14}",
        "workload", "sched", "events", "wall (s)", "events/s", "allocations"
    );
    for c in &cells {
        println!(
            "{:<16} {:>6} {:>12} {:>12.3} {:>12.0} {:>14}",
            c.workload,
            c.sched.label(),
            c.events,
            c.wall_secs,
            c.events_per_sec(),
            c.allocations
        );
    }
    let ratio = |w: &str| -> f64 {
        let heap = cells
            .iter()
            .find(|c| c.workload == w && c.sched == SchedulerKind::Reference)
            .expect("heap cell");
        let wheel = cells
            .iter()
            .find(|c| c.workload == w && c.sched == SchedulerKind::Wheel)
            .expect("wheel cell");
        wheel.events_per_sec() / heap.events_per_sec().max(1e-9)
    };
    let smoke_ratio = ratio("campaign_smoke");
    let faults_ratio = ratio("faults_suite");
    println!(
        "speedup (wheel/heap): campaign_smoke {smoke_ratio:.2}x, faults_suite {faults_ratio:.2}x"
    );

    let out = args
        .options
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_out);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"sched\",\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"duration_secs\": {duration},\n"));
    let join = |v: Vec<String>| v.join(", ");
    json.push_str(&format!(
        "  \"grid\": {{\"tests\": [\"T1\"], \"k_values\": [{}], \"seeds\": [{}]}},\n",
        join(k_values.iter().map(|k| k.to_string()).collect()),
        join(seeds.iter().map(|s| s.to_string()).collect())
    ));
    json.push_str(&format!(
        "  \"speedup_campaign_smoke\": {smoke_ratio:.4},\n  \"speedup_faults_suite\": {faults_ratio:.4},\n"
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"scheduler\": \"{}\", \"events\": {}, \
             \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \"allocations\": {}, \
             \"alloc_bytes\": {}, \"fingerprint\": \"{:016x}\"}}{}\n",
            c.workload,
            c.sched.label(),
            c.events,
            c.wall_secs,
            c.events_per_sec(),
            c.allocations,
            c.alloc_bytes,
            c.fingerprint,
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
    let valued = ["threads", "reps", "duration", "kmax", "seeds", "out"];
    let args = match Args::parse(raw, &["smoke"], &valued) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.command != "run" {
        eprintln!(
            "error: unexpected argument '{}' — this binary takes options only \
             (--smoke, --threads N, --duration S, --reps N, --out FILE)",
            args.command
        );
        std::process::exit(2);
    }
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
