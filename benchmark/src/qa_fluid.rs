//! `qa_fluid`: `QaController` alone. The harness plays the transport as a
//! fluid: a seeded AIMD sawtooth (linear climb, halving at seeded random
//! instants or at the rate cap) feeds `tick` and `on_backoff`, and each
//! period's allocation is credited back in bulk, one `on_packet_delivered`
//! per layer. No packets, no `rap`, no `layered`, no simulator: geometry,
//! `StateSequence` rebuilds, filling/draining and add/drop do all the
//! work, up to `K_max` 16, which the paper grid never reaches.

use laqa_core::{QaConfig, QaController};
use laqa_trace::TraceHasher;

use crate::spans::Probe;
use crate::spec::{session_seeds, SplitMix};
use crate::workload::{Failure, PassOutcome};

const LAYERS: usize = 10;
const LAYER_RATE: f64 = 5_000.0;
const TICK_DT: f64 = 0.1;
const K_MAX: [u32; 4] = [2, 4, 8, 16];
/// Sawtooth ceiling: the full encoding plus filling headroom.
const RATE_CAP: f64 = 1.3 * LAYERS as f64 * LAYER_RATE;
/// Simulated seconds between batch-span flushes in the traced pass.
const FLUSH_EVERY: f64 = 10.0;
/// Simulated seconds per session, sized for a pass of 2 s and up here.
const SESSION_SECS: f64 = 3_840.0;

const B_DELIVERED: usize = 0;
pub const BATCH_NAMES: &[&str] = &["core.on_packet_delivered"];

/// One session's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidSession {
    pub k_max: u32,
    pub seed: u64,
    /// Additive-increase slope of the sawtooth (bytes/s²).
    pub slope: f64,
    /// Random backoffs per simulated second.
    pub backoff_rate: f64,
    pub duration: f64,
}

/// What one session did. Every field enters the pass fingerprint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FluidResult {
    pub ticks: u64,
    pub backoffs: u64,
    pub adds: usize,
    pub drops: usize,
    pub stalls: usize,
    pub final_layers: usize,
    pub final_buffer: f64,
    pub efficiency: Option<f64>,
    pub violation: Option<String>,
}

pub struct QaFluid {
    pub sessions: Vec<FluidSession>,
}

fn qa_config(k_max: u32) -> QaConfig {
    QaConfig {
        layer_rate: LAYER_RATE,
        max_layers: LAYERS,
        k_max,
        ..QaConfig::default()
    }
}

pub fn run_session<P: Probe>(s: &FluidSession, probe: &mut P) -> FluidResult {
    let cfg = qa_config(s.k_max);
    let slack = cfg.underflow_slack_bytes + cfg.epsilon_bytes;
    let mut qa = QaController::new(cfg).expect("valid QA config");
    let mut rng = SplitMix(s.seed);
    let mut rate = LAYER_RATE;
    let mut next_flush = FLUSH_EVERY;
    let mut r = FluidResult::default();

    for tick in 0..(s.duration / TICK_DT).round() as u64 {
        let now = tick as f64 * TICK_DT;
        rate += s.slope * TICK_DT;
        if rate >= RATE_CAP || rng.next_f64() < s.backoff_rate * TICK_DT {
            rate *= 0.5;
            r.backoffs += 1;
            probe.call("core.on_backoff", || qa.on_backoff(now, rate));
        }
        qa.set_slope(s.slope);
        let report = probe.call("core.tick", || qa.tick(now, rate, TICK_DT));
        r.ticks += 1;
        probe.batched(B_DELIVERED, || {
            for (layer, &alloc) in report.per_layer_rate.iter().enumerate() {
                qa.on_packet_delivered(layer, alloc * TICK_DT);
            }
        });
        if r.violation.is_none() {
            if let Some(b) = qa
                .buffers()
                .iter()
                .find(|b| !(b.is_finite() && **b >= -slack))
            {
                r.violation = Some(format!("buffer estimate {b} at t={now:.1}"));
            }
        }
        if now >= next_flush {
            probe.flush();
            next_flush += FLUSH_EVERY;
        }
    }
    probe.flush();

    let m = qa.metrics();
    r.adds = m.adds();
    r.drops = m.drops();
    r.stalls = m.stalls();
    r.efficiency = m.efficiency();
    r.final_layers = qa.n_active();
    r.final_buffer = qa.total_buffer();
    if r.violation.is_none() {
        if let Some(e) = r.efficiency.filter(|e| !(0.0..=1.0).contains(e)) {
            r.violation = Some(format!("efficiency = {e} outside [0, 1]"));
        } else if !r.final_buffer.is_finite() {
            r.violation = Some(format!("final buffer = {}", r.final_buffer));
        }
    }
    r
}

impl QaFluid {
    /// `K_max` {2, 4, 8, 16} × four seeds. The seed picks the random
    /// streams (when backoffs strike); the slope and backoff-rate ladders
    /// are fixed — sawtooth periods from about 3 to 20 s — so the work per
    /// session barely moves with the seed.
    pub fn new(seed: u64, smoke: bool) -> Self {
        const LADDER: [(f64, f64); 4] = [
            (2_500.0, 0.06),
            (4_000.0, 0.10),
            (5_500.0, 0.14),
            (7_000.0, 0.18),
        ];
        let duration = if smoke { 60.0 } else { SESSION_SECS };
        let seeds = session_seeds(seed, "qa_fluid", LADDER.len());
        let mut sessions = Vec::new();
        for k_max in K_MAX {
            for (&session_seed, (slope, backoff_rate)) in seeds.iter().zip(LADDER) {
                sessions.push(FluidSession {
                    k_max,
                    seed: session_seed,
                    slope,
                    backoff_rate,
                    duration,
                });
            }
        }
        QaFluid { sessions }
    }

    pub fn warm_up(&self) {
        for s in self.sessions.iter().step_by(4).take(4) {
            std::hint::black_box(run_session(s, &mut crate::spans::Off));
        }
    }

    pub fn pass<P: Probe>(&self, probe: &mut P) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut all = TraceHasher::new();
        for (i, s) in self.sessions.iter().enumerate() {
            probe.set_session(i as u32);
            let span = probe.enter("harness.fluid_session");
            let r = run_session(s, probe);
            probe.exit(span);
            let mut h = TraceHasher::new();
            h.u64(r.ticks)
                .u64(r.backoffs)
                .u64(r.adds as u64)
                .u64(r.drops as u64)
                .u64(r.stalls as u64)
                .u64(r.final_layers as u64)
                .f64(r.final_buffer)
                .f64(r.efficiency.unwrap_or(f64::NEG_INFINITY));
            out.session_hashes.push(h.finish());
            all.u64(h.finish());
            if let Some(what) = r.violation {
                out.failures.push(Failure {
                    session: i,
                    what: format!("k{}/seed{}: {what}", s.k_max, s.seed),
                });
            }
        }
        out.fingerprint = all.finish();
        out
    }

    pub fn qa_mix(&self) -> (Vec<QaConfig>, f64) {
        (K_MAX.into_iter().map(qa_config).collect(), TICK_DT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Off, SpanLog};

    fn session(k_max: u32) -> FluidSession {
        FluidSession {
            k_max,
            seed: 5,
            slope: 5_000.0,
            backoff_rate: 0.1,
            duration: 300.0,
        }
    }

    #[test]
    fn buffers_stay_valid_at_every_k_max() {
        for k_max in K_MAX {
            let r = run_session(&session(k_max), &mut Off);
            assert_eq!(r.violation, None, "k_max {k_max}");
            assert_eq!(r.ticks, 3_000);
            assert!(r.backoffs > 10, "k_max {k_max}: {} backoffs", r.backoffs);
            assert!(r.adds >= 1, "k_max {k_max}: layers come up on the climb");
        }
    }

    #[test]
    fn larger_k_max_changes_quality_less_often() {
        let changes = |k| {
            let r = run_session(&session(k), &mut Off);
            r.adds + r.drops
        };
        assert!(
            changes(16) <= changes(2),
            "{} vs {}",
            changes(16),
            changes(2)
        );
    }

    #[test]
    fn tracing_does_not_change_the_session() {
        let s = session(4);
        let plain = run_session(&s, &mut Off);
        let mut log = SpanLog::new(BATCH_NAMES);
        assert_eq!(plain, run_session(&s, &mut log));
        let ticks = log
            .into_spans()
            .iter()
            .filter(|s| s.name == "core.tick")
            .count();
        assert_eq!(ticks as u64, plain.ticks);
    }

    #[test]
    fn pass_covers_every_k_max_and_repeats() {
        let w = QaFluid::new(1999, true);
        assert_eq!(w.sessions.len(), 16);
        let a = w.pass(&mut Off);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.fingerprint, w.pass(&mut Off).fingerprint);
    }
}
