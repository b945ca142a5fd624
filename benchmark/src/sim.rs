//! `tables` and `hostile`: a generated campaign grid run through
//! `run_campaign_opts` on one thread, with the result checks and the
//! campaign-layer measurements that only make sense for a grid.

use std::time::Instant;

use laqa_core::QaConfig;
use laqa_sim::{
    run_campaign_opts, run_session, CampaignOptions, CampaignResult, CampaignSpec, SessionResult,
};

use crate::spans::Probe;
use crate::spec::SplitMix;
use crate::workload::{Failure, PassOutcome};

/// Cells re-run in isolation and compared with the campaign's result.
const SAMPLED_CELLS: usize = 4;

pub struct SimWorkload {
    pub spec: CampaignSpec,
    /// Grid indices of the isolated-replay check, drawn from the seed.
    pub sampled: Vec<usize>,
}

/// Why `r` is not a valid session result, if it is not.
fn check_result(r: &SessionResult) -> Option<String> {
    let unit = |name: &str, v: Option<f64>| match v {
        Some(x) if !(0.0..=1.0).contains(&x) => Some(format!("{name} = {x} outside [0, 1]")),
        _ => None,
    };
    let finite = |name: &str, x: f64| (!x.is_finite()).then(|| format!("{name} = {x}"));
    unit("efficiency", r.efficiency)
        .or_else(|| unit("avoidable_drops", r.avoidable_drops))
        .or_else(|| finite("layer_change_rate", r.layer_change_rate))
        .or_else(|| finite("recovery_secs_mean", r.recovery_secs_mean.unwrap_or(0.0)))
        .or_else(|| finite("base_starved_bytes", r.base_starved_bytes))
        .or_else(|| finite("discarded_bytes", r.discarded_bytes))
        .or_else(|| finite("wall_secs", r.wall_secs))
        .or_else(|| (r.events_processed == 0).then(|| "events_processed = 0".to_string()))
}

impl SimWorkload {
    pub fn new(spec: CampaignSpec, seed: u64) -> Self {
        let mut rng = SplitMix(seed ^ 0x5a3d_11ed_ce11_5eed);
        let n = spec.len();
        let mut sampled: Vec<usize> = Vec::new();
        while sampled.len() < SAMPLED_CELLS.min(n) {
            let i = (rng.next_u64() % n as u64) as usize;
            if !sampled.contains(&i) {
                sampled.push(i);
            }
        }
        SimWorkload { spec, sampled }
    }

    fn run(&self, spec: &CampaignSpec, threads: usize) -> CampaignResult {
        run_campaign_opts(spec, CampaignOptions::new(threads))
    }

    pub fn warm_up(&self) {
        let head = CampaignSpec {
            sessions: self.spec.sessions.iter().take(4).cloned().collect(),
        };
        std::hint::black_box(self.run(&head, 1));
    }

    fn outcome(&self, result: &CampaignResult) -> PassOutcome {
        let sum = |f: &dyn Fn(&SessionResult) -> u64| -> f64 {
            result.sessions.iter().map(f).sum::<u64>() as f64
        };
        let mut out = PassOutcome {
            fingerprint: result.fingerprint(),
            session_hashes: result.sessions.iter().map(|s| s.trace_hash).collect(),
            cell_ms: result.sessions.iter().map(|s| s.wall_secs * 1e3).collect(),
            merge_s: result.merge_secs,
            ..PassOutcome::default()
        };
        out.counts.extend([
            ("engine.events", sum(&|s| s.events_processed)),
            ("link.bottleneck_drops", sum(&|s| s.bottleneck_drops)),
            ("link.trace_points_applied", sum(&|s| s.trace_changes)),
            (
                "link.bond_leg_bytes",
                sum(&|s| s.bond_leg_bytes.unwrap_or(0)),
            ),
            ("faults.transitions", sum(&|s| s.fault_transitions)),
            ("layered.underflows", sum(&|s| s.rx_underflows)),
        ]);
        if result.sessions.len() != self.spec.len() {
            out.failures.push(Failure {
                session: 0,
                what: format!(
                    "{} results for {} sessions",
                    result.sessions.len(),
                    self.spec.len()
                ),
            });
        }
        for (session, r) in result.sessions.iter().enumerate() {
            if let Some(what) = check_result(r) {
                out.failures.push(Failure {
                    session,
                    what: format!("{}: {what}", r.spec.label()),
                });
            }
        }
        out
    }

    pub fn pass<P: Probe>(&self, probe: &mut P) -> PassOutcome {
        let result = probe.call("sim.campaign.run_campaign_opts", || self.run(&self.spec, 1));
        probe.call("harness.check_results", || self.outcome(&result))
    }

    /// Sampled cells re-run alone through `run_session`: the campaign
    /// must not have changed what a cell computes.
    pub fn check_sampled_cells(&self, reference: &PassOutcome) -> Vec<Failure> {
        let mut failures = Vec::new();
        for &i in &self.sampled {
            let alone = run_session(&self.spec.sessions[i]);
            if reference.session_hashes.get(i) != Some(&alone.trace_hash) {
                failures.push(Failure {
                    session: i,
                    what: format!(
                        "{}: isolated run_session trace_hash {:016x} differs from the campaign's",
                        alone.spec.label(),
                        alone.trace_hash
                    ),
                });
            }
        }
        failures
    }

    /// One pass on `threads` workers: `(wall seconds, fingerprint)`.
    pub fn threaded_pass(&self, threads: usize) -> (f64, u64) {
        let t = Instant::now();
        let result = self.run(&self.spec, threads);
        (t.elapsed().as_secs_f64(), result.fingerprint())
    }

    /// Wall microseconds per session of the same grid cut to 0.25
    /// simulated seconds: what a session costs before it simulates
    /// anything (world build, agent wiring, extraction, hashing).
    pub fn session_fixed_us(&self) -> f64 {
        let mut short = self.spec.clone();
        for s in &mut short.sessions {
            s.duration = 0.25;
        }
        let mut per_session: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.run(&short, 1));
                t.elapsed().as_secs_f64() * 1e6 / short.len() as f64
            })
            .collect();
        per_session.sort_by(f64::total_cmp);
        per_session[1]
    }

    pub fn qa_mix(&self) -> (Vec<QaConfig>, f64) {
        let mut configs: Vec<QaConfig> = Vec::new();
        let mut dt = 0.05;
        for s in &self.spec.sessions {
            let scenario = s.scenario();
            dt = scenario.tick_dt;
            if !configs.contains(&scenario.qa) {
                configs.push(scenario.qa);
            }
        }
        (configs, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Off;

    #[test]
    fn smoke_grid_passes_its_own_checks_and_repeats() {
        let w = SimWorkload::new(crate::spec::tables(1999, true), 1999);
        let a = w.pass(&mut Off);
        let b = w.pass(&mut Off);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.counts["engine.events"] > 0.0);
        assert!(w.check_sampled_cells(&a).is_empty());
        assert_eq!(a.cell_ms.len(), w.spec.len());
    }

    #[test]
    fn sampled_cell_check_catches_a_wrong_hash() {
        let w = SimWorkload::new(crate::spec::tables(1999, true), 1999);
        let mut a = w.pass(&mut Off);
        a.session_hashes[w.sampled[0]] ^= 1;
        let failures = w.check_sampled_cells(&a);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].session, w.sampled[0]);
    }

    #[test]
    fn result_check_names_the_bad_field() {
        let w = SimWorkload::new(crate::spec::tables(1999, true), 1999);
        let mut r = run_session(&w.spec.sessions[0]);
        assert_eq!(check_result(&r), None);
        r.efficiency = Some(1.5);
        assert!(check_result(&r).unwrap().starts_with("efficiency"));
        r.efficiency = None;
        r.discarded_bytes = f64::NAN;
        assert!(check_result(&r).unwrap().starts_with("discarded_bytes"));
        r.discarded_bytes = 0.0;
        r.events_processed = 0;
        assert_eq!(check_result(&r).unwrap(), "events_processed = 0");
    }

    #[test]
    fn sampled_cells_are_distinct_and_seeded() {
        let a = SimWorkload::new(crate::spec::hostile(1999, false), 1999);
        let b = SimWorkload::new(crate::spec::hostile(1999, false), 1999);
        assert_eq!(a.sampled, b.sampled);
        assert_eq!(a.sampled.len(), SAMPLED_CELLS);
        let mut s = a.sampled.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), SAMPLED_CELLS);
    }
}
