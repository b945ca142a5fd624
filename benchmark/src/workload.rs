//! The four workloads behind one interface: generate inputs from the
//! seed, warm up, run one closed-loop pass, check the outputs.

use std::collections::BTreeMap;

use laqa_core::QaConfig;

use crate::qa_fluid::QaFluid;
use crate::sim::SimWorkload;
use crate::spans::Probe;
use crate::stack_loop::StackLoop;

/// Names, in report order, with why each workload exists (the `why` the
/// contract file carries too).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "tables",
        "The paper's Tables 1-2 grid (T1+T2, five K_max, 5 seeds, 90 s): 20 flows per cell, so the simulator's scheduler, links, engine and agents do most of the work.",
    ),
    (
        "hostile",
        "Same simulator layers used differently: trace-driven links, a 600-packet standing queue, two-leg bonding, the three non-RAP controllers and the fault injector.",
    ),
    (
        "stack_loop",
        "No simulator: the harness is the network, so rap + layered + core's per-packet path at 100-byte packets carry the load and every layer boundary is a harness call.",
    ),
    (
        "qa_fluid",
        "QaController alone on a synthetic AIMD sawtooth up to K_max 16: core's per-tick path does all the work; rap, layered and the simulator do nothing.",
    ),
];

/// One output check that did not hold, attributed to a session of the
/// pass (`failed_frac` counts distinct sessions).
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    pub session: usize,
    pub what: String,
}

/// What one pass produced besides its wall time.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Digest of every session's simulated result, in session order.
    pub fingerprint: u64,
    /// Per-session digests (the sampled-cell check compares against them).
    pub session_hashes: Vec<u64>,
    pub failures: Vec<Failure>,
    /// Simulated statistics the harness can see without obs; they repeat
    /// exactly at a fixed seed. Keys are per-layer metric names.
    pub counts: BTreeMap<&'static str, f64>,
    /// Wall milliseconds per cell, where the library reports them.
    pub cell_ms: Vec<f64>,
    /// The campaign's single-threaded merge, where there is one.
    pub merge_s: f64,
}

impl PassOutcome {
    /// Distinct sessions with at least one failure.
    pub fn failed_sessions(&self) -> usize {
        let mut ids: Vec<usize> = self.failures.iter().map(|f| f.session).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// A workload with its generated inputs.
pub enum Workload {
    Sim(SimWorkload),
    Stack(StackLoop),
    Fluid(QaFluid),
}

impl Workload {
    /// Generate `name`'s inputs from `seed`; `None` for an unknown name.
    pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        Some(match name {
            "tables" => Workload::Sim(SimWorkload::new(crate::spec::tables(seed, smoke), seed)),
            "hostile" => Workload::Sim(SimWorkload::new(crate::spec::hostile(seed, smoke), seed)),
            "stack_loop" => Workload::Stack(StackLoop::new(seed, smoke)),
            "qa_fluid" => Workload::Fluid(QaFluid::new(seed, smoke)),
            _ => return None,
        })
    }

    /// Sessions one pass runs.
    pub fn sessions(&self) -> usize {
        match self {
            Workload::Sim(w) => w.spec.len(),
            Workload::Stack(w) => w.sessions.len(),
            Workload::Fluid(w) => w.sessions.len(),
        }
    }

    /// Simulated seconds one pass covers.
    pub fn sim_seconds(&self) -> f64 {
        match self {
            Workload::Sim(w) => w.spec.sessions.iter().map(|s| s.duration).sum(),
            Workload::Stack(w) => w.sessions.iter().map(|s| s.duration).sum(),
            Workload::Fluid(w) => w.sessions.iter().map(|s| s.duration).sum(),
        }
    }

    /// Untimed run of the first four sessions: page in the code, fill the
    /// lazy statics, size the allocator's arenas.
    pub fn warm_up(&self) {
        match self {
            Workload::Sim(w) => w.warm_up(),
            Workload::Stack(w) => w.warm_up(),
            Workload::Fluid(w) => w.warm_up(),
        }
    }

    /// One pass over every session, one after the other.
    pub fn pass<P: Probe>(&self, probe: &mut P) -> PassOutcome {
        match self {
            Workload::Sim(w) => w.pass(probe),
            Workload::Stack(w) => w.pass(probe),
            Workload::Fluid(w) => w.pass(probe),
        }
    }

    /// Names of the batch-span kinds the workload's pass uses.
    pub fn batch_names(&self) -> &'static [&'static str] {
        match self {
            Workload::Sim(_) => &[],
            Workload::Stack(_) => crate::stack_loop::BATCH_NAMES,
            Workload::Fluid(_) => crate::qa_fluid::BATCH_NAMES,
        }
    }

    /// The QA configurations and allocation period the workload drives
    /// `core` with — the op mix the `core` kernels replay.
    pub fn qa_mix(&self) -> (Vec<QaConfig>, f64) {
        match self {
            Workload::Sim(w) => w.qa_mix(),
            Workload::Stack(w) => w.qa_mix(),
            Workload::Fluid(w) => w.qa_mix(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_sessions_counts_each_session_once() {
        let f = |session| Failure {
            session,
            what: String::new(),
        };
        let out = PassOutcome {
            failures: vec![f(3), f(1), f(3)],
            ..PassOutcome::default()
        };
        assert_eq!(out.failed_sessions(), 2);
    }

    #[test]
    fn every_workload_builds_from_its_name() {
        for (name, why) in WORKLOADS {
            let w = Workload::build(name, 1999, true).expect(name);
            assert!(w.sessions() > 0 && w.sim_seconds() > 0.0);
            assert!(
                why.len() <= 200,
                "{name}: the contract caps `why` at 200 chars"
            );
        }
        assert!(Workload::build("nope", 1, true).is_none());
    }
}
