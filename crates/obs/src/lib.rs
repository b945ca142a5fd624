//! # laqa-obs — runtime observability for the QA/RAP/sim stack
//!
//! The paper's whole argument is about *internal* dynamics — filling and
//! draining phases, per-layer buffer trajectories, add/drop decisions —
//! yet until this crate the workspace could only see them post-hoc
//! through figure CSVs and campaign fingerprints. `laqa-obs` provides
//! the runtime substrate:
//!
//! * **metrics** ([`registry`]): counter totals, added by each counting
//!   object once at the end of its life ([`add_counts`]), and fixed-bucket
//!   histograms backed by relaxed atomics;
//! * a **flight recorder** ([`flight`]) — per-session timeline traces
//!   (QA state spans, layer add/drop and backoff instants, buffer-level
//!   samples) that each session's result carries, behind its own
//!   enable flag, exported as Chrome trace-event JSON for Perfetto
//!   ([`flight::to_chrome`]);
//! * a **report** ([`export`]): the snapshot rendered as aligned text
//!   tables through `laqa-trace`.
//!
//! `laqa campaign --obs <dir>` writes both finished artefacts:
//! `report.txt` and `trace.json`.
//!
//! ## Determinism / inertness contract
//!
//! Observability must never perturb a simulation:
//!
//! * **Disabled** (the default), a histogram site costs one relaxed load
//!   of the global [`enabled`] flag. Counting costs none: the controller,
//!   sender shell, world and campaign keep plain integers, always on, and
//!   pay one load each when they add them through [`add_counts`].
//! * **Enabled**, instrumentation only *reads* simulation state; it
//!   never touches `SimRng`, never schedules events, and never feeds
//!   back into any control path. Campaign trace fingerprints are
//!   bit-identical with obs on and off
//!   (`crates/sim/tests/obs_inertness.rs` enforces this).
//!
//! ## Usage
//!
//! ```
//! laqa_obs::set_enabled(true);
//! // A counting object, at the end of its life:
//! laqa_obs::add_counts(&[("demo.widgets", 3), ("demo.gadgets", 0)]);
//! laqa_obs::histogram!("demo.size", &[1.0, 10.0]).observe(4.0);
//! let snap = laqa_obs::snapshot();
//! assert_eq!(snap.counter("demo.widgets"), Some(3));
//! assert_eq!(snap.histogram("demo.size").map(|h| h.count), Some(1));
//! laqa_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod export;
pub mod flight;
pub mod registry;

pub use export::Snapshot;
pub use flight::FlightKind;
pub use registry::{add_counts, Histogram, HistogramSnapshot, LOG_MS_BOUNDS, LOG_NS_BOUNDS};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is live. One relaxed load — the entire cost
/// of a disabled histogram site, and of a disabled [`add_counts`].
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable instrumentation. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Snapshot the counter totals and every registered histogram.
pub fn snapshot() -> Snapshot {
    Snapshot::collect()
}

/// Clear the counter totals and zero every histogram. Intended for tests
/// and for isolating consecutive `--obs` exports.
pub fn reset() {
    registry::reset_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The enabled flag and the registries are process-global; tests that
    /// toggle them serialize on this lock.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(false);
        add_counts(&[("lib.test.ctr", 1)]);
        histogram!("lib.test.hist", &[1.0]).observe(0.5);
        let snap = snapshot();
        assert_eq!(snap.counter("lib.test.ctr"), None);
        assert!(snap.counters.values().all(|&v| v == 0), "{snap:?}");
        assert!(snap.histograms.iter().all(|h| h.count == 0), "{snap:?}");
    }

    #[test]
    fn enabled_sites_record_and_reset_clears() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        add_counts(&[("lib.test2.ctr", 3)]);
        set_enabled(false);
        assert_eq!(snapshot().counter("lib.test2.ctr"), Some(3));
        reset();
        assert_eq!(snapshot().counter("lib.test2.ctr"), None);
    }
}
