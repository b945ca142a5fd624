//! # laqa-obs — runtime observability for the QA/RAP/sim stack
//!
//! The paper's whole argument is about *internal* dynamics — filling and
//! draining phases, per-layer buffer trajectories, add/drop decisions —
//! yet until this crate the workspace could only see them post-hoc
//! through figure CSVs and campaign fingerprints. `laqa-obs` provides
//! the runtime substrate:
//!
//! * a **metrics registry** ([`registry`]) of named counters and
//!   fixed-bucket histograms backed by relaxed atomics;
//! * a **flight recorder** ([`flight`]) — per-session timeline traces
//!   (QA state spans, layer add/drop and backoff instants, buffer-level
//!   samples) that each session's result carries, behind its own
//!   enable flag, exportable as Chrome
//!   trace-event JSON for Perfetto via `laqa obs-trace`;
//! * **exporters** ([`export`]) that render everything through
//!   `laqa-trace` — JSON files for `campaign --obs <dir>` and aligned
//!   text tables for `laqa obs-report`.
//!
//! ## Determinism / inertness contract
//!
//! Observability must never perturb a simulation:
//!
//! * **Disabled** (the default), every instrumentation site costs one
//!   relaxed atomic load (the global [`enabled`] flag) and returns.
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
//! laqa_obs::counter!("demo.widgets").inc();
//! let snap = laqa_obs::snapshot();
//! assert_eq!(snap.counter("demo.widgets"), Some(1));
//! laqa_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod export;
pub mod flight;
pub mod registry;

pub use export::Snapshot;
pub use flight::{FlightKind, FlightRecord, FlightTrace};
pub use registry::{Counter, Histogram, HistogramSnapshot, LOG_MS_BOUNDS, LOG_NS_BOUNDS};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is live. One relaxed load — this is the
/// entire cost of a disabled instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable instrumentation. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Snapshot every registered metric.
pub fn snapshot() -> Snapshot {
    Snapshot::collect()
}

/// Zero all counters and histograms. Intended for tests and for
/// isolating consecutive `--obs` exports.
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
        counter!("lib.test.ctr").inc();
        let snap = snapshot();
        // Disabled sites return before registering, so the snapshot has
        // either no entry or a zeroed one (if a prior enabled test
        // registered the name).
        assert_eq!(snap.counter("lib.test.ctr").unwrap_or(0), 0);
        assert!(snap.is_empty());
    }

    #[test]
    fn enabled_sites_record_and_reset_clears() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        counter!("lib.test2.ctr").add(3);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("lib.test2.ctr"), Some(3));
        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("lib.test2.ctr"), Some(0));
    }
}
