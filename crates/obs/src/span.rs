//! Span timing: RAII guards that record count / total / max wall time
//! per named scope.
//!
//! ```
//! fn step() {
//!     let _guard = laqa_obs::span!("engine.step");
//!     // ... timed work; the guard records on drop ...
//! }
//! ```
//!
//! Wall time comes from `std::time::Instant` — the same monotonic clock
//! the `laqa-bench` timing harness calibrates with — so span totals are
//! directly comparable with bench figures. Spans measure *host* time;
//! simulation-time context belongs in the flight recorder
//! ([`crate::flight`]), which stamps records with sim-time.
//!
//! When obs is disabled, starting a span is one relaxed atomic load and
//! the guard's drop does nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub(crate) struct SpanCell {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

static SPANS: OnceLock<Mutex<Vec<Arc<SpanCell>>>> = OnceLock::new();

fn spans() -> &'static Mutex<Vec<Arc<SpanCell>>> {
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// A named timed scope. Declare via [`crate::span!`].
pub struct Span {
    name: &'static str,
    cell: OnceLock<Arc<SpanCell>>,
}

impl Span {
    /// Const handle; the cell registers on first use.
    pub const fn new(name: &'static str) -> Self {
        Span {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &Arc<SpanCell> {
        self.cell.get_or_init(|| {
            let cell = Arc::new(SpanCell {
                name: self.name,
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
            });
            spans().lock().expect("obs spans").push(cell.clone());
            cell
        })
    }

    /// Start timing; the returned guard records on drop. While obs is
    /// disabled this is one relaxed load and the guard is inert.
    #[inline]
    pub fn start(&self) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { timed: None };
        }
        SpanGuard {
            timed: Some((self.cell().clone(), Instant::now())),
        }
    }

    /// Record an externally measured duration (e.g. a wall time taken
    /// around code that cannot hold a guard). No-op while disabled.
    pub fn record_secs(&self, secs: f64) {
        if !crate::enabled() {
            return;
        }
        record(self.cell(), (secs.max(0.0) * 1e9) as u64);
    }
}

fn record(cell: &SpanCell, ns: u64) {
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.total_ns.fetch_add(ns, Ordering::Relaxed);
    cell.max_ns.fetch_max(ns, Ordering::Relaxed);
}

/// RAII guard returned by [`Span::start`].
pub struct SpanGuard {
    timed: Option<(Arc<SpanCell>, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cell, start)) = self.timed.take() {
            record(&cell, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Point-in-time copy of one span's accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Times the scope completed.
    pub count: u64,
    /// Summed wall time (nanoseconds).
    pub total_ns: u64,
    /// Longest single scope (nanoseconds).
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Mean scope duration in nanoseconds, `None` when never entered.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }
}

/// Snapshot all spans (merged by name, accumulators summed / maxed).
pub(crate) fn snapshot_spans() -> BTreeMap<String, SpanSnapshot> {
    let mut out: BTreeMap<String, SpanSnapshot> = BTreeMap::new();
    for cell in spans().lock().expect("obs spans").iter() {
        let snap = SpanSnapshot {
            count: cell.count.load(Ordering::Relaxed),
            total_ns: cell.total_ns.load(Ordering::Relaxed),
            max_ns: cell.max_ns.load(Ordering::Relaxed),
        };
        out.entry(cell.name.to_string())
            .and_modify(|e| {
                e.count += snap.count;
                e.total_ns += snap.total_ns;
                e.max_ns = e.max_ns.max(snap.max_ns);
            })
            .or_insert(snap);
    }
    out
}

/// Zero every registered span (cells stay registered).
pub(crate) fn reset_spans() {
    for cell in spans().lock().expect("obs spans").iter() {
        cell.count.store(0, Ordering::Relaxed);
        cell.total_ns.store(0, Ordering::Relaxed);
        cell.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Open a timed scope named by a string literal; expands to a
/// [`SpanGuard`] that records on drop. Bind it (`let _guard = ...`) or
/// it drops — and records — immediately.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __LAQA_OBS_SPAN: $crate::Span = $crate::Span::new($name);
        __LAQA_OBS_SPAN.start()
    }};
}

#[cfg(test)]
mod tests {
    use crate::tests::TEST_LOCK;

    #[test]
    fn span_guard_accumulates_count_total_max() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        for _ in 0..3 {
            let _s = span!("span.test.loop");
            std::hint::black_box(0u64);
        }
        crate::set_enabled(false);
        let spans = super::snapshot_spans();
        let s = spans.get("span.test.loop").unwrap();
        assert_eq!(s.count, 3);
        assert!(s.total_ns >= s.max_ns);
        assert!(s.mean_ns().unwrap() <= s.max_ns as f64);
    }

    #[test]
    fn record_secs_feeds_accumulators() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        static SPAN: crate::Span = crate::Span::new("span.test.manual");
        SPAN.record_secs(0.001);
        SPAN.record_secs(0.003);
        crate::set_enabled(false);
        let spans = super::snapshot_spans();
        let s = spans.get("span.test.manual").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, 3_000_000);
        assert_eq!(s.total_ns, 4_000_000);
    }
}
