//! Counter totals and fixed-bucket histograms.
//!
//! Counting is owned: a controller, a sender shell, a world or a campaign
//! keeps its counts as plain integers, always on, and adds them here once,
//! when it is done, through [`add_counts`]. Histograms are
//! `const`-constructible handles, so a histogram site is one `static` plus
//! one method call: the first touch registers the cell in the
//! process-global list, every later touch is a cached pointer load, and
//! while [`crate::enabled`] is false `observe` returns after a single
//! relaxed load. Two histogram sites declaring the same name merge in
//! snapshots (buckets sum).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Powers-of-two nanosecond ladder for latency histograms: 16 ns up to
/// ~8.6 s (2^33 ns), 31 buckets including overflow. Wide enough for both
/// sub-microsecond dispatch latencies and multi-second timer-wheel slack.
pub const LOG_NS_BOUNDS: &[f64] = &doublings::<30>(16.0);

/// Powers-of-two millisecond ladder for wall-time histograms: 0.25 ms up
/// to ~65.5 s.
pub const LOG_MS_BOUNDS: &[f64] = &doublings::<19>(0.25);

/// `N` bounds, each twice the one before, from `first`.
const fn doublings<const N: usize>(first: f64) -> [f64; N] {
    let mut out = [first; N];
    let mut i = 1;
    while i < N {
        out[i] = out[i - 1] * 2.0;
        i += 1;
    }
    out
}

pub(crate) struct HistogramCell {
    name: &'static str,
    bounds: &'static [f64],
    /// One slot per bound plus a final overflow slot.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// Counter totals by name: what [`add_counts`] added since the last reset.
pub(crate) static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Every histogram cell a site has registered.
static HISTOGRAMS: Mutex<Vec<Arc<HistogramCell>>> = Mutex::new(Vec::new());

/// Add each `(name, n)` to the counter totals the next
/// [`crate::snapshot`] reports; a name given twice sums. A no-op while obs
/// is disabled. A counting object calls it once, at the end of its life,
/// so its [`crate::enabled`] load is paid per object, not per event.
pub fn add_counts(counts: &[(&'static str, u64)]) {
    if !crate::enabled() {
        return;
    }
    // Owners add from `Drop`, possibly while a panic unwinds: a poisoned
    // lock still holds consistent totals.
    let mut totals = COUNTS.lock().unwrap_or_else(PoisonError::into_inner);
    for &(name, n) in counts {
        *totals.entry(name).or_insert(0) += n;
    }
}

/// A fixed-bucket histogram: `bounds` are inclusive upper edges, with an
/// implicit final overflow bucket.
pub struct Histogram {
    name: &'static str,
    bounds: &'static [f64],
    cell: OnceLock<Arc<HistogramCell>>,
}

impl Histogram {
    /// Const handle; `bounds` must be sorted ascending.
    pub const fn new(name: &'static str, bounds: &'static [f64]) -> Self {
        Histogram {
            name,
            bounds,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &Arc<HistogramCell> {
        self.cell.get_or_init(|| {
            let cell = Arc::new(HistogramCell {
                name: self.name,
                bounds: self.bounds,
                counts: (0..=self.bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            });
            HISTOGRAMS
                .lock()
                .expect("obs histograms")
                .push(cell.clone());
            cell
        })
    }

    /// Record one observation. No-op (one relaxed load) while disabled.
    #[inline]
    pub fn observe(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        let cell = self.cell();
        let idx = cell
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(cell.bounds.len());
        cell.counts[idx].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        // f64 accumulation via CAS on the bit pattern (std has no atomic
        // float); contention is negligible at telemetry rates.
        let mut cur = cell.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match cell.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Inclusive upper bucket edges (the final overflow bucket is
    /// implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observed value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts,
    /// Prometheus-style: find the bucket holding the `q·count`-th
    /// observation and interpolate linearly between its edges (the first
    /// bucket's lower edge is 0). An estimate landing in the open-ended
    /// overflow bucket reports that bucket's lower edge — the largest
    /// finite bound — so tails are never extrapolated past what was
    /// measured. `None` when the histogram is empty or `q` is out of
    /// range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * self.count as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum;
            cum += c as f64;
            if cum >= target {
                return Some(match self.bounds.get(i) {
                    Some(&hi) => {
                        let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                        let frac = ((target - prev) / c as f64).clamp(0.0, 1.0);
                        lo + (hi - lo) * frac
                    }
                    None => self.bounds.last().copied().unwrap_or(f64::NAN),
                });
            }
        }
        // Unreachable: the cumulative count reaches `count >= target`.
        None
    }
}

/// Snapshot all histograms (merged by name when bounds agree).
pub(crate) fn snapshot_histograms() -> Vec<HistogramSnapshot> {
    let mut by_name: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    for cell in HISTOGRAMS.lock().expect("obs histograms").iter() {
        let counts: Vec<u64> = cell
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = cell.count.load(Ordering::Relaxed);
        let sum = f64::from_bits(cell.sum_bits.load(Ordering::Relaxed));
        match by_name.get_mut(cell.name) {
            Some(existing) if existing.bounds == cell.bounds => {
                for (acc, c) in existing.counts.iter_mut().zip(&counts) {
                    *acc += c;
                }
                existing.count += count;
                existing.sum += sum;
            }
            Some(_) => {} // same name, different bounds: first wins
            None => {
                by_name.insert(
                    cell.name.to_string(),
                    HistogramSnapshot {
                        name: cell.name.to_string(),
                        bounds: cell.bounds.to_vec(),
                        counts,
                        count,
                        sum,
                    },
                );
            }
        }
    }
    by_name.into_values().collect()
}

/// Clear the counter totals and zero every histogram (cells stay
/// registered).
pub(crate) fn reset_metrics() {
    COUNTS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    for cell in HISTOGRAMS.lock().expect("obs histograms").iter() {
        for c in &cell.counts {
            c.store(0, Ordering::Relaxed);
        }
        cell.count.store(0, Ordering::Relaxed);
        cell.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Declare (or reuse) a [`Histogram`] with const bucket bounds.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $bounds:expr) => {{
        static __LAQA_OBS_HIST: $crate::Histogram = $crate::Histogram::new($name, $bounds);
        &__LAQA_OBS_HIST
    }};
}

#[cfg(test)]
mod tests {
    use crate::tests::TEST_LOCK;

    #[test]
    fn counter_histogram_round_trip() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        super::add_counts(&[("registry.test.ctr", 1), ("registry.test.ctr", 4)]);
        assert_eq!(crate::snapshot().counter("registry.test.ctr"), Some(5));

        let h = histogram!("registry.test.hist", &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 7.0] {
            h.observe(v);
        }
        crate::set_enabled(false);
        let snaps = super::snapshot_histograms();
        let snap = snaps
            .iter()
            .find(|s| s.name == "registry.test.hist")
            .unwrap();
        assert_eq!(snap.counts, vec![1, 2, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 562.5).abs() < 1e-9);
        assert!((snap.mean().unwrap() - 112.5).abs() < 1e-9);
    }

    #[test]
    fn boundary_values_land_in_lower_bucket() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        let h = histogram!("registry.test.edges", &[1.0, 2.0]);
        h.observe(1.0); // inclusive upper edge
        h.observe(2.0);
        crate::set_enabled(false);
        let snaps = super::snapshot_histograms();
        let snap = snaps
            .iter()
            .find(|s| s.name == "registry.test.edges")
            .unwrap();
        assert_eq!(snap.counts, vec![1, 1, 0]);
    }

    #[test]
    fn duplicate_counter_names_merge_in_snapshot() {
        let _g = TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        super::add_counts(&[("registry.test.dup", 2), ("registry.test.one", 1)]);
        super::add_counts(&[("registry.test.dup", 3)]); // a second owner
        crate::set_enabled(false);
        super::add_counts(&[("registry.test.dup", 100)]); // obs off: dropped
        let snap = crate::snapshot();
        assert_eq!(snap.counter("registry.test.dup"), Some(5));
        assert_eq!(snap.counter("registry.test.one"), Some(1));
    }

    #[test]
    fn ladders_double_from_their_first_bound() {
        assert_eq!(super::LOG_NS_BOUNDS.len(), 30);
        assert_eq!(super::LOG_NS_BOUNDS[29], 8589934592.0);
        assert_eq!(super::LOG_MS_BOUNDS.len(), 19);
        assert_eq!(super::LOG_MS_BOUNDS[18], 65536.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let snap = super::HistogramSnapshot {
            name: "q".into(),
            bounds: vec![10.0, 20.0, 40.0],
            // 10 observations in (10, 20], 10 in (20, 40].
            counts: vec![0, 10, 10, 0],
            count: 20,
            sum: 0.0,
        };
        // p50 sits exactly at the first bucket's upper edge.
        assert!((snap.quantile(0.5).unwrap() - 20.0).abs() < 1e-9);
        // p25 is halfway through the (10, 20] bucket.
        assert!((snap.quantile(0.25).unwrap() - 15.0).abs() < 1e-9);
        // p75 is halfway through the (20, 40] bucket.
        assert!((snap.quantile(0.75).unwrap() - 30.0).abs() < 1e-9);
        assert!((snap.quantile(1.0).unwrap() - 40.0).abs() < 1e-9);
        // q=0 reports the populated range's lower edge.
        assert!((snap.quantile(0.0).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(snap.quantile(1.5), None);
        assert_eq!(snap.quantile(-0.1), None);
    }

    #[test]
    fn quantile_in_overflow_bucket_reports_largest_bound() {
        let snap = super::HistogramSnapshot {
            name: "q".into(),
            bounds: vec![1.0, 2.0],
            counts: vec![1, 0, 9], // tail lives in the overflow bucket
            count: 10,
            sum: 0.0,
        };
        assert!((snap.quantile(0.99).unwrap() - 2.0).abs() < 1e-9);
        let empty = super::HistogramSnapshot {
            name: "q".into(),
            bounds: vec![1.0],
            counts: vec![0, 0],
            count: 0,
            sum: 0.0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }
}
