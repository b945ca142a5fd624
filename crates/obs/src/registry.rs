//! Named counters and fixed-bucket histograms behind relaxed atomics.
//!
//! Handles are `const`-constructible so an instrumentation site is one
//! `static` plus one method call. The first touch of a handle registers
//! its cell in the process-global store; every later touch is a cached
//! pointer load. When [`crate::enabled`] is false, the mutating methods
//! return after a single relaxed atomic load.
//!
//! If two sites declare the same metric name, snapshots merge them
//! (counters and histogram buckets sum).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Powers-of-two nanosecond ladder for latency histograms: 16 ns up to
/// ~8.6 s (2^33 ns), 31 buckets including overflow. Wide enough for both
/// sub-microsecond dispatch latencies and multi-second timer-wheel slack.
pub const LOG_NS_BOUNDS: &[f64] = &[
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1024.0,
    2048.0,
    4096.0,
    8192.0,
    16384.0,
    32768.0,
    65536.0,
    131072.0,
    262144.0,
    524288.0,
    1048576.0,
    2097152.0,
    4194304.0,
    8388608.0,
    16777216.0,
    33554432.0,
    67108864.0,
    134217728.0,
    268435456.0,
    536870912.0,
    1073741824.0,
    2147483648.0,
    4294967296.0,
    8589934592.0,
];

/// Powers-of-two millisecond ladder for wall-time histograms: 0.25 ms up
/// to ~65.5 s.
pub const LOG_MS_BOUNDS: &[f64] = &[
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
    8192.0, 16384.0, 32768.0, 65536.0,
];

pub(crate) struct CounterCell {
    name: &'static str,
    value: AtomicU64,
}

pub(crate) struct HistogramCell {
    name: &'static str,
    bounds: &'static [f64],
    /// One slot per bound plus a final overflow slot.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

#[derive(Default)]
struct Store {
    counters: Mutex<Vec<Arc<CounterCell>>>,
    histograms: Mutex<Vec<Arc<HistogramCell>>>,
}

static STORE: OnceLock<Store> = OnceLock::new();

fn store() -> &'static Store {
    STORE.get_or_init(Store::default)
}

/// A monotonically increasing event count (e.g. layer drops, backoffs).
pub struct Counter {
    name: &'static str,
    cell: OnceLock<Arc<CounterCell>>,
}

impl Counter {
    /// Const handle; the cell registers on first use.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn cell(&self) -> &Arc<CounterCell> {
        self.cell.get_or_init(|| {
            let cell = Arc::new(CounterCell {
                name: self.name,
                value: AtomicU64::new(0),
            });
            store().counters.lock().expect("obs store").push(cell.clone());
            cell
        })
    }

    /// Add 1. No-op (one relaxed load) while obs is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. No-op (one relaxed load) while obs is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell().value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (reads regardless of the enabled flag).
    pub fn get(&self) -> u64 {
        self.cell().value.load(Ordering::Relaxed)
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
            store()
                .histograms
                .lock()
                .expect("obs store")
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
            match cell
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations (reads regardless of the flag).
    pub fn count(&self) -> u64 {
        self.cell().count.load(Ordering::Relaxed)
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

/// Snapshot all counters (merged by name, summed).
pub(crate) fn snapshot_counters() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for cell in store().counters.lock().expect("obs store").iter() {
        *out.entry(cell.name.to_string()).or_insert(0) += cell.value.load(Ordering::Relaxed);
    }
    out
}

/// Snapshot all histograms (merged by name when bounds agree).
pub(crate) fn snapshot_histograms() -> Vec<HistogramSnapshot> {
    let mut by_name: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    for cell in store().histograms.lock().expect("obs store").iter() {
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

/// Zero every registered metric (cells stay registered).
pub(crate) fn reset_metrics() {
    let s = store();
    for cell in s.counters.lock().expect("obs store").iter() {
        cell.value.store(0, Ordering::Relaxed);
    }
    for cell in s.histograms.lock().expect("obs store").iter() {
        for c in &cell.counts {
            c.store(0, Ordering::Relaxed);
        }
        cell.count.store(0, Ordering::Relaxed);
        cell.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Declare (or reuse) a [`Counter`] named by a string literal; expands to
/// a `&'static Counter` backed by a per-call-site `static`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __LAQA_OBS_COUNTER: $crate::Counter = $crate::Counter::new($name);
        &__LAQA_OBS_COUNTER
    }};
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
        let c = counter!("registry.test.ctr");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

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
        counter!("registry.test.dup").add(2);
        counter!("registry.test.dup").add(3); // distinct call site, same name
        crate::set_enabled(false);
        let counters = super::snapshot_counters();
        assert_eq!(counters.get("registry.test.dup"), Some(&5));
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
