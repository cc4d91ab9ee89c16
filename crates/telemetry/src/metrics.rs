//! The metrics registry: counters and bounded histograms.
//!
//! Publishers register a metric once and hold a cheap handle
//! ([`Counter`], [`Histogram`]); the hot path is then a single relaxed
//! atomic op with no string lookup and no lock. A handle owns its cells
//! through an `Arc`, so it stays live after the [`Registry`] that
//! created it is dropped: a publisher that counts without exporting
//! registers into a private registry and simply lets it go.
//!
//! Histograms are bounded by construction: power-of-two buckets
//! (`< 1`, `< 2`, `< 4`, … `< 2^62`, overflow), so a histogram is 64
//! atomics regardless of how many samples it absorbs — recording never
//! allocates and the registry's memory is fixed at registration time.

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: value `v` lands in bucket
/// `64 - v.leading_zeros()` clamped to the last bucket, i.e. bucket `i`
/// counts samples in `[2^(i-1), 2^i)` (bucket 0 is `v == 0`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter handle. Cloning shares the
/// underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (a high-water mark, which only
    /// ever rises, so the counter stays monotonic).
    #[inline]
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A bounded log2-bucket histogram handle. Recording is three relaxed
/// atomic adds; memory is fixed at 64 buckets however many samples are
/// observed.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        let cells = &self.0;
        cells.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples. It wraps past `u64::MAX` (a plain
    /// `fetch_add`), which a bounded run never reaches.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// An upper bound on the `q`-quantile (`0.0..=1.0`): the exclusive
    /// upper edge of the bucket holding the `ceil(q * count)`-th sample.
    /// Returns 0 for an empty histogram. The bound is within 2× of the
    /// true value by construction of the power-of-two buckets.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let cells = &self.0;
        let count = cells.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in cells.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                // Bucket i covers [2^(i-1), 2^i); bucket 0 is exactly 0.
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        u64::MAX
    }
}

enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

/// A named collection of metrics. Registration takes a lock; recording
/// through the returned handles never does.
///
/// Registering the same name twice returns a handle to the *same*
/// underlying metric, so independent subsystems can safely share a name.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or re-opens) a counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Registers (or re-opens) a histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// One JSON object with every registered metric, sorted by name.
    /// Counters export their value; histograms export
    /// `{"count":N,"sum":S,"p50":…,"p95":…,"max":…}` (quantiles are
    /// bucket upper bounds).
    pub fn snapshot_json(&self) -> String {
        json::object(|o| self.write_json(o))
    }

    /// Writes every registered metric, sorted by name, as members of `o`
    /// (the body of [`Registry::snapshot_json`]).
    pub(crate) fn write_json(&self, o: &mut json::Object<'_>) {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    o.uint(name, c.get());
                }
                Metric::Histogram(h) => {
                    o.object(name, |o| {
                        o.uint("count", h.count())
                            .uint("sum", h.sum())
                            .uint("p50", h.quantile_upper_bound(0.50))
                            .uint("p95", h.quantile_upper_bound(0.95))
                            .uint("max", h.quantile_upper_bound(1.0));
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_shares_handles_by_name() {
        let reg = Registry::new();
        let a = reg.counter("jobs");
        let b = reg.counter("jobs");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn raise_to_keeps_the_high_water_mark() {
        let reg = Registry::new();
        let c = reg.counter("batch_max");
        c.raise_to(3);
        c.raise_to(1);
        assert_eq!(c.get(), 3);
        c.raise_to(5);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn handles_outlive_their_registry() {
        let (c, h) = {
            let reg = Registry::new();
            (reg.counter("jobs"), reg.histogram("latency"))
        };
        c.add(4);
        h.observe(9);
        assert_eq!(c.get(), 4);
        assert_eq!((h.count(), h.sum()), (1, 9));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("latency");
        // 0 lands in bucket 0; quantile bound for an all-zero histogram
        // is 0.
        h.observe(0);
        assert_eq!(h.quantile_upper_bound(1.0), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        // p50 of {0,1,2,3,100,1000}: rank 3 → sample 2 → bucket [2,4) →
        // bound 4.
        assert_eq!(h.quantile_upper_bound(0.5), 4);
        // max: 1000 lands in [512,2048)? No — [512,1024): bound 1024.
        assert_eq!(h.quantile_upper_bound(1.0), 1024);
        // Quantile bound is always >= the true quantile and within 2x.
        assert!(h.quantile_upper_bound(0.95) >= 1000);
    }

    #[test]
    fn snapshot_json_is_valid_shape() {
        let reg = Registry::new();
        reg.counter("a").add(7);
        reg.counter("b").add(1);
        let h = reg.histogram("c");
        h.observe(3);
        let json = reg.snapshot_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\":7"));
        assert!(json.contains("\"b\":1"));
        assert!(json.contains("\"c\":{\"count\":1,\"sum\":3,"));
        // Sorted by name: a before b before c.
        let (pa, pb) = (json.find("\"a\"").unwrap(), json.find("\"b\"").unwrap());
        assert!(pa < pb);
    }

    /// The full snapshot bytes on fixed inputs: two counters registered
    /// out of name order and a histogram.
    #[test]
    fn snapshot_json_bytes() {
        let reg = Registry::new();
        reg.counter("steals").add(2);
        reg.counter("jobs_run").add(5);
        let h = reg.histogram("queue_wait_us");
        for v in [3, 100, 7000] {
            h.observe(v);
        }
        assert_eq!(
            reg.snapshot_json(),
            concat!(
                "{\"jobs_run\":5,",
                "\"queue_wait_us\":{\"count\":3,\"sum\":7103,\"p50\":128,\"p95\":8192,\"max\":8192},",
                "\"steals\":2}"
            )
        );
    }

    #[test]
    fn bucket_of_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }
}
