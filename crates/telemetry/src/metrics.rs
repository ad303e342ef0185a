//! Metrics registry: named counters, gauges and log-bucketed histograms
//! with lock-free hot paths and a `PartialEq`-friendly snapshot.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter handle. Cloning shares the cell;
/// updates are single relaxed atomic ops (no registry lookup).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed gauge handle (instantaneous level: queue depth, live bytes).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Power-of-two bucket count: bucket `i` holds values whose bit length is
/// `i`, i.e. `v == 0` → bucket 0, otherwise `v ∈ [2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Histogram handle over power-of-two buckets; `observe` is a handful of
/// relaxed atomic ops, no allocation.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let c = &self.0;
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        let count = c.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in c.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                // Inclusive upper bound of bucket i: 2^i - 1 (bucket 0
                // holds only 0; the last bucket saturates at u64::MAX).
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                buckets.push((upper, n));
            }
        }
        HistogramSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Relaxed)
            },
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time histogram state: total count/sum/min/max plus the
/// non-empty power-of-two buckets as `(inclusive_upper_bound, count)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Named registry of counters, gauges and histograms. Registration
/// (`counter`/`gauge`/`histogram`) is get-or-create by name under a lock;
/// the returned handles update lock-free, so hot paths register once and
/// keep the handle.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Counter)>>,
    gauges: Mutex<Vec<(String, Gauge)>>,
    histograms: Mutex<Vec<(String, Histogram)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Self::get_or_insert(&self.counters, name)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Self::get_or_insert(&self.gauges, name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Self::get_or_insert(&self.histograms, name)
    }

    fn get_or_insert<T: Clone + Default>(table: &Mutex<Vec<(String, T)>>, name: &str) -> T {
        let mut table = table.lock().unwrap();
        if let Some((_, v)) = table.iter().find(|(n, _)| n == name) {
            return v.clone();
        }
        let v = T::default();
        table.push((name.to_string(), v.clone()));
        v
    }

    /// Point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], name-sorted so snapshots
/// compare deterministically. This is the payload `ServerStats` embeds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// State of the histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests");
        c.inc();
        c.add(4);
        // Same name returns the same underlying cell.
        assert_eq!(reg.counter("requests").get(), 5);
        let g = reg.gauge("queue_depth");
        g.set(7);
        g.add(-3);
        assert_eq!(reg.gauge("queue_depth").get(), 4);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_us");
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 → bucket 0 (upper 0); 1 → upper 1; 2,3 → upper 3; 4 → upper 7;
        // 1000 → upper 1023.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]);
        assert!((s.mean() - 1010.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta").add(2);
        reg.counter("alpha").add(1);
        reg.gauge("mid").set(-5);
        reg.histogram("h").observe(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "alpha");
        assert_eq!(snap.counters[1].0, "zeta");
        assert_eq!(snap.counter("alpha"), Some(1));
        assert_eq!(snap.gauge("mid"), Some(-5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn snapshots_compare_structurally() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("x").add(3);
        b.counter("x").add(3);
        assert_eq!(a.snapshot(), b.snapshot());
        b.counter("x").inc();
        assert_ne!(a.snapshot(), b.snapshot());
    }
}
