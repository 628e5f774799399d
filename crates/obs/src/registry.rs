//! The metrics registry: named counters, gauges and log-bucket histograms.
//!
//! Registration (name → handle) takes a mutex once; after that every
//! update is lock-free atomics. Snapshots are consistent enough for
//! operator eyes — each value is read atomically, the set is not a
//! transaction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depth, worker count, …).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value (0.0 if never set).
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Power-of-two duration buckets: bucket `i` holds samples in
/// `[2^i, 2^{i+1})` microseconds, the last bucket is open-ended. 40
/// buckets cover 1 µs to ~12 days.
const BUCKETS: usize = 40;

/// A fixed-bucket latency histogram (microsecond resolution).
///
/// Recording is three atomic adds and one atomic max — no allocation, no
/// locks — so it is safe on any path a span may cover.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_of(us: u64) -> usize {
    // floor(log2(us)) clamped into range; 0 µs shares bucket 0.
    (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// Records one sample, in microseconds.
    pub(crate) fn record_us(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sample given as a [`Duration`].
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the histogram.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, µs.
    pub sum_us: u64,
    /// Largest sample, µs.
    pub max_us: u64,
    /// Per-bucket counts (bucket `i` = `[2^i, 2^{i+1})` µs).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total recorded time, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.sum_us as f64 / 1e3
    }

    /// Mean sample, milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1e3
        }
    }

    /// Largest sample, milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_us as f64 / 1e3
    }

    /// Approximate quantile (0–1) from the bucket boundaries: returns the
    /// upper edge (µs) of the bucket containing that rank — an upper
    /// bound within 2× of the true value.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_us
    }
}

/// A thread-safe home for named metrics. One global instance lives behind
/// [`crate::registry`]; independent instances are useful in tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// A point-in-time copy of every metric in a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Registry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("counter map lock")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge named `name`, created on first use.
    pub(crate) fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .expect("gauge map lock")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram named `name`, created on first use.
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("histogram map lock")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("counter map lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauge map lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("histogram map lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("test.hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(Arc::ptr_eq(&c, &r.counter("test.hits")), "same handle");
        let g = r.gauge("test.depth");
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["test.hits"], 5);
        assert_eq!(snap.gauges["test.depth"], 3.5);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::default();
        h.record_us(0); // degenerate: shares bucket 0
        h.record_us(1);
        h.record_us(1000);
        h.record_us(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_us, 1_001_001);
        assert_eq!(s.max_us, 1_000_000);
        assert!((s.total_ms() - 1001.001).abs() < 1e-9);
        assert!((s.mean_ms() - 250.25025).abs() < 1e-9);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
        // Quantiles are upper bucket edges: rank 2 of {0,1,1000,1e6} is 1
        // (bucket 0, upper edge 2); rank 3 is 1000 (upper edge 1024).
        assert_eq!(s.quantile_us(0.5), 2);
        assert_eq!(s.quantile_us(0.75), 1 << 10);
        assert!(s.quantile_us(1.0) >= 1_000_000);
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.mean_ms(), 0.0);
        assert_eq!(s.quantile_us(0.99), 0);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("test.parallel");
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("test.parallel").get(), 4000);
    }
}
