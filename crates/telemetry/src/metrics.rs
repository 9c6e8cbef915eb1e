//! Global metrics registry: lock-free counters, gauges, and fixed-bucket
//! histograms.
//!
//! All primitives follow the integer discipline of the device layer's
//! `ExecutionStats`: counters and histogram samples are `u64` (durations in
//! integer nanoseconds), so concurrent recording is exact — integer atomic
//! addition commutes, float addition does not. Gauges are the one float
//! exception (last-write-wins snapshots of quantities like loss), stored as
//! `f64` bit patterns in an `AtomicU64`.
//!
//! Recording is always-on and costs one relaxed atomic RMW per update; the
//! registry has no notion of "enabled". What is gated (by
//! [`crate::enabled`]) is the *instrumentation that feeds it* wherever the
//! feeding itself is expensive (e.g. wall-clock capture around every job).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::Serialize;

use crate::quantile::{QuantileSnapshot, StreamingQuantile};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins `f64` gauge (stored as bit patterns, so updates are
/// atomic without a lock).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Creates a gauge at `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Resets to `0.0`.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// A fixed-bucket histogram over `u64` samples (typically nanoseconds).
///
/// Bucket `i` counts samples `≤ bounds[i]`; one overflow bucket catches the
/// rest. `count`/`sum`/`min`/`max` are tracked exactly, so parallel totals
/// never drift; percentiles are bucket-resolution estimates.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Geometric bounds `start, start·factor, …` (`count` of them) — the
    /// usual shape for latency distributions.
    ///
    /// # Panics
    ///
    /// Panics if `start == 0`, `factor < 2` or `count == 0`.
    pub fn exponential_bounds(start: u64, factor: u64, count: usize) -> Vec<u64> {
        assert!(start > 0 && factor >= 2 && count > 0, "degenerate bounds");
        let mut bounds = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            bounds.push(b);
            b = b.saturating_mul(factor);
        }
        bounds.dedup();
        bounds
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v`: the same cells as `n` calls of
    /// [`Self::record`] (the sum wraps as they would), in five updates.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Resets all cells.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Exact sample sum.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Bucket upper bounds (ascending).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `buckets[bounds.len()]` is the overflow bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Bucket-resolution estimate of the `q`-quantile (`q ∈ [0, 1]`): the
    /// upper bound of the bucket holding the quantile rank, clamped into
    /// the exactly-tracked `[min, max]` — so `q = 0` returns the recorded
    /// minimum (not the first bucket's upper bound) and the overflow bucket
    /// returns the exact `max`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i].clamp(self.min, self.max)
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time export of every metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Streaming-quantile summaries by name.
    pub quantiles: BTreeMap<String, QuantileSnapshot>,
}

impl MetricsSnapshot {
    /// Convenience counter lookup (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience histogram lookup.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Convenience quantile-estimator lookup.
    pub fn quantile(&self, name: &str) -> Option<&QuantileSnapshot> {
        self.quantiles.get(name)
    }
}

/// A named collection of metrics. Handles are `Arc`s: look a metric up once
/// (one mutex lock), then record through the handle lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    quantiles: Mutex<BTreeMap<String, Arc<StreamingQuantile>>>,
}

impl Registry {
    /// Creates an empty registry (tests; production code uses
    /// [`Registry::global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Returns (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Returns (registering on first use) the histogram `name`. The bounds
    /// apply on first registration; later callers get the existing
    /// histogram unchanged.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Returns (registering on first use) the streaming-quantile estimator
    /// `name`. The capacity applies on first registration; later callers
    /// get the existing estimator unchanged.
    pub fn quantile_estimator(&self, name: &str, capacity: usize) -> Arc<StreamingQuantile> {
        let mut map = self.quantiles.lock().expect("metrics registry poisoned");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(StreamingQuantile::new(capacity))),
        )
    }

    /// Snapshots every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            quantiles: self
                .quantiles
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric (benchmark sweeps take per-config
    /// deltas this way; production code never resets).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("poisoned").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("poisoned").values() {
            h.reset();
        }
        for q in self.quantiles.lock().expect("poisoned").values() {
            q.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_exact_across_threads() {
        // The satellite exactness contract: N workers × M increments must
        // equal the snapshot total, bit-for-bit.
        let reg = Registry::new();
        let (n_threads, per_thread) = (8u64, 10_000u64);
        std::thread::scope(|s| {
            for _ in 0..n_threads {
                let c = reg.counter("test.hits");
                let h = reg.histogram("test.lat", &[10, 100, 1000]);
                s.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(i % 1500);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("test.hits"), n_threads * per_thread);
        let h = snap.histogram("test.lat").unwrap();
        assert_eq!(h.count, n_threads * per_thread);
        let per_thread_sum: u64 = (0..per_thread).map(|i| i % 1500).sum();
        assert_eq!(h.sum, n_threads * per_thread_sum);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 10, 11, 50, 200, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![3, 2, 1, 1]);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5000);
        // q = 0 is the exact recorded minimum, not the first bucket bound.
        assert_eq!(s.quantile(0.0), 1);
        // Rank ceil(0.5·7)=4 lands in the second bucket (≤100).
        assert_eq!(s.quantile(0.5), 100);
        // The top sample lives in the overflow bucket: quantile = exact max.
        assert_eq!(s.quantile(1.0), 5000);
        assert!((s.mean() - (1.0 + 5.0 + 10.0 + 11.0 + 50.0 + 200.0 + 5000.0) / 7.0).abs() < 1e-9);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (one_by_one, at_once) = (Histogram::new(&[10, 100]), Histogram::new(&[10, 100]));
        for (v, n) in [(7, 3), (100, 0), (101, 2), (u64::MAX / 2, 5)] {
            for _ in 0..n {
                one_by_one.record(v);
            }
            at_once.record_n(v, n);
        }
        assert_eq!(at_once.snapshot(), one_by_one.snapshot());
        assert_eq!(at_once.count(), 10);
    }

    #[test]
    fn quantile_zero_returns_exact_min_and_estimates_clamp_to_range() {
        // Regression for the q=0 bug: the rank walk used to return the
        // first bucket's *upper bound* (100 here) for q=0.
        let h = Histogram::new(&[100, 1000]);
        for v in [40, 45, 50, 900] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 40, "q=0 must be the recorded min");
        // Low quantiles whose bucket bound sits below min clamp up to min:
        // with all samples ≥ 40 no estimate may dip below it.
        assert!(s.quantile(0.25) >= s.min);
        assert_eq!(s.quantile(1.0), 900, "q=1 is the exact max");
        // A single-sample histogram collapses every quantile to the sample.
        let h1 = Histogram::new(&[100]);
        h1.record(7);
        let s1 = h1.snapshot();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s1.quantile(q), 7);
        }
    }

    #[test]
    fn registry_quantile_estimator_snapshots_and_resets() {
        let reg = Registry::new();
        let q = reg.quantile_estimator("test.snr", 128);
        for i in 1..=100 {
            q.record(i as f64);
        }
        // Same name returns the same estimator regardless of capacity.
        assert_eq!(reg.quantile_estimator("test.snr", 4).count(), 100);
        let snap = reg.snapshot();
        let qs = snap.quantile("test.snr").expect("registered");
        assert_eq!(qs.count, 100);
        assert_eq!(qs.min, 1.0);
        assert_eq!(qs.p50, 50.0);
        assert_eq!(qs.max, 100.0);
        reg.reset();
        assert_eq!(reg.snapshot().quantile("test.snr").unwrap().count, 0);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new(&[10]);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn exponential_bounds_grow_geometrically() {
        assert_eq!(
            Histogram::exponential_bounds(100, 10, 4),
            vec![100, 1000, 10_000, 100_000]
        );
    }

    #[test]
    fn gauge_round_trips_floats() {
        let g = Gauge::new();
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
        g.reset();
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = Registry::new();
        reg.counter("a").add(5);
        reg.gauge("b").set(1.5);
        reg.histogram("c", &[10]).record(3);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 0);
        assert_eq!(snap.gauges["b"], 0.0);
        assert_eq!(snap.histogram("c").unwrap().count, 0);
    }

    #[test]
    fn same_name_returns_same_metric() {
        let reg = Registry::new();
        reg.counter("x").add(1);
        reg.counter("x").add(2);
        assert_eq!(reg.counter("x").get(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }
}
