//! Streaming quantile estimation.
//!
//! The fixed-bucket [`Histogram`](crate::metrics::Histogram) answers
//! quantile queries only at bucket resolution and only for `u64` samples —
//! fine for nanosecond latencies, useless for gradient-health statistics
//! whose scale is unknown in advance (SNRs span many decades and can sit
//! entirely inside one bucket). [`StreamingQuantile`] fills the gap: a
//! **lock-free** bounded reservoir for concurrent recording — a ring of
//! `AtomicU64` cells (f64 bit patterns) with a `fetch_add` write cursor.
//! Recording is one atomic RMW plus one store — no mutex, no CAS loop — so
//! hot paths (per-parameter SNR recording inside the training loop) never
//! contend. Quantile queries sort a point-in-time copy of the window, so
//! they are *exact over the retained window*: the full stream while
//! `count ≤ capacity`, the most recent `capacity` samples after that (an
//! unbiased sample for i.i.d. streams).
//!
//! Estimators are registered in the global metrics
//! [`Registry`](crate::metrics::Registry) via
//! [`Registry::quantile_estimator`](crate::metrics::Registry::quantile_estimator)
//! and exported into run manifests as [`QuantileSnapshot`]s.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Lock-free bounded reservoir for concurrent quantile estimation.
///
/// `record` is wait-free: one `fetch_add` on the write cursor plus one
/// relaxed store of the sample's bit pattern into its ring slot. Queries
/// copy the window out and sort, so they are exact over the retained
/// window (see the module docs for the window semantics). A reader racing
/// a writer may observe a slot mid-overwrite — it sees either the old or
/// the new sample, never a torn value, because each sample is one atomic
/// 64-bit cell.
#[derive(Debug)]
pub struct StreamingQuantile {
    slots: Vec<AtomicU64>,
    head: AtomicU64,
}

impl StreamingQuantile {
    /// Default ring capacity used by the registry.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a reservoir retaining the most recent `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "quantile reservoir needs capacity ≥ 1");
        StreamingQuantile {
            slots: (0..capacity)
                .map(|_| AtomicU64::new(0f64.to_bits()))
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one sample (wait-free).
    pub fn record(&self, x: f64) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        self.slots[(i % self.slots.len() as u64) as usize].store(x.to_bits(), Ordering::Relaxed);
    }

    /// Total samples recorded (including ones that have left the window).
    pub fn count(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the retained window, sorted ascending.
    pub fn window(&self) -> Vec<f64> {
        let count = self.count();
        let len = (count.min(self.slots.len() as u64)) as usize;
        let mut out: Vec<f64> = self.slots[..len]
            .iter()
            .map(|s| f64::from_bits(s.load(Ordering::Relaxed)))
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        out
    }

    /// The `q`-quantile of the retained window by the nearest-rank rule
    /// (`q` clamped to `[0, 1]`; 0.0 for an empty reservoir). `q = 0`
    /// returns the window minimum, `q = 1` the window maximum — both exact.
    pub fn quantile(&self, q: f64) -> f64 {
        let window = self.window();
        quantile_of_sorted(&window, q)
    }

    /// Summary for manifests and bench artifacts.
    pub fn snapshot(&self) -> QuantileSnapshot {
        let window = self.window();
        QuantileSnapshot {
            count: self.count(),
            window: window.len() as u64,
            min: window.first().copied().unwrap_or(0.0),
            p50: quantile_of_sorted(&window, 0.5),
            p90: quantile_of_sorted(&window, 0.9),
            p99: quantile_of_sorted(&window, 0.99),
            max: window.last().copied().unwrap_or(0.0),
        }
    }

    /// Clears the reservoir (bench sweeps take per-config deltas).
    pub fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
        for slot in &self.slots {
            slot.store(0f64.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Nearest-rank quantile of an ascending slice (0.0 when empty).
pub fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Immutable summary of a [`StreamingQuantile`], exported in
/// [`MetricsSnapshot`](crate::metrics::MetricsSnapshot).
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct QuantileSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Samples currently retained (≤ capacity).
    pub window: u64,
    /// Exact window minimum.
    pub min: f64,
    /// Window median.
    pub p50: f64,
    /// Window 90th percentile.
    pub p90: f64,
    /// Window 99th percentile.
    pub p99: f64,
    /// Exact window maximum.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        quantile_of_sorted(&sorted, q)
    }

    #[test]
    fn reservoir_is_exact_while_under_capacity() {
        let sq = StreamingQuantile::new(64);
        let values: Vec<f64> = (0..50).map(|i| (i * 37 % 50) as f64).collect();
        for &v in &values {
            sq.record(v);
        }
        assert_eq!(sq.count(), 50);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(sq.quantile(q), exact_quantile(&values, q), "q={q}");
        }
        let snap = sq.snapshot();
        assert_eq!(snap.min, 0.0);
        assert_eq!(snap.max, 49.0);
        assert_eq!(snap.window, 50);
    }

    #[test]
    fn reservoir_windows_to_most_recent_samples() {
        let sq = StreamingQuantile::new(8);
        for i in 0..100 {
            sq.record(i as f64);
        }
        // Window = the last 8 samples, 92..=99.
        assert_eq!(sq.count(), 100);
        assert_eq!(sq.quantile(0.0), 92.0);
        assert_eq!(sq.quantile(1.0), 99.0);
    }

    #[test]
    fn reservoir_reset_empties_the_window() {
        let sq = StreamingQuantile::new(4);
        sq.record(7.0);
        sq.reset();
        assert_eq!(sq.count(), 0);
        assert_eq!(sq.quantile(0.5), 0.0);
        assert_eq!(sq.snapshot(), QuantileSnapshot::default());
    }

    #[test]
    fn nearest_rank_matches_hand_computation() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_of_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_of_sorted(&sorted, 0.25), 1.0);
        assert_eq!(quantile_of_sorted(&sorted, 0.5), 2.0);
        assert_eq!(quantile_of_sorted(&sorted, 0.75), 3.0);
        assert_eq!(quantile_of_sorted(&sorted, 1.0), 4.0);
        assert_eq!(quantile_of_sorted(&[], 0.5), 0.0);
    }
}
