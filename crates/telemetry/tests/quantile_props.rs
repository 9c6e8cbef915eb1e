//! Property and concurrency tests for the streaming quantile estimator.
//!
//! The contract under test: [`StreamingQuantile`] is bit-exact over its
//! retained window — including under concurrent recording, matching the
//! exactness discipline of the registry's counter tests.

use proptest::collection::vec;
use proptest::prelude::*;
use qoc_telemetry::metrics::Registry;
use qoc_telemetry::quantile::{quantile_of_sorted, StreamingQuantile};

/// Reshapes uniform draws into distinctly-shaped distributions: uniform,
/// heavy-tailed (exp), bimodal.
fn reshape(shape: usize, x: f64) -> f64 {
    match shape {
        0 => x,                     // uniform on (-3, 3)
        1 => (x.abs() * 2.0).exp(), // heavy right tail
        _ => x.signum() * 5.0 + x,  // bimodal at ±5
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reservoir_matches_sorted_oracle_exactly_under_capacity(
        raw in vec(-3.0f64..3.0, 1..256),
        shape in 0usize..3,
        q in 0.0f64..1.0,
    ) {
        let data: Vec<f64> = raw.iter().map(|&x| reshape(shape, x)).collect();
        let sq = StreamingQuantile::new(256);
        for &x in &data {
            sq.record(x);
        }
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // While count ≤ capacity the reservoir holds the whole stream, so
        // every quantile equals the exact sorted-slice answer, bit for bit.
        prop_assert_eq!(sq.quantile(q), quantile_of_sorted(&sorted, q));
        let snap = sq.snapshot();
        prop_assert_eq!(snap.min, sorted[0]);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        prop_assert_eq!(snap.p50, quantile_of_sorted(&sorted, 0.5));
    }
}

#[test]
fn reservoir_is_exact_across_threads() {
    // The registry exactness contract, extended to the quantile estimator:
    // 8 threads × 10_000 distinct samples through one registered estimator
    // must leave exactly the full multiset in the window (capacity ≥ total,
    // so `fetch_add` gives every sample a unique slot — no sample may be
    // lost or duplicated).
    let reg = Registry::new();
    let (n_threads, per_thread) = (8u64, 10_000u64);
    let capacity = (n_threads * per_thread) as usize;
    std::thread::scope(|s| {
        for t in 0..n_threads {
            let q = reg.quantile_estimator("test.conc", capacity);
            s.spawn(move || {
                for i in 0..per_thread {
                    q.record((t * per_thread + i) as f64);
                }
            });
        }
    });
    let q = reg.quantile_estimator("test.conc", capacity);
    assert_eq!(q.count(), n_threads * per_thread);
    let window = q.window();
    assert_eq!(window.len(), capacity);
    // Sorted window must be exactly 0, 1, …, 79_999.
    for (i, &v) in window.iter().enumerate() {
        assert_eq!(v, i as f64, "slot {i} lost or duplicated");
    }
    let snap = reg.snapshot().quantile("test.conc").cloned().unwrap();
    assert_eq!(snap.min, 0.0);
    assert_eq!(snap.max, (n_threads * per_thread - 1) as f64);
    // Nearest-rank median of 0..N is element ⌈N/2⌉−1 = N/2−1 for even N.
    assert_eq!(snap.p50, (n_threads * per_thread / 2 - 1) as f64);
}
