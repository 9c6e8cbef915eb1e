//! Single-qubit randomized benchmarking (RB).
//!
//! The protocol IBM uses to produce the very gate-error numbers our
//! calibration tables quote (and that the QOC paper's Section 2 cites for
//! characterizing noisy systems): run random Clifford sequences of growing
//! length `m`, append the recovery Clifford, and fit the survival
//! probability to `F(m) = A·αᵐ + B`. The error per Clifford is
//! `r = (1 − α)/2`. Running RB against a [`FakeDevice`] closes the loop —
//! the error rate measured *through* the stack should be commensurate with
//! the error rate the calibration *put into* it.
//!
//! [`FakeDevice`]: crate::backend::FakeDevice

use rand::{Rng, RngCore};

use qoc_sim::circuit::Circuit;
use qoc_sim::gates::GateKind;
use qoc_sim::matrix::CMatrix;

use crate::backend::{CircuitJob, Execution, QuantumBackend};

/// The 24 single-qubit Clifford elements, each as a short `{H, S}` word plus
/// its matrix.
#[derive(Debug, Clone)]
pub struct CliffordGroup {
    elements: Vec<(Vec<GateKind>, CMatrix)>,
}

impl CliffordGroup {
    /// Generates the group by closing `{I, H, S}` under multiplication.
    pub fn generate() -> Self {
        let h = GateKind::H.matrix(&[]);
        let s = GateKind::S.matrix(&[]);
        let mut elements: Vec<(Vec<GateKind>, CMatrix)> = vec![(vec![], CMatrix::identity(2))];
        // BFS closure; the 1q Clifford group has exactly 24 elements.
        let mut frontier = vec![0usize];
        while let Some(idx) = frontier.pop() {
            let (word, matrix) = elements[idx].clone();
            for (gate, gmat) in [(GateKind::H, &h), (GateKind::S, &s)] {
                let product = gmat * &matrix;
                if !elements
                    .iter()
                    .any(|(_, m)| m.approx_eq_up_to_phase(&product, 1e-9))
                {
                    let mut new_word = word.clone();
                    new_word.push(gate);
                    elements.push((new_word, product));
                    frontier.push(elements.len() - 1);
                }
            }
        }
        assert_eq!(
            elements.len(),
            24,
            "1q Clifford group must have 24 elements"
        );
        CliffordGroup { elements }
    }

    /// Number of elements (24).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if empty (never, after generation).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The gate word of element `i` (application order).
    pub fn word(&self, i: usize) -> &[GateKind] {
        &self.elements[i].0
    }

    /// The matrix of element `i`.
    pub fn matrix(&self, i: usize) -> &CMatrix {
        &self.elements[i].1
    }

    /// Index of the element inverting `product` (up to global phase).
    ///
    /// # Panics
    ///
    /// Panics if no inverse is found (cannot happen for true group
    /// elements).
    pub fn inverse_of(&self, product: &CMatrix) -> usize {
        let id = CMatrix::identity(2);
        self.elements
            .iter()
            .position(|(_, m)| (m * product).approx_eq_up_to_phase(&id, 1e-8))
            .expect("every Clifford product has a group inverse")
    }
}

/// One RB data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbPoint {
    /// Sequence length (number of random Cliffords before recovery).
    pub length: usize,
    /// Mean ground-state survival probability.
    pub survival: f64,
}

/// Fitted RB outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RbResult {
    /// The measured decay curve.
    pub points: Vec<RbPoint>,
    /// Fitted depolarizing parameter α of `F(m) = A·αᵐ + 1/2`.
    pub alpha: f64,
    /// Error per Clifford `r = (1 − α)/2`.
    pub error_per_clifford: f64,
}

/// Runs single-qubit RB on logical qubit `qubit` of `backend`.
///
/// `lengths` are the sequence lengths; `samples` random sequences are
/// averaged per length. `rng` draws each sequence and then its job's seed;
/// every sequence runs as a job under the backend's retry policy.
///
/// **Compilation caveat:** RB assumes the executed sequence is *not*
/// compiled across Clifford boundaries — a transpiler with gate fusion
/// (like this repository's default) legally collapses the whole sequence to
/// ≤ 5 physical gates and the decay vanishes. Real RB inserts barriers;
/// emulate that here by benchmarking a `FakeDevice` built
/// `with_options(TranspileOptions { optimize: false, .. })`.
///
/// # Panics
///
/// Panics if `lengths` holds fewer than two distinct values (a decay needs
/// two points to fit), on zero `samples`, or if a job fails (see
/// [`QuantumBackend::run_batch_expect`]).
pub fn randomized_benchmarking(
    backend: &dyn QuantumBackend,
    qubit: usize,
    lengths: &[usize],
    samples: usize,
    execution: Execution,
    rng: &mut dyn RngCore,
) -> RbResult {
    assert!(
        distinct_lengths(lengths.iter().copied()) >= 2,
        "need at least two distinct sequence lengths"
    );
    assert!(samples > 0, "need at least one sample per length");
    let group = CliffordGroup::generate();
    let mut points = Vec::with_capacity(lengths.len());
    for &m in lengths {
        let mut survival = 0.0;
        for _ in 0..samples {
            // Random sequence + recovery.
            let mut circuit = Circuit::new(qubit + 1);
            let mut product = CMatrix::identity(2);
            for _ in 0..m {
                let i = rng.gen_range(0..group.len());
                for &g in group.word(i) {
                    circuit.push(g, &[qubit], &[]);
                }
                product = group.matrix(i) * &product;
            }
            let rec = group.inverse_of(&product);
            for &g in group.word(rec) {
                circuit.push(g, &[qubit], &[]);
            }
            let prepared = backend.prepare(&circuit);
            let job = CircuitJob::expectation(&prepared, Vec::new(), execution, rng.next_u64());
            let ez = backend.run_batch_expect(&[job]).remove(0);
            survival += (1.0 + ez[qubit]) / 2.0 / samples as f64;
        }
        points.push(RbPoint {
            length: m,
            survival,
        });
    }
    // Log-linear fit of (F − 1/2) = A·αᵐ over the lengths still above the
    // fully mixed 1/2; with fewer than two of those left the curve has
    // decayed away and α = 0.
    let usable: Vec<&RbPoint> = points.iter().filter(|p| p.survival > 0.5 + 1e-6).collect();
    let alpha = if distinct_lengths(usable.iter().map(|p| p.length)) >= 2 {
        let xs: Vec<f64> = usable.iter().map(|p| p.length as f64).collect();
        let ys: Vec<f64> = usable.iter().map(|p| (p.survival - 0.5).ln()).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        (sxy / sxx).exp().clamp(0.0, 1.0)
    } else {
        0.0
    };
    RbResult {
        points,
        alpha,
        error_per_clifford: (1.0 - alpha) / 2.0,
    }
}

/// Number of distinct values in `lengths`.
fn distinct_lengths(lengths: impl Iterator<Item = usize>) -> usize {
    let mut seen: Vec<usize> = lengths.collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FakeDevice, NoiselessBackend};
    use crate::backends::{fake_jakarta, fake_lima, fake_santiago};
    use crate::faults::{FaultInjectingBackend, FaultPlan};
    use crate::retry::RetryPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clifford_group_has_24_distinct_elements() {
        let g = CliffordGroup::generate();
        assert_eq!(g.len(), 24);
        for i in 0..24 {
            assert!(g.matrix(i).is_unitary(1e-9));
            for j in 0..i {
                assert!(
                    !g.matrix(i).approx_eq_up_to_phase(g.matrix(j), 1e-9),
                    "elements {i} and {j} coincide"
                );
            }
        }
    }

    #[test]
    fn inverse_lookup_closes_sequences() {
        let g = CliffordGroup::generate();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let mut product = CMatrix::identity(2);
            for _ in 0..6 {
                let i = rng.gen_range(0..24);
                product = g.matrix(i) * &product;
            }
            let inv = g.inverse_of(&product);
            let closed = g.matrix(inv) * &product;
            assert!(closed.approx_eq_up_to_phase(&CMatrix::identity(2), 1e-8));
        }
    }

    #[test]
    fn noiseless_rb_has_unit_survival() {
        let backend = NoiselessBackend::new();
        let mut rng = StdRng::seed_from_u64(2);
        let result =
            randomized_benchmarking(&backend, 0, &[1, 4, 8], 4, Execution::Exact, &mut rng);
        for p in &result.points {
            assert!((p.survival - 1.0).abs() < 1e-9, "noiseless survival {p:?}");
        }
        assert!(result.error_per_clifford < 1e-9);
    }

    /// The calibrated fake device with gate fusion disabled: RB must
    /// execute the sequence as written.
    fn unfused(desc: crate::backends::DeviceDescription) -> FakeDevice {
        FakeDevice::new(desc).with_options(crate::transpile::TranspileOptions {
            optimize: false,
            smart_layout: true,
        })
    }

    #[test]
    fn device_rb_decays_and_matches_calibration_scale() {
        // Error per Clifford: each Clifford averages ~1.9 {H,S} gates, H
        // costs 2 physical SX-frames; the calibrated 1q error is ~3.7e-4
        // and thermal adds more. Expect r in a broad physical band.
        for desc in [fake_lima(), fake_santiago(), fake_jakarta()] {
            let name = desc.name.clone();
            let device = unfused(desc);
            let mut rng = StdRng::seed_from_u64(3);
            let result =
                randomized_benchmarking(&device, 0, &[1, 8, 20, 40], 6, Execution::Exact, &mut rng);
            // Survival decays with sequence length.
            assert!(
                result.points[0].survival > result.points.last().unwrap().survival,
                "{name}: no RB decay"
            );
            let r = result.error_per_clifford;
            assert!(
                r > 5e-5 && r < 2e-2,
                "{name}: error per Clifford {r} outside the plausible band"
            );
            assert!(result.alpha > 0.9 && result.alpha < 1.0, "{name}");
        }
    }

    /// Short shot-sampled RB on `backend`, with the sequences and job seeds
    /// of RNG seed 5.
    fn short_rb(backend: &dyn QuantumBackend) -> RbResult {
        randomized_benchmarking(
            backend,
            0,
            &[1, 8],
            2,
            Execution::Shots(256),
            &mut StdRng::seed_from_u64(5),
        )
    }

    fn faulty(plan: FaultPlan) -> FaultInjectingBackend<FakeDevice> {
        FaultInjectingBackend::new(unfused(fake_lima()), plan)
            .with_retry_policy(RetryPolicy::default())
    }

    #[test]
    fn rb_retries_transient_faults_with_the_same_seeds() {
        let bare = short_rb(&unfused(fake_lima()));
        // Every job fails twice, then succeeds.
        let transient = faulty(FaultPlan {
            transient_rate: 1.0,
            max_failures_per_job: 2,
            ..FaultPlan::none()
        });
        assert_eq!(short_rb(&transient), bare);
    }

    #[test]
    #[should_panic(expected = "batch execution failed")]
    fn rb_fails_on_permanent_faults() {
        short_rb(&faulty(FaultPlan {
            permanent_rate: 1.0,
            ..FaultPlan::none()
        }));
    }

    #[test]
    #[should_panic(expected = "need at least two distinct sequence lengths")]
    fn rb_rejects_a_single_length() {
        randomized_benchmarking(
            &NoiselessBackend::new(),
            0,
            &[8, 8],
            1,
            Execution::Exact,
            &mut StdRng::seed_from_u64(0),
        );
    }
}
