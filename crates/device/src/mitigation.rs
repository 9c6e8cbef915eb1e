//! Measurement-error mitigation.
//!
//! The standard complement to QOC's gradient pruning on real hardware:
//! characterize the per-qubit readout confusion by preparing and measuring
//! the basis states, then invert the confusion when post-processing
//! outcome distributions. Under the tensor-product error model (which our
//! fake devices implement exactly, and real IBM machines approximately),
//! each qubit contributes a 2×2 matrix
//!
//! ```text
//! A_q = [ P(0|0)  P(0|1) ]
//!       [ P(1|0)  P(1|1) ]
//! ```
//!
//! and mitigation applies `A_q⁻¹` per qubit to the measured distribution.

use rand::RngCore;

use qoc_sim::circuit::Circuit;

use crate::backend::{CircuitJob, Execution, QuantumBackend};

/// A fitted readout-mitigation filter (per-qubit inverse confusion).
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutMitigator {
    /// Per-qubit `[p0_given0, p0_given1, p1_given0, p1_given1]` calibration.
    confusion: Vec<[f64; 4]>,
}

impl ReadoutMitigator {
    /// Characterizes the backend's readout on `num_qubits` logical qubits by
    /// running the two calibration circuits the hardware flow uses:
    /// all-zeros (identity) and all-ones (X on every wire), `shots` each.
    ///
    /// This estimates each qubit's confusion matrix from its marginals,
    /// which is exact when readout errors are qubit-local (our devices) and
    /// the leading-order model otherwise. Each circuit runs as a job seeded
    /// from `rng`, under the backend's retry policy.
    ///
    /// # Panics
    ///
    /// Panics if a job fails (see [`QuantumBackend::run_batch_expect`]).
    pub fn calibrate(
        backend: &dyn QuantumBackend,
        num_qubits: usize,
        shots: u32,
        rng: &mut dyn RngCore,
    ) -> Self {
        let mut confusion = vec![[0.0f64; 4]; num_qubits];
        for prep_ones in [false, true] {
            let mut circuit = Circuit::new(num_qubits);
            for q in 0..num_qubits {
                if prep_ones {
                    circuit.x(q);
                } else {
                    // Explicit identity keeps the circuit non-empty so the
                    // transpiler/readout path is identical to real runs.
                    circuit.push(qoc_sim::gates::GateKind::I, &[q], &[]);
                }
            }
            let prepared = backend.prepare(&circuit);
            let job = CircuitJob::expectation(
                &prepared,
                Vec::new(),
                Execution::Shots(shots),
                rng.next_u64(),
            );
            let ez = backend.run_batch_expect(&[job]).remove(0);
            for (q, &z) in ez.iter().enumerate() {
                let p1 = ((1.0 - z) / 2.0).clamp(0.0, 1.0);
                if prep_ones {
                    confusion[q][1] = 1.0 - p1; // P(0|1)
                    confusion[q][3] = p1; // P(1|1)
                } else {
                    confusion[q][0] = 1.0 - p1; // P(0|0)
                    confusion[q][2] = p1; // P(1|0)
                }
            }
        }
        ReadoutMitigator { confusion }
    }

    /// Builds a mitigator from known confusion rates (for tests and for
    /// noiseless baselines): per qubit `(p_meas1_given0, p_meas0_given1)`.
    pub fn from_rates(rates: &[(f64, f64)]) -> Self {
        ReadoutMitigator {
            confusion: rates
                .iter()
                .map(|&(e0, e1)| [1.0 - e0, e1, e0, 1.0 - e1])
                .collect(),
        }
    }

    /// Number of qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.confusion.len()
    }

    /// The fitted confusion matrix of one qubit as
    /// `[P(0|0), P(0|1), P(1|0), P(1|1)]`.
    pub fn confusion(&self, q: usize) -> [f64; 4] {
        self.confusion[q]
    }

    /// Applies the inverse confusion to an outcome distribution in place,
    /// then clips negatives and renormalizes (the standard least-bias
    /// projection back onto the simplex).
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^num_qubits` or a confusion matrix is
    /// singular (readout error ≥ 50%).
    pub fn mitigate(&self, probs: &mut [f64]) {
        assert_eq!(
            probs.len(),
            1usize << self.confusion.len(),
            "distribution width mismatch"
        );
        for (q, a) in self.confusion.iter().enumerate() {
            let det = a[0] * a[3] - a[1] * a[2];
            assert!(
                det.abs() > 1e-9,
                "qubit {q} confusion matrix is singular; cannot mitigate"
            );
            // Inverse of [[a0, a1], [a2, a3]] / det.
            let inv = [a[3] / det, -a[1] / det, -a[2] / det, a[0] / det];
            let bit = 1usize << q;
            for i in 0..probs.len() {
                if i & bit != 0 {
                    continue;
                }
                let p0 = probs[i];
                let p1 = probs[i | bit];
                probs[i] = inv[0] * p0 + inv[1] * p1;
                probs[i | bit] = inv[2] * p0 + inv[3] * p1;
            }
        }
        // Clip + renormalize.
        let mut total = 0.0;
        for p in probs.iter_mut() {
            *p = p.max(0.0);
            total += *p;
        }
        if total > 0.0 {
            for p in probs.iter_mut() {
                *p /= total;
            }
        }
    }

    /// Mitigated per-qubit Z expectations from a raw distribution.
    pub fn mitigated_expectations(&self, raw_probs: &[f64]) -> Vec<f64> {
        let mut probs = raw_probs.to_vec();
        self.mitigate(&mut probs);
        let n = self.confusion.len();
        let mut ez = vec![0.0; n];
        for (i, p) in probs.iter().enumerate() {
            for (q, e) in ez.iter_mut().enumerate() {
                if i & (1 << q) == 0 {
                    *e += p;
                } else {
                    *e -= p;
                }
            }
        }
        ez
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FakeDevice, JobKind, NoiselessBackend};
    use crate::backends::fake_lima;
    use crate::faults::{FaultInjectingBackend, FaultPlan};
    use crate::retry::RetryPolicy;
    use qoc_sim::circuit::ParamValue;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_rates_invert_exactly() {
        let mitigator = ReadoutMitigator::from_rates(&[(0.1, 0.2), (0.05, 0.0)]);
        // True state |01⟩ (qubit0 = 1): build the corrupted distribution by
        // hand and check the filter restores it.
        let mut probs = vec![0.0; 4];
        // qubit0 true 1: measured 0 w.p. 0.2; qubit1 true 0: measured 1 w.p. 0.05.
        probs[0b01] = 0.8 * 0.95;
        probs[0b00] = 0.2 * 0.95;
        probs[0b11] = 0.8 * 0.05;
        probs[0b10] = 0.2 * 0.05;
        mitigator.mitigate(&mut probs);
        assert!((probs[0b01] - 1.0).abs() < 1e-9, "{probs:?}");
    }

    #[test]
    fn calibration_recovers_device_rates() {
        let device = FakeDevice::new(fake_lima());
        let mut rng = StdRng::seed_from_u64(1);
        let mitigator = ReadoutMitigator::calibrate(&device, 4, 60_000, &mut rng);
        // The fitted P(1|0) must be within sampling error of the logical
        // qubits' configured readout error. (Logical wire l sits on some
        // physical qubit; we only check plausibility bounds here.)
        for q in 0..4 {
            let a = mitigator.confusion(q);
            assert!(a[2] > 0.0 && a[2] < 0.12, "P(1|0) = {} implausible", a[2]);
            assert!(a[1] > 0.0 && a[1] < 0.15, "P(0|1) = {} implausible", a[1]);
            assert!((a[0] + a[2] - 1.0).abs() < 1e-9);
            assert!((a[1] + a[3] - 1.0).abs() < 1e-9);
        }
    }

    /// Calibrates 4 logical qubits of fake lima behind `plan`.
    fn calibrate_behind(plan: FaultPlan) -> ReadoutMitigator {
        let backend = FaultInjectingBackend::new(FakeDevice::new(fake_lima()), plan)
            .with_retry_policy(RetryPolicy::default().without_backoff());
        ReadoutMitigator::calibrate(&backend, 4, 4096, &mut StdRng::seed_from_u64(5))
    }

    #[test]
    fn calibration_retries_transient_faults_with_the_same_seeds() {
        let bare = ReadoutMitigator::calibrate(
            &FakeDevice::new(fake_lima()),
            4,
            4096,
            &mut StdRng::seed_from_u64(5),
        );
        // Every job fails twice, then succeeds.
        let transient = FaultPlan {
            transient_rate: 1.0,
            max_failures_per_job: 2,
            ..FaultPlan::none()
        };
        assert_eq!(calibrate_behind(transient), bare);
    }

    #[test]
    #[should_panic(expected = "batch execution failed")]
    fn calibration_fails_on_permanent_faults() {
        calibrate_behind(FaultPlan {
            permanent_rate: 1.0,
            ..FaultPlan::none()
        });
    }

    #[test]
    fn mitigation_improves_expectation_fidelity() {
        // Compare device expectations with and without mitigation against
        // the noiseless truth for a paper-style circuit.
        let device = FakeDevice::new(fake_lima());
        let simulator = NoiselessBackend::new();
        let mut rng = StdRng::seed_from_u64(2);

        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.ry(q, 0.5 + 0.3 * q as f64);
        }
        for q in 0..4 {
            c.rzz(q, (q + 1) % 4, ParamValue::sym(q));
        }
        let theta = [0.4, -0.2, 0.7, 0.1];

        let run = |backend: &dyn QuantumBackend, kind| {
            let prepared = backend.prepare(&c);
            backend.run_job(&CircuitJob {
                prepared: &prepared,
                theta: theta.to_vec(),
                execution: Execution::Exact,
                seed: 0,
                kind,
            })
        };
        let ideal = run(&simulator, JobKind::ExpectationZ);
        let raw_ez = run(&device, JobKind::ExpectationZ);
        let raw_probs = run(&device, JobKind::OutcomeDistribution);

        let mitigator = ReadoutMitigator::calibrate(&device, 4, 200_000, &mut rng);
        let mitigated = mitigator.mitigated_expectations(&raw_probs);

        let err = |v: &[f64]| -> f64 {
            v.iter()
                .zip(&ideal)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        };
        assert!(
            err(&mitigated) < err(&raw_ez),
            "mitigation did not help: raw {} vs mitigated {}",
            err(&raw_ez),
            err(&mitigated)
        );
    }

    #[test]
    fn mitigated_distribution_is_normalized() {
        let mitigator = ReadoutMitigator::from_rates(&[(0.3, 0.25); 3]);
        let mut probs = vec![0.125; 8];
        mitigator.mitigate(&mut probs);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn rejects_singular_confusion() {
        let mitigator = ReadoutMitigator::from_rates(&[(0.5, 0.5)]);
        let mut probs = vec![0.5, 0.5];
        mitigator.mitigate(&mut probs);
    }
}
