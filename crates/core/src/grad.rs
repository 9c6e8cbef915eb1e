//! Hybrid gradient assembly (paper Section 3.2, Figure 4).
//!
//! Three stages per mini-batch:
//!
//! 1. **Jacobian via parameter shift** — `∂f/∂θ` from shifted circuit runs
//!    on the quantum backend;
//! 2. **down-stream backpropagation** — run the unshifted circuit, apply the
//!    measurement head + softmax + cross-entropy, and compute `∂L/∂f` in
//!    closed form on the classical side;
//! 3. **dot product** — `∂L/∂θ = (∂f/∂θ)ᵀ · ∂L/∂f`.
//!
//! Stages 1 and 2 for *every example in the mini-batch* are independent
//! circuit executions. [`QnnGradientComputer::batch_gradient`] first offers
//! each example's Jacobian, with its forward run, to the backend's hook
//! ([`ParameterShiftEngine::offer_jacobian`]; the fake device and the
//! noiseless backend answer it with the shifted circuits forked from one
//! forward evolution, which they carry on to the end as the forward run),
//! then collects the forward job and shifted jobs of every declined (or
//! never offered) example — at most `batch·(1 + 2·|subset|)` jobs — into a
//! single [`QuantumBackend::run_batch`] submission, skipped when every
//! example was answered. Either way every example costs `1 + 2·|subset|`
//! circuits. Each example draws its jobs' randomness from its own master
//! seed `job_seed(master_seed, example_idx)`, so results do not depend on
//! batch composition order, worker count, or which path ran its circuits.

use qoc_device::backend::{job_seed, Execution, QuantumBackend};
use qoc_device::retry::BatchError;
use qoc_nn::loss::loss_and_grad;
use qoc_nn::model::QnnModel;

use crate::shift::ParameterShiftEngine;

/// Result of one mini-batch gradient evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchGradient {
    /// Mean loss over the batch.
    pub loss: f64,
    /// Mean gradient `∂L/∂θ`; entries outside the evaluated subset are 0.
    pub grad: Vec<f64>,
    /// Shot-noise variance of each `grad` entry under the finite-shot
    /// binomial model, propagated from the Jacobian through the (treated
    /// as exact) head backprop weights:
    /// `Var(∂L/∂θᵢ) = (1/B²)·Σₑ Σ_q w²_{eq}·Var(J_{eqi})` with
    /// `w_{eq} = ∂L/∂⟨Z_q⟩` for example `e`. All zeros under
    /// [`Execution::Exact`] and outside the evaluated subset. First-order:
    /// ignores the (same-order-suppressed) noise in the head weights
    /// themselves.
    pub grad_var: Vec<f64>,
    /// Per-example logits (for accuracy bookkeeping).
    pub logits: Vec<Vec<f64>>,
}

/// Computes QNN losses and parameter-shift gradients for mini-batches.
#[derive(Debug)]
pub struct QnnGradientComputer<'a> {
    model: &'a QnnModel,
    engine: ParameterShiftEngine<'a>,
}

impl<'a> QnnGradientComputer<'a> {
    /// Binds a model to a backend with the given shot policy.
    pub fn new(model: &'a QnnModel, backend: &'a dyn QuantumBackend, execution: Execution) -> Self {
        let engine =
            ParameterShiftEngine::new(backend, model.circuit(), model.num_params(), execution);
        QnnGradientComputer { model, engine }
    }

    /// Pins the batch worker count (default: the backend decides).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.engine = self.engine.with_workers(workers);
        self
    }

    /// The underlying shift engine.
    pub fn engine(&self) -> &ParameterShiftEngine<'a> {
        &self.engine
    }

    /// The model.
    pub fn model(&self) -> &QnnModel {
        self.model
    }

    /// Forward pass for one example: logits.
    pub fn forward(&self, params: &[f64], input: &[f64], master_seed: u64) -> Vec<f64> {
        let theta = self.model.symbol_vector(params, input);
        let expectations = self.engine.value(&theta, master_seed);
        self.model.logits_from_expectations(&expectations)
    }

    /// Mean loss and gradient over a batch of `(input, target)` examples,
    /// executed as **one** backend batch.
    ///
    /// When `subset` is `Some`, only those parameter indices get gradients
    /// (the pruning path); the rest stay frozen at 0. Every example costs
    /// `2·|subset| + 1` circuit executions. Example `e` derives its job
    /// seeds from `job_seed(master_seed, e)`, so its contribution is
    /// bit-identical however the batch is scheduled.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or when a job ultimately fails; the
    /// fault-tolerant training loop uses [`Self::try_batch_gradient`].
    pub fn batch_gradient(
        &self,
        params: &[f64],
        batch: &[(&[f64], usize)],
        subset: Option<&[usize]>,
        master_seed: u64,
    ) -> BatchGradient {
        self.try_batch_gradient(params, batch, subset, master_seed)
            .unwrap_or_else(|e| panic!("minibatch gradient failed: {e}"))
    }

    /// [`Self::batch_gradient`] with the typed failure path: returns the
    /// [`BatchError`] of the first job that exhausted the backend's retry
    /// policy instead of panicking. An empty `subset` evaluates forward
    /// passes only, and every parameter's gradient stays frozen at 0.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch.
    pub fn try_batch_gradient(
        &self,
        params: &[f64],
        batch: &[(&[f64], usize)],
        subset: Option<&[usize]>,
        master_seed: u64,
    ) -> Result<BatchGradient, BatchError> {
        assert!(!batch.is_empty(), "empty batch");
        let n_params = self.model.num_params();
        let all: Vec<usize>;
        let indices = match subset {
            Some(s) => s,
            None => {
                all = (0..n_params).collect();
                &all
            }
        };

        let mut span = qoc_telemetry::span!(
            "grad.minibatch",
            batch = batch.len(),
            evaluated = indices.len(),
        );
        // Offer each example's Jacobian and forward run to the backend's
        // hook, then collect the forward and shifted jobs of every example
        // it did not answer into one batch.
        let thetas: Vec<Vec<f64>> = batch
            .iter()
            .map(|&(input, _)| self.model.symbol_vector(params, input))
            .collect();
        let mut jobs = Vec::new();
        let mut layout = Vec::with_capacity(batch.len());
        for (e, theta) in thetas.iter().enumerate() {
            let example_master = job_seed(master_seed, e as u64);
            let mut offer = self
                .engine
                .offer_jacobian(theta, indices, example_master, true);
            let forward_idx = jobs.len();
            if offer.forward().is_none() {
                jobs.push(self.engine.forward_job(theta, example_master));
                jobs.extend(offer.take_jobs().unwrap_or_default());
            }
            layout.push((forward_idx, offer));
        }
        if let Some(s) = span.as_mut() {
            s.field("jobs", jobs.len());
        }
        let results = if jobs.is_empty() {
            Vec::new()
        } else {
            self.engine.try_run_batch(&jobs)?
        };

        // Classical stages: backprop through the head and dot with the rows.
        let mut grad = vec![0.0; n_params];
        let mut grad_var = vec![0.0; n_params];
        let mut total_loss = 0.0;
        let mut all_logits = Vec::with_capacity(batch.len());
        let scale = 1.0 / batch.len() as f64;
        let num_qubits = self.model.num_qubits();
        // Exact execution has no shot variance to propagate.
        let any_shots = matches!(self.engine.execution(), Execution::Shots(_));
        for (&(_, target), (forward_idx, offer)) in batch.iter().zip(&layout) {
            let (expectations, shifted) = match offer.forward() {
                Some(answered) => (answered, &[][..]),
                None => (
                    &results[*forward_idx][..],
                    &results[forward_idx + 1..forward_idx + 1 + offer.num_jobs()],
                ),
            };
            let logits = self.model.logits_from_expectations(expectations);
            let (loss, grad_logits) = loss_and_grad(&logits, target);
            let grad_expectations = self.model.head().backward(&grad_logits, num_qubits);
            total_loss += loss;

            let jac = offer.jacobian(shifted);
            for (row, &param_idx) in jac.iter().zip(indices) {
                let dot: f64 = row.iter().zip(&grad_expectations).map(|(j, g)| j * g).sum();
                grad[param_idx] += scale * dot;
            }
            if any_shots {
                // Shot-noise propagation: independent Jacobian entries, so
                // the weighted sum's variance is the w²-weighted sum of
                // entry variances, and the batch mean divides by B² (scale²).
                let variances = offer.row_variances(shifted);
                for (var_row, &param_idx) in variances.iter().zip(indices) {
                    let v: f64 = var_row
                        .iter()
                        .zip(&grad_expectations)
                        .map(|(var, g)| g * g * var)
                        .sum();
                    grad_var[param_idx] += scale * scale * v;
                }
            }
            all_logits.push(logits);
        }

        let mean_loss = total_loss * scale;
        if let Some(s) = span.as_mut() {
            let grad_norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            s.field("loss", mean_loss);
            s.field("grad_norm", grad_norm);
        }

        Ok(BatchGradient {
            loss: mean_loss,
            grad,
            grad_var,
            logits: all_logits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoc_device::backend::{FakeDevice, NoiselessBackend};
    use qoc_device::backends::fake_santiago;
    use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
    use qoc_nn::loss::cross_entropy;
    use qoc_sim::simulator::StatevectorSimulator;

    /// Finite-difference loss gradient through the entire model.
    fn fd_loss_grad(model: &QnnModel, params: &[f64], batch: &[(&[f64], usize)]) -> Vec<f64> {
        let sim = StatevectorSimulator::new();
        let loss_at = |p: &[f64]| -> f64 {
            batch
                .iter()
                .map(|&(input, target)| {
                    let ez = sim.expectations_z(model.circuit(), &model.symbol_vector(p, input));
                    cross_entropy(&model.logits_from_expectations(&ez), target)
                })
                .sum::<f64>()
                / batch.len() as f64
        };
        let eps = 1e-6;
        (0..params.len())
            .map(|i| {
                let mut pp = params.to_vec();
                pp[i] += eps;
                let mut pm = params.to_vec();
                pm[i] -= eps;
                (loss_at(&pp) - loss_at(&pm)) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn full_pipeline_gradient_matches_finite_difference() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let computer = QnnGradientComputer::new(&model, &backend, Execution::Exact);
        let params: Vec<f64> = (0..8).map(|k| 0.3 * k as f64 - 1.0).collect();
        let inputs: Vec<Vec<f64>> = (0..3)
            .map(|e| (0..16).map(|k| 0.15 * (e + k) as f64).collect())
            .collect();
        let batch: Vec<(&[f64], usize)> = inputs
            .iter()
            .enumerate()
            .map(|(e, input)| (input.as_slice(), e % 2))
            .collect();
        let got = computer.batch_gradient(&params, &batch, None, 1);
        let want = fd_loss_grad(&model, &params, &batch);
        for (i, (a, b)) in got.grad.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-5, "∂L/∂θ[{i}]: shift {a} vs fd {b}");
        }
        // Loss matches a direct evaluation too.
        let direct: f64 = batch
            .iter()
            .map(|&(input, t)| cross_entropy(&computer.forward(&params, input, 0), t))
            .sum::<f64>()
            / 3.0;
        assert!((got.loss - direct).abs() < 1e-9);
    }

    #[test]
    fn four_class_gradient_matches_finite_difference() {
        let model = QnnModel::vowel4();
        let backend = NoiselessBackend::new();
        let computer = QnnGradientComputer::new(&model, &backend, Execution::Exact);
        let params: Vec<f64> = (0..16).map(|k| 0.17 * k as f64 - 1.3).collect();
        let input: Vec<f64> = (0..10).map(|k| 0.4 * k as f64 - 2.0).collect();
        let batch: Vec<(&[f64], usize)> = vec![(input.as_slice(), 3)];
        let got = computer.batch_gradient(&params, &batch, None, 2);
        let want = fd_loss_grad(&model, &params, &batch);
        for (i, (a, b)) in got.grad.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-5, "∂L/∂θ[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn subset_freezes_other_parameters() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let computer = QnnGradientComputer::new(&model, &backend, Execution::Exact);
        let params = vec![0.25; 8];
        let input = vec![0.6; 16];
        let batch: Vec<(&[f64], usize)> = vec![(input.as_slice(), 0)];
        let full = computer.batch_gradient(&params, &batch, None, 3);
        let sub = computer.batch_gradient(&params, &batch, Some(&[1, 5]), 3);
        for i in 0..8 {
            if i == 1 || i == 5 {
                assert!((sub.grad[i] - full.grad[i]).abs() < 1e-9);
            } else {
                assert_eq!(sub.grad[i], 0.0);
            }
        }
    }

    #[test]
    fn run_count_matches_cost_model() {
        // Per example: 1 forward + 2 runs per selected parameter, whether
        // the hook answers the example (forward run included) or a wrapper
        // declines it and the jobs run as one batch; both paths charge the
        // same circuits, shots and device time.
        let model = QnnModel::mnist2();
        let params = vec![0.0; 8];
        let input = vec![0.1; 16];
        let batch: Vec<(&[f64], usize)> = vec![(input.as_slice(), 0), (input.as_slice(), 1)];
        let noiseless = NoiselessBackend::new();
        let noiseless_declining =
            FaultInjectingBackend::new(NoiselessBackend::new(), FaultPlan::none());
        let device = FakeDevice::new(fake_santiago());
        let device_declining =
            FaultInjectingBackend::new(FakeDevice::new(fake_santiago()), FaultPlan::none());
        let cases: [(&dyn QuantumBackend, &dyn QuantumBackend, Execution); 2] = [
            (&noiseless, &noiseless_declining, Execution::Exact),
            (&device, &device_declining, Execution::Shots(1024)),
        ];
        for (answering, declining, execution) in cases {
            for backend in [answering, declining] {
                let computer = QnnGradientComputer::new(&model, backend, execution);
                backend.reset_stats();
                let _ = computer.batch_gradient(&params, &batch, Some(&[0, 2, 4]), 4);
                assert_eq!(
                    backend.stats().circuits_run,
                    2 * (1 + 2 * 3),
                    "{execution:?}"
                );
            }
            let (answered, declined) = (answering.stats(), declining.stats());
            assert_eq!(answered, declined, "{execution:?}");
        }
    }

    #[test]
    fn grad_var_is_zero_exact_and_predictive_under_shots() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let params = vec![0.25; 8];
        let input = vec![0.3; 16];
        let batch: Vec<(&[f64], usize)> = vec![(input.as_slice(), 0)];

        // Exact execution: no shot noise, σ̂² ≡ 0.
        let exact = QnnGradientComputer::new(&model, &backend, Execution::Exact)
            .batch_gradient(&params, &batch, None, 1);
        assert!(exact.grad_var.iter().all(|&v| v == 0.0));

        // Finite shots: positive on the evaluated subset, zero elsewhere.
        let computer = QnnGradientComputer::new(&model, &backend, Execution::Shots(256));
        let sub = computer.batch_gradient(&params, &batch, Some(&[1, 5]), 1);
        for i in 0..8 {
            if i == 1 || i == 5 {
                assert!(sub.grad_var[i] > 0.0, "σ̂²[{i}] should be positive");
            } else {
                assert_eq!(sub.grad_var[i], 0.0, "frozen param {i} must have σ̂²=0");
            }
        }

        // Calibration: the empirical variance of each gradient entry over
        // independent shot streams must be on the order of the predicted
        // σ̂² (factor-of-3 band — 48 samples of a variance estimate).
        let n_runs = 48;
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); 8];
        let mut predicted = [0.0; 8];
        for seed in 0..n_runs as u64 {
            let g = computer.batch_gradient(&params, &batch, None, 1000 + seed);
            for (i, s) in samples.iter_mut().enumerate() {
                s.push(g.grad[i]);
            }
            for (p, v) in predicted.iter_mut().zip(&g.grad_var) {
                *p += v / n_runs as f64;
            }
        }
        for i in 0..8 {
            let mean = samples[i].iter().sum::<f64>() / n_runs as f64;
            let empirical =
                samples[i].iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (n_runs - 1) as f64;
            assert!(
                empirical < 3.0 * predicted[i] && empirical > predicted[i] / 3.0,
                "param {i}: empirical Var {empirical:.3e} vs predicted σ̂² {:.3e}",
                predicted[i]
            );
        }
    }

    #[test]
    fn empty_subset_freezes_everything() {
        // A subset without rows runs forward passes only, and the whole
        // gradient stays at 0.
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let computer = QnnGradientComputer::new(&model, &backend, Execution::Shots(256));
        let params = vec![0.25; 8];
        let input = vec![0.3; 16];
        let batch: Vec<(&[f64], usize)> = vec![(input.as_slice(), 0)];
        backend.reset_stats();
        let g = computer
            .try_batch_gradient(&params, &batch, Some(&[]), 5)
            .unwrap();
        assert!(g.grad.iter().all(|&x| x == 0.0));
        assert!(g.grad_var.iter().all(|&x| x == 0.0));
        assert_eq!(g.logits.len(), 1);
        assert_eq!(backend.stats().circuits_run, 1, "forward pass only");
    }

    #[test]
    fn batch_gradient_is_worker_count_invariant() {
        // The whole-minibatch batch is bit-identical however it is fanned
        // out, even under shot sampling.
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let params = vec![0.25; 8];
        let inputs: Vec<Vec<f64>> = (0..4).map(|e| vec![0.1 * e as f64; 16]).collect();
        let batch: Vec<(&[f64], usize)> = inputs
            .iter()
            .enumerate()
            .map(|(e, i)| (i.as_slice(), e % 2))
            .collect();
        let serial = QnnGradientComputer::new(&model, &backend, Execution::Shots(128))
            .with_workers(1)
            .batch_gradient(&params, &batch, None, 0xBEEF);
        for workers in [2, 8] {
            let batched = QnnGradientComputer::new(&model, &backend, Execution::Shots(128))
                .with_workers(workers)
                .batch_gradient(&params, &batch, None, 0xBEEF);
            assert_eq!(batched, serial, "diverged at {workers} workers");
        }
    }
}
