//! In-situ quantum gradients via the parameter-shift rule (paper Eq. 2).
//!
//! For a gate `e^{-iθH/2}` with involutory generator `H`, the derivative of
//! any circuit expectation w.r.t. θ is **exactly**
//! `½·(f(θ+π/2) − f(θ−π/2))` — two extra circuit executions per parameter,
//! no ancillas, no finite-difference error. This engine runs those shifted
//! circuits through a [`QuantumBackend`], so on a [`FakeDevice`] the
//! gradients come back noisy exactly the way hardware gradients do.
//!
//! # Batched execution
//!
//! A Jacobian is 2·n independent circuit executions — exactly the batch
//! shape hardware providers accept. The engine therefore *plans* the full
//! ±π/2 job set ([`Self::jacobian_jobs`]) and submits it through
//! [`QuantumBackend::run_batch`], which fans it over worker threads.
//! Randomness comes from deterministic per-job streams instead of a shared
//! `&mut RngCore`: each job's seed is `job_seed(master, stream)` where the
//! stream id encodes *what* the job computes — `(symbol, occurrence, sign)`
//! for shift jobs, a reserved id for the forward pass — never its position
//! in the batch. Consequences:
//!
//! - a batched Jacobian is bit-identical to the serial one at any worker
//!   count, even with finite shots;
//! - a pruned-subset Jacobian row equals the corresponding full-Jacobian
//!   row, because row `i` consumes the same streams either way.
//!
//! Shared-parameter (multi-occurrence) symbols route through shifted
//! circuit variants that are transpiled **once** at engine construction and
//! cached as [`PreparedCircuit`]s, not re-prepared per evaluation.
//!
//! # Differentiation modes
//!
//! The engine is a *mode-selecting planner* (see DESIGN.md §5c). Every
//! Jacobian evaluation resolves a [`DiffMode`]:
//!
//! - [`DiffMode::Shifted2P`] — the classic 2·occ shifted-job batch above.
//!   The only mode noisy/hardware backends support; its job set, seeds, and
//!   results are bit-identical to the historical behavior.
//! - [`DiffMode::Adjoint`] — one structured [`JacobianBatch`] job: one
//!   forward pass + one backward adjoint sweep; exact execution only.
//!
//! Selection: [`ParameterShiftEngine::with_diff_mode`] overrides auto. Auto
//! picks `Adjoint` exactly when the backend reports
//! [`DifferentiationCapability::Statevector`] *and* execution is exact;
//! every finite-shot or hardware path stays on `Shifted2P`, and a pinned
//! `Adjoint` is downgraded to it there. A backend may decline a structured
//! batch ([`QuantumBackend::run_jacobian_batch`] returning `None`), in
//! which case the planner silently falls back to shifted jobs.
//!
//! Trainable gates without a native two-term shift rule (`crx`/`cry`/`crz`/
//! `cp`/`p`/`u3`) are rewritten at engine construction via
//! [`decompose_for_shift_rules`] into shift-friendly rotations, so they are
//! differentiable under every mode.
//!
//! [`FakeDevice`]: qoc_device::backend::FakeDevice

use std::f64::consts::FRAC_PI_2;

use qoc_device::backend::{
    job_seed, CircuitJob, DiffMode, DifferentiationCapability, Execution, JacobianBatch,
    PreparedCircuit, QuantumBackend,
};
use qoc_device::retry::{BatchError, BatchResult};
use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::diff::{decompose_for_shift_rules, JacobianRowSpec, ShiftOccurrence};

/// Jacobian of circuit expectations w.r.t. trainable symbols: row `i` is
/// `∂f/∂θᵢ` across the logical qubits.
pub type Jacobian = Vec<Vec<f64>>;

/// Stream id of the unshifted forward evaluation (reserved; never collides
/// with [`shift_stream`] ids, whose symbol field is below `u32::MAX`).
pub const FORWARD_STREAM: u64 = u64::MAX;

/// Stream id of the `sign`-shifted job for `occurrence` of `symbol`.
///
/// Depends only on the mathematical identity of the job, so a symbol's
/// gradient consumes identical randomness whether it is evaluated inside a
/// full Jacobian, a pruned subset, or a lone [`ParameterShiftEngine::gradient_row`].
pub fn shift_stream(symbol: usize, occurrence: usize, minus: bool) -> u64 {
    ((symbol as u64) << 32) | ((occurrence as u64) << 1) | u64::from(minus)
}

/// How one trainable symbol's gradient is computed.
#[derive(Debug)]
enum SymbolPlan {
    /// One occurrence with |scale| = 1: a symbol-level ±π/2 shift on the
    /// shared prepared circuit. The chain-rule factor `scale` cancels
    /// against the sign of the angle shift — for both scale = +1 and
    /// scale = −1 the gradient is ½·(f(θᵢ+π/2) − f(θᵢ−π/2)).
    Simple,
    /// General case (paper Section 3.1, final paragraph): shift each gate
    /// occurrence separately and sum with the occurrence's chain-rule
    /// scale. The shifted circuit variants are transpiled once, here.
    Occurrences(Vec<OccurrenceShift>),
}

#[derive(Debug)]
struct OccurrenceShift {
    scale: f64,
    plus: PreparedCircuit,
    minus: PreparedCircuit,
}

/// Assembly recipe returned by [`ParameterShiftEngine::jacobian_jobs`]:
/// turns the batch's raw results back into Jacobian rows.
#[derive(Debug)]
pub struct JacobianPlan {
    /// Per row: `(plus_idx, minus_idx, scale)` terms into the job list.
    rows: Vec<Vec<(usize, usize, f64)>>,
    /// Per row: the execution every one of its shifted jobs ran under.
    /// Uniform plans carry the engine execution in every slot; budgeted
    /// plans ([`ParameterShiftEngine::jacobian_jobs_budgeted`]) carry the
    /// allocator's per-row [`Execution`].
    row_executions: Vec<Execution>,
    num_jobs: usize,
    num_outputs: usize,
}

impl JacobianPlan {
    /// The differentiation mode this plan's jobs realize. Job plans are
    /// always [`DiffMode::Shifted2P`] — the structured adjoint path goes
    /// through [`QuantumBackend::run_jacobian_batch`] and never
    /// materializes per-shift jobs.
    pub fn mode(&self) -> DiffMode {
        DiffMode::Shifted2P
    }

    /// Number of jobs the paired job list contains.
    pub fn num_jobs(&self) -> usize {
        self.num_jobs
    }

    /// Combines batch results (same order as the paired job list) into
    /// Jacobian rows.
    ///
    /// # Panics
    ///
    /// Panics if `results` is shorter than [`Self::num_jobs`].
    pub fn assemble(&self, results: &[Vec<f64>]) -> Jacobian {
        assert!(
            results.len() >= self.num_jobs,
            "plan needs {} results, got {}",
            self.num_jobs,
            results.len()
        );
        self.rows
            .iter()
            .map(|terms| {
                let mut row = vec![0.0; self.num_outputs];
                for &(p, m, scale) in terms {
                    for ((r, fp), fm) in row.iter_mut().zip(&results[p]).zip(&results[m]) {
                        *r += scale * 0.5 * (fp - fm);
                    }
                }
                row
            })
            .collect()
    }

    /// Shot-noise variance of each assembled Jacobian entry under the
    /// `shots`-shot binomial model (paper Section 3.3): a measured
    /// expectation `f = ⟨Z⟩` estimated from `s` shots has
    /// `Var(f) = (1 − f²)/s`, so a row entry
    /// `Σ scale·½·(f₊ − f₋)` carries
    /// `Σ scale²·¼·((1 − f₊²) + (1 − f₋²))/s` (the two shifted runs are
    /// independent jobs). Shape matches [`Self::assemble`]'s output;
    /// all-zero for exact (infinite-shot) execution, where `shots` is
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics if `results` is shorter than [`Self::num_jobs`].
    pub fn row_variances(&self, results: &[Vec<f64>], shots: Option<u32>) -> Vec<Vec<f64>> {
        assert!(
            results.len() >= self.num_jobs,
            "plan needs {} results, got {}",
            self.num_jobs,
            results.len()
        );
        let Some(shots) = shots else {
            return vec![vec![0.0; self.num_outputs]; self.rows.len()];
        };
        let s = f64::from(shots.max(1));
        self.rows
            .iter()
            .map(|terms| {
                let mut row = vec![0.0; self.num_outputs];
                for &(p, m, scale) in terms {
                    for ((r, fp), fm) in row.iter_mut().zip(&results[p]).zip(&results[m]) {
                        // Clamp against |f| > 1 (possible only through
                        // numerical slop) so variances never go negative.
                        let vp = (1.0 - fp * fp).max(0.0);
                        let vm = (1.0 - fm * fm).max(0.0);
                        *r += scale * scale * 0.25 * (vp + vm) / s;
                    }
                }
                row
            })
            .collect()
    }

    /// [`Self::row_variances`] driven by the plan's own per-row executions
    /// instead of one uniform shot count: rows that ran exactly get zeros,
    /// rows that ran with `s` shots get the binomial-model variance at
    /// their own `s`. For a uniform finite-shot plan this is bit-identical
    /// to `row_variances(results, Some(s))` — the inner float-op order is
    /// the same.
    ///
    /// # Panics
    ///
    /// Panics if `results` is shorter than [`Self::num_jobs`].
    pub fn row_variances_planned(&self, results: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert!(
            results.len() >= self.num_jobs,
            "plan needs {} results, got {}",
            self.num_jobs,
            results.len()
        );
        self.rows
            .iter()
            .zip(&self.row_executions)
            .map(|(terms, execution)| {
                let mut row = vec![0.0; self.num_outputs];
                let Execution::Shots(shots) = *execution else {
                    return row;
                };
                let s = f64::from(shots.max(1));
                for &(p, m, scale) in terms {
                    for ((r, fp), fm) in row.iter_mut().zip(&results[p]).zip(&results[m]) {
                        let vp = (1.0 - fp * fp).max(0.0);
                        let vm = (1.0 - fm * fm).max(0.0);
                        *r += scale * scale * 0.25 * (vp + vm) / s;
                    }
                }
                row
            })
            .collect()
    }
}

/// Parameter-shift gradient engine bound to one backend + circuit template.
///
/// Symbols `0..num_trainable` of the circuit are treated as trainable; any
/// further symbols (e.g. a QNN's encoded input features) are shifted never
/// and passed through verbatim.
#[derive(Debug)]
pub struct ParameterShiftEngine<'a> {
    backend: &'a dyn QuantumBackend,
    prepared: PreparedCircuit,
    num_trainable: usize,
    execution: Execution,
    plans: Vec<SymbolPlan>,
    /// Per trainable symbol: its occurrences in the executed (possibly
    /// decomposed) circuit — the structured-batch view of what
    /// [`SymbolPlan`] encodes for the job path.
    row_specs: Vec<JacobianRowSpec>,
    diff_mode: Option<DiffMode>,
    workers: Option<usize>,
}

impl<'a> ParameterShiftEngine<'a> {
    /// Prepares the engine: rewrites trainable gates without a native shift
    /// rule via [`decompose_for_shift_rules`], then transpiles the executed
    /// circuit and every shifted variant needed by shared-parameter
    /// symbols, once.
    ///
    /// # Panics
    ///
    /// Panics if a trainable symbol has no gate occurrence or occurs in a
    /// gate that neither admits the two-term shift rule nor has a known
    /// decomposition (cannot happen for the current gate set).
    pub fn new(
        backend: &'a dyn QuantumBackend,
        circuit: &Circuit,
        num_trainable: usize,
        execution: Execution,
    ) -> Self {
        assert!(
            num_trainable <= circuit.num_symbols(),
            "circuit has {} symbols, {num_trainable} requested as trainable",
            circuit.num_symbols()
        );
        // Crooks-style rewriting; `None` means the circuit was already
        // shift-friendly and executes exactly as before.
        let decomposed = decompose_for_shift_rules(circuit, num_trainable);
        let circuit = decomposed.as_ref().unwrap_or(circuit);
        let mut plans = Vec::with_capacity(num_trainable);
        let mut row_specs = Vec::with_capacity(num_trainable);
        for s in 0..num_trainable {
            let occ = circuit.symbol_occurrences(s);
            assert!(
                !occ.is_empty(),
                "trainable symbol {s} does not occur in the circuit"
            );
            for &(op_idx, _) in &occ {
                let gate = circuit.ops()[op_idx].gate;
                assert!(
                    gate.supports_shift_rule(),
                    "symbol {s} occurs in gate {gate}, which has no two-term shift rule"
                );
            }
            let with_scales: Vec<ShiftOccurrence> = occ
                .iter()
                .filter_map(
                    |&(op_index, slot)| match circuit.ops()[op_index].params[slot] {
                        ParamValue::Sym { scale, .. } => Some(ShiftOccurrence {
                            op_index,
                            slot,
                            scale,
                        }),
                        ParamValue::Const(_) => None,
                    },
                )
                .collect();
            let simple = with_scales.len() == 1 && (with_scales[0].scale.abs() - 1.0).abs() < 1e-12;
            if simple {
                plans.push(SymbolPlan::Simple);
            } else {
                let shifts = with_scales
                    .iter()
                    .map(|o| {
                        let plus = circuit.with_occurrence_shift(o.op_index, o.slot, FRAC_PI_2);
                        let minus = circuit.with_occurrence_shift(o.op_index, o.slot, -FRAC_PI_2);
                        OccurrenceShift {
                            scale: o.scale,
                            plus: backend.prepare(&plus),
                            minus: backend.prepare(&minus),
                        }
                    })
                    .collect();
                plans.push(SymbolPlan::Occurrences(shifts));
            }
            row_specs.push(JacobianRowSpec {
                occurrences: with_scales,
            });
        }
        ParameterShiftEngine {
            backend,
            prepared: backend.prepare(circuit),
            num_trainable,
            execution,
            plans,
            row_specs,
            diff_mode: None,
            workers: None,
        }
    }

    /// Pins the batch worker count (default: the backend's
    /// [`default_worker_count`](qoc_device::backend::default_worker_count)).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Pins the differentiation mode instead of auto-selecting. A pinned
    /// [`DiffMode::Adjoint`] still falls back to shifted jobs where the
    /// backend or execution cannot serve it.
    #[must_use]
    pub fn with_diff_mode(mut self, mode: DiffMode) -> Self {
        self.diff_mode = Some(mode);
        self
    }

    /// Resolves the effective mode. Adjoint — pinned through
    /// [`Self::with_diff_mode`] or auto-selected — runs exactly on an exact
    /// statevector backend; everywhere else the universally supported
    /// shifted-job path runs. Finite-shot execution therefore never uses a
    /// structured mode, so every sampled result stays bit-identical to the
    /// historical path.
    fn resolve_mode(&self) -> DiffMode {
        let adjoint_ok = self.backend.differentiation_capability()
            == DifferentiationCapability::Statevector
            && self.execution == Execution::Exact;
        match self.diff_mode {
            Some(DiffMode::Adjoint) | None if adjoint_ok => DiffMode::Adjoint,
            _ => DiffMode::Shifted2P,
        }
    }

    /// The backend this engine drives.
    pub fn backend(&self) -> &dyn QuantumBackend {
        self.backend
    }

    /// The execution mode (exact vs finite shots) shifted jobs run under.
    pub fn execution(&self) -> Execution {
        self.execution
    }

    /// Number of trainable symbols.
    pub fn num_trainable(&self) -> usize {
        self.num_trainable
    }

    /// Number of output expectations per evaluation.
    pub fn num_outputs(&self) -> usize {
        self.prepared.logical_qubits()
    }

    /// Submits a job batch through the engine's backend, honouring a
    /// [`Self::with_workers`] override. Callers assembling their own
    /// batches (e.g. a whole minibatch) use this instead of going to the
    /// backend directly. Fails when a job exhausts the backend's retry
    /// policy (see [`qoc_device::retry::RetryPolicy`]).
    pub fn try_run_batch(&self, jobs: &[CircuitJob<'_>]) -> BatchResult {
        match self.workers {
            Some(w) => self.backend.run_batch_workers(jobs, w),
            None => self.backend.run_batch(jobs),
        }
    }

    /// [`Self::try_run_batch`] for infallible callers: panics with the
    /// batch error if a job ultimately fails.
    pub fn run_batch(&self, jobs: &[CircuitJob<'_>]) -> Vec<Vec<f64>> {
        self.try_run_batch(jobs)
            .unwrap_or_else(|e| panic!("batch execution failed: {e}"))
    }

    /// The forward job `f(θ)` under `master_seed` (stream
    /// [`FORWARD_STREAM`]), for callers assembling larger batches.
    pub fn forward_job(&self, theta: &[f64], master_seed: u64) -> CircuitJob<'_> {
        CircuitJob::expectation(
            &self.prepared,
            theta.to_vec(),
            self.execution,
            job_seed(master_seed, FORWARD_STREAM),
        )
    }

    /// Unshifted forward evaluation `f(θ)`.
    pub fn value(&self, theta: &[f64], master_seed: u64) -> Vec<f64> {
        self.backend.run_job(&self.forward_job(theta, master_seed))
    }

    /// Builds the full ±π/2 job set for the requested rows (`None` = all
    /// trainable symbols, the pruning path passes a subset) plus the recipe
    /// to assemble results into rows.
    ///
    /// Callers either submit the jobs themselves (possibly concatenated
    /// with other work, e.g. a whole minibatch) or use [`Self::jacobian`].
    pub fn jacobian_jobs(
        &self,
        theta: &[f64],
        subset: Option<&[usize]>,
        master_seed: u64,
    ) -> (Vec<CircuitJob<'_>>, JacobianPlan) {
        let indices: Vec<usize> = match subset {
            Some(s) => s.to_vec(),
            None => (0..self.num_trainable).collect(),
        };
        self.jacobian_jobs_impl(theta, &indices, master_seed, None)
    }

    /// [`Self::jacobian_jobs`] with a per-row [`Execution`] budget, for the
    /// SNR-adaptive shot allocator ([`crate::alloc`]): `budgets[r]` replaces
    /// the engine's uniform execution for every shifted job of row
    /// `subset[r]`. Job *seeds* are untouched — budgets change how many
    /// shots a job draws, never which RNG stream it draws them from — so a
    /// budgeted plan whose budgets all equal the engine execution is
    /// bit-identical to the uniform plan.
    ///
    /// # Panics
    ///
    /// Panics when `budgets` and `subset` lengths differ.
    pub fn jacobian_jobs_budgeted(
        &self,
        theta: &[f64],
        subset: &[usize],
        master_seed: u64,
        budgets: &[Execution],
    ) -> (Vec<CircuitJob<'_>>, JacobianPlan) {
        assert_eq!(budgets.len(), subset.len(), "one budget per requested row");
        self.jacobian_jobs_impl(theta, subset, master_seed, Some(budgets))
    }

    fn jacobian_jobs_impl(
        &self,
        theta: &[f64],
        indices: &[usize],
        master_seed: u64,
        budgets: Option<&[Execution]>,
    ) -> (Vec<CircuitJob<'_>>, JacobianPlan) {
        let mut jobs = Vec::new();
        let mut rows = Vec::with_capacity(indices.len());
        let mut row_executions = Vec::with_capacity(indices.len());
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < self.num_trainable, "symbol {i} not trainable");
            let execution = budgets.map_or(self.execution, |b| b[r]);
            row_executions.push(execution);
            let mut terms = Vec::new();
            match &self.plans[i] {
                SymbolPlan::Simple => {
                    let mut plus = theta.to_vec();
                    plus[i] += FRAC_PI_2;
                    let mut minus = theta.to_vec();
                    minus[i] -= FRAC_PI_2;
                    let p = jobs.len();
                    jobs.push(CircuitJob::expectation(
                        &self.prepared,
                        plus,
                        execution,
                        job_seed(master_seed, shift_stream(i, 0, false)),
                    ));
                    jobs.push(CircuitJob::expectation(
                        &self.prepared,
                        minus,
                        execution,
                        job_seed(master_seed, shift_stream(i, 0, true)),
                    ));
                    terms.push((p, p + 1, 1.0));
                }
                SymbolPlan::Occurrences(shifts) => {
                    for (k, shift) in shifts.iter().enumerate() {
                        let p = jobs.len();
                        jobs.push(CircuitJob::expectation(
                            &shift.plus,
                            theta.to_vec(),
                            execution,
                            job_seed(master_seed, shift_stream(i, k, false)),
                        ));
                        jobs.push(CircuitJob::expectation(
                            &shift.minus,
                            theta.to_vec(),
                            execution,
                            job_seed(master_seed, shift_stream(i, k, true)),
                        ));
                        terms.push((p, p + 1, shift.scale));
                    }
                }
            }
            rows.push(terms);
        }
        let num_jobs = jobs.len();
        (
            jobs,
            JacobianPlan {
                rows,
                row_executions,
                num_jobs,
                num_outputs: self.prepared.logical_qubits(),
            },
        )
    }

    /// Shifted jobs each trainable symbol's Jacobian row costs per
    /// evaluation (2 per differentiable gate occurrence) — the cost model
    /// the shot allocator's savings accounting uses.
    pub fn jobs_per_row(&self) -> Vec<usize> {
        self.plans
            .iter()
            .map(|p| match p {
                SymbolPlan::Simple => 2,
                SymbolPlan::Occurrences(shifts) => 2 * shifts.len(),
            })
            .collect()
    }

    /// Gradient row `∂f/∂θᵢ` for one trainable symbol.
    pub fn gradient_row(&self, theta: &[f64], i: usize, master_seed: u64) -> Vec<f64> {
        self.jacobian_subset(theta, &[i], master_seed).remove(0)
    }

    /// Builds the structured whole-Jacobian job for a statevector backend
    /// from the occurrence table computed at construction.
    fn jacobian_batch(&self, theta: &[f64], indices: &[usize]) -> JacobianBatch<'_> {
        JacobianBatch {
            prepared: &self.prepared,
            theta: theta.to_vec(),
            rows: indices
                .iter()
                .map(|&i| {
                    assert!(i < self.num_trainable, "symbol {i} not trainable");
                    self.row_specs[i].clone()
                })
                .collect(),
            execution: self.execution,
        }
    }

    /// Mode-dispatching Jacobian evaluation shared by the full and subset
    /// entry points.
    fn try_jacobian_rows(
        &self,
        theta: &[f64],
        indices: &[usize],
        master_seed: u64,
    ) -> Result<Jacobian, BatchError> {
        let mode = self.resolve_mode();
        if mode != DiffMode::Shifted2P {
            let batch = self.jacobian_batch(theta, indices);
            let _span = qoc_telemetry::span!(
                "shift.jacobian",
                rows = indices.len(),
                jobs = 0usize,
                mode = mode.label(),
            );
            if let Some(jac) = self.backend.run_jacobian_batch(&batch) {
                debug_assert_eq!(jac.len(), indices.len(), "backend returned wrong row count");
                return Ok(jac);
            }
            // Backend declined the structured job — fall through to the
            // universally supported shifted-job path.
        }
        let (jobs, plan) = self.jacobian_jobs(theta, Some(indices), master_seed);
        let _span = qoc_telemetry::span!(
            "shift.jacobian",
            rows = indices.len(),
            jobs = jobs.len(),
            mode = DiffMode::Shifted2P.label(),
        );
        Ok(plan.assemble(&self.try_run_batch(&jobs)?))
    }

    /// The full Jacobian: `num_trainable` rows of `∂f/∂θᵢ`, computed as one
    /// batch submission. Fails when a shifted job exhausts the backend's
    /// retry policy.
    pub fn try_jacobian(&self, theta: &[f64], master_seed: u64) -> Result<Jacobian, BatchError> {
        let indices: Vec<usize> = (0..self.num_trainable).collect();
        self.try_jacobian_rows(theta, &indices, master_seed)
    }

    /// [`Self::try_jacobian`] for infallible callers.
    pub fn jacobian(&self, theta: &[f64], master_seed: u64) -> Jacobian {
        self.try_jacobian(theta, master_seed)
            .unwrap_or_else(|e| panic!("jacobian batch failed: {e}"))
    }

    /// Jacobian rows for a subset of symbols (the gradient-pruning path);
    /// rows come back in `subset` order and are bit-identical to the same
    /// rows of the full [`Self::jacobian`] under the same master seed.
    pub fn try_jacobian_subset(
        &self,
        theta: &[f64],
        subset: &[usize],
        master_seed: u64,
    ) -> Result<Jacobian, BatchError> {
        self.try_jacobian_rows(theta, subset, master_seed)
    }

    /// [`Self::try_jacobian_subset`] for infallible callers.
    pub fn jacobian_subset(&self, theta: &[f64], subset: &[usize], master_seed: u64) -> Jacobian {
        self.try_jacobian_subset(theta, subset, master_seed)
            .unwrap_or_else(|e| panic!("jacobian batch failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoc_device::backend::{FakeDevice, NoiselessBackend};
    use qoc_device::backends::fake_lima;
    use qoc_sim::simulator::StatevectorSimulator;

    fn finite_difference(circuit: &Circuit, theta: &[f64], i: usize) -> Vec<f64> {
        let sim = StatevectorSimulator::new();
        let eps = 1e-6;
        let mut plus = theta.to_vec();
        plus[i] += eps;
        let mut minus = theta.to_vec();
        minus[i] -= eps;
        let fp = sim.expectations_z(circuit, &plus);
        let fm = sim.expectations_z(circuit, &minus);
        fp.iter()
            .zip(&fm)
            .map(|(p, m)| (p - m) / (2.0 * eps))
            .collect()
    }

    fn ansatz_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.ry(0, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        c.rxx(1, 2, ParamValue::sym(2));
        c.rx(2, ParamValue::sym(3));
        c.rzx(0, 2, ParamValue::sym(4));
        c
    }

    #[test]
    fn shift_rule_matches_finite_difference() {
        let backend = NoiselessBackend::new();
        let c = ansatz_circuit();
        let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Exact);
        let theta = [0.37, -0.81, 1.2, 0.05, -1.7];
        let jac = engine.jacobian(&theta, 1);
        for (i, row) in jac.iter().enumerate() {
            let fd = finite_difference(&c, &theta, i);
            for (q, (a, b)) in row.iter().zip(&fd).enumerate() {
                assert!((a - b).abs() < 1e-6, "∂f[{q}]/∂θ[{i}]: shift {a} vs fd {b}");
            }
        }
    }

    #[test]
    fn shared_parameter_sums_occurrences() {
        // θ₀ drives two gates; the gradient must be the sum of both
        // occurrence gradients (paper Section 3.1 last paragraph).
        let mut c = Circuit::new(2);
        c.ry(0, ParamValue::sym(0));
        c.ry(1, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 2, Execution::Exact);
        let theta = [0.9, -0.4];
        let jac = engine.jacobian(&theta, 2);
        let fd = finite_difference(&c, &theta, 0);
        for (a, b) in jac[0].iter().zip(&fd) {
            assert!((a - b).abs() < 1e-6, "shared-param grad {a} vs fd {b}");
        }
    }

    #[test]
    fn shared_parameter_circuits_are_prepared_once() {
        // Satellite regression: the general path must reuse cached
        // PreparedCircuits — evaluating the Jacobian twice must not
        // re-transpile (NoiselessBackend counts prepare-free runs only, so
        // count executed circuits instead: 2 occurrences × 2 signs + 2
        // simple jobs per Jacobian, and nothing else).
        let mut c = Circuit::new(2);
        c.ry(0, ParamValue::sym(0));
        c.ry(1, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 2, Execution::Exact)
            .with_diff_mode(DiffMode::Shifted2P);
        backend.reset_stats();
        let _ = engine.jacobian(&[0.9, -0.4], 0);
        let _ = engine.jacobian(&[0.9, -0.4], 0);
        // Per Jacobian: symbol 0 → 2 occurrences × 2 signs = 4 runs;
        // symbol 1 → 2 runs. Total 12 for two Jacobians.
        assert_eq!(backend.stats().circuits_run, 12);
    }

    #[test]
    fn scaled_parameter_applies_chain_rule() {
        // Gate angle is 2·θ₀ + 0.3 — chain rule multiplies the shift-rule
        // gradient by 2.
        let mut c = Circuit::new(1);
        c.push(
            qoc_sim::gates::GateKind::Ry,
            &[0],
            &[ParamValue::Sym {
                index: 0,
                scale: 2.0,
                offset: 0.3,
            }],
        );
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 1, Execution::Exact);
        let theta = [0.6];
        let jac = engine.jacobian(&theta, 3);
        let fd = finite_difference(&c, &theta, 0);
        assert!(
            (jac[0][0] - fd[0]).abs() < 1e-6,
            "{} vs {}",
            jac[0][0],
            fd[0]
        );
    }

    #[test]
    fn negated_parameter_gets_right_sign() {
        // Gate angle is −θ₀ (scale −1, as produced by Circuit::inverse) —
        // the symbol-level fast path must return −df/dangle.
        let mut c = Circuit::new(1);
        c.push(
            qoc_sim::gates::GateKind::Ry,
            &[0],
            &[ParamValue::Sym {
                index: 0,
                scale: -1.0,
                offset: 0.0,
            }],
        );
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 1, Execution::Exact);
        let theta = [0.8];
        let jac = engine.jacobian(&theta, 8);
        let fd = finite_difference(&c, &theta, 0);
        assert!(
            (jac[0][0] - fd[0]).abs() < 1e-6,
            "{} vs {}",
            jac[0][0],
            fd[0]
        );
        // Sanity: ⟨Z⟩ = cos(−θ) = cos θ, so d⟨Z⟩/dθ = −sin θ.
        assert!((jac[0][0] + 0.8f64.sin()).abs() < 1e-9);
    }

    #[test]
    fn extra_symbols_are_not_shifted() {
        // Symbol 1 is "input": trainable count 1 keeps it fixed.
        let mut c = Circuit::new(1);
        c.ry(0, ParamValue::sym(0));
        c.rz(0, ParamValue::sym(1));
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 1, Execution::Exact);
        assert_eq!(engine.num_trainable(), 1);
        let jac = engine.jacobian(&[0.4, 0.7], 4);
        assert_eq!(jac.len(), 1);
    }

    #[test]
    fn jacobian_subset_selects_rows_even_under_shots() {
        // Stream ids depend on the symbol, not the batch position, so
        // subset rows are bit-identical to full-Jacobian rows even with
        // finite-shot sampling noise.
        let backend = NoiselessBackend::new();
        let c = ansatz_circuit();
        let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Shots(256));
        let theta = [0.1, 0.2, 0.3, 0.4, 0.5];
        let full = engine.jacobian(&theta, 5);
        let sub = engine.jacobian_subset(&theta, &[4, 1], 5);
        assert_eq!(sub[0], full[4]);
        assert_eq!(sub[1], full[1]);
    }

    #[test]
    fn batched_jacobian_is_worker_count_invariant() {
        // Satellite regression: 1, 2, and 8 workers give bit-identical
        // Jacobians on both backend kinds, with and without shots.
        let c = ansatz_circuit();
        let noiseless = NoiselessBackend::new();
        let device = FakeDevice::new(fake_lima());
        let backends: [&dyn QuantumBackend; 2] = [&noiseless, &device];
        for backend in backends {
            for execution in [Execution::Exact, Execution::Shots(128)] {
                let serial = ParameterShiftEngine::new(backend, &c, 5, execution)
                    .with_workers(1)
                    .jacobian(&[0.3, -0.2, 0.8, 0.1, 0.5], 0xFEED);
                for workers in [2, 8] {
                    let batched = ParameterShiftEngine::new(backend, &c, 5, execution)
                        .with_workers(workers)
                        .jacobian(&[0.3, -0.2, 0.8, 0.1, 0.5], 0xFEED);
                    assert_eq!(
                        batched,
                        serial,
                        "{} diverged at {workers} workers ({execution:?})",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn circuit_run_accounting() {
        let backend = NoiselessBackend::new();
        let c = ansatz_circuit();
        let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Exact)
            .with_diff_mode(DiffMode::Shifted2P);
        backend.reset_stats();
        let _ = engine.jacobian(&[0.0; 5], 6);
        // 2 runs per parameter (all symbols are simple here).
        assert_eq!(backend.stats().circuits_run, 10);
    }

    #[test]
    fn exact_noiseless_jacobians_auto_select_adjoint() {
        // Adjoint mode simulates the circuit once per Jacobian instead of
        // 2P times — the accounting proves the planner actually took the
        // structured path by default.
        let backend = NoiselessBackend::new();
        let c = ansatz_circuit();
        let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Exact);
        backend.reset_stats();
        let _ = engine.jacobian(&[0.3; 5], 6);
        assert_eq!(backend.stats().circuits_run, 1);
    }

    #[test]
    fn shots_never_auto_select_structured_modes() {
        // Sampled execution and noisy backends must stay on the shifted-job
        // path so their RNG streams (and therefore every trained checkpoint)
        // stay bit-stable — whether adjoint was auto-selected or pinned
        // through the builder.
        let c = ansatz_circuit();
        let theta = [0.3; 5];
        let noiseless = NoiselessBackend::new();
        let device = FakeDevice::new(fake_lima());
        let cases: [(&dyn QuantumBackend, Execution, Option<DiffMode>); 4] = [
            (&noiseless, Execution::Shots(64), None),
            (&noiseless, Execution::Shots(64), Some(DiffMode::Adjoint)),
            (&device, Execution::Shots(64), Some(DiffMode::Adjoint)),
            (&device, Execution::Exact, Some(DiffMode::Adjoint)),
        ];
        for (backend, execution, pinned) in cases {
            let reference = ParameterShiftEngine::new(backend, &c, 5, execution)
                .with_diff_mode(DiffMode::Shifted2P)
                .jacobian(&theta, 6);
            let mut engine = ParameterShiftEngine::new(backend, &c, 5, execution);
            if let Some(mode) = pinned {
                engine = engine.with_diff_mode(mode);
            }
            backend.reset_stats();
            let jac = engine.jacobian(&theta, 6);
            let label = format!("{} {execution:?} {pinned:?}", backend.name());
            // 2 runs per parameter (all symbols are simple here).
            assert_eq!(backend.stats().circuits_run, 10, "{label}");
            assert_eq!(jac, reference, "{label} left the shifted-job path");
        }
    }

    #[test]
    fn row_variances_follow_the_binomial_model() {
        // ⟨Z⟩ = cos θ on a single RY qubit, so the shifted expectations are
        // cos(θ±π/2) and each Jacobian entry's predicted shot variance is
        // ¼·((1−f₊²)+(1−f₋²))/s — checked against the closed form here and
        // against the all-zeros contract for exact execution.
        let mut c = Circuit::new(1);
        c.ry(0, ParamValue::sym(0));
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 1, Execution::Exact);
        let theta = [0.7];
        let (jobs, plan) = engine.jacobian_jobs(&theta, None, 9);
        let results = engine.run_batch(&jobs);

        let exact = plan.row_variances(&results, None);
        assert_eq!(exact, vec![vec![0.0]]);

        let shots = 1024u32;
        let noisy = plan.row_variances(&results, Some(shots));
        let fp = (0.7 + FRAC_PI_2).cos();
        let fm = (0.7 - FRAC_PI_2).cos();
        let want = 0.25 * ((1.0 - fp * fp) + (1.0 - fm * fm)) / f64::from(shots);
        assert!(
            (noisy[0][0] - want).abs() < 1e-12,
            "{} vs {want}",
            noisy[0][0]
        );
        assert!(noisy[0][0] > 0.0);
    }

    #[test]
    fn budgeted_jobs_with_uniform_budget_match_the_plain_plan() {
        // The allocator's contract: budgets change shot counts, never
        // seeds. A budgeted plan at the engine's own execution must be
        // bit-identical to the plain plan — results AND predicted
        // variances.
        let backend = NoiselessBackend::new();
        let c = ansatz_circuit();
        let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Shots(256));
        let theta = [0.1, 0.2, 0.3, 0.4, 0.5];
        let subset = [0usize, 2, 4];
        let (plain_jobs, plain_plan) = engine.jacobian_jobs(&theta, Some(&subset), 17);
        let budgets = vec![Execution::Shots(256); subset.len()];
        let (bud_jobs, bud_plan) = engine.jacobian_jobs_budgeted(&theta, &subset, 17, &budgets);
        assert_eq!(plain_jobs.len(), bud_jobs.len());
        let plain = engine.run_batch(&plain_jobs);
        let bud = engine.run_batch(&bud_jobs);
        assert_eq!(plain, bud, "uniform budget must be bit-identical");
        assert_eq!(
            plain_plan.row_variances(&plain, Some(256)),
            bud_plan.row_variances_planned(&bud),
            "planned variances match the uniform model at a uniform budget"
        );
    }

    #[test]
    fn budgeted_rows_keep_their_streams_at_any_shot_count() {
        // Row i at s shots draws from the same (symbol, occurrence, sign)
        // streams as row i in the full Jacobian — changing ANOTHER row's
        // budget must not perturb it.
        let backend = NoiselessBackend::new();
        let c = ansatz_circuit();
        let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Shots(256));
        let theta = [0.1, 0.2, 0.3, 0.4, 0.5];
        let (jobs_a, plan_a) = engine.jacobian_jobs_budgeted(
            &theta,
            &[1, 3],
            23,
            &[Execution::Shots(256), Execution::Shots(64)],
        );
        let (jobs_b, plan_b) = engine.jacobian_jobs_budgeted(
            &theta,
            &[1, 3],
            23,
            &[Execution::Shots(256), Execution::Shots(512)],
        );
        let rows_a = plan_a.assemble(&engine.run_batch(&jobs_a));
        let rows_b = plan_b.assemble(&engine.run_batch(&jobs_b));
        assert_eq!(rows_a[0], rows_b[0], "row 1 untouched by row 3's budget");
        let full = engine.jacobian_subset(&theta, &[1], 23);
        assert_eq!(rows_a[0], full[0], "budgeted row equals the uniform row");
    }

    #[test]
    fn planned_variances_mix_exact_and_shot_rows() {
        let mut c = Circuit::new(1);
        c.ry(0, ParamValue::sym(0));
        c.rz(0, ParamValue::sym(1));
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 2, Execution::Shots(1024));
        let theta = [0.7, 0.1];
        let (jobs, plan) = engine.jacobian_jobs_budgeted(
            &theta,
            &[0, 1],
            9,
            &[Execution::Exact, Execution::Shots(64)],
        );
        let results = engine.run_batch(&jobs);
        let var = plan.row_variances_planned(&results);
        assert_eq!(var[0], vec![0.0], "exact row predicts zero variance");
        assert!(
            var[1][0] > 0.0,
            "finite-shot row predicts positive variance"
        );
    }

    #[test]
    fn jobs_per_row_counts_occurrences() {
        let mut c = Circuit::new(2);
        c.ry(0, ParamValue::sym(0));
        c.ry(1, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 2, Execution::Exact);
        assert_eq!(engine.jobs_per_row(), vec![4, 2]);
    }

    #[test]
    fn engine_exposes_its_execution_mode() {
        let backend = NoiselessBackend::new();
        let c = ansatz_circuit();
        let e1 = ParameterShiftEngine::new(&backend, &c, 5, Execution::Exact);
        assert_eq!(e1.execution(), Execution::Exact);
        let e2 = ParameterShiftEngine::new(&backend, &c, 5, Execution::Shots(1024));
        assert_eq!(e2.execution(), Execution::Shots(1024));
    }

    #[test]
    fn trainable_controlled_rotations_decompose_and_differentiate() {
        // Crz has no two-term shift rule, so the planner rewrites it into
        // RZ/CX form at construction; the resulting Jacobian must match
        // finite differences on the ORIGINAL circuit.
        let mut c = Circuit::new(2);
        c.h(0);
        c.ry(1, ParamValue::sym(1));
        c.push(
            qoc_sim::gates::GateKind::Crz,
            &[0, 1],
            &[ParamValue::sym(0)],
        );
        let backend = NoiselessBackend::new();
        let theta = [0.9, -0.35];
        for mode in [DiffMode::Shifted2P, DiffMode::Adjoint] {
            let engine =
                ParameterShiftEngine::new(&backend, &c, 2, Execution::Exact).with_diff_mode(mode);
            let jac = engine.jacobian(&theta, 11);
            for (i, row) in jac.iter().enumerate() {
                let fd = finite_difference(&c, &theta, i);
                for (q, (a, b)) in row.iter().zip(&fd).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-6,
                        "{mode:?} ∂f[{q}]/∂θ[{i}]: {a} vs fd {b}"
                    );
                }
            }
        }
    }
}
