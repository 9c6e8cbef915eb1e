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
//! # Who runs the shifted circuits
//!
//! Every Jacobian evaluation — the engine's own and each example's in a
//! training minibatch — first offers the whole request to the backend as
//! one structured [`JacobianBatch`] through
//! [`QuantumBackend::run_jacobian_batch`]
//! ([`ParameterShiftEngine::offer_jacobian`]). The batch carries the
//! engine's execution, and each row the seeds of its shifted jobs. The
//! engine alone decides which requests are offered: non-empty ones whose
//! every row is a single occurrence with |scale| = 1, i.e. shifts its
//! symbol on the shared prepared circuit. A [`FakeDevice`] and the
//! statevector backend answer those with the shifted jobs' own results,
//! every shifted circuit forked from one forward evolution and read out
//! with its job's seed. An empty request or one with a shared or scaled
//! symbol is not offered, and every wrapper that doesn't forward the hook
//! declines; then the engine builds and runs the 2·occ shifted-job batch
//! above. An answered request never builds its jobs. The shifted results
//! feed the same [`JacobianPlan::assemble`] and
//! [`JacobianPlan::row_variances`] whoever ran them, so results are
//! bit-identical on both paths (see DESIGN.md §5c).
//!
//! Trainable gates without a native two-term shift rule (`crx`/`cry`/`crz`/
//! `cp`/`p`/`u3`) are rewritten at engine construction via
//! [`decompose_for_shift_rules`] into shift-friendly rotations, so every
//! trainable gate has a shift rule.
//!
//! [`FakeDevice`]: qoc_device::backend::FakeDevice

use std::f64::consts::FRAC_PI_2;

use qoc_device::backend::{
    job_seed, CircuitJob, Execution, JacobianBatch, JacobianRow, PreparedCircuit, QuantumBackend,
};
use qoc_device::retry::{BatchError, BatchResult};
use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::diff::decompose_for_shift_rules;

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
/// full Jacobian or a pruned subset.
pub fn shift_stream(symbol: usize, occurrence: usize, minus: bool) -> u64 {
    ((symbol as u64) << 32) | ((occurrence as u64) << 1) | u64::from(minus)
}

/// Seed of the `minus`-signed shifted job for `occurrence` of `symbol`
/// under `master_seed`: what a shifted job runs with and what a
/// [`JacobianRow`] hands the hook.
fn shift_seed(master_seed: u64, symbol: usize, occurrence: usize, minus: bool) -> u64 {
    job_seed(master_seed, shift_stream(symbol, occurrence, minus))
}

/// How one trainable symbol's gradient is computed.
#[derive(Debug)]
enum SymbolPlan {
    /// One occurrence with |scale| = 1: a symbol-level ±π/2 shift on the
    /// shared prepared circuit. The chain-rule factor `scale` cancels
    /// against the sign of the angle shift — for both scale = +1 and
    /// scale = −1 the gradient is ½·(f(θᵢ+π/2) − f(θᵢ−π/2)). Only
    /// requests made of these rows are offered to the backend's hook.
    Simple,
    /// General case (paper Section 3.1, final paragraph): shift each gate
    /// occurrence separately and sum with the occurrence's chain-rule
    /// scale. The shifted circuit variants are transpiled once, here.
    Occurrences(Vec<OccurrenceShift>),
}

impl SymbolPlan {
    /// Number of gate occurrences shifted, two jobs each.
    fn num_occurrences(&self) -> usize {
        match self {
            SymbolPlan::Simple => 1,
            SymbolPlan::Occurrences(shifts) => shifts.len(),
        }
    }

    /// Chain-rule scale of occurrence `k`'s shifted pair.
    fn scale(&self, k: usize) -> f64 {
        match self {
            SymbolPlan::Simple => 1.0,
            SymbolPlan::Occurrences(shifts) => shifts[k].scale,
        }
    }
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
    /// The execution every shifted job ran under.
    execution: Execution,
    num_jobs: usize,
    num_outputs: usize,
}

impl JacobianPlan {
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
    /// finite-shot binomial model (paper Section 3.3), at the plan's
    /// execution: a measured expectation `f = ⟨Z⟩` estimated from `s` shots
    /// has `Var(f) = (1 − f²)/s`, so a row entry `Σ scale·½·(f₊ − f₋)`
    /// carries `Σ scale²·¼·((1 − f₊²) + (1 − f₋²))/s` (the two shifted runs
    /// are independent jobs). Exact execution gives zeros. Shape matches
    /// [`Self::assemble`]'s output.
    ///
    /// # Panics
    ///
    /// Panics if `results` is shorter than [`Self::num_jobs`].
    pub fn row_variances(&self, results: &[Vec<f64>]) -> Vec<Vec<f64>> {
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
                let Execution::Shots(shots) = self.execution else {
                    return row;
                };
                let s = f64::from(shots.max(1));
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
}

/// One Jacobian request after it was offered to the backend's hook, or
/// not ([`ParameterShiftEngine::offer_jacobian`]): the hook's shifted-job
/// results, or the shifted jobs still to run, and the plan that assembles
/// either.
#[derive(Debug)]
pub struct JacobianOffer<'e> {
    plan: JacobianPlan,
    /// The hook's results, in the order of the plan's jobs.
    answer: Option<Vec<Vec<f64>>>,
    /// The unanswered request's shifted jobs, until taken.
    jobs: Option<Vec<CircuitJob<'e>>>,
}

impl<'e> JacobianOffer<'e> {
    /// The shifted jobs to run when the hook did not answer (`None` once
    /// taken or when it answered). Their results, in order, are what
    /// [`Self::jacobian`] and [`Self::row_variances`] take.
    pub fn take_jobs(&mut self) -> Option<Vec<CircuitJob<'e>>> {
        self.jobs.take()
    }

    /// Number of job results the assembly needs: the shifted jobs' count
    /// when the hook did not answer, 0 when it answered.
    pub fn num_jobs(&self) -> usize {
        if self.answer.is_some() {
            0
        } else {
            self.plan.num_jobs()
        }
    }

    /// Who ran the shifted circuits, as the `shift.jacobian` span's `mode`
    /// field names it: `"forked"` (the hook) or `"shifted-2p"` (not
    /// offered, or declined).
    pub fn mode(&self) -> &'static str {
        if self.answer.is_some() {
            "forked"
        } else {
            "shifted-2p"
        }
    }

    /// The shifted-job results behind the rows: the hook's, or
    /// `job_results`.
    fn shifted<'r>(&'r self, job_results: &'r [Vec<f64>]) -> &'r [Vec<f64>] {
        self.answer.as_deref().unwrap_or(job_results)
    }

    /// The Jacobian rows, given the results of [`Self::take_jobs`]'s jobs
    /// (ignored when the hook answered).
    pub fn jacobian(&self, job_results: &[Vec<f64>]) -> Jacobian {
        self.plan.assemble(self.shifted(job_results))
    }

    /// Each row's shot-noise variances ([`JacobianPlan::row_variances`]).
    pub fn row_variances(&self, job_results: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.plan.row_variances(self.shifted(job_results))
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
            // `(op_index, slot, scale)` of each occurrence, chain rule
            // through `scale·θ+offset` included.
            let scaled: Vec<(usize, usize, f64)> = occ
                .iter()
                .filter_map(
                    |&(op_index, slot)| match circuit.ops()[op_index].params[slot] {
                        ParamValue::Sym { scale, .. } => Some((op_index, slot, scale)),
                        ParamValue::Const(_) => None,
                    },
                )
                .collect();
            plans.push(match scaled[..] {
                [(_, _, scale)] if (scale.abs() - 1.0).abs() < 1e-12 => SymbolPlan::Simple,
                _ => SymbolPlan::Occurrences(
                    scaled
                        .iter()
                        .map(|&(op_index, slot, scale)| {
                            let plus = circuit.with_occurrence_shift(op_index, slot, FRAC_PI_2);
                            let minus = circuit.with_occurrence_shift(op_index, slot, -FRAC_PI_2);
                            OccurrenceShift {
                                scale,
                                plus: backend.prepare(&plus),
                                minus: backend.prepare(&minus),
                            }
                        })
                        .collect(),
                ),
            });
        }
        ParameterShiftEngine {
            backend,
            prepared: backend.prepare(circuit),
            num_trainable,
            execution,
            plans,
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
        let all: Vec<usize>;
        let indices = match subset {
            Some(s) => s,
            None => {
                all = (0..self.num_trainable).collect();
                &all
            }
        };
        let mut jobs = Vec::new();
        let plan = self.layout(indices, |i, k, minus| {
            jobs.push(self.shifted_job(theta, i, k, minus, master_seed));
        });
        (jobs, plan)
    }

    /// The shifted-job list of rows `subset`, as the plan that assembles
    /// it: two jobs per gate occurrence, `+π/2` before `−π/2`, in row
    /// order. Calls `job(symbol, occurrence, minus)` once per job, in list
    /// order.
    fn layout(&self, subset: &[usize], mut job: impl FnMut(usize, usize, bool)) -> JacobianPlan {
        let mut num_jobs = 0;
        let mut rows = Vec::with_capacity(subset.len());
        for &i in subset {
            assert!(i < self.num_trainable, "symbol {i} not trainable");
            let plan = &self.plans[i];
            let mut terms = Vec::with_capacity(plan.num_occurrences());
            for k in 0..plan.num_occurrences() {
                job(i, k, false);
                job(i, k, true);
                terms.push((num_jobs, num_jobs + 1, plan.scale(k)));
                num_jobs += 2;
            }
            rows.push(terms);
        }
        JacobianPlan {
            rows,
            execution: self.execution,
            num_jobs,
            num_outputs: self.prepared.logical_qubits(),
        }
    }

    /// The `minus`-signed shifted job of `occurrence` of symbol `i` at
    /// `theta`. A simple symbol shifts `θᵢ` on the shared prepared circuit;
    /// a shared or scaled one runs `θ` on the occurrence's shifted variant.
    fn shifted_job(
        &self,
        theta: &[f64],
        i: usize,
        occurrence: usize,
        minus: bool,
        master_seed: u64,
    ) -> CircuitJob<'_> {
        let seed = shift_seed(master_seed, i, occurrence, minus);
        match &self.plans[i] {
            SymbolPlan::Simple => {
                let mut shifted = theta.to_vec();
                shifted[i] += if minus { -FRAC_PI_2 } else { FRAC_PI_2 };
                CircuitJob::expectation(&self.prepared, shifted, self.execution, seed)
            }
            SymbolPlan::Occurrences(shifts) => {
                let shift = &shifts[occurrence];
                let prepared = if minus { &shift.minus } else { &shift.plus };
                CircuitJob::expectation(prepared, theta.to_vec(), self.execution, seed)
            }
        }
    }

    /// Offers rows `indices` of the Jacobian at `theta` to the backend's
    /// hook as one [`JacobianBatch`] carrying the engine's execution and
    /// the seeds of each row's shifted jobs (those of
    /// [`Self::jacobian_jobs`]) — if the request is non-empty and every
    /// row shifts its symbol on the shared prepared circuit (one
    /// occurrence, |scale| = 1). The jobs themselves are built only if the
    /// request is not offered or the hook declines
    /// ([`JacobianOffer::take_jobs`]). Every Jacobian the engine or the
    /// training loop evaluates goes through here.
    ///
    /// # Panics
    ///
    /// Panics when an index is not trainable.
    pub fn offer_jacobian(
        &self,
        theta: &[f64],
        indices: &[usize],
        master_seed: u64,
    ) -> JacobianOffer<'_> {
        let plan = self.layout(indices, |_, _, _| {});
        let forkable = !indices.is_empty()
            && indices
                .iter()
                .all(|&i| matches!(self.plans[i], SymbolPlan::Simple));
        let answer = if forkable {
            let rows = indices
                .iter()
                .map(|&symbol| JacobianRow {
                    symbol,
                    seeds: [false, true].map(|minus| shift_seed(master_seed, symbol, 0, minus)),
                })
                .collect();
            self.backend.run_jacobian_batch(&JacobianBatch {
                prepared: &self.prepared,
                theta: theta.to_vec(),
                execution: self.execution,
                rows,
            })
        } else {
            None
        };
        debug_assert!(
            answer.as_ref().is_none_or(|r| r.len() == plan.num_jobs()),
            "backend answered the wrong number of results"
        );
        let jobs = answer
            .is_none()
            .then(|| self.jacobian_jobs(theta, Some(indices), master_seed).0);
        JacobianOffer { plan, answer, jobs }
    }

    /// Jacobian evaluation shared by the full and subset entry points: the
    /// backend's structured hook runs the shifted circuits when it can, a
    /// shifted-job batch otherwise.
    fn try_jacobian_rows(
        &self,
        theta: &[f64],
        indices: &[usize],
        master_seed: u64,
    ) -> Result<Jacobian, BatchError> {
        let mut span = qoc_telemetry::span!("shift.jacobian", rows = indices.len());
        let mut offer = self.offer_jacobian(theta, indices, master_seed);
        let jobs = offer.take_jobs();
        if let Some(s) = span.as_mut() {
            s.field("jobs", offer.num_jobs());
            s.field("mode", offer.mode());
        }
        let results = match jobs {
            Some(jobs) => self.try_run_batch(&jobs)?,
            None => Vec::new(),
        };
        Ok(offer.jacobian(&results))
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
    use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
    use qoc_sim::simulator::StatevectorSimulator;

    /// The shifted-job Jacobian, built and run exactly as the engine's
    /// fallback does — whatever the backend's structured hook would answer.
    fn shifted_jacobian(engine: &ParameterShiftEngine<'_>, theta: &[f64], seed: u64) -> Jacobian {
        let (jobs, plan) = engine.jacobian_jobs(theta, None, seed);
        plan.assemble(&engine.run_batch(&jobs))
    }

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
        let engine = ParameterShiftEngine::new(&backend, &c, 2, Execution::Exact);
        backend.reset_stats();
        let _ = shifted_jacobian(&engine, &[0.9, -0.4], 0);
        let _ = shifted_jacobian(&engine, &[0.9, -0.4], 0);
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
        let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Exact);
        backend.reset_stats();
        let _ = shifted_jacobian(&engine, &[0.0; 5], 6);
        // 2 runs per parameter (all symbols are simple here).
        assert_eq!(backend.stats().circuits_run, 10);
    }

    #[test]
    fn declined_jacobian_batches_run_the_shifted_jobs() {
        // Wrappers that don't forward the hook decline the structured
        // batch, so the engine runs the shifted jobs themselves.
        let c = ansatz_circuit();
        let theta = [0.3; 5];
        let wrapped = FaultInjectingBackend::new(FakeDevice::new(fake_lima()), FaultPlan::none());
        for execution in [Execution::Shots(64), Execution::Exact] {
            let engine = ParameterShiftEngine::new(&wrapped, &c, 5, execution);
            let reference = shifted_jacobian(&engine, &theta, 6);
            let offer = engine.offer_jacobian(&theta, &[0, 1, 2, 3, 4], 6);
            assert_eq!(offer.mode(), "shifted-2p", "{execution:?}");
            assert_eq!(offer.num_jobs(), 10, "{execution:?}");
            wrapped.reset_stats();
            let jac = engine.jacobian(&theta, 6);
            // 2 runs per parameter (all symbols are simple here).
            assert_eq!(wrapped.stats().circuits_run, 10, "{execution:?}");
            assert_eq!(jac, reference, "{execution:?} left the shifted-job path");
        }
    }

    #[test]
    fn forked_answers_equal_the_shifted_jobs_results() {
        // The fake device forks every shifted circuit from one forward
        // evolution, the noiseless backend from one binding of θ — sampled
        // and exact rows: the same results, bit for bit, and the same
        // circuit count as running the shifted jobs.
        let c = ansatz_circuit();
        let theta = [0.3; 5];
        let device = FakeDevice::new(fake_lima());
        let noiseless = NoiselessBackend::new();
        let cases: [(&dyn QuantumBackend, Execution); 4] = [
            (&device, Execution::Shots(64)),
            (&device, Execution::Exact),
            (&noiseless, Execution::Shots(64)),
            (&noiseless, Execution::Exact),
        ];
        for (backend, execution) in cases {
            let label = format!("{} {execution:?}", backend.name());
            let engine = ParameterShiftEngine::new(backend, &c, 5, execution);
            let reference = shifted_jacobian(&engine, &theta, 6);
            backend.reset_stats();
            let offer = engine.offer_jacobian(&theta, &[0, 1, 2, 3, 4], 6);
            assert_eq!(backend.stats().circuits_run, 10, "{label}");
            assert_eq!(offer.mode(), "forked", "{label}");
            assert_eq!(offer.num_jobs(), 0, "{label}");
            assert_eq!(offer.jacobian(&[]), reference, "{label}");
        }
    }

    #[test]
    fn offer_modes_are_the_schema_modes() {
        // Each way the hook can go names a mode the trace schema pins, and
        // the Jacobian costs its shifted circuits either way: two per row,
        // none for an empty request, which is never offered.
        let c = ansatz_circuit();
        let noiseless = NoiselessBackend::new();
        let device = FakeDevice::new(fake_lima());
        let wrapped = FaultInjectingBackend::new(NoiselessBackend::new(), FaultPlan::none());
        let cases: [(&dyn QuantumBackend, Execution, &[usize], &str); 7] = [
            (&noiseless, Execution::Exact, &[4, 1], "forked"),
            (&noiseless, Execution::Shots(64), &[4, 1], "forked"),
            (&device, Execution::Shots(64), &[4, 1], "forked"),
            (&wrapped, Execution::Shots(64), &[4, 1], "shifted-2p"),
            (&noiseless, Execution::Exact, &[], "shifted-2p"),
            (&device, Execution::Exact, &[], "shifted-2p"),
            (&wrapped, Execution::Exact, &[], "shifted-2p"),
        ];
        let mut seen = Vec::new();
        for (backend, execution, rows, mode) in cases {
            let label = format!("{} {execution:?} rows {rows:?}", backend.name());
            let engine = ParameterShiftEngine::new(backend, &c, 5, execution);
            let offer = engine.offer_jacobian(&[0.3; 5], rows, 2);
            let jobs = if mode == "forked" { 0 } else { 2 * rows.len() };
            assert_eq!((offer.mode(), offer.num_jobs()), (mode, jobs), "{label}");
            assert!(qoc_telemetry::schema::SHIFT_JACOBIAN_MODES.contains(&mode));
            backend.reset_stats();
            assert_eq!(engine.jacobian_subset(&[0.3; 5], rows, 2).len(), rows.len());
            assert_eq!(
                backend.stats().circuits_run,
                2 * rows.len() as u64,
                "{label}"
            );
            seen.push(mode);
        }
        for mode in qoc_telemetry::schema::SHIFT_JACOBIAN_MODES {
            assert!(seen.contains(mode), "{mode} not exercised");
        }
    }

    /// A noiseless backend that records the symbols of every request its
    /// Jacobian hook is offered, then answers it.
    #[derive(Debug, Default)]
    struct RecordingBackend {
        inner: NoiselessBackend,
        offered: std::sync::Mutex<Vec<Vec<usize>>>,
    }

    impl QuantumBackend for RecordingBackend {
        fn name(&self) -> &str {
            "recording"
        }

        fn num_qubits(&self) -> usize {
            self.inner.num_qubits()
        }

        fn prepare(&self, circuit: &Circuit) -> PreparedCircuit {
            self.inner.prepare(circuit)
        }

        fn run_job(&self, job: &CircuitJob<'_>) -> Vec<f64> {
            self.inner.run_job(job)
        }

        fn run_jacobian_batch(&self, batch: &JacobianBatch<'_>) -> Option<Vec<Vec<f64>>> {
            let symbols = batch.rows.iter().map(|r| r.symbol).collect();
            self.offered.lock().unwrap().push(symbols);
            self.inner.run_jacobian_batch(batch)
        }

        fn stats(&self) -> qoc_device::backend::ExecutionStats {
            self.inner.stats()
        }

        fn reset_stats(&self) {
            self.inner.reset_stats();
        }
    }

    #[test]
    fn the_hook_is_offered_only_symbol_shift_rows() {
        // Symbol 0 is shared, 1 scaled (2θ + 0.3), 2 negated (−θ: one
        // occurrence at |scale| = 1, a symbol shift), 3 plain, and 4 a
        // controlled rotation the planner decomposes into ±½ halves.
        let sym = |index, scale, offset| ParamValue::Sym {
            index,
            scale,
            offset,
        };
        let mut c = Circuit::new(2);
        c.h(1);
        c.ry(0, ParamValue::sym(0));
        c.ry(1, ParamValue::sym(0));
        c.rx(0, sym(1, 2.0, 0.3));
        c.ry(1, sym(2, -1.0, 0.0));
        c.rzz(0, 1, ParamValue::sym(3));
        c.push(
            qoc_sim::gates::GateKind::Crz,
            &[1, 0],
            &[ParamValue::sym(4)],
        );
        let backend = RecordingBackend::default();
        let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Shots(64));
        let theta = [0.3, -0.7, 0.9, 0.4, 1.1];
        let requests: [&[usize]; 8] = [&[2, 3], &[3, 2], &[0], &[1], &[4], &[2, 0], &[3, 4], &[]];
        for rows in requests {
            let (jobs, plan) = engine.jacobian_jobs(&theta, Some(rows), 5);
            let reference = plan.assemble(&engine.run_batch(&jobs));
            assert_eq!(
                engine.jacobian_subset(&theta, rows, 5),
                reference,
                "{rows:?}"
            );
        }
        assert_eq!(
            *backend.offered.lock().unwrap(),
            vec![vec![2, 3], vec![3, 2]]
        );
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

        let exact = plan.row_variances(&results);
        assert_eq!(exact, vec![vec![0.0]]);

        // The same exact expectations, read through a 1024-shot plan of the
        // same layout.
        let shots = 1024u32;
        let shot_engine = ParameterShiftEngine::new(&backend, &c, 1, Execution::Shots(shots));
        let (_, shot_plan) = shot_engine.jacobian_jobs(&theta, None, 9);
        let noisy = shot_plan.row_variances(&results);
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
    fn plans_cost_two_jobs_per_occurrence() {
        let mut c = Circuit::new(2);
        c.ry(0, ParamValue::sym(0));
        c.ry(1, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(&backend, &c, 2, Execution::Exact);
        let jobs = |subset: Option<&[usize]>| engine.jacobian_jobs(&[0.1, 0.2], subset, 3);
        assert_eq!(jobs(Some(&[0])).1.num_jobs(), 4);
        assert_eq!(jobs(Some(&[1])).1.num_jobs(), 2);
        let (all, plan) = jobs(None);
        assert_eq!((all.len(), plan.num_jobs()), (6, 6));
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
        let engine = ParameterShiftEngine::new(&backend, &c, 2, Execution::Exact);
        let jacobians = [
            ("shifted-2p", shifted_jacobian(&engine, &theta, 11)),
            ("engine", engine.jacobian(&theta, 11)),
        ];
        for (mode, jac) in jacobians {
            for (i, row) in jac.iter().enumerate() {
                let fd = finite_difference(&c, &theta, i);
                for (q, (a, b)) in row.iter().zip(&fd).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-6,
                        "{mode} ∂f[{q}]/∂θ[{i}]: {a} vs fd {b}"
                    );
                }
            }
        }
    }
}
