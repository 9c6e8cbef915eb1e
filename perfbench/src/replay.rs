//! The layer replay: the recorded inputs of a step (parameters, batch,
//! pruned subset, job seed) pushed again through the program's public
//! calls one layer at a time, each under its own span:
//!
//! - `core.shift.jobs`: `forward_job` + `jacobian_jobs` for every example,
//!   exactly the jobs `try_batch_gradient` submits;
//! - per example, alternately: `device.run_batch` (that example's jobs as
//!   one batch) and `core.grad` (`try_batch_gradient` on that example alone);
//! - per job, alternately: the job at the workload's shots and at
//!   `Execution::Exact` (`noise.evolve` on the fake device, `sim.evolve`
//!   on the noiseless backend);
//! - the same per-job pairs on the other backend (the fake device for
//!   Classical-Train, the noiseless backend otherwise), at most
//!   `cross_limit` jobs per step.
//!
//! Alternating at the finest unit the public calls allow makes a slow
//! spell of the host hit both sides of each difference alike.

use qoc_core::grad::QnnGradientComputer;
use qoc_data::dataset::Dataset;
use qoc_device::backend::{job_seed, CircuitJob, Execution};
use qoc_nn::model::QnnModel;

use crate::alloc_count::counted;
use crate::mirror::StepInputs;
use crate::spans::Tracer;

/// Seconds and circuit counts summed over every replayed step.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub circuits: u64,
    pub shift_s: f64,
    /// Per-example batches at the workload's shots.
    pub run_batch_s: f64,
    /// Per-example `try_batch_gradient` calls.
    pub grad_s: f64,
    /// Per-job runs at the workload's shots and exact.
    pub shots_s: f64,
    pub exact_s: f64,
    pub cross_circuits: u64,
    pub cross_shots_s: f64,
    pub cross_exact_s: f64,
    /// Allocations (and bytes) inside `try_batch_gradient`.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Steps whose rebuilt jobs did not match the circuits the step ran.
    pub mismatches: usize,
}

impl Totals {
    pub fn per_circuit_us(&self, secs: f64) -> f64 {
        secs / self.circuits as f64 * 1e6
    }

    /// `device.run_batch` over the gradient call minus its job building:
    /// the share the program's `device.batch` span should have of its
    /// `grad.minibatch` span.
    pub fn device_share(&self) -> f64 {
        self.run_batch_s / (self.grad_s - self.shift_s)
    }
}

pub struct Replayer<'a> {
    pub model: &'a QnnModel,
    pub train: &'a Dataset,
    /// The workload's own backend.
    pub work: QnnGradientComputer<'a>,
    /// The other backend.
    pub cross: QnnGradientComputer<'a>,
    pub cross_limit: usize,
    /// Name of the exact-evolution layer on the workload's backend.
    pub exact_layer: &'static str,
    pub totals: Totals,
}

/// The step's jobs per example, built exactly as `try_batch_gradient` does.
fn build_jobs<'c>(
    computer: &'c QnnGradientComputer<'_>,
    model: &QnnModel,
    train: &Dataset,
    step: &StepInputs,
) -> Vec<Vec<CircuitJob<'c>>> {
    let engine = computer.engine();
    step.batch
        .iter()
        .enumerate()
        .map(|(e, &i)| {
            let theta = model.symbol_vector(&step.params, train.example(i).0);
            let master = job_seed(step.master, e as u64);
            let mut jobs = vec![engine.forward_job(&theta, master)];
            jobs.extend(
                engine
                    .jacobian_jobs(&theta, step.subset.as_deref(), master)
                    .0,
            );
            jobs
        })
        .collect()
}

/// Runs every job alone, alternately as given and at `Execution::Exact`;
/// returns the seconds of each side.
fn shots_vs_exact(
    tracer: &mut Tracer,
    op: u64,
    computer: &QnnGradientComputer<'_>,
    jobs: &[CircuitJob<'_>],
    names: (&'static str, &'static str),
) -> Result<(f64, f64), String> {
    let (mut shots, mut exact) = (0.0, 0.0);
    for job in jobs {
        let exact_job = [CircuitJob {
            execution: Execution::Exact,
            ..job.clone()
        }];
        let (ran, s) = tracer.time(names.0, op, || {
            computer.engine().try_run_batch(std::slice::from_ref(job))
        });
        ran.map_err(|e| format!("replayed job failed: {e}"))?;
        let (ran, x) = tracer.time(names.1, op, || computer.engine().try_run_batch(&exact_job));
        ran.map_err(|e| format!("replayed exact job failed: {e}"))?;
        shots += s;
        exact += x;
    }
    Ok((shots, exact))
}

impl Replayer<'_> {
    /// Replays one recorded step under op `op`.
    pub fn replay_step(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        step: &StepInputs,
    ) -> Result<(), String> {
        let (model, train, work) = (self.model, self.train, &self.work);
        let (by_example, shift_s) = tracer.time("core.shift.jobs", op, || {
            build_jobs(work, model, train, step)
        });
        let (mut run_batch_s, mut grad_s, mut allocs, mut bytes) = (0.0, 0.0, 0, 0);
        for (e, jobs) in by_example.iter().enumerate() {
            let (ran, secs) =
                tracer.time("device.run_batch", op, || work.engine().try_run_batch(jobs));
            ran.map_err(|e| format!("replayed batch failed: {e}"))?;
            run_batch_s += secs;
            let example = [train.example(step.batch[e])];
            let master = job_seed(step.master, e as u64);
            let ((grad, a, b), secs) = tracer.time("core.grad", op, || {
                counted(|| {
                    work.try_batch_gradient(&step.params, &example, step.subset.as_deref(), master)
                })
            });
            let grad = grad.map_err(|e| format!("replayed gradient failed: {e}"))?;
            if !grad.loss.is_finite() {
                return Err(format!("replayed loss {} is not finite", grad.loss));
            }
            grad_s += secs;
            allocs += a;
            bytes += b;
        }
        let jobs: Vec<CircuitJob<'_>> = by_example.into_iter().flatten().collect();
        let (shots_s, exact_s) = shots_vs_exact(
            tracer,
            op,
            work,
            &jobs,
            ("device.run_job", self.exact_layer),
        )?;

        let cross = &self.cross;
        let mut cross_jobs: Vec<CircuitJob<'_>> = build_jobs(cross, model, train, step)
            .into_iter()
            .flatten()
            .collect();
        cross_jobs.truncate(self.cross_limit);
        let (cross_shots_s, cross_exact_s) = shots_vs_exact(
            tracer,
            op,
            cross,
            &cross_jobs,
            ("cross.run_job", "cross.exact"),
        )?;

        let t = &mut self.totals;
        t.circuits += jobs.len() as u64;
        t.shift_s += shift_s;
        t.run_batch_s += run_batch_s;
        t.grad_s += grad_s;
        t.shots_s += shots_s;
        t.exact_s += exact_s;
        t.cross_circuits += cross_jobs.len() as u64;
        t.cross_shots_s += cross_shots_s;
        t.cross_exact_s += cross_exact_s;
        t.allocs += allocs;
        t.alloc_bytes += bytes;
        if jobs.len() as u64 != step.circuits {
            t.mismatches += 1;
        }
        Ok(())
    }
}
