//! The two training workloads, both MNIST-4 (36 parameters) at 1024 shots
//! with Adam and one client:
//!
//! - `pgp_mnist4`: the paper's Table-1 job on fake jakarta with PGP
//!   (`r = 0.5, w_a = 1, w_p = 2`) and batch 2; one op is one PGP window
//!   (one full step and two pruned steps, 294 circuits).
//! - `classical_mnist4`: Classical-Train on the noiseless backend, batch 16,
//!   no pruning; one op is one step (1168 circuits).
//!
//! Ops are timed from outside through `train_anchored` with an observer
//! that stamps every step. Validation is scheduled beyond the run, so only
//! the final evaluation runs, after the last timed op.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use qoc_bench::suite::{device_for, model_for, pgp_config_for};
use qoc_core::engine::{
    train_anchored, DeviceCounters, PruningKind, RunAnchor, StepRecord, TrainConfig, TrainObserver,
};
use qoc_data::dataset::Dataset;
use qoc_data::tasks::Task;
use qoc_device::backend::{FakeDevice, NoiselessBackend, QuantumBackend};
use qoc_nn::model::QnnModel;

use crate::report::OpSample;
use crate::stats::timed;

/// Validation examples of the final evaluation (after the timed ops).
pub const EVAL_EXAMPLES: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Pgp,
    Classical,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "pgp_mnist4" => Some(Kind::Pgp),
            "classical_mnist4" => Some(Kind::Classical),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Pgp => "pgp_mnist4",
            Kind::Classical => "classical_mnist4",
        }
    }
}

/// Data, model and backend of one training workload.
pub struct TrainBench {
    pub kind: Kind,
    pub task: Task,
    pub model: QnnModel,
    pub train: Dataset,
    pub val: Dataset,
    pub backend: Box<dyn QuantumBackend>,
    /// Seconds `Task::load` took in this set-up.
    pub load_s: f64,
}

impl TrainBench {
    /// The workload's set-up: data, model and backend.
    pub fn setup(kind: Kind, seed: u64) -> TrainBench {
        let task = Task::Mnist4;
        let ((train, val), load_s) = timed(|| task.load(seed));
        let backend: Box<dyn QuantumBackend> = match kind {
            Kind::Pgp => Box::new(FakeDevice::new(device_for(task))),
            Kind::Classical => Box::new(NoiselessBackend::new()),
        };
        TrainBench {
            kind,
            task,
            model: model_for(task),
            train,
            val,
            backend,
            load_s,
        }
    }

    pub fn steps_per_op(&self) -> usize {
        match self.kind {
            Kind::Pgp => {
                let c = pgp_config_for(self.task);
                c.accumulation_window + c.pruning_window
            }
            Kind::Classical => 1,
        }
    }

    /// Training config for `ops` ops under training seed `seed`.
    pub fn config(&self, ops: usize, seed: u64) -> TrainConfig {
        let steps = ops * self.steps_per_op();
        let mut c = TrainConfig::paper_default(steps);
        c.seed = seed;
        c.eval_every = steps + 1;
        c.eval_examples = EVAL_EXAMPLES;
        match self.kind {
            Kind::Pgp => {
                c.batch_size = 2;
                c.pruning = PruningKind::Probabilistic(pgp_config_for(self.task));
            }
            Kind::Classical => c.batch_size = 16,
        }
        c
    }
}

/// Parameters the pruning schedule evaluates at `step` (0-based).
fn expected_evaluated(config: &TrainConfig, n: usize, step: usize) -> usize {
    match config.pruning {
        PruningKind::None => n,
        PruningKind::Probabilistic(c) | PruningKind::Deterministic(c) => {
            if step % (c.accumulation_window + c.pruning_window) < c.accumulation_window {
                n
            } else {
                (((1.0 - c.ratio) * n as f64).ceil() as usize).clamp(1, n)
            }
        }
    }
}

/// Checks one step against the schedule and the cost model
/// `B·(1 + 2·evaluated)` circuits.
fn check_step(
    config: &TrainConfig,
    n: usize,
    step: usize,
    loss: f64,
    evaluated: usize,
    circuits: u64,
) -> Result<(), String> {
    if !loss.is_finite() {
        return Err(format!("step {step}: loss {loss} is not finite"));
    }
    let want = expected_evaluated(config, n, step);
    if evaluated != want {
        return Err(format!(
            "step {step}: {evaluated} params evaluated, schedule says {want}"
        ));
    }
    let cost = (config.batch_size * (1 + 2 * evaluated)) as u64;
    if circuits != cost {
        return Err(format!(
            "step {step}: {circuits} circuits, cost model says {cost}"
        ));
    }
    Ok(())
}

/// Gradient circuits a step ran, and what the same step would run without
/// pruning: `(B·2·evaluated, B·2·n)`.
fn gradient_circuits(config: &TrainConfig, n: usize, evaluated: usize) -> (u64, u64) {
    let b = config.batch_size as u64;
    (b * 2 * evaluated as u64, b * 2 * n as u64)
}

/// Takes a set-up sample every `every` steps, inside the observer, so that
/// `setup_s` sees the host as it was across the whole run rather than at
/// its start. `every` is a multiple of the steps in an op, so a sample
/// always falls between two ops and is in neither.
pub struct SetupSampler<'a> {
    pub every: usize,
    /// One set-up; returns its seconds.
    pub run: &'a (dyn Fn() -> f64 + Sync),
}

/// One observed step: when the callback began and ended, and what it saw.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    resumed: Instant,
    record: StepRecord,
    device: DeviceCounters,
}

/// Stamps every completed step.
#[derive(Default)]
struct StepClock<'a> {
    marks: Mutex<Vec<Mark>>,
    sampler: Option<&'a SetupSampler<'a>>,
    setups: Mutex<Vec<f64>>,
}

const LOCK: &str = "the observer never panics while holding its locks";

impl TrainObserver for StepClock<'_> {
    fn on_step(&self, record: &StepRecord, device: DeviceCounters) {
        let at = Instant::now();
        if let Some(s) = self
            .sampler
            .filter(|s| (record.step + 1).is_multiple_of(s.every))
        {
            let secs = (s.run)();
            self.setups.lock().expect(LOCK).push(secs);
        }
        self.marks.lock().expect(LOCK).push(Mark {
            at,
            resumed: Instant::now(),
            record: *record,
            device,
        });
    }
}

/// One `train_anchored` run cut into ops.
pub struct EngineRun {
    /// Ops after the first, which pays the engine's own set-up and is
    /// left out as warm-up.
    pub ops: Vec<OpSample>,
    pub records: Vec<StepRecord>,
    /// Final validation accuracy.
    pub accuracy: f64,
    /// Gradient circuits run and the unpruned equivalent, over `ops`.
    pub grad_circuits: (u64, u64),
    /// Wall seconds of the whole call, evaluation included.
    pub call_s: f64,
    /// One op's steps, each at the fastest wall time a step of its kind
    /// (the same number of evaluated parameters) took in the checked ops.
    pub op_s_min: f64,
    /// Set-up seconds sampled during the run.
    pub setup_samples: Vec<f64>,
    pub problems: Vec<String>,
}

impl TrainBench {
    /// Runs `config` through the engine and cuts it into ops of
    /// [`Self::steps_per_op`] steps; checks every step.
    pub fn run_engine(
        &self,
        config: &TrainConfig,
        sampler: Option<&SetupSampler<'_>>,
    ) -> EngineRun {
        let clock = StepClock {
            sampler,
            ..StepClock::default()
        };
        let n = self.model.num_params();
        let spo = self.steps_per_op();
        let start = Instant::now();
        let result = train_anchored(
            &self.model,
            self.backend.as_ref(),
            &self.train,
            &self.val,
            config,
            RunAnchor {
                observer: Some(&clock),
                ..RunAnchor::default()
            },
        );
        let call_s = start.elapsed().as_secs_f64();
        let marks = clock.marks.into_inner().expect(LOCK);
        let mut problems = Vec::new();
        let mut ops = Vec::new();
        let mut grad_circuits = (0, 0);
        // The fastest step of each kind, and the kinds of one op's steps.
        let mut fastest: BTreeMap<usize, f64> = BTreeMap::new();
        let mut shape: Vec<usize> = Vec::new();
        let planned = config.steps / spo;
        let (accuracy, params_ok) = match &result {
            Ok(r) => (
                r.evals.last().map_or(f64::NAN, |e| e.accuracy),
                r.params.iter().all(|p| p.is_finite()),
            ),
            Err(e) => {
                problems.push(format!("training stopped: {e}"));
                (f64::NAN, false)
            }
        };
        for op in 1..planned {
            let (first, last) = (op * spo, (op + 1) * spo - 1);
            if last >= marks.len() {
                // The run stopped before this op completed.
                ops.push(OpSample {
                    circuits: 0,
                    device_ns: 0,
                    ok: false,
                });
                continue;
            }
            let (d0, d1) = (marks[first - 1].device, marks[last].device);
            let mut ok = true;
            let mut prev = marks[first - 1];
            let mut steps = Vec::with_capacity(spo);
            for &mark in &marks[first..=last] {
                let record = mark.record;
                let secs = (mark.at - prev.resumed).as_secs_f64();
                steps.push((record.evaluated_params, secs));
                let circuits = mark.device.circuits_run - prev.device.circuits_run;
                prev = mark;
                if let Err(e) = check_step(
                    config,
                    n,
                    record.step,
                    record.loss,
                    record.evaluated_params,
                    circuits,
                ) {
                    problems.push(e);
                    ok = false;
                }
                let (ran, full) = gradient_circuits(config, n, record.evaluated_params);
                grad_circuits.0 += ran;
                grad_circuits.1 += full;
            }
            if op + 1 == planned && !params_ok {
                problems.push("final parameters are not finite".to_string());
                ok = false;
            }
            if ok {
                for &(kind, secs) in &steps {
                    let best = fastest.entry(kind).or_insert(secs);
                    *best = best.min(secs);
                }
                if shape.is_empty() {
                    shape = steps.iter().map(|&(kind, _)| kind).collect();
                }
            }
            ops.push(OpSample {
                circuits: d1.circuits_run - d0.circuits_run,
                device_ns: d1.device_ns - d0.device_ns,
                ok,
            });
        }
        let op_s_min = if shape.is_empty() {
            f64::NAN
        } else {
            shape.iter().map(|kind| fastest[kind]).sum()
        };
        EngineRun {
            ops,
            op_s_min,
            records: marks.iter().map(|m| m.record).collect(),
            accuracy,
            grad_circuits,
            call_s,
            setup_samples: clock.setups.into_inner().expect(LOCK),
            problems,
        }
    }

    /// Ops that fit in `seconds` (at least 3) and the seconds one op
    /// takes, from a short warm-up run.
    pub fn ops_for(&self, seconds: f64, seed: u64) -> (usize, f64) {
        let warm_ops = match self.kind {
            Kind::Pgp => 1,
            Kind::Classical => 8,
        };
        let warm = self.run_engine(&self.config(warm_ops, seed), None);
        let per_op = (warm.call_s / warm_ops as f64).max(1e-3);
        let ops = ((seconds / per_op).ceil() as usize).max(3);
        (ops, per_op)
    }
}
