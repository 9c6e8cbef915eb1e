//! A step-by-step replica of the training engine's loop, built only from the
//! program's public calls, so that the benchmark can put a span around each
//! call and keep every step's inputs for the layer replay.
//!
//! It follows `qoc_core::engine`'s order of random draws (parameter init,
//! validation subset, then per step: pruner selection, mini-batch) and its
//! per-step job seeds. The traced run compares its losses bit for bit with
//! the engine's own run (`bench.replay_exact`), so any drift shows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qoc_core::checkpoint::CHECKPOINT_SCHEMA_VERSION;
use qoc_core::engine::{run_id_for_seed, PruningKind, StepRecord, TrainConfig};
use qoc_core::grad::{BatchGradient, QnnGradientComputer};
use qoc_core::optim::Optimizer;
use qoc_core::prune::{DeterministicPruner, NoPruning, ProbabilisticPruner, Pruner, Selection};
use qoc_core::TrainState;
use qoc_data::dataset::Dataset;
use qoc_device::backend::{job_seed, QuantumBackend};
use qoc_device::retry::BatchError;
use qoc_nn::model::QnnModel;

use crate::spans::Tracer;

/// The engine's stream base for training steps: step `k` runs its batch
/// under `job_seed(seed, TRAIN_STREAM_BASE + k)`.
const TRAIN_STREAM_BASE: u64 = 1 << 48;

/// Everything one step consumed: enough to replay it call by call.
#[derive(Debug, Clone)]
pub struct StepInputs {
    pub params: Vec<f64>,
    pub batch: Vec<usize>,
    pub subset: Option<Vec<usize>>,
    pub master: u64,
    /// Circuits the step ran.
    pub circuits: u64,
}

/// The engine loop, one public call per span.
pub struct Mirror<'a> {
    model: &'a QnnModel,
    backend: &'a dyn QuantumBackend,
    train: &'a Dataset,
    config: TrainConfig,
    computer: QnnGradientComputer<'a>,
    rng: StdRng,
    pub params: Vec<f64>,
    pub eval_set: Dataset,
    optimizer: Box<dyn Optimizer>,
    pruner: Box<dyn Pruner>,
    pub records: Vec<StepRecord>,
}

impl<'a> Mirror<'a> {
    pub fn new(
        model: &'a QnnModel,
        backend: &'a dyn QuantumBackend,
        train: &'a Dataset,
        val: &Dataset,
        config: &TrainConfig,
    ) -> Mirror<'a> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        backend.reset_stats();
        let n = model.num_params();
        let params: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(-config.init_scale..config.init_scale))
            .collect();
        let eval_set = if val.len() > config.eval_examples {
            val.sample(config.eval_examples, &mut rng)
        } else {
            val.clone()
        };
        let pruner: Box<dyn Pruner> = match config.pruning {
            PruningKind::None => Box::new(NoPruning),
            PruningKind::Probabilistic(c) => Box::new(ProbabilisticPruner::new(n, c)),
            PruningKind::Deterministic(c) => Box::new(DeterministicPruner::new(n, c)),
        };
        Mirror {
            model,
            backend,
            train,
            config: *config,
            computer: QnnGradientComputer::new(model, backend, config.execution),
            rng,
            params,
            eval_set,
            optimizer: config.optimizer.build(n),
            pruner,
            records: Vec::new(),
        }
    }

    /// Runs the next training step, one span per public call, all under
    /// op `op`.
    pub fn step(&mut self, tracer: &mut Tracer, op: u64) -> Result<StepInputs, BatchError> {
        let step = self.records.len();
        let before = self.backend.stats().circuits_run;
        let lr = self.config.schedule.lr(step);
        let (pruner, rng) = (&mut self.pruner, &mut self.rng);
        let (selection, _) = tracer.time("core.prune", op, || pruner.begin_step(rng));
        let train = self.train;
        let (batch, _) = tracer.time("data.batch", op, || {
            train.sample_batch(self.config.batch_size, &mut self.rng)
        });
        let subset = match selection {
            Selection::Full => None,
            Selection::Subset(s) => Some(s),
        };
        let master = job_seed(self.config.seed, TRAIN_STREAM_BASE + step as u64);
        let examples: Vec<(&[f64], usize)> = batch.iter().map(|&i| train.example(i)).collect();
        let params = self.params.clone();
        let (result, _) = tracer.time("core.grad", op, || {
            self.computer
                .try_batch_gradient(&params, &examples, subset.as_deref(), master)
        });
        let BatchGradient { loss, grad, .. } = result?;
        let pruner = &mut self.pruner;
        tracer.time("core.prune", op, || pruner.record(&grad));
        let (optimizer, params_mut) = (&mut self.optimizer, &mut self.params);
        tracer.time("core.optim", op, || {
            optimizer.step(params_mut, &grad, lr, subset.as_deref());
        });
        let after = self.backend.stats().circuits_run;
        self.records.push(StepRecord {
            step,
            loss,
            lr,
            evaluated_params: subset.as_ref().map_or(self.model.num_params(), Vec::len),
            inferences: after,
        });
        Ok(StepInputs {
            params,
            batch,
            subset,
            master,
            circuits: after - before,
        })
    }

    /// A checkpoint of the current state, as the engine would write it.
    pub fn state(&self) -> TrainState {
        let stats = self.backend.stats();
        TrainState {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            master_seed: self.config.seed,
            run_id: run_id_for_seed(self.config.seed),
            next_step: self.records.len(),
            params: self.params.clone(),
            optimizer: self.optimizer.state(),
            pruner: self.pruner.state(),
            alloc: None,
            rng: self.rng.state(),
            steps: self.records.clone(),
            evals: Vec::new(),
            checkpoint_params: Vec::new(),
            best_accuracy: 0.0,
            inferences_base: stats.circuits_run,
            total_shots_base: stats.total_shots,
            device_ns_base: stats.device_nanos(),
        }
    }
}
