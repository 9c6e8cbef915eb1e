//! The on-chip training engine (paper Algorithm 1).
//!
//! Drives the full QOC loop: sample a mini-batch, evaluate (possibly pruned)
//! parameter-shift gradients on the backend, update the parameters, and
//! record losses, validation accuracies, and the cumulative number of
//! circuit executions ("inferences", the x-axis of the paper's Figure 6).
//!
//! # Failure and recovery
//!
//! Backends surface unrecoverable job failures as
//! [`BatchError`]s. [`train_anchored`] maps
//! those to [`TrainError::Execution`], writing an *emergency checkpoint*
//! first when checkpointing is configured — captured from the state at the
//! top of the failing step, so resuming from it ([`RunAnchor::resume`])
//! replays that step exactly and the combined run is bit-identical to an
//! uninterrupted one. Periodic checkpoints
//! ([`CheckpointConfig::every`]) guard against harder crashes (kill -9,
//! power loss) with the same replay guarantee.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use qoc_data::dataset::Dataset;
use qoc_device::backend::{
    default_worker_count, job_seed, Execution, ExecutionStats, QuantumBackend,
};
use qoc_device::retry::BatchError;
use qoc_nn::model::QnnModel;
use qoc_telemetry::env::EnvError;
use qoc_telemetry::export::StatusCore;

use crate::checkpoint::{CheckpointConfig, TrainState, CHECKPOINT_SCHEMA_VERSION};
use crate::eval::try_evaluate_params_prepared;
use crate::grad::QnnGradientComputer;
use crate::health::GradientHealth;
use crate::optim::{OptimizerKind, OptimizerState};
use crate::prune::{
    DeterministicPruner, NoPruning, ProbabilisticPruner, PruneConfig, Pruner, PrunerState,
    Selection,
};
use crate::sched::LrSchedule;

/// Stream-id bases separating the engine's backend seed domains: training
/// step `k` submits its mini-batch under `job_seed(config.seed,
/// TRAIN_STREAM_BASE + k)` and checkpoint `k` under `job_seed(config.seed,
/// EVAL_STREAM_BASE + k)`. Classical randomness (init, batch sampling,
/// pruning) stays on a serial [`StdRng`], so circuit shot noise no longer
/// perturbs it — and vice versa.
const TRAIN_STREAM_BASE: u64 = 1 << 48;
const EVAL_STREAM_BASE: u64 = 2 << 48;
/// Stream id under which the run's identity is derived from the seed.
const RUN_ID_STREAM: u64 = 3 << 48;

/// Deterministic, seed-derived run identity: 16 lowercase hex digits of
/// `job_seed(seed, RUN_ID_STREAM)`. Stamped into the trace header, run
/// manifest, checkpoints, status snapshots, and black-box dumps, so every
/// artifact of one run can be joined offline — and a resumed run (same
/// seed) keeps the identity of the run it continues.
pub fn run_id_for_seed(seed: u64) -> String {
    format!("{:016x}", job_seed(seed, RUN_ID_STREAM))
}

/// Maps a pruner's window state to the status-snapshot phase label.
fn prune_phase(state: &PrunerState) -> &'static str {
    match state {
        PrunerState::None => "none",
        PrunerState::Windowed {
            accumulating: true, ..
        } => "accumulating",
        PrunerState::Windowed { .. } => "pruning",
    }
}

/// Gradient-pruning mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PruningKind {
    /// QC-Train / Classical-Train baseline: every gradient every step.
    None,
    /// The paper's probabilistic gradient pruning.
    Probabilistic(PruneConfig),
    /// The Table 2 deterministic (top-k) baseline.
    Deterministic(PruneConfig),
}

impl PruningKind {
    fn build(self, num_params: usize) -> Box<dyn Pruner> {
        match self {
            PruningKind::None => Box::new(NoPruning),
            PruningKind::Probabilistic(cfg) => Box::new(ProbabilisticPruner::new(num_params, cfg)),
            PruningKind::Deterministic(cfg) => Box::new(DeterministicPruner::new(num_params, cfg)),
        }
    }
}

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of optimizer steps.
    pub steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer (the paper defaults to Adam).
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule (the paper uses cosine 0.3 → 0.03).
    pub schedule: LrSchedule,
    /// Gradient pruning mode.
    pub pruning: PruningKind,
    /// Shot policy for every circuit execution.
    pub execution: Execution,
    /// RNG seed (parameter init, batching, sampling, shots).
    pub seed: u64,
    /// Evaluate on validation data every this many steps (and at the end).
    pub eval_every: usize,
    /// Evaluate on at most this many validation examples per checkpoint
    /// (validation runs on hardware too; the paper's curves use periodic
    /// checks, not full sweeps each step).
    pub eval_examples: usize,
    /// Parameter init: uniform in `[-init_scale, init_scale]`.
    pub init_scale: f64,
}

impl TrainConfig {
    /// A sensible default mirroring the paper's settings at small scale.
    pub fn paper_default(steps: usize) -> Self {
        TrainConfig {
            steps,
            batch_size: 8,
            optimizer: OptimizerKind::Adam,
            schedule: LrSchedule::paper_cosine(steps),
            pruning: PruningKind::None,
            execution: Execution::Shots(1024),
            seed: 42,
            eval_every: 5,
            eval_examples: 60,
            init_scale: 0.1,
        }
    }

    /// Same but with probabilistic gradient pruning at the paper's default
    /// hyper-parameters.
    pub fn paper_pgp(steps: usize) -> Self {
        TrainConfig {
            pruning: PruningKind::Probabilistic(PruneConfig::paper_default()),
            ..TrainConfig::paper_default(steps)
        }
    }
}

/// Per-step training record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// 0-based step index.
    pub step: usize,
    /// Mini-batch training loss.
    pub loss: f64,
    /// Learning rate used.
    pub lr: f64,
    /// How many parameters had gradients evaluated.
    pub evaluated_params: usize,
    /// Cumulative backend circuit executions after this step.
    pub inferences: u64,
}

/// Validation checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Step index at which the checkpoint was taken.
    pub step: usize,
    /// Cumulative circuit executions when evaluation started.
    pub inferences: u64,
    /// Validation accuracy.
    pub accuracy: f64,
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainResult {
    /// Final parameters.
    pub params: Vec<f64>,
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Validation checkpoints (always includes the final step).
    pub evals: Vec<EvalRecord>,
    /// Parameter snapshot at each checkpoint (parallel to `evals`) — lets
    /// callers re-evaluate intermediate models on other backends, e.g. the
    /// paper's "Classical-Train tested on real QC" curves.
    pub checkpoint_params: Vec<Vec<f64>>,
    /// Best validation accuracy observed.
    pub best_accuracy: f64,
    /// Total circuit executions (training + checkpoints).
    pub total_inferences: u64,
    /// Estimated device wall-clock (latency model; 0 for noiseless).
    pub device_seconds: f64,
}

/// Why a training run stopped before completing its steps.
#[derive(Debug)]
pub enum TrainError {
    /// A gradient or evaluation batch failed permanently (retries
    /// exhausted or a fatal fault) at `step`.
    Execution {
        /// 0-based step that failed.
        step: usize,
        /// The batch failure that aborted the run.
        source: BatchError,
        /// Emergency checkpoint written just before surfacing the error
        /// (`None` when checkpointing is not configured or the save failed).
        checkpoint: Option<PathBuf>,
    },
    /// A `QOC_*` environment knob was unknown or malformed; rejected before
    /// any circuit ran.
    Config(EnvError),
    /// The resume state does not belong to this model and config; rejected
    /// before any circuit ran.
    Resume(ResumeError),
}

/// How a resume state ([`RunAnchor::resume`]) contradicts the run it is
/// asked to continue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was written under another `TrainConfig::seed`.
    Seed {
        /// The checkpoint's master seed.
        checkpoint: u64,
        /// The config's seed.
        config: u64,
    },
    /// The checkpoint's parameter vector does not fit the model.
    Width {
        /// Parameters in the checkpoint.
        checkpoint: usize,
        /// Parameters of the model.
        model: usize,
    },
    /// The checkpoint is past the config's last step.
    Step {
        /// The checkpoint's next step.
        next_step: usize,
        /// The config's step count.
        steps: usize,
    },
    /// The checkpoint's step history disagrees with its step counter.
    History {
        /// Step records in the checkpoint.
        records: usize,
        /// The checkpoint's next step.
        next_step: usize,
    },
    /// The checkpoint's pruner state does not restore into the pruner
    /// `config.pruning` builds for the model: another kind or width.
    Pruner {
        /// The checkpoint's pruner state: its kind and width, e.g.
        /// `Windowed[8]`.
        checkpoint: String,
        /// The config's pruner state.
        config: String,
    },
    /// The checkpoint's optimizer state does not restore into the optimizer
    /// `config.optimizer` builds for the model: another kind or width.
    Optimizer {
        /// The checkpoint's optimizer state: its kind and widths, e.g.
        /// `Adam[8, 8, 8]`.
        checkpoint: String,
        /// The config's optimizer state.
        config: String,
    },
}

/// A pruner state's kind and vector width, e.g. `Windowed[8]`.
fn shape_of_pruner(state: &PrunerState) -> String {
    match state {
        PrunerState::None => "None".into(),
        PrunerState::Windowed { magnitude, .. } => format!("Windowed[{}]", magnitude.len()),
    }
}

/// An optimizer state's kind and vector widths, e.g. `Adam[8, 8, 8]`.
fn shape_of_optimizer(state: &OptimizerState) -> String {
    match state {
        OptimizerState::Sgd => "Sgd".into(),
        OptimizerState::Momentum { velocity } => format!("Momentum[{}]", velocity.len()),
        OptimizerState::Adam { m, v, t } => format!("Adam[{}, {}, {}]", m.len(), v.len(), t.len()),
    }
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Seed { checkpoint, config } => write!(
                f,
                "checkpoint was written under seed {checkpoint}, config has seed {config}"
            ),
            ResumeError::Width { checkpoint, model } => write!(
                f,
                "checkpoint holds {checkpoint} parameters, the model has {model}"
            ),
            ResumeError::Step { next_step, steps } => write!(
                f,
                "checkpoint is at step {next_step} but the config only has {steps} steps"
            ),
            ResumeError::History { records, next_step } => write!(
                f,
                "checkpoint holds {records} step records but is at step {next_step}"
            ),
            ResumeError::Pruner { checkpoint, config } => write!(
                f,
                "checkpoint holds pruner state {checkpoint}, the config's pruner has {config}"
            ),
            ResumeError::Optimizer { checkpoint, config } => write!(
                f,
                "checkpoint holds optimizer state {checkpoint}, the config's optimizer has {config}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl ResumeError {
    /// The first way `state` contradicts a run of `config` on a model of
    /// `params` parameters, if any.
    fn check(state: &TrainState, config: &TrainConfig, params: usize) -> Result<(), Self> {
        let (seed, steps) = (config.seed, config.steps);
        if state.master_seed != seed {
            return Err(ResumeError::Seed {
                checkpoint: state.master_seed,
                config: seed,
            });
        }
        if state.params.len() != params {
            return Err(ResumeError::Width {
                checkpoint: state.params.len(),
                model: params,
            });
        }
        if state.next_step > steps {
            return Err(ResumeError::Step {
                next_step: state.next_step,
                steps,
            });
        }
        if state.steps.len() != state.next_step {
            return Err(ResumeError::History {
                records: state.steps.len(),
                next_step: state.next_step,
            });
        }
        let (checkpoint, fresh) = (
            shape_of_pruner(&state.pruner),
            shape_of_pruner(&config.pruning.build(params).state()),
        );
        if checkpoint != fresh {
            return Err(ResumeError::Pruner {
                checkpoint,
                config: fresh,
            });
        }
        let (checkpoint, fresh) = (
            shape_of_optimizer(&state.optimizer),
            shape_of_optimizer(&config.optimizer.build(params).state()),
        );
        if checkpoint != fresh {
            return Err(ResumeError::Optimizer {
                checkpoint,
                config: fresh,
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Execution {
                step,
                source,
                checkpoint,
            } => {
                write!(f, "training step {step} failed: {source}")?;
                if let Some(path) = checkpoint {
                    write!(f, " (state saved to {})", path.display())?;
                }
                Ok(())
            }
            TrainError::Config(source) => write!(f, "configuration rejected: {source}"),
            TrainError::Resume(source) => write!(f, "resume rejected: {source}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Execution { source, .. } => Some(source),
            TrainError::Config(source) => Some(source),
            TrainError::Resume(source) => Some(source),
        }
    }
}

/// Cumulative device usage in exactly-additive integer units: the usage
/// carried over from before a resume, and the totals (resume base + this
/// process) the observer callbacks, run manifest and status snapshots are
/// built from (see [`TrainObserver`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DeviceCounters {
    /// Circuits executed so far.
    pub circuits_run: u64,
    /// Measurement shots taken so far.
    pub total_shots: u64,
    /// Estimated on-device nanoseconds so far.
    pub device_ns: u64,
}

/// Per-run telemetry anchor: callbacks the engine invokes at step and eval
/// boundaries, carrying the same records it accumulates into the
/// [`TrainResult`]. Unlike the process-global status exporter
/// (`QOC_STATUS_FILE`), an observer is scoped to one run — a multi-tenant
/// host (`qoc-serve`) runs many engines in one process and gives each its
/// own observer to surface live per-job status.
///
/// Callbacks run on the training thread between batches; keep them cheap.
/// Default implementations do nothing.
pub trait TrainObserver: Sync {
    /// A step completed and was recorded.
    fn on_step(&self, record: &StepRecord, device: DeviceCounters) {
        let _ = (record, device);
    }

    /// A validation checkpoint completed and was recorded.
    fn on_eval(&self, record: &EvalRecord) {
        let _ = record;
    }
}

/// External anchors for one training run: an explicit checkpoint target, an
/// optional resume state, and an optional per-run observer. This is the
/// entry-point surface a job host needs to drive many runs in one process
/// without touching process-global environment state.
#[derive(Default)]
pub struct RunAnchor<'a> {
    /// Checkpoint target and cadence (`None` disables checkpointing
    /// regardless of the environment).
    pub checkpoint: Option<&'a CheckpointConfig>,
    /// Resume from this mid-run state. Must come from a run with the same
    /// model, datasets and config: the initialization prefix (parameter
    /// init, validation subset) is replayed from `config.seed`, then the
    /// checkpointed RNG words, parameters, optimizer moments and pruner
    /// window state are installed verbatim, so the resumed result is
    /// bit-identical to an uninterrupted run — including resumes that land
    /// mid-pruning-window.
    pub resume: Option<TrainState>,
    /// Per-run telemetry observer.
    pub observer: Option<&'a dyn TrainObserver>,
}

impl std::fmt::Debug for RunAnchor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunAnchor")
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume.as_ref().map(|s| s.next_step))
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// Everything needed to replay the current step from scratch, captured
/// before the step consumes RNG draws or mutates state. An execution
/// failure mid-step turns this into an emergency checkpoint with
/// `next_step` = the failing step.
struct PreStep {
    rng: [u64; 4],
    pruner: PrunerState,
    optimizer: OptimizerState,
    params: Vec<f64>,
    steps_len: usize,
    best_accuracy: f64,
    stats: DeviceCounters,
}

/// Trains `model` on `backend` per Algorithm 1 and records the run.
///
/// The backend's statistics counters are reset at entry so inference counts
/// start from zero. Checkpointing is driven by the environment:
/// `QOC_CHECKPOINT_FILE` (save path) and `QOC_CHECKPOINT_EVERY` (cadence,
/// default 10 steps).
///
/// # Panics
///
/// Panics if dataset widths do not match the model, the config or a
/// `QOC_*` knob is invalid, or a batch fails permanently (use
/// [`train_anchored`] to handle failures).
pub fn train(
    model: &QnnModel,
    backend: &dyn QuantumBackend,
    train_data: &Dataset,
    val_data: &Dataset,
    config: &TrainConfig,
) -> TrainResult {
    let run = || {
        let checkpoint = CheckpointConfig::from_env().map_err(TrainError::Config)?;
        let anchor = RunAnchor {
            checkpoint: checkpoint.as_ref(),
            ..RunAnchor::default()
        };
        train_anchored(model, backend, train_data, val_data, config, anchor)
    };
    run().unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`train`] with every per-run anchor made explicit: checkpoint
/// target, resume state, and telemetry observer (see [`RunAnchor`]). This
/// is the entry point for hosts that multiplex several engines in one
/// process and cannot share the environment-driven global plumbing, and
/// for callers that handle failures instead of panicking.
///
/// # Errors
///
/// [`TrainError::Config`] for an unknown or malformed `QOC_*` knob and
/// [`TrainError::Resume`] for a resume state that does not match the model
/// and config, both before any circuit runs; [`TrainError::Execution`] when
/// a batch fails permanently — an emergency checkpoint is written first if
/// one is configured.
///
/// # Panics
///
/// Panics if dataset widths do not match the model or the config is
/// invalid.
pub fn train_anchored(
    model: &QnnModel,
    backend: &dyn QuantumBackend,
    train_data: &Dataset,
    val_data: &Dataset,
    config: &TrainConfig,
    anchor: RunAnchor<'_>,
) -> Result<TrainResult, TrainError> {
    let RunAnchor {
        checkpoint,
        resume,
        observer,
    } = anchor;
    qoc_telemetry::env::check().map_err(TrainError::Config)?;
    assert!(config.steps > 0, "need at least one training step");
    assert!(config.batch_size > 0, "batch size must be positive");
    assert_eq!(
        train_data.feature_dim(),
        model.input_dim(),
        "training features do not match model input"
    );
    assert_eq!(
        val_data.feature_dim(),
        model.input_dim(),
        "validation features do not match model input"
    );
    let n = model.num_params();
    if let Some(state) = &resume {
        ResumeError::check(state, config, n).map_err(TrainError::Resume)?;
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    backend.reset_stats();

    // Parameter init.
    let mut params: Vec<f64> = (0..n)
        .map(|_| rng.gen_range(-config.init_scale..config.init_scale))
        .collect();

    // Fixed validation subset (evaluation also costs circuit runs).
    let eval_set = if val_data.len() > config.eval_examples {
        val_data.sample(config.eval_examples, &mut rng)
    } else {
        val_data.clone()
    };

    let computer = QnnGradientComputer::new(model, backend, config.execution);
    let eval_prepared = backend.prepare(model.circuit());
    let mut optimizer = config.optimizer.build(n);
    let mut pruner = config.pruning.build(n);

    // The per-parameter gradient statistics and pruning windows, emitted
    // when telemetry is enabled.
    let mut health = GradientHealth::new(n, config.batch_size);

    let mut steps = Vec::with_capacity(config.steps);
    let mut evals = Vec::new();
    let mut checkpoint_params = Vec::new();
    let mut best_accuracy = 0.0f64;
    let mut start_step = 0usize;
    let mut base = DeviceCounters::default();

    if let Some(state) = &resume {
        // The draws above replayed the original run's serial RNG prefix
        // (parameter init, validation subset) so `eval_set` is identical;
        // now install the mid-run state verbatim.
        params.clone_from(&state.params);
        optimizer.restore(&state.optimizer);
        pruner.restore(&state.pruner);
        rng = StdRng::from_state(state.rng);
        steps.clone_from(&state.steps);
        evals.clone_from(&state.evals);
        checkpoint_params.clone_from(&state.checkpoint_params);
        best_accuracy = state.best_accuracy;
        start_step = state.next_step;
        base = DeviceCounters {
            circuits_run: state.inferences_base,
            total_shots: state.total_shots_base,
            device_ns: state.device_ns_base,
        };
    }

    let run = Run {
        id: run_id_for_seed(config.seed),
        config,
        backend,
        base,
        checkpoint,
    };
    // The trace header: first structured event of every traced run, carrying
    // the identity that joins trace/manifest/checkpoint/status artifacts.
    qoc_telemetry::event!(
        qoc_telemetry::Level::Info,
        "run.header",
        run_id = run.id.as_str(),
        seed = config.seed,
        steps = config.steps,
        backend = backend.name(),
        resumed = resume.is_some(),
    );
    let run_span = qoc_telemetry::span!(
        "train.run",
        steps = config.steps,
        batch_size = config.batch_size,
        params = n,
        backend = backend.name(),
    );
    let mut prev_inferences = steps.last().map_or(0, |s: &StepRecord| s.inferences);

    for step in start_step..config.steps {
        // Captured before the step consumes RNG draws or mutates anything,
        // so a failure anywhere in the step can checkpoint a state that
        // replays the whole step.
        let prestep = checkpoint.map(|_| PreStep {
            rng: rng.state(),
            pruner: pruner.state(),
            optimizer: optimizer.state(),
            params: params.clone(),
            steps_len: steps.len(),
            best_accuracy,
            stats: run.counters(),
        });

        let lr = config.schedule.lr(step);
        let selection = pruner.begin_step(&mut rng);
        let batch_idx = train_data.sample_batch(config.batch_size, &mut rng);
        let batch: Vec<(&[f64], usize)> = batch_idx
            .iter()
            .map(|&i| {
                let (f, l) = train_data.example(i);
                (f, l)
            })
            .collect();

        let step_master = job_seed(config.seed, TRAIN_STREAM_BASE + step as u64);
        let subset = match &selection {
            Selection::Full => None,
            Selection::Subset(s) => Some(s.as_slice()),
        };
        let evaluated_params = subset.map_or(n, <[usize]>::len);
        let result = match computer.try_batch_gradient(&params, &batch, subset, step_master) {
            Ok(r) => r,
            Err(source) => {
                return Err(run.abort(
                    step,
                    source,
                    prestep,
                    (&steps, &evals, &checkpoint_params),
                    prune_phase(&pruner.state()),
                ));
            }
        };
        pruner.record(&result.grad);
        health.observe_step(
            step,
            &selection,
            &result.grad,
            &result.grad_var,
            pruner.savings(),
        );
        // Pruned rows stay frozen.
        optimizer.step(&mut params, &result.grad, lr, subset);

        let inferences = run.counters().circuits_run;
        steps.push(StepRecord {
            step,
            loss: result.loss,
            lr,
            evaluated_params,
            inferences,
        });
        if let Some(obs) = observer {
            obs.on_step(steps.last().expect("just pushed"), run.counters());
        }

        // `runs_delta` is the circuit-run cost of this step alone (plus any
        // checkpoint that ran since the previous step's snapshot) — summing
        // it over a checkpoint-free stretch empirically exhibits the paper's
        // `r·w_p/(w_a+w_p)` savings ratio.
        let runs_delta = inferences - prev_inferences;
        prev_inferences = inferences;
        if qoc_telemetry::enabled() {
            let grad_norm = result.grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            let metrics = qoc_telemetry::metrics::Registry::global();
            metrics.counter("qoc.train.steps").inc();
            metrics.counter("qoc.train.circuit_runs").add(runs_delta);
            metrics.gauge("qoc.train.loss").set(result.loss);
            qoc_telemetry::event!(
                qoc_telemetry::Level::Info,
                "train.step",
                step = step,
                loss = result.loss,
                lr = lr,
                evaluated_params = evaluated_params,
                inferences = inferences,
                runs_delta = runs_delta,
                grad_norm = grad_norm,
            );
        }

        let last = step + 1 == config.steps;
        if last || (step + 1) % config.eval_every == 0 {
            let snapshot = run.counters().circuits_run;
            let eval = match try_evaluate_params_prepared(
                model,
                backend,
                &eval_prepared,
                &params,
                &eval_set,
                config.execution,
                job_seed(config.seed, EVAL_STREAM_BASE + step as u64),
            ) {
                Ok(e) => e,
                Err(source) => {
                    return Err(run.abort(
                        step,
                        source,
                        prestep,
                        (&steps, &evals, &checkpoint_params),
                        prune_phase(&pruner.state()),
                    ));
                }
            };
            best_accuracy = best_accuracy.max(eval.accuracy);
            if qoc_telemetry::enabled() {
                let metrics = qoc_telemetry::metrics::Registry::global();
                metrics.counter("qoc.train.evals").inc();
                metrics.gauge("qoc.train.accuracy").set(eval.accuracy);
                qoc_telemetry::event!(
                    qoc_telemetry::Level::Info,
                    "train.eval",
                    step = step,
                    inferences = snapshot,
                    accuracy = eval.accuracy,
                );
            }
            evals.push(EvalRecord {
                step,
                inferences: snapshot,
                accuracy: eval.accuracy,
            });
            if let Some(obs) = observer {
                obs.on_eval(evals.last().expect("just pushed"));
            }
            checkpoint_params.push(params.clone());
        }

        if let Some(ck) = checkpoint {
            if (step + 1) % ck.every == 0 && step + 1 < config.steps {
                let device = run.counters();
                let state = TrainState {
                    schema_version: CHECKPOINT_SCHEMA_VERSION,
                    master_seed: config.seed,
                    run_id: run.id.clone(),
                    next_step: step + 1,
                    params: params.clone(),
                    optimizer: optimizer.state(),
                    pruner: pruner.state(),
                    alloc: None,
                    rng: rng.state(),
                    steps: steps.clone(),
                    evals: evals.clone(),
                    checkpoint_params: checkpoint_params.clone(),
                    best_accuracy,
                    inferences_base: device.circuits_run,
                    total_shots_base: device.total_shots,
                    device_ns_base: device.device_ns,
                };
                match state.save(&ck.path) {
                    Ok(()) => {
                        if qoc_telemetry::enabled() {
                            qoc_telemetry::metrics::Registry::global()
                                .counter("qoc.train.checkpoints")
                                .inc();
                            qoc_telemetry::event!(
                                qoc_telemetry::Level::Debug,
                                "train.checkpoint",
                                step = step,
                                next_step = step + 1,
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("qoc: failed to write checkpoint {}: {e}", ck.path.display())
                    }
                }
            }
        }

        run.publish_status(
            "running",
            step + 1,
            result.loss,
            best_accuracy,
            prune_phase(&pruner.state()),
        );
    }
    // Flush the final (possibly partial) window for telemetry.
    health.finish(pruner.savings());
    drop(run_span);

    let device = run.counters();
    let totals = ExecutionStats {
        circuits_run: device.circuits_run,
        total_shots: device.total_shots,
        estimated_device_seconds: device.device_ns as f64 / 1e9,
    };
    // Terminal status snapshot: same integers as the manifest, so the last
    // snapshot of a finished run reconciles to the nanosecond.
    run.publish_status(
        "finished",
        config.steps,
        steps.last().map_or(0.0, |s| s.loss),
        best_accuracy,
        prune_phase(&pruner.state()),
    );
    if let Some(trace_path) = qoc_telemetry::trace_file_path() {
        persist_run(&run, &trace_path, &steps, &evals, &totals, best_accuracy);
    }
    Ok(TrainResult {
        params,
        steps,
        evals,
        checkpoint_params,
        best_accuracy,
        total_inferences: totals.circuits_run,
        device_seconds: totals.estimated_device_seconds,
    })
}

/// The per-run constants the step loop's status, abort and manifest paths
/// share.
struct Run<'a> {
    /// Seed-derived identity ([`run_id_for_seed`]).
    id: String,
    config: &'a TrainConfig,
    backend: &'a dyn QuantumBackend,
    /// Device usage carried over from before a resume.
    base: DeviceCounters,
    checkpoint: Option<&'a CheckpointConfig>,
}

impl Run<'_> {
    /// Combined (pre-resume base + this process) backend counters as exact
    /// integers.
    fn counters(&self) -> DeviceCounters {
        let stats = self.backend.stats();
        DeviceCounters {
            circuits_run: self.base.circuits_run + stats.circuits_run,
            total_shots: self.base.total_shots + stats.total_shots,
            device_ns: self.base.device_ns + stats.device_nanos(),
        }
    }

    /// Publishes a live status snapshot when `QOC_STATUS_FILE` is set,
    /// `step` steps into the run. The device counters come from the same
    /// integer bases that build the final manifest, so snapshots telescope
    /// to it exactly.
    fn publish_status(
        &self,
        state: &'static str,
        step: usize,
        loss: f64,
        best_accuracy: f64,
        prune_phase: &str,
    ) {
        let Some(exporter) = qoc_telemetry::export::global() else {
            return;
        };
        let device = self.counters();
        exporter.on_step(StatusCore {
            run_id: self.id.clone(),
            state,
            backend: self.backend.name().to_string(),
            step: step as u64,
            steps_total: self.config.steps as u64,
            loss,
            best_accuracy,
            prune_phase: prune_phase.to_string(),
            circuits_run: device.circuits_run,
            total_shots: device.total_shots,
            device_ns: device.device_ns,
        });
    }

    /// Writes the emergency checkpoint (when configured) and builds the
    /// [`TrainError`] for a batch failure at `step`. The checkpoint uses the
    /// pre-step snapshot so the resumed run replays the failed step in full.
    /// Before surfacing the error, the crash leaves its observability trail:
    /// a `failed` status snapshot (when exporting) and the flight recorder's
    /// black-box dump (when recording) next to the checkpoint.
    fn abort(
        &self,
        step: usize,
        source: BatchError,
        prestep: Option<PreStep>,
        (steps, evals, checkpoint_params): (&[StepRecord], &[EvalRecord], &[Vec<f64>]),
        prune_phase: &'static str,
    ) -> TrainError {
        let mut saved = None;
        if let (Some(ck), Some(pre)) = (self.checkpoint, prestep) {
            let state = TrainState {
                schema_version: CHECKPOINT_SCHEMA_VERSION,
                master_seed: self.config.seed,
                run_id: self.id.clone(),
                next_step: step,
                params: pre.params,
                optimizer: pre.optimizer,
                pruner: pre.pruner,
                alloc: None,
                rng: pre.rng,
                steps: steps[..pre.steps_len].to_vec(),
                evals: evals.to_vec(),
                checkpoint_params: checkpoint_params.to_vec(),
                best_accuracy: pre.best_accuracy,
                inferences_base: pre.stats.circuits_run,
                total_shots_base: pre.stats.total_shots,
                device_ns_base: pre.stats.device_ns,
            };
            match state.save(&ck.path) {
                Ok(()) => saved = Some(ck.path.clone()),
                Err(e) => eprintln!(
                    "qoc: failed to write emergency checkpoint {}: {e}",
                    ck.path.display()
                ),
            }
        }
        if qoc_telemetry::enabled() {
            qoc_telemetry::metrics::Registry::global()
                .counter("qoc.train.aborted_runs")
                .inc();
            qoc_telemetry::event!(
                qoc_telemetry::Level::Warn,
                "train.abort",
                step = step,
                error = source.to_string(),
                checkpointed = saved.is_some(),
            );
        }
        self.publish_status(
            "failed",
            step,
            steps.last().map_or(0.0, |s| s.loss),
            evals.iter().fold(0.0, |b, e| b.max(e.accuracy)),
            prune_phase,
        );
        // The dump is last so the train.abort event above is inside the ring.
        dump_blackbox(saved.as_deref());
        TrainError::Execution {
            step,
            source,
            checkpoint: saved,
        }
    }
}

/// Flushes the flight recorder's ring as schema-valid JSONL — the black-box
/// dump a dead run leaves behind for `qoc-analyze`. Placed next to the
/// emergency checkpoint when one was written, else next to the trace file,
/// else next to the status file; skipped (with nothing to anchor to) when
/// none of those exist.
fn dump_blackbox(checkpoint: Option<&std::path::Path>) -> Option<PathBuf> {
    let recorder = qoc_telemetry::flight_recorder()?;
    let anchor = checkpoint
        .map(std::path::Path::to_path_buf)
        .or_else(qoc_telemetry::trace_file_path)
        .or_else(|| qoc_telemetry::export::global().map(|e| e.path().to_path_buf()))?;
    let path = anchor.with_extension("blackbox.jsonl");
    match recorder.dump_jsonl(&path) {
        Ok(lines) => {
            eprintln!(
                "qoc: flight recorder dumped {lines} records to {}",
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!(
                "qoc: failed to write black-box dump {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Writes one serialized record per line (JSONL).
fn write_jsonl<T: serde::Serialize>(path: &std::path::Path, records: &[T]) {
    let mut out = String::new();
    for record in records {
        if let Ok(line) = serde_json::to_string(record) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("qoc: failed to write {}: {e}", path.display());
    }
}

/// Persists the run next to the trace file (`QOC_TRACE_FILE`): per-step and
/// per-checkpoint records as JSONL (`<stem>.steps.jsonl`,
/// `<stem>.evals.jsonl`) and a run manifest (`<stem>.manifest.json`) tying
/// together the config, environment, the noisy forks' lane arm, execution
/// stats (resume base included), the resume base itself (zero unless
/// resumed), and a final snapshot of the global metrics registry. I/O
/// failures are reported to stderr, not propagated — telemetry must never
/// fail a training run.
fn persist_run(
    run: &Run<'_>,
    trace_path: &std::path::Path,
    steps: &[StepRecord],
    evals: &[EvalRecord],
    stats: &ExecutionStats,
    best_accuracy: f64,
) {
    use serde::Value;

    write_jsonl(&trace_path.with_extension("steps.jsonl"), steps);
    write_jsonl(&trace_path.with_extension("evals.jsonl"), evals);

    // Continuous-profiler flush (`QOC_PROFILE_HZ`): collapsed stacks as a
    // flamegraph-ready sibling, per-span totals in the manifest.
    let profile = qoc_telemetry::profiler::report().map(|report| {
        let folded_path = trace_path.with_extension("profile.folded");
        if let Err(e) = std::fs::write(&folded_path, report.to_folded_text()) {
            eprintln!("qoc: failed to write {}: {e}", folded_path.display());
        }
        report.to_manifest_json()
    });

    let env = qoc_telemetry::env::set_knobs()
        .into_iter()
        .map(|(name, value)| (name.to_string(), Value::Str(value)))
        .collect();
    // The arm the noisy forks run on, picked from the host's CPU.
    let fork_arm = qoc_device::LaneArm::detect();
    let mut entries = vec![
        ("config".to_string(), serde_json::to_value(run.config)),
        ("env".to_string(), Value::Object(env)),
        ("seed".to_string(), Value::UInt(run.config.seed)),
        ("run_id".to_string(), Value::Str(run.id.clone())),
        (
            "backend".to_string(),
            Value::Str(run.backend.name().to_string()),
        ),
        (
            "workers".to_string(),
            Value::UInt(default_worker_count() as u64),
        ),
        (
            "fork_lanes".to_string(),
            Value::Object(vec![
                ("arm".to_string(), Value::Str(fork_arm.name().to_string())),
                ("lanes".to_string(), Value::UInt(fork_arm.lanes() as u64)),
            ]),
        ),
        (
            "available_parallelism".to_string(),
            Value::UInt(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        ("best_accuracy".to_string(), Value::Float(best_accuracy)),
        ("execution_stats".to_string(), serde_json::to_value(stats)),
        ("resume_base".to_string(), serde_json::to_value(&run.base)),
        (
            "metrics".to_string(),
            serde_json::to_value(&qoc_telemetry::metrics::Registry::global().snapshot()),
        ),
    ];
    if let Some(profile) = profile {
        entries.push(("profile".to_string(), profile));
    }
    let manifest = Value::Object(entries);
    let manifest_path = trace_path.with_extension("manifest.json");
    match serde_json::to_string_pretty(&manifest) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&manifest_path, text) {
                eprintln!("qoc: failed to write {}: {e}", manifest_path.display());
            }
        }
        Err(e) => eprintln!("qoc: failed to serialize run manifest: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoc_device::backend::NoiselessBackend;

    /// A tiny linearly-separable 2-class dataset in encoder space.
    fn toy_data(n: usize) -> Dataset {
        let features: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let class = i % 2;
                let base = if class == 0 { 0.4 } else { 2.4 };
                (0..16)
                    .map(|k| base + 0.05 * ((i + k) % 3) as f64)
                    .collect()
            })
            .collect();
        let labels = (0..n).map(|i| i % 2).collect();
        Dataset::new(features, labels, 2)
    }

    fn quick_config(steps: usize) -> TrainConfig {
        TrainConfig {
            steps,
            batch_size: 4,
            optimizer: OptimizerKind::Adam,
            schedule: LrSchedule::Constant { lr: 0.2 },
            pruning: PruningKind::None,
            execution: Execution::Exact,
            seed: 7,
            eval_every: 5,
            eval_examples: 16,
            init_scale: 0.1,
        }
    }

    #[test]
    fn training_reduces_loss_and_learns_toy_task() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let train_ds = toy_data(32);
        let val_ds = toy_data(16);
        let result = train(&model, &backend, &train_ds, &val_ds, &quick_config(40));
        let first = result.steps[0].loss;
        let last = result.steps.last().unwrap().loss;
        assert!(last < first, "loss did not drop: {first} → {last}");
        assert!(
            result.best_accuracy > 0.85,
            "accuracy {}",
            result.best_accuracy
        );
        assert_eq!(result.steps.len(), 40);
        assert!(!result.evals.is_empty());
    }

    #[test]
    fn inference_counts_are_monotone_and_plausible() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let train_ds = toy_data(16);
        let val_ds = toy_data(8);
        let cfg = quick_config(6);
        let result = train(&model, &backend, &train_ds, &val_ds, &cfg);
        for w in result.steps.windows(2) {
            assert!(w[1].inferences > w[0].inferences);
        }
        // Per full step: batch 4 × (1 + 2·8 params) = 68 runs.
        assert_eq!(result.steps[0].inferences, 68);
        assert_eq!(result.total_inferences, backend.stats().circuits_run);
    }

    #[test]
    fn pruning_reduces_evaluated_params_and_inferences() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let train_ds = toy_data(16);
        let val_ds = toy_data(8);
        let mut cfg = quick_config(9);
        cfg.pruning = PruningKind::Probabilistic(PruneConfig::paper_default());
        let pruned = train(&model, &backend, &train_ds, &val_ds, &cfg);
        // Steps 0, 3, 6 are accumulation (w_a = 1, w_p = 2): full 8 params;
        // the rest evaluate 4.
        let evaluated: Vec<usize> = pruned.steps.iter().map(|s| s.evaluated_params).collect();
        assert_eq!(evaluated, vec![8, 4, 4, 8, 4, 4, 8, 4, 4]);

        let mut cfg_full = quick_config(9);
        cfg_full.pruning = PruningKind::None;
        let full = train(&model, &backend, &train_ds, &val_ds, &cfg_full);
        assert!(pruned.total_inferences < full.total_inferences);
    }

    #[test]
    fn deterministic_pruning_runs() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let mut cfg = quick_config(6);
        cfg.pruning = PruningKind::Deterministic(PruneConfig::paper_default());
        let result = train(&model, &backend, &toy_data(16), &toy_data(8), &cfg);
        assert_eq!(result.steps.len(), 6);
    }

    #[test]
    fn same_seed_reproduces_run() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let ds = toy_data(16);
        let a = train(&model, &backend, &ds, &ds, &quick_config(4));
        let b = train(&model, &backend, &ds, &ds, &quick_config(4));
        assert_eq!(a.params, b.params);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    #[should_panic(expected = "at least one training step")]
    fn rejects_zero_steps() {
        let model = QnnModel::mnist2();
        let backend = NoiselessBackend::new();
        let ds = toy_data(8);
        let _ = train(&model, &backend, &ds, &ds, &quick_config(0));
    }
}
