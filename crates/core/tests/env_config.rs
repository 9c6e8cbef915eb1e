//! A misconfigured `QOC_*` knob stops a run with a typed error before any
//! circuit runs — never a panic, a printed warning or a silent default.
//!
//! Own test binary: the test sets process-global environment variables,
//! which would fail any training test running beside it in a shared binary.

use qoc_core::engine::{train_anchored, RunAnchor, TrainConfig, TrainError};
use qoc_data::dataset::Dataset;
use qoc_device::backend::{Execution, NoiselessBackend};
use qoc_device::faults::FaultPlan;
use qoc_device::QuantumBackend;
use qoc_nn::model::QnnModel;

/// A tiny 2-class dataset in encoder space.
fn toy_data(n: usize) -> Dataset {
    let features: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { 0.4 } else { 2.4 };
            vec![base; 16]
        })
        .collect();
    Dataset::new(features, (0..n).map(|i| i % 2).collect(), 2)
}

#[test]
fn malformed_knobs_are_typed_errors_before_any_circuit_runs() {
    let mut config = TrainConfig::paper_default(2);
    config.batch_size = 2;
    config.execution = Execution::Exact;
    config.eval_examples = 4;
    let (train_ds, val_ds) = (toy_data(8), toy_data(4));
    let model = QnnModel::mnist2();
    let run = |backend: &NoiselessBackend| {
        train_anchored(
            &model,
            backend,
            &train_ds,
            &val_ds,
            &config,
            RunAnchor::default(),
        )
    };

    for (name, value, hint) in [
        ("QOC_WORKERS", "garbage", "integer ≥ 1"),
        ("QOC_SHOT_ALOC", "snr", "did you mean QOC_SHOT_ALLOC?"),
        ("QOC_DIFF_MODE", "adjoint", "did you mean QOC_"),
        ("QOC_CHECKPOINT_EVERY", "0", "integer ≥ 1"),
        (
            "QOC_LOG",
            "loud",
            "expected error, warn, info, debug or trace",
        ),
    ] {
        std::env::set_var(name, value);
        let backend = NoiselessBackend::new();
        let result = run(&backend);
        std::env::remove_var(name);
        match result {
            Err(TrainError::Config(e)) => {
                assert_eq!((e.name.as_str(), e.value.as_str()), (name, value));
                assert!(e.to_string().contains(hint), "{e}");
            }
            Err(other) => panic!("{name}={value}: expected a config error, got {other}"),
            Ok(_) => panic!("{name}={value}: the run must not start"),
        }
        assert_eq!(
            backend.stats().circuits_run,
            0,
            "{name}={value} ran circuits"
        );
    }

    // A fault plan's grammar belongs to qoc-device: its reader rejects it.
    std::env::set_var("QOC_FAULT_PLAN", "bogus");
    let plan = FaultPlan::from_env();
    std::env::remove_var("QOC_FAULT_PLAN");
    let err = plan.expect_err("a malformed plan is an error");
    assert_eq!(
        (err.name.as_str(), err.value.as_str()),
        ("QOC_FAULT_PLAN", "bogus")
    );

    // With the environment clean again the same run trains.
    let backend = NoiselessBackend::new();
    run(&backend).expect("clean environment trains");
    assert!(backend.stats().circuits_run > 0);
}
