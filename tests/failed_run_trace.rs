//! A run that dies leaves its trace as its record: training on a
//! fault-injecting backend with retries off must fail with
//! `TrainError::Execution`, every line of its `QOC_TRACE_FILE` trace must
//! pass the pinned schema, and the trace must end its training at a
//! `train.abort` event for the failing step — no `train.step` after it, and
//! no satellites next to it.
//!
//! The trace file is configured through the environment, which the process
//! reads once on first telemetry use — so the test lives alone in its own
//! integration-test binary.

use serde::Value;

use qoc_core::engine::{train_anchored, PruningKind, RunAnchor, TrainConfig, TrainError};
use qoc_core::optim::OptimizerKind;
use qoc_core::prune::PruneConfig;
use qoc_core::sched::LrSchedule;
use qoc_data::dataset::Dataset;
use qoc_device::backend::{Execution, NoiselessBackend};
use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
use qoc_device::retry::RetryPolicy;
use qoc_nn::model::QnnModel;

/// A tiny linearly-separable 2-class dataset in encoder space.
fn toy_data(n: usize) -> Dataset {
    let features: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { 0.4 } else { 2.4 };
            (0..16)
                .map(|k| base + 0.05 * ((i + k) % 3) as f64)
                .collect()
        })
        .collect();
    let labels = (0..n).map(|i| i % 2).collect();
    Dataset::new(features, labels, 2)
}

fn span_of(record: &Value) -> &str {
    record
        .get("span")
        .and_then(Value::as_str)
        .unwrap_or_default()
}

fn is_event(record: &Value) -> bool {
    record.get("kind").and_then(Value::as_str) == Some("event")
}

#[test]
fn a_failed_run_ends_its_trace_at_the_abort() {
    let dir = std::env::temp_dir().join(format!("qoc-failed-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace_path = dir.join("trace.jsonl");
    // Must happen before the process's first telemetry use.
    std::env::set_var("QOC_TRACE_FILE", &trace_path);

    let config = TrainConfig {
        steps: 20,
        batch_size: 4,
        optimizer: OptimizerKind::Adam,
        schedule: LrSchedule::Constant { lr: 0.2 },
        pruning: PruningKind::Probabilistic(PruneConfig::paper_default()),
        execution: Execution::Exact,
        seed: 5,
        eval_every: 4,
        eval_examples: 8,
        init_scale: 0.1,
    };
    // About three jobs in a thousand fail once; without retries the first
    // such job ends the run a few steps in (at step 3 with this seed).
    let plan = FaultPlan {
        seed: 4,
        transient_rate: 0.003,
        ..FaultPlan::none()
    };
    let backend = FaultInjectingBackend::new(NoiselessBackend::new(), plan)
        .with_retry_policy(RetryPolicy::no_retry());
    let outcome = train_anchored(
        &QnnModel::mnist2(),
        &backend,
        &toy_data(16),
        &toy_data(8),
        &config,
        RunAnchor::default(),
    );
    qoc_telemetry::flush();
    let failed_step = match outcome {
        Err(TrainError::Execution { step, .. }) => step as u64,
        other => panic!("expected TrainError::Execution, got {other:?}"),
    };
    assert!(failed_step > 0, "the plan should let the first step finish");

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let records: Vec<Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSON ({e}): {line}")))
        .collect();
    for record in &records {
        qoc_telemetry::schema::check_trace_record(record)
            .unwrap_or_else(|e| panic!("schema violation ({e}) in {record:?}"));
    }

    let aborts: Vec<usize> = (0..records.len())
        .filter(|&i| is_event(&records[i]) && span_of(&records[i]) == "train.abort")
        .collect();
    assert_eq!(aborts.len(), 1, "one train.abort event");
    let abort = &records[aborts[0]];
    let abort_step = abort
        .get("fields")
        .and_then(|f| f.get("step"))
        .and_then(Value::as_u64);
    assert_eq!(abort_step, Some(failed_step));
    let steps_before = records[..aborts[0]]
        .iter()
        .filter(|r| is_event(r) && span_of(r) == "train.step")
        .count() as u64;
    assert_eq!(
        steps_before, failed_step,
        "one train.step per finished step"
    );
    assert!(
        records[aborts[0]..]
            .iter()
            .all(|r| span_of(r) != "train.step"),
        "a train.step record follows the abort"
    );
    for satellite in ["steps.jsonl", "evals.jsonl", "manifest.json"] {
        assert!(
            !trace_path.with_extension(satellite).exists(),
            "an aborted run wrote its {satellite}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
