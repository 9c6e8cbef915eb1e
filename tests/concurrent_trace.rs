//! One trace under concurrent writers: two engines train at once on their
//! own threads into the process's single `QOC_TRACE_FILE`. Every line must
//! parse (none torn or interleaved) and pass the pinned schema, and the
//! trace must hold both runs whole — each run's `run.header` and one
//! `train.step` event per step of each run.
//!
//! The trace file is configured through the environment, which the process
//! reads once on first telemetry use — so the test lives alone in its own
//! integration-test binary.

use std::sync::Barrier;

use serde::Value;

use qoc_core::engine::{
    run_id_for_seed, train_anchored, PruningKind, RunAnchor, TrainConfig, TrainResult,
};
use qoc_core::optim::OptimizerKind;
use qoc_core::prune::PruneConfig;
use qoc_core::sched::LrSchedule;
use qoc_data::dataset::Dataset;
use qoc_device::backend::{Execution, NoiselessBackend};
use qoc_nn::model::QnnModel;

const STEPS: usize = 6;
const SEEDS: [u64; 2] = [101, 202];

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

fn run(seed: u64) -> TrainResult {
    let config = TrainConfig {
        steps: STEPS,
        batch_size: 2,
        optimizer: OptimizerKind::Adam,
        schedule: LrSchedule::Constant { lr: 0.2 },
        pruning: PruningKind::Probabilistic(PruneConfig::paper_default()),
        execution: Execution::Shots(64),
        seed,
        eval_every: 3,
        eval_examples: 4,
        init_scale: 0.1,
    };
    let backend = NoiselessBackend::new();
    let (train_set, val_set) = (toy_data(12), toy_data(8));
    let model = QnnModel::mnist2();
    train_anchored(
        &model,
        &backend,
        &train_set,
        &val_set,
        &config,
        RunAnchor::default(),
    )
    .expect("run completes")
}

fn field<'a>(record: &'a Value, key: &str) -> Option<&'a Value> {
    record.get("fields").and_then(|f| f.get(key))
}

#[test]
fn concurrent_engines_share_one_trace_without_tearing_lines() {
    let dir = std::env::temp_dir().join(format!("qoc-concurrent-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace_path = dir.join("trace.jsonl");
    // Must happen before the process's first telemetry use.
    std::env::set_var("QOC_TRACE_FILE", &trace_path);

    // Both engines start together, so their records interleave.
    let start = Barrier::new(SEEDS.len());
    let results: Vec<TrainResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = SEEDS
            .iter()
            .map(|&seed| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    run(seed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine thread"))
            .collect()
    });
    qoc_telemetry::flush();
    for result in &results {
        assert_eq!(result.steps.len(), STEPS);
    }

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(text.ends_with('\n'), "the trace ends mid-line");
    let records: Vec<Value> = text
        .lines()
        .map(|line| {
            serde_json::from_str(line).unwrap_or_else(|e| panic!("torn line ({e}): {line}"))
        })
        .collect();
    for record in &records {
        qoc_telemetry::schema::check_trace_record(record)
            .unwrap_or_else(|e| panic!("schema violation ({e}) in {record:?}"));
    }
    let events = |name: &str| -> Vec<&Value> {
        records
            .iter()
            .filter(|r| r.get("kind").and_then(Value::as_str) == Some("event"))
            .filter(|r| r.get("span").and_then(Value::as_str) == Some(name))
            .collect()
    };

    let mut run_ids: Vec<&str> = events("run.header")
        .into_iter()
        .filter_map(|r| field(r, "run_id").and_then(Value::as_str))
        .collect();
    run_ids.sort_unstable();
    let mut expected: Vec<String> = SEEDS.iter().map(|&s| run_id_for_seed(s)).collect();
    expected.sort_unstable();
    assert_eq!(run_ids, expected);

    let steps = events("train.step");
    assert_eq!(
        steps.len(),
        2 * STEPS,
        "one train.step per step of each run"
    );
    let mut indices: Vec<u64> = steps
        .iter()
        .filter_map(|r| field(r, "step").and_then(Value::as_u64))
        .collect();
    indices.sort_unstable();
    let per_run: Vec<u64> = (0..STEPS as u64).flat_map(|k| [k, k]).collect();
    assert_eq!(indices, per_run, "each run's steps 0..{STEPS} once");

    let _ = std::fs::remove_dir_all(&dir);
}
