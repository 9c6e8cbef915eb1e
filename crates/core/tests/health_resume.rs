//! Gradient-health telemetry across a kill/resume. Checkpoints carry no
//! tracker state, so the resumed process starts a fresh tracker: its |g|
//! EMAs, evaluation counts, sign-flip rates and pruning windows cover the
//! steps it ran, while the training records replay bit for bit.

use std::collections::BTreeMap;
use std::sync::Arc;

use qoc_core::checkpoint::{CheckpointConfig, TrainState};
use qoc_core::engine::{train_anchored, PruningKind, RunAnchor, TrainConfig, TrainResult};
use qoc_core::prune::PruneConfig;
use qoc_data::dataset::Dataset;
use qoc_device::backend::{Execution, NoiselessBackend};
use qoc_nn::model::QnnModel;
use qoc_telemetry::sink::{CaptureSubscriber, OwnedRecord};
use qoc_telemetry::{install_for_test, FieldValue, Level};

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
    Dataset::new(features, (0..n).map(|i| i % 2).collect(), 2)
}

fn config() -> TrainConfig {
    let mut c = TrainConfig::paper_default(9);
    c.batch_size = 4;
    c.execution = Execution::Shots(256);
    c.pruning = PruningKind::Probabilistic(PruneConfig {
        accumulation_window: 1,
        pruning_window: 2,
        ratio: 0.5,
    });
    c.seed = 11;
    c.eval_every = 5;
    c.eval_examples = 8;
    c
}

/// Trains under a capture subscriber and returns the result and records.
fn traced(anchor: RunAnchor<'_>) -> (TrainResult, Vec<OwnedRecord>) {
    let capture = Arc::new(CaptureSubscriber::new(Level::Trace));
    let guard = install_for_test(vec![capture.clone()], None);
    let result = train_anchored(
        &QnnModel::mnist2(),
        &NoiselessBackend::new(),
        &toy_data(16),
        &toy_data(8),
        &config(),
        anchor,
    )
    .expect("training succeeds");
    drop(guard);
    (result, capture.records())
}

fn field<'a>(rec: &'a OwnedRecord, key: &str) -> &'a FieldValue {
    &rec.fields
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("{} missing field {key}", rec.span))
        .1
}

fn u64_of(rec: &OwnedRecord, key: &str) -> u64 {
    match field(rec, key) {
        FieldValue::U64(x) => *x,
        other => panic!("{key} is not an unsigned integer: {other:?}"),
    }
}

fn f64_of(rec: &OwnedRecord, key: &str) -> f64 {
    match field(rec, key) {
        FieldValue::F64(x) => *x,
        FieldValue::U64(x) => *x as f64,
        other => panic!("{key} is not numeric: {other:?}"),
    }
}

/// `grad.health` events keyed by (step, param).
fn health_by_step(records: &[OwnedRecord]) -> BTreeMap<(u64, u64), &OwnedRecord> {
    records
        .iter()
        .filter(|r| r.span == "grad.health")
        .map(|r| ((u64_of(r, "step"), u64_of(r, "param")), r))
        .collect()
}

/// `prune.efficacy` events, each paired with the step that closed it (the
/// next `train.step` event: the tracker closes a window before the step's
/// record is emitted).
fn windows_with_close_step(records: &[OwnedRecord]) -> Vec<(&OwnedRecord, Option<u64>)> {
    records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.span == "prune.efficacy")
        .map(|(i, r)| {
            let step = records[i..]
                .iter()
                .find(|s| s.span == "train.step")
                .map(|s| u64_of(s, "step"));
            (r, step)
        })
        .collect()
}

#[test]
fn resumed_health_telemetry_restarts_with_the_resumed_process() {
    let dir = std::env::temp_dir().join(format!("qoc-health-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.ckpt");
    let ckpt = CheckpointConfig::new(path.clone(), 5);

    let (full, _) = traced(RunAnchor {
        checkpoint: Some(&ckpt),
        ..RunAnchor::default()
    });
    // The last periodic save is the kill point: step 5 is the second
    // pruned step of its window (w_a = 1, w_p = 2), so the resumed process
    // opens mid-window.
    let state = TrainState::load(&path).expect("checkpoint loads");
    std::fs::remove_dir_all(&dir).ok();
    let resume_step = state.next_step as u64;
    assert_eq!(resume_step, 5);

    let (resumed, resumed_records) = traced(RunAnchor {
        resume: Some(state),
        ..RunAnchor::default()
    });
    assert_eq!(full, resumed, "resume replays the same records");

    // Per parameter: the first evaluation after the resume seeds the EMA
    // and counts as the first, and the flip rate divides the flips seen
    // since the resume by the transitions seen since the resume.
    let health = health_by_step(&resumed_records);
    assert!(!health.is_empty());
    let mut seen: BTreeMap<u64, (u64, u64, f64)> = BTreeMap::new();
    for (&(step, param), rec) in &health {
        assert!(step >= resume_step, "event from before the resume");
        let (evals, flips, ema) = seen.entry(param).or_default();
        *evals += 1;
        if *field(rec, "flip") == FieldValue::Bool(true) {
            *flips += 1;
        }
        let abs = f64_of(rec, "grad_abs");
        *ema = if *evals == 1 {
            abs
        } else {
            0.5 * *ema + 0.5 * abs
        };
        assert_eq!(u64_of(rec, "evals"), *evals, "evals of param {param}");
        assert_eq!(
            f64_of(rec, "ema").to_bits(),
            ema.to_bits(),
            "ema at step {step} param {param}"
        );
        let expected = if *evals > 1 {
            *flips as f64 / (*evals - 1) as f64
        } else {
            0.0
        };
        let rate = f64_of(rec, "flip_rate");
        assert_eq!(rate, expected, "flip_rate of param {param}");
        assert!((0.0..=1.0).contains(&rate));
    }
    assert!(
        seen.values().any(|&(_, flips, _)| flips > 0),
        "no sign flip after the resume: the flip-rate check has no teeth"
    );

    // The window open at the kill closes as the resumed process's window
    // 0, over the steps this process ran.
    let windows = windows_with_close_step(&resumed_records);
    let (first, close_step) = windows[0];
    let close_step = close_step.expect("window closed before the run ended");
    assert_eq!(u64_of(first, "window"), 0);
    assert_eq!(u64_of(first, "stage_steps"), close_step - resume_step);
    let n = resumed.params.len() as f64;
    let post: Vec<f64> = resumed.steps[resume_step as usize..close_step as usize]
        .iter()
        .map(|s| s.evaluated_params as f64)
        .collect();
    assert!(
        !post.is_empty(),
        "the open window closed on the resume step"
    );
    let expected = 1.0 - post.iter().sum::<f64>() / (n * post.len() as f64);
    assert_eq!(f64_of(first, "measured_savings"), expected);
    for (w, _) in &windows {
        assert!((0.0..=1.0).contains(&f64_of(w, "measured_savings")));
        assert!((0.0..=1.0).contains(&f64_of(w, "recall")));
    }
}
