//! The run-savings gate on a resumed traced run: MNIST-2 PGP on its fake
//! device, 12 steps, checkpointed at step 7 and resumed in a second traced
//! run. The resumed run's `.steps.jsonl` holds all 12 step records, but its
//! trace (and its `prune.efficacy` windows) only steps 7–11; both the
//! measured and the expected savings must be taken over those five steps,
//! and the uninterrupted run's numbers must stay the paper's 1/3. The
//! device-time gate likewise compares the resumed trace's batch deltas with
//! the manifest's device time less the restored usage (its `resume_base`).
//!
//! Each run traces into its own file through `install_for_test`, so both
//! share this process.

use std::path::Path;
use std::sync::Arc;

use qoc_bench::analyze::{analyze_run, Analysis};
use qoc_bench::suite::TaskBench;
use qoc_core::checkpoint::{CheckpointConfig, TrainState};
use qoc_core::engine::{train_anchored, RunAnchor, TrainConfig, TrainResult};
use qoc_data::tasks::Task;
use qoc_telemetry::sink::JsonlSink;

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Trains `config` with its trace in `trace`, then analyzes the trace and
/// its satellites.
fn traced(
    bench: &TaskBench,
    config: &TrainConfig,
    trace: &Path,
    anchor: RunAnchor<'_>,
) -> (TrainResult, Analysis) {
    let sink = JsonlSink::create(trace).expect("create trace");
    let guard = qoc_telemetry::install_for_test(vec![Arc::new(sink)], Some(trace.to_path_buf()));
    let result = train_anchored(
        &bench.model,
        &bench.device,
        &bench.train_set,
        &bench.val_set,
        config,
        anchor,
    )
    .expect("run completes");
    qoc_telemetry::flush();
    drop(guard);
    let analysis = analyze_run(
        &read(trace),
        Some(&read(&trace.with_extension("steps.jsonl"))),
        Some(&read(&trace.with_extension("evals.jsonl"))),
        Some(&read(&trace.with_extension("manifest.json"))),
    )
    .expect("trace analyzes");
    (result, analysis)
}

#[test]
fn a_resumed_pgp_run_is_judged_on_its_own_steps() {
    let dir = std::env::temp_dir().join(format!("qoc-analyze-resumed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bench = TaskBench::new(Task::Mnist2, 3);
    let config = TrainConfig {
        batch_size: 4,
        eval_every: 100,
        eval_examples: 8,
        seed: 3,
        ..TrainConfig::paper_pgp(12)
    };

    // Uninterrupted, checkpointing at step 7 (the middle of a pruning
    // window: stages are full / prune / prune).
    let ckpt = dir.join("run.ckpt.json");
    let checkpoint = CheckpointConfig::new(&ckpt, 7);
    let anchor = RunAnchor {
        checkpoint: Some(&checkpoint),
        ..RunAnchor::default()
    };
    let (full, whole) = traced(&bench, &config, &dir.join("full.jsonl"), anchor);
    assert_eq!(whole.steps, 12);
    assert!((whole.expected_savings.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    assert!((whole.measured_savings.unwrap() - 1.0 / 3.0).abs() < 1e-12);
    assert_eq!(whole.sanity_failures(0.05), Vec::<String>::new());

    let state = TrainState::load(&ckpt).expect("checkpoint loads");
    assert_eq!(state.next_step, 7);
    let anchor = RunAnchor {
        resume: Some(state),
        ..RunAnchor::default()
    };
    let trace = dir.join("resumed.jsonl");
    let (resumed, analysis) = traced(&bench, &config, &trace, anchor);
    assert_eq!(resumed, full, "the resumed run diverged");

    // Steps 7–11: 7, 8, 10 and 11 prune half of the 8 gradients, 9 opens
    // a stage: 0.5 · 4/5 = 0.4 both measured and expected.
    assert_eq!(analysis.steps, 12);
    assert_eq!(
        analysis.windows.iter().map(|w| w.stage_steps).sum::<u64>(),
        5
    );
    assert!((analysis.expected_savings.unwrap() - 0.4).abs() < 1e-12);
    assert!((analysis.measured_savings.unwrap() - 0.4).abs() < 1e-12);
    // The device-time gate is live: every batch carried its delta, and the
    // manifest less the restored usage matches them.
    assert!(analysis.device_deltas_complete);
    assert_eq!(analysis.device_ns_manifest, Some(analysis.device_ns_spans));
    assert_eq!(analysis.sanity_failures(0.05), Vec::<String>::new());

    let _ = std::fs::remove_dir_all(&dir);
}
