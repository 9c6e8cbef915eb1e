//! End-to-end telemetry: a PGP training run under `QOC_TRACE_FILE` must
//! produce a parseable JSONL trace whose per-step circuit-run deltas
//! empirically confirm the paper's `r·w_p/(w_a+w_p)` run-savings ratio, a
//! run manifest with nonzero circuit-run counters, and per-step /
//! per-checkpoint JSONL records.
//!
//! The trace file is configured through the environment, which the process
//! reads once on first telemetry use — so everything lives in a single test
//! function in its own integration-test binary.

use std::path::Path;

use serde::Value;

use qoc_core::engine::{train, PruningKind, TrainConfig};
use qoc_core::optim::OptimizerKind;
use qoc_core::prune::PruneConfig;
use qoc_core::sched::LrSchedule;
use qoc_data::dataset::Dataset;
use qoc_device::backend::{Execution, NoiselessBackend};
use qoc_nn::model::QnnModel;

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

fn parse_lines(path: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSON ({e}): {line}")))
        .collect()
}

fn field_u64(record: &Value, key: &str) -> u64 {
    record
        .get("fields")
        .and_then(|f| f.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing integer field {key:?} in {record:?}"))
}

#[test]
fn pgp_trace_confirms_run_savings_ratio() {
    let dir = std::env::temp_dir().join(format!("qoc-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace_path = dir.join("trace.jsonl");
    // Must happen before the process's first telemetry use: the global
    // telemetry state reads the environment exactly once.
    std::env::set_var("QOC_TRACE_FILE", &trace_path);

    // Paper-default PGP (w_a = 1, w_p = 2, r = 0.5) over three full stages.
    // `eval_every > steps` keeps checkpoint runs out of the per-step
    // deltas (the final checkpoint runs after the last step's snapshot).
    let steps = 9usize;
    let batch = 4u64;
    let config = TrainConfig {
        steps,
        batch_size: batch as usize,
        optimizer: OptimizerKind::Adam,
        schedule: LrSchedule::Constant { lr: 0.2 },
        pruning: PruningKind::Probabilistic(PruneConfig::paper_default()),
        execution: Execution::Exact,
        seed: 11,
        eval_every: 100,
        eval_examples: 8,
        init_scale: 0.1,
    };
    let model = QnnModel::mnist2();
    let n = model.num_params() as u64;
    let backend = NoiselessBackend::new();
    let result = train(&model, &backend, &toy_data(16), &toy_data(8), &config);
    qoc_telemetry::flush();

    // Every trace line parses and satisfies the pinned schema — including
    // the structured grad.health / prune.efficacy payloads, which
    // check_trace_record validates field-by-field.
    let records = parse_lines(&trace_path);
    assert!(!records.is_empty(), "trace is empty");
    for record in &records {
        qoc_telemetry::schema::check_trace_record(record)
            .unwrap_or_else(|e| panic!("schema violation ({e}) in {record:?}"));
    }

    // The instrumented layers all show up.
    let span_names: Vec<&str> = records
        .iter()
        .filter_map(|r| r.get("span").and_then(Value::as_str))
        .collect();
    for expected in [
        "train.run",
        "train.step",
        "prune.window",
        "prune.select",
        "grad.minibatch",
        "device.batch",
        "eval.dataset",
        "train.eval",
        "grad.health",
        "prune.efficacy",
    ] {
        assert!(
            span_names.contains(&expected),
            "no {expected:?} record in trace"
        );
    }

    // Per-step circuit-run deltas follow the parameter-shift cost model and
    // reproduce the paper's savings ratio exactly.
    let step_events: Vec<&Value> = records
        .iter()
        .filter(|r| {
            r.get("span").and_then(Value::as_str) == Some("train.step")
                && r.get("kind").and_then(Value::as_str) == Some("event")
        })
        .collect();
    assert_eq!(step_events.len(), steps, "one train.step event per step");

    let mut shift_runs = 0u64;
    for event in &step_events {
        let evaluated = field_u64(event, "evaluated_params");
        let runs_delta = field_u64(event, "runs_delta");
        // batch forwards + batch·2·evaluated shifted runs.
        assert_eq!(runs_delta, batch * (1 + 2 * evaluated));
        shift_runs += batch * 2 * evaluated;
    }
    let full_shift_runs = steps as u64 * batch * 2 * n;
    // savings = r·w_p/(w_a+w_p) = 0.5·2/3 = 1/3, exactly: 9 steps evaluate
    // [8,4,4]×3 of the 8 parameters.
    assert_eq!(
        3 * (full_shift_runs - shift_runs),
        full_shift_runs,
        "shift-run savings is not exactly 1/3: {shift_runs} of {full_shift_runs}"
    );

    // Gradient-health diagnostics: one grad.health event per evaluated
    // parameter per step — 8+4+4 per stage, three stages.
    let health_events: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("span").and_then(Value::as_str) == Some("grad.health"))
        .collect();
    assert_eq!(health_events.len(), 48, "(8+4+4)×3 grad.health events");
    for event in &health_events {
        // Exact execution: σ̂ is zero, so SNR is the documented cap (or 0
        // for a zero gradient) — never Infinity, which JSON can't encode.
        let sigma = event
            .get("fields")
            .and_then(|f| f.get("sigma"))
            .and_then(Value::as_f64)
            .expect("sigma field");
        assert_eq!(sigma, 0.0, "exact execution has no shot noise");
        let snr = event
            .get("fields")
            .and_then(|f| f.get("snr"))
            .and_then(Value::as_f64)
            .expect("snr field");
        assert!(snr.is_finite(), "SNR must stay finite: {snr}");
    }

    // Pruning efficacy: one event per completed window, each reporting the
    // stage's run savings as exactly the paper ratio 1/3.
    let efficacy_events: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("span").and_then(Value::as_str) == Some("prune.efficacy"))
        .collect();
    assert_eq!(efficacy_events.len(), 3, "one prune.efficacy per stage");
    for (k, event) in efficacy_events.iter().enumerate() {
        assert_eq!(field_u64(event, "window"), k as u64);
        assert_eq!(field_u64(event, "stage_steps"), 3);
        assert_eq!(field_u64(event, "kept"), 2 * 4, "two pruned steps × 4 kept");
        // Each pruned step froze 4 of 8 params: 2·batch·4 = 32 runs, twice.
        assert_eq!(field_u64(event, "saved_runs"), 64);
        let measured = event
            .get("fields")
            .and_then(|f| f.get("measured_savings"))
            .and_then(Value::as_f64)
            .expect("measured_savings field");
        assert!(
            (measured - 1.0 / 3.0).abs() < 1e-12,
            "window {k} measured savings {measured} is not exactly 1/3"
        );
        let recall = event
            .get("fields")
            .and_then(|f| f.get("recall"))
            .and_then(Value::as_f64)
            .expect("recall field");
        assert!((0.0..=1.0).contains(&recall));
    }

    // Step/eval records persisted as JSONL next to the trace.
    let step_records = parse_lines(&trace_path.with_extension("steps.jsonl"));
    assert_eq!(step_records.len(), steps);
    for (k, record) in step_records.iter().enumerate() {
        assert_eq!(record.get("step").and_then(Value::as_u64), Some(k as u64));
        assert!(record.get("loss").and_then(Value::as_f64).is_some());
    }
    let eval_records = parse_lines(&trace_path.with_extension("evals.jsonl"));
    assert_eq!(eval_records.len(), result.evals.len());

    // Manifest ties config, environment, and metrics together with nonzero
    // circuit-run counters.
    let manifest_text = std::fs::read_to_string(trace_path.with_extension("manifest.json"))
        .expect("manifest written next to trace");
    let manifest = serde_json::from_str(&manifest_text).expect("manifest parses");
    assert_eq!(
        manifest
            .get("config")
            .and_then(|c| c.get("steps"))
            .and_then(Value::as_u64),
        Some(steps as u64)
    );
    assert_eq!(
        manifest
            .get("execution_stats")
            .and_then(|s| s.get("circuits_run"))
            .and_then(Value::as_u64),
        Some(result.total_inferences)
    );
    let counters = manifest
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("manifest metrics.counters");
    assert_eq!(
        counters.get("qoc.train.steps").and_then(Value::as_u64),
        Some(steps as u64)
    );
    let step_runs: u64 = step_events.iter().map(|e| field_u64(e, "runs_delta")).sum();
    assert_eq!(
        counters
            .get("qoc.train.circuit_runs")
            .and_then(Value::as_u64),
        Some(step_runs)
    );
    let device_runs = counters
        .get("qoc.device.circuits_run")
        .and_then(Value::as_u64)
        .expect("device circuit counter");
    assert!(device_runs >= result.total_inferences);

    let _ = std::fs::remove_dir_all(&dir);
}
