//! End-to-end analyzer contract: a 9-step paper-default PGP training run on
//! a fake device (nonzero latency model) is traced to disk, then analyzed
//! offline. The analysis must reconcile per-batch `device_ns` deltas with
//! the manifest's `ExecutionStats` to the nanosecond, report the measured
//! run savings as exactly `r·w_p/(w_a+w_p)` = 1/3, and surface the PGP
//! recall curve — and the `qoc-analyze` binary must emit its three
//! artifacts and exit 0 on the same inputs.
//!
//! The trace file is configured through the environment, which the process
//! reads once on first telemetry use — so everything lives in a single test
//! function in its own integration-test binary.

use std::path::Path;

use serde::Value;

use qoc_bench::analyze::analyze_run;
use qoc_core::engine::{train, PruningKind, TrainConfig};
use qoc_core::optim::OptimizerKind;
use qoc_core::prune::PruneConfig;
use qoc_core::sched::LrSchedule;
use qoc_data::dataset::Dataset;
use qoc_device::backends::fake_santiago;
use qoc_device::{Execution, FakeDevice};
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

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn analyzer_reconciles_device_time_and_savings_on_a_pgp_run() {
    let dir = std::env::temp_dir().join(format!("qoc-analyze-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace_path = dir.join("trace.jsonl");
    // Must happen before the process's first telemetry use: the global
    // telemetry state reads the environment exactly once.
    std::env::set_var("QOC_TRACE_FILE", &trace_path);

    // Paper-default PGP (w_a = 1, w_p = 2, r = 0.5) over three full stages,
    // on a fake device so every batch accrues modeled device latency.
    let steps = 9usize;
    let config = TrainConfig {
        steps,
        batch_size: 4,
        optimizer: OptimizerKind::Adam,
        schedule: LrSchedule::Constant { lr: 0.2 },
        pruning: PruningKind::Probabilistic(PruneConfig::paper_default()),
        execution: Execution::Shots(256),
        shot_alloc: None,
        seed: 11,
        eval_every: 100,
        eval_examples: 8,
        init_scale: 0.1,
    };
    let model = QnnModel::mnist2();
    let backend = FakeDevice::new(fake_santiago());
    let result = train(&model, &backend, &toy_data(16), &toy_data(8), &config);
    assert!(result.total_inferences > 0);
    qoc_telemetry::flush();

    let analysis = analyze_run(
        &read(&trace_path),
        Some(&read(&trace_path.with_extension("steps.jsonl"))),
        Some(&read(&trace_path.with_extension("evals.jsonl"))),
        Some(&read(&trace_path.with_extension("manifest.json"))),
    )
    .expect("traced run analyzes cleanly");

    // A real span forest came out of the run.
    assert!(analysis.spans > 0, "no spans reconstructed");
    assert!(analysis.folded.iter().any(|l| l.contains("train.run")));
    assert_eq!(analysis.steps, steps);

    // Device-time exactness: every device.batch span carried its integer
    // device_ns delta, and the deltas telescope to the manifest's
    // ExecutionStats total — equal to the nanosecond, not approximately.
    assert!(analysis.device_deltas_complete, "a batch lost its delta");
    let manifest_ns = analysis.device_ns_manifest.expect("manifest device time");
    assert!(manifest_ns > 0, "fake device must accrue device time");
    assert_eq!(
        analysis.device_ns_spans, manifest_ns,
        "span deltas must reconcile with the manifest exactly"
    );
    // The phase split covers the whole budget: jacobian + eval (+ other).
    let phase_ns: u64 = analysis.phases.iter().map(|p| p.device_ns).sum();
    assert_eq!(phase_ns, manifest_ns);
    let jacobian = analysis
        .phases
        .iter()
        .find(|p| p.phase == "jacobian")
        .expect("jacobian phase row");
    assert!(jacobian.device_ns > 0 && jacobian.circuits > 0);
    assert!(
        !analysis.phases.iter().any(|p| p.phase == "other"),
        "every batch should sit under grad.minibatch or eval.dataset"
    );

    // Measured run savings equals the paper ratio r·w_p/(w_a+w_p) = 1/3:
    // 9 steps evaluate [8,4,4]×3 of the 8 parameters.
    let measured = analysis.measured_savings.expect("measured savings");
    let expected = analysis.expected_savings.expect("expected savings");
    assert!((expected - 1.0 / 3.0).abs() < 1e-12);
    assert!(
        (measured - 1.0 / 3.0).abs() < 1e-12,
        "measured savings {measured} is not exactly 1/3"
    );

    // The PGP recall curve: one completed window per stage, each spanning
    // one accumulation + two pruning steps, recall in [0, 1].
    assert_eq!(analysis.windows.len(), 3, "three completed PGP windows");
    for w in &analysis.windows {
        assert_eq!(w.stage_steps, 3);
        assert_eq!(w.kept, 2 * 4, "two pruned steps keeping 4 of 8 params");
        assert!((0.0..=1.0).contains(&w.recall));
        assert!(w.overlap as f64 <= w.kept as f64);
        assert!((w.measured_savings - 1.0 / 3.0).abs() < 1e-12);
        assert!((w.expected_savings - 1.0 / 3.0).abs() < 1e-12);
        // Each pruned step froze 4 of 8 params: 2·B·4 = 32 runs, twice.
        assert_eq!(w.saved_runs, 64);
    }

    // Gradient health: every parameter was observed, with finite SNR under
    // finite shots.
    assert_eq!(analysis.params.len(), 8);
    for p in &analysis.params {
        assert!(
            p.evals >= 3,
            "param {} evaluated in every full step",
            p.param
        );
        assert!(p.mean_snr.is_finite() && p.mean_snr > 0.0);
        assert_eq!(p.heat.len(), steps);
    }

    // Nothing trips the CI gates.
    assert_eq!(analysis.sanity_failures(0.05), Vec::<String>::new());

    // The CLI reproduces this and writes its three artifacts.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_qoc-analyze"))
        .arg(&trace_path)
        .arg("--quiet")
        .status()
        .expect("run qoc-analyze");
    assert!(status.success(), "qoc-analyze exited {status}");
    let folded = read(&trace_path.with_extension("folded"));
    assert!(folded.lines().count() > 0);
    let md = read(&trace_path.with_extension("analysis.md"));
    assert!(md.contains("## Phase times"));
    assert!(md.contains("## PGP efficacy per window"));
    let json: Value = serde_json::from_str(&read(&trace_path.with_extension("analysis.json")))
        .expect("analysis JSON parses");
    assert_eq!(
        json.get("device_ns_manifest").and_then(Value::as_u64),
        Some(manifest_ns)
    );
    let json_measured = json
        .get("measured_savings")
        .and_then(Value::as_f64)
        .expect("measured_savings in JSON");
    assert!((json_measured - 1.0 / 3.0).abs() < 1e-12);

    let _ = std::fs::remove_dir_all(&dir);
}
