//! Quick perf-regression gate over the committed bench artifacts:
//!
//! - `BENCH_param_shift.json` — re-measures the serial (1-worker) batched
//!   Jacobian on the emulated ibmq_santiago (the
//!   `shift/jacobian_batched_santiago/1workers` row), and the sampled
//!   Jacobian of the 36-parameter MNIST-4 QNN on the noiseless backend at
//!   1024 shots (the `shift/jacobian_sampled/mnist4_36p_1024shots` row),
//!   guarding the forked Jacobian Classical-Train runs.
//! - `BENCH_gate_kernels.json` — re-measures one fused-kernel state
//!   preparation of the 4-qubit MNIST-2 ansatz (the `kernels/qnn4_fused`
//!   row), guarding the specialized-kernel/fusion hot path, and 1024 shots
//!   of the MNIST-4 read-out through the shot sampler's conditional
//!   binomials (the `sim/sample_counts/16bins_1024shots` row).
//! - `BENCH_density.json` — re-measures one full-step example gradient of
//!   MNIST-4 on the emulated ibmq_jakarta at 1024 shots (the
//!   `density/jacobian/mnist4_jakarta` row), guarding the forked noisy
//!   Jacobian the fake device answers the shift planner's hook with.
//! - `BENCH_shot_alloc.json` — checks the committed shot-allocation
//!   frontier (the `shot_alloc/mnist2_frontier` row): the controller must
//!   have reached baseline accuracy with ≥ 25% fewer executed shots. This
//!   gate is static (the fresh re-measurement lives in the `ci.sh
//!   shot-alloc` stage, which re-trains); it guards the *committed* claim
//!   against a stale or hand-edited artifact.
//!
//! Each gate fails if the fresh timing regresses more than the tolerance
//! against the committed baseline. Both sides compare their *minimum*
//! sample: on shared/single-CPU runners medians swing ±25% with scheduler
//! noise, while the minimum is a stable lower bound on the true cost.
//!
//! Usage: `bench_smoke [PARAM_SHIFT_JSON [GATE_KERNELS_JSON [SHOT_ALLOC_JSON [DENSITY_JSON]]]]`
//! (defaults to the repo-root artifacts; `GATE_KERNELS_JSON` holds both the
//! fused and the sampler row). The tolerance is 0.25 (25 %). Exit codes: **0** within
//! tolerance, **1** regression or malformed baseline, **2** baseline
//! missing. Debug builds skip the gates — criterion baselines are measured
//! with optimizations on, so unoptimized timings are not comparable.
//!
//! Every run — pass or fail — ends with a consolidated summary table, one
//! line per gated artifact: committed median and min, the fresh minimum,
//! the delta, and the gate status.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::Value;

use qoc_core::grad::QnnGradientComputer;
use qoc_core::shift::ParameterShiftEngine;
use qoc_device::backend::{Execution, FakeDevice, NoiselessBackend};
use qoc_device::backends::{fake_jakarta, fake_santiago};
use qoc_nn::model::QnnModel;
use qoc_sim::fusion::FusedProgram;
use qoc_sim::statevector::{sample_counts, Statevector};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One regression gate: artifact path, row label, refresh command, and the
/// re-measurement to compare against the committed `min_ns`.
type Gate<'a> = (&'a PathBuf, &'a str, &'a str, fn() -> f64);

/// Allowed fractional slowdown before a gate fails.
const TOLERANCE: f64 = 0.25;
/// Timed repetitions (minimum taken) after the warmup.
const REPS: usize = 12;
const WARMUP: usize = 2;

/// Pulls the value named `key` (`min_ns`, `median_ns`, …) for `label` out
/// of a bench artifact.
fn baseline_value(text: &str, label: &str, key: &str) -> Result<f64, String> {
    let root =
        serde_json::from_str(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let rows = root
        .as_array()
        .ok_or("baseline is not a JSON array of measurements")?;
    for row in rows {
        if row.get("label").and_then(Value::as_str) != Some(label) {
            continue;
        }
        let values = row
            .get("values")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("row {label} has no values array"))?;
        for pair in values {
            let pair = pair
                .as_array()
                .ok_or_else(|| format!("row {label} has a non-pair value"))?;
            if pair.first().and_then(Value::as_str) == Some(key) {
                return pair
                    .get(1)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("row {label} {key} is not a number"));
            }
        }
        return Err(format!("row {label} has no {key}"));
    }
    Err(format!("baseline has no row labelled {label}"))
}

/// One line of the consolidated summary table — the outcome of one
/// artifact's gate, kept even when the gate fails so the table can still be
/// printed before exiting.
struct GateRow {
    /// Artifact file name (`BENCH_param_shift.json`).
    artifact: String,
    /// Gated row label inside the artifact.
    label: String,
    /// Committed `median_ns`, when the artifact parses.
    baseline_median: Option<f64>,
    /// Committed `min_ns`, when the artifact parses.
    baseline_min: Option<f64>,
    /// Fresh re-measured minimum, when the baseline existed.
    current_min: Option<f64>,
    /// `ok`, `REGRESSED`, `missing`, or `malformed`.
    status: &'static str,
    /// Exit-code severity contributed by this gate (0 / 1 / 2).
    code: u8,
}

/// Re-runs the serial-Jacobian workload and returns the minimum wall time
/// in ns.
fn measure_jacobian_min_ns() -> f64 {
    let model = QnnModel::mnist2();
    let device = FakeDevice::new(fake_santiago());
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    let engine = ParameterShiftEngine::new(
        &device,
        model.circuit(),
        model.num_params(),
        Execution::Shots(1024),
    )
    .with_workers(1);
    for _ in 0..WARMUP {
        std::hint::black_box(engine.jacobian(&theta, 4));
    }
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(engine.jacobian(&theta, 4));
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Re-runs one example's full-step gradient of MNIST-4 on fake jakarta at
/// 1024 shots (73 circuits) and returns the minimum wall time in ns.
fn measure_example_jacobian_min_ns() -> f64 {
    let model = QnnModel::mnist4();
    let device = FakeDevice::new(fake_jakarta());
    let computer =
        QnnGradientComputer::new(&model, &device, Execution::Shots(1024)).with_workers(1);
    let params = vec![0.2; model.num_params()];
    let input = vec![0.7; model.input_dim()];
    let example: [(&[f64], usize); 1] = [(&input, 0)];
    for _ in 0..WARMUP {
        std::hint::black_box(computer.batch_gradient(&params, &example, None, 5));
    }
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(computer.batch_gradient(&params, &example, None, 5));
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Re-runs one fused-program state preparation of the MNIST-2 ansatz
/// (per-iteration cost ~1 µs, so each rep averages an inner loop) and
/// returns the minimum per-run wall time in ns.
fn measure_fused_min_ns() -> f64 {
    const INNER: usize = 10_000;
    let model = QnnModel::mnist2();
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    let program = FusedProgram::compile(model.circuit());
    let mut sv = Statevector::zero_state(model.circuit().num_qubits());
    for _ in 0..WARMUP * INNER {
        program.run_into(&theta, &mut sv);
        std::hint::black_box(sv.amplitudes()[0]);
    }
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..INNER {
                program.run_into(&theta, &mut sv);
                std::hint::black_box(sv.amplitudes()[0]);
            }
            start.elapsed().as_nanos() as f64 / INNER as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Re-draws 1024 shots of the MNIST-4 read-out through the shot sampler
/// (per-call cost a few µs, so each rep averages an inner loop) and returns
/// the minimum per-call wall time in ns.
fn measure_sample_counts_min_ns() -> f64 {
    const INNER: usize = 2_000;
    let probs = qoc_bench::suite::mnist4_readout();
    let mut std_rng = StdRng::seed_from_u64(7);
    let rng: &mut dyn RngCore = &mut std_rng;
    for _ in 0..WARMUP * INNER {
        std::hint::black_box(sample_counts(&probs, 1024, rng));
    }
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..INNER {
                std::hint::black_box(sample_counts(&probs, 1024, rng));
            }
            start.elapsed().as_nanos() as f64 / INNER as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Re-runs the sampled Jacobian of the MNIST-4 QNN on the noiseless
/// backend at 1024 shots (72 forked circuits) and returns the minimum wall
/// time in ns.
fn measure_sampled_jacobian_min_ns() -> f64 {
    let model = QnnModel::mnist4();
    let backend = NoiselessBackend::new();
    let theta = model.symbol_vector(
        &vec![0.2; model.num_params()],
        &vec![0.7; model.input_dim()],
    );
    let engine = ParameterShiftEngine::new(
        &backend,
        model.circuit(),
        model.num_params(),
        Execution::Shots(1024),
    )
    .with_workers(1);
    for _ in 0..WARMUP {
        std::hint::black_box(engine.jacobian(&theta, 5));
    }
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(engine.jacobian(&theta, 5));
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Re-measures the disabled-span fast path with the sampling profiler off
/// (the `telemetry/span_disabled_profiler_off` row): one relaxed load per
/// span, a few ns, so each rep averages a large inner loop.
fn measure_disabled_span_profiler_off_min_ns() -> f64 {
    const INNER: usize = 2_000_000;
    assert!(
        !qoc_telemetry::enabled(),
        "telemetry must be disabled for the overhead gate (unset QOC_LOG/QOC_TRACE_FILE)"
    );
    assert!(
        !qoc_telemetry::profiler::active(),
        "profiler must be off for the overhead gate (unset QOC_PROFILE_HZ)"
    );
    for _ in 0..WARMUP * INNER {
        let span = qoc_telemetry::span!("bench.noop", jobs = 17usize,);
        std::hint::black_box(span);
    }
    (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..INNER {
                let span = qoc_telemetry::span!("bench.noop", jobs = 17usize,);
                std::hint::black_box(span);
            }
            start.elapsed().as_nanos() as f64 / INNER as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Fractional shot reduction the committed shot-allocation frontier must
/// claim (mirrors the fresh gate in `shot_frontier --ci`).
const SHOT_ALLOC_MIN_REDUCTION: f64 = 0.25;

/// Static gate over the committed `BENCH_shot_alloc.json`: the
/// `shot_alloc/mnist2_frontier` row must record ≥ 25% shot reduction at no
/// accuracy loss. No re-measurement here — `ci.sh shot-alloc` re-trains.
fn check_shot_alloc_gate(path: &PathBuf) -> GateRow {
    let artifact = path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    let label = "shot_alloc/mnist2_frontier";
    let mut row = GateRow {
        artifact,
        label: label.to_string(),
        baseline_median: None,
        baseline_min: None,
        current_min: None,
        status: "ok",
        code: 0,
    };
    let refresh_hint = "cargo run --release -p qoc-bench --bin shot_frontier";
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!(
                "bench_smoke: baseline {} does not exist (run `{refresh_hint}` to create it)",
                path.display()
            );
            row.status = "missing";
            row.code = 2;
            return row;
        }
        Err(e) => {
            eprintln!("bench_smoke: cannot read {}: {e}", path.display());
            row.status = "malformed";
            row.code = 1;
            return row;
        }
    };
    let (reduction, delta) = match (
        baseline_value(&text, label, "reduction"),
        baseline_value(&text, label, "accuracy_delta"),
    ) {
        (Ok(r), Ok(d)) => (r, d),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("bench_smoke: {msg}");
            row.status = "malformed";
            row.code = 1;
            return row;
        }
    };
    println!(
        "bench_smoke: {label}: committed reduction {:.1}% (gate ≥ {:.0}%), accuracy delta {:+.3} (gate ≥ 0)",
        reduction * 100.0,
        SHOT_ALLOC_MIN_REDUCTION * 100.0,
        delta,
    );
    if reduction < SHOT_ALLOC_MIN_REDUCTION || delta < 0.0 {
        eprintln!(
            "bench_smoke: {label} no longer clears the frontier gate; refresh with `{refresh_hint}`"
        );
        row.status = "REGRESSED";
        row.code = 1;
    }
    row
}

/// One regression gate: committed `min_ns` for `label` in the artifact at
/// `path` vs a fresh re-measurement. Always returns a row for the summary
/// table; the row's `code` carries the gate's exit-code severity.
fn check_gate(
    path: &PathBuf,
    label: &str,
    tolerance: f64,
    refresh_hint: &str,
    measure: fn() -> f64,
) -> GateRow {
    let artifact = path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    let mut row = GateRow {
        artifact,
        label: label.to_string(),
        baseline_median: None,
        baseline_min: None,
        current_min: None,
        status: "ok",
        code: 0,
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!(
                "bench_smoke: baseline {} does not exist (run `{refresh_hint}` to create it)",
                path.display()
            );
            row.status = "missing";
            row.code = 2;
            return row;
        }
        Err(e) => {
            eprintln!("bench_smoke: cannot read {}: {e}", path.display());
            row.status = "malformed";
            row.code = 1;
            return row;
        }
    };
    row.baseline_median = baseline_value(&text, label, "median_ns").ok();
    let baseline = match baseline_value(&text, label, "min_ns") {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("bench_smoke: {msg}");
            row.status = "malformed";
            row.code = 1;
            return row;
        }
    };
    row.baseline_min = Some(baseline);
    let current = measure();
    row.current_min = Some(current);
    let ratio = current / baseline;
    println!(
        "bench_smoke: {label}: baseline min {:.3} ms, current min {:.3} ms ({:+.1}%), tolerance +{:.0}%",
        baseline / 1e6,
        current / 1e6,
        (ratio - 1.0) * 100.0,
        tolerance * 100.0,
    );
    if current > baseline * (1.0 + tolerance) {
        eprintln!(
            "bench_smoke: {label} regressed {:.1}% (> {:.0}% tolerance); if intentional, \
             refresh the baseline with `{refresh_hint}`",
            (ratio - 1.0) * 100.0,
            tolerance * 100.0,
        );
        row.status = "REGRESSED";
        row.code = 1;
    }
    row
}

/// Renders the consolidated one-line-per-artifact summary (committed median
/// and min vs the fresh minimum) — printed even when a gate failed, so a CI
/// log always ends with the full picture.
fn summary_table(rows: &[GateRow]) -> String {
    let ms = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |ns| format!("{:.3}", ns / 1e6));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let delta = match (r.baseline_min, r.current_min) {
                (Some(b), Some(c)) if b > 0.0 => format!("{:+.1}%", (c / b - 1.0) * 100.0),
                _ => "-".to_string(),
            };
            vec![
                r.artifact.clone(),
                r.label.clone(),
                ms(r.baseline_median),
                ms(r.baseline_min),
                ms(r.current_min),
                delta,
                r.status.to_string(),
            ]
        })
        .collect();
    qoc_bench::format_table(
        &[
            "artifact",
            "label",
            "base median (ms)",
            "base min (ms)",
            "current min (ms)",
            "delta",
            "status",
        ],
        &table,
    )
}

fn main() -> ExitCode {
    qoc_bench::init();
    let shift_path: PathBuf = std::env::args().nth(1).map_or_else(
        || qoc_bench::suite::artifact_path("BENCH_param_shift.json"),
        PathBuf::from,
    );
    let kernels_path: PathBuf = std::env::args().nth(2).map_or_else(
        || qoc_bench::suite::artifact_path("BENCH_gate_kernels.json"),
        PathBuf::from,
    );
    let shot_alloc_path: PathBuf = std::env::args().nth(3).map_or_else(
        || qoc_bench::suite::artifact_path("BENCH_shot_alloc.json"),
        PathBuf::from,
    );
    let density_path: PathBuf = std::env::args().nth(4).map_or_else(
        || qoc_bench::suite::artifact_path("BENCH_density.json"),
        PathBuf::from,
    );
    if cfg!(debug_assertions) {
        println!(
            "bench_smoke: skipped — debug build; baselines are measured with \
             optimizations (run via `cargo run --release -p qoc-bench --bin bench_smoke`)"
        );
        return ExitCode::SUCCESS;
    }
    let gates: [Gate; 5] = [
        (
            &shift_path,
            "shift/jacobian_batched_santiago/1workers",
            "cargo bench -p qoc-bench --bench param_shift",
            measure_jacobian_min_ns,
        ),
        (
            &shift_path,
            "shift/jacobian_sampled/mnist4_36p_1024shots",
            "cargo bench -p qoc-bench --bench param_shift",
            measure_sampled_jacobian_min_ns,
        ),
        (
            &kernels_path,
            "kernels/qnn4_fused",
            "cargo bench -p qoc-bench --bench gate_kernels",
            measure_fused_min_ns,
        ),
        (
            &kernels_path,
            "sim/sample_counts/16bins_1024shots",
            "cargo bench -p qoc-bench --bench gate_kernels",
            measure_sample_counts_min_ns,
        ),
        (
            &density_path,
            "density/jacobian/mnist4_jakarta",
            "cargo bench -p qoc-bench --bench density",
            measure_example_jacobian_min_ns,
        ),
    ];
    let mut rows: Vec<GateRow> = gates
        .into_iter()
        .map(|(path, label, hint, measure)| check_gate(path, label, TOLERANCE, hint, measure))
        .collect();
    // The disabled-span row measures single nanoseconds, where scheduler
    // jitter on a shared runner dwarfs the 25% default band — gate it at a
    // 2× ceiling instead (a profiler hook that left more than a relaxed
    // load behind shows up as 5-10×, well past either band).
    rows.push(check_gate(
        &shift_path,
        "telemetry/span_disabled_profiler_off",
        TOLERANCE.max(1.0),
        "cargo bench -p qoc-bench --bench param_shift",
        measure_disabled_span_profiler_off_min_ns,
    ));
    rows.push(check_shot_alloc_gate(&shot_alloc_path));
    println!();
    print!("{}", summary_table(&rows));
    match rows.iter().map(|r| r.code).max().unwrap_or(0) {
        0 => ExitCode::SUCCESS,
        code => ExitCode::from(code),
    }
}
