//! Parameter-shift engine cost: forward values, full Jacobians of the
//! paper's QNN models, and — the headline of the batched execution layer —
//! serial vs multi-worker Jacobian wall-clock on the noisy device emulator.
//!
//! Run with `cargo bench -p qoc-bench --bench param_shift`. Besides the
//! stdout table, the serial-vs-batched sweep is dumped to
//! `BENCH_param_shift.json` so the perf trajectory is tracked across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qoc_core::shift::ParameterShiftEngine;
use qoc_device::backend::{Execution, FakeDevice, NoiselessBackend};
use qoc_device::backends::fake_santiago;
use qoc_nn::model::QnnModel;

fn bench_forward(c: &mut Criterion) {
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let engine = ParameterShiftEngine::new(
        &backend,
        model.circuit(),
        model.num_params(),
        Execution::Exact,
    );
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    c.bench_function("shift/forward_mnist2", |b| {
        b.iter(|| std::hint::black_box(engine.value(&theta, 1)))
    });
}

fn bench_jacobian(c: &mut Criterion) {
    let mut group = c.benchmark_group("shift/jacobian");
    for (name, model) in [
        ("mnist2_8p", QnnModel::mnist2()),
        ("vowel4_16p", QnnModel::vowel4()),
        ("mnist4_36p", QnnModel::mnist4()),
    ] {
        let backend = NoiselessBackend::new();
        let engine = ParameterShiftEngine::new(
            &backend,
            model.circuit(),
            model.num_params(),
            Execution::Exact,
        )
        .with_workers(1);
        let theta = model.symbol_vector(
            &vec![0.2; model.num_params()],
            &vec![0.7; model.input_dim()],
        );
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(engine.jacobian(&theta, 2)))
        });
    }
    group.finish();
}

fn bench_sampled_forward(c: &mut Criterion) {
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let engine = ParameterShiftEngine::new(
        &backend,
        model.circuit(),
        model.num_params(),
        Execution::Shots(1024),
    );
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    c.bench_function("shift/forward_mnist2_1024shots", |b| {
        b.iter(|| std::hint::black_box(engine.value(&theta, 3)))
    });
}

/// Serial vs batched Jacobian on the noisy device emulator: the paper's
/// 4-qubit MNIST-2 ansatz on fake ibmq_santiago at 1024 shots — 17 jobs of
/// density-matrix simulation per Jacobian, the workload `run_batch` fans
/// over worker threads. The 1-worker row is the serial baseline; results
/// are bit-identical at every worker count. Speedup tracks the host's core
/// count: on a single-CPU runner the sweep is flat (all rows share one
/// core), which the JSON artifact records alongside the timings.
fn bench_batched_jacobian(c: &mut Criterion) {
    let model = QnnModel::mnist2();
    let device = FakeDevice::new(fake_santiago());
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    let mut group = c.benchmark_group("shift/jacobian_batched_santiago");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let engine = ParameterShiftEngine::new(
            &device,
            model.circuit(),
            model.num_params(),
            Execution::Shots(1024),
        )
        .with_workers(workers);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{workers}workers")),
            &workers,
            |b, _| b.iter(|| std::hint::black_box(engine.jacobian(&theta, 4))),
        );
    }
    group.finish();
}

/// Overhead of a span at a disabled telemetry site: one relaxed atomic load
/// and no allocation. This must stay in the few-nanosecond range — it is the
/// price every instrumented hot path pays in ordinary (untraced) runs.
///
/// The `flight_off` row pins the same invariant for the flight recorder:
/// with `QOC_FLIGHT_RECORDER` unset the recorder is never constructed, so
/// the disabled-span cost is *identical* whether or not the ring-buffer
/// subsystem exists in the binary — no extra branch, no registration.
fn bench_disabled_span(c: &mut Criterion) {
    assert!(
        !qoc_telemetry::enabled(),
        "telemetry must be disabled for the overhead bench (unset QOC_LOG/QOC_TRACE_FILE)"
    );
    c.bench_function("telemetry/span_disabled", |b| {
        b.iter(|| {
            let span = qoc_telemetry::span!("bench.noop", jobs = 17usize,);
            std::hint::black_box(span)
        })
    });
    assert!(
        qoc_telemetry::flight_recorder().is_none(),
        "flight recorder must be off for the overhead bench (unset QOC_FLIGHT_RECORDER)"
    );
    c.bench_function("telemetry/span_disabled_flight_off", |b| {
        b.iter(|| {
            let span = qoc_telemetry::span!("bench.noop", jobs = 17usize,);
            std::hint::black_box(span)
        })
    });
    // Same invariant for the sampling profiler: with QOC_PROFILE_HZ unset
    // no sampler thread exists and no slot is registered, so the disabled
    // span stays one relaxed load — the profiler must be free until asked
    // for.
    assert!(
        !qoc_telemetry::profiler::active(),
        "profiler must be off for the overhead bench (unset QOC_PROFILE_HZ)"
    );
    c.bench_function("telemetry/span_disabled_profiler_off", |b| {
        b.iter(|| {
            let span = qoc_telemetry::span!("bench.noop", jobs = 17usize,);
            std::hint::black_box(span)
        })
    });
}

/// Per-worker utilization and queue-wait percentiles for the batched
/// Jacobian, measured through the telemetry registry itself: force-enable
/// dispatch, reset the global metrics, run a fixed number of Jacobians, and
/// read the `qoc.device.*` histograms back. Utilization is the fraction of
/// `workers × wall` actually spent inside jobs. Must run after the
/// criterion benches (it enables telemetry for the rest of the process).
fn worker_telemetry_rows() -> Vec<qoc_bench::suite::Measurement> {
    use qoc_telemetry::metrics::Registry;

    let model = QnnModel::mnist2();
    let device = FakeDevice::new(fake_santiago());
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    qoc_telemetry::force_enable();
    let mut rows = Vec::new();
    const REPS: usize = 5;
    for workers in [1usize, 2, 4, 8] {
        let engine = ParameterShiftEngine::new(
            &device,
            model.circuit(),
            model.num_params(),
            Execution::Shots(1024),
        )
        .with_workers(workers);
        let registry = Registry::global();
        registry.reset();
        let start = std::time::Instant::now();
        for rep in 0..REPS {
            std::hint::black_box(engine.jacobian(&theta, rep as u64));
        }
        let wall_ns = start.elapsed().as_nanos() as f64;
        let snap = registry.snapshot();
        let queue = snap.histogram("qoc.device.queue_wait_ns");
        let busy = snap.histogram("qoc.device.worker_busy_ns");
        let busy_ns: f64 = busy.map_or(0.0, |h| h.sum as f64);
        rows.push(qoc_bench::suite::Measurement {
            label: format!("telemetry/batched_santiago/{workers}workers"),
            values: vec![
                ("jobs".into(), queue.map_or(0.0, |h| h.count as f64)),
                (
                    "queue_wait_p50_ns".into(),
                    queue.map_or(0.0, |h| h.quantile(0.5) as f64),
                ),
                (
                    "queue_wait_p90_ns".into(),
                    queue.map_or(0.0, |h| h.quantile(0.9) as f64),
                ),
                (
                    "queue_wait_p99_ns".into(),
                    queue.map_or(0.0, |h| h.quantile(0.99) as f64),
                ),
                (
                    "worker_utilization".into(),
                    busy_ns / (wall_ns * workers as f64),
                ),
                ("wall_ns".into(), wall_ns / REPS as f64),
            ],
        });
    }
    rows
}

fn dump_artifact(c: &mut Criterion) {
    let timings = c
        .take_results()
        .iter()
        .map(|r| qoc_bench::suite::timing_row(&r.id, r.median_ns, r.mean_ns, r.min_ns, r.samples))
        .collect::<Vec<_>>();
    qoc_bench::suite::write_bench_artifact(
        "BENCH_param_shift.json",
        timings,
        worker_telemetry_rows(),
    );
}

criterion_group!(
    benches,
    bench_forward,
    bench_jacobian,
    bench_sampled_forward,
    bench_batched_jacobian,
    bench_disabled_span,
    dump_artifact
);
criterion_main!(benches);
