//! Parameter-shift engine cost: forward values, exact and sampled Jacobians
//! of the paper's QNN models on the noiseless backend, and the Jacobian on
//! the noisy device emulator.
//!
//! Run with `cargo bench -p qoc-bench --bench param_shift`. Besides the
//! stdout table, every row is dumped to `BENCH_param_shift.json` so the
//! perf trajectory is tracked across PRs.

use criterion::{criterion_group, criterion_main, Criterion};

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

/// Exact Jacobians on the noiseless backend, which answers the engine's
/// Jacobian hook by forking every shifted state from one binding of `θ`.
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

/// Sampled Jacobian on the noiseless backend: the paper's 36-parameter
/// MNIST-4 QNN at 1024 shots, 72 shifted circuits per Jacobian, as
/// Classical-Train's noiseless sampled gradients run them. The backend
/// answers the engine's Jacobian hook by forking every shifted state from
/// one binding of `θ` and sampling it with its job's seed.
fn bench_sampled_jacobian(c: &mut Criterion) {
    let model = QnnModel::mnist4();
    let backend = NoiselessBackend::new();
    let engine = ParameterShiftEngine::new(
        &backend,
        model.circuit(),
        model.num_params(),
        Execution::Shots(1024),
    )
    .with_workers(1);
    let theta = model.symbol_vector(
        &vec![0.2; model.num_params()],
        &vec![0.7; model.input_dim()],
    );
    let mut group = c.benchmark_group("shift/jacobian_sampled");
    group.bench_function("mnist4_36p_1024shots", |b| {
        b.iter(|| std::hint::black_box(engine.jacobian(&theta, 5)))
    });
    group.finish();
}

/// Jacobian on the noisy device emulator: the paper's 4-qubit MNIST-2
/// ansatz on fake ibmq_santiago at 1024 shots, 16 shifted circuits per
/// Jacobian. The fake device answers the engine's Jacobian hook by forking
/// every shifted circuit from one forward evolution on the calling thread,
/// so the batch worker count does not change the work.
fn bench_batched_jacobian(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("shift/jacobian_batched_santiago");
    group.sample_size(10);
    group.bench_function("1workers", |b| {
        b.iter(|| std::hint::black_box(engine.jacobian(&theta, 4)))
    });
    group.finish();
}

/// Overhead of a span at a disabled telemetry site: one relaxed atomic load
/// and no allocation. This must stay in the few-nanosecond range — it is the
/// price every instrumented hot path pays in ordinary (untraced) runs.
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

/// Worker utilization and queue-wait percentiles for the shifted-job batch
/// of a Jacobian (what a backend that declines the Jacobian hook runs; the
/// fake device itself answers the hook on one thread), at one batch worker,
/// measured through the telemetry registry itself: force-enable dispatch,
/// reset the global metrics, run a fixed number of batches, and read the
/// `qoc.device.*` histograms back. Utilization is the fraction of the wall
/// time actually spent inside jobs. Must run after the criterion benches
/// (it enables telemetry for the rest of the process).
fn worker_telemetry_row() -> qoc_bench::suite::Measurement {
    use qoc_telemetry::metrics::Registry;

    const REPS: usize = 5;
    let model = QnnModel::mnist2();
    let device = FakeDevice::new(fake_santiago());
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    qoc_telemetry::force_enable();
    let engine = ParameterShiftEngine::new(
        &device,
        model.circuit(),
        model.num_params(),
        Execution::Shots(1024),
    )
    .with_workers(1);
    let registry = Registry::global();
    registry.reset();
    let start = std::time::Instant::now();
    for rep in 0..REPS {
        let (jobs, _) = engine.jacobian_jobs(&theta, None, rep as u64);
        std::hint::black_box(engine.run_batch(&jobs));
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let snap = registry.snapshot();
    let queue = snap.histogram("qoc.device.queue_wait_ns");
    let busy = snap.histogram("qoc.device.worker_busy_ns");
    let busy_ns: f64 = busy.map_or(0.0, |h| h.sum as f64);
    qoc_bench::suite::Measurement {
        label: "telemetry/batched_santiago/1workers".to_string(),
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
            ("worker_utilization".into(), busy_ns / wall_ns),
            ("wall_ns".into(), wall_ns / REPS as f64),
        ],
    }
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
        vec![worker_telemetry_row()],
    );
}

criterion_group!(
    benches,
    bench_forward,
    bench_jacobian,
    bench_sampled_forward,
    bench_sampled_jacobian,
    bench_batched_jacobian,
    bench_disabled_span,
    dump_artifact
);
criterion_main!(benches);
