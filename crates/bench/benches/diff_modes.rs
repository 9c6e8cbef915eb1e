//! Differentiation-mode cost on the paper's MNIST-2 ansatz: the same exact
//! Jacobian computed two ways — naive 2P shifted replay and adjoint-mode
//! differentiation.
//!
//! Run with `cargo bench -p qoc-bench --bench diff_modes`. The table is
//! dumped to `BENCH_adjoint.json`; `bench_smoke` gates the adjoint row
//! against it, and the committed artifact is the evidence that the adjoint
//! mode actually beats the shifted-job path.

use criterion::{criterion_group, criterion_main, Criterion};

use qoc_core::shift::ParameterShiftEngine;
use qoc_device::backend::{DiffMode, Execution, NoiselessBackend};
use qoc_nn::model::QnnModel;

const MODES: [(&str, DiffMode); 2] = [
    ("shifted2p", DiffMode::Shifted2P),
    ("adjoint", DiffMode::Adjoint),
];

fn bench_modes(c: &mut Criterion) {
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    for (name, mode) in MODES {
        let engine = ParameterShiftEngine::new(
            &backend,
            model.circuit(),
            model.num_params(),
            Execution::Exact,
        )
        .with_diff_mode(mode);
        c.bench_function(format!("diff/{name}_mnist2").as_str(), |b| {
            b.iter(|| std::hint::black_box(engine.jacobian(&theta, 2)))
        });
    }
}

/// Same sweep on the deeper 36-parameter MNIST-4 ansatz, where the adjoint
/// advantage compounds (2P cost grows with the parameter count, adjoint
/// stays at ~2 sweeps regardless).
fn bench_modes_mnist4(c: &mut Criterion) {
    let model = QnnModel::mnist4();
    let backend = NoiselessBackend::new();
    let theta = model.symbol_vector(
        &vec![0.2; model.num_params()],
        &vec![0.7; model.input_dim()],
    );
    for (name, mode) in MODES {
        let engine = ParameterShiftEngine::new(
            &backend,
            model.circuit(),
            model.num_params(),
            Execution::Exact,
        )
        .with_diff_mode(mode);
        c.bench_function(format!("diff/{name}_mnist4").as_str(), |b| {
            b.iter(|| std::hint::black_box(engine.jacobian(&theta, 2)))
        });
    }
}

fn dump_artifact(c: &mut Criterion) {
    let timings = c
        .take_results()
        .iter()
        .map(|r| qoc_bench::suite::timing_row(&r.id, r.median_ns, r.mean_ns, r.min_ns, r.samples))
        .collect::<Vec<_>>();
    qoc_bench::suite::write_bench_artifact("BENCH_adjoint.json", timings, Vec::new());
}

criterion_group!(benches, bench_modes, bench_modes_mnist4, dump_artifact);
criterion_main!(benches);
