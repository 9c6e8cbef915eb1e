//! Noisy density-matrix simulation cost — the dominant expense of every
//! emulated device execution (and hence of on-chip training experiments).
//!
//! Rows: one thermal-relaxation channel on a 4-qubit state, a 2-qubit
//! Kraus channel at 2/4/6 qubits, one compiled 1024-shot device run of the
//! MNIST-2 (santiago) and MNIST-4 (jakarta) circuits, and one full-step
//! example gradient of MNIST-4 on jakarta (73 circuits, the shifted ones
//! forked from one forward evolution by the device's Jacobian hook). Writes
//! `BENCH_density.json` at the repository root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qoc_core::grad::QnnGradientComputer;
use qoc_device::backend::{CircuitJob, Execution, FakeDevice, QuantumBackend};
use qoc_device::backends::{fake_jakarta, fake_santiago};
use qoc_nn::model::QnnModel;
use qoc_noise::channels::{depolarizing_2q, thermal_relaxation};
use qoc_noise::density::DensityMatrix;
use qoc_sim::gates::GateKind;

fn bench_kraus_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("density/kraus_2q");
    for n in [2usize, 4, 6] {
        let channel = depolarizing_2q(0.01);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut rho = DensityMatrix::zero_state(n);
            rho.apply_unitary(&GateKind::H.matrix(&[]), &[0]);
            b.iter(|| {
                rho.apply_kraus(&channel, &[0, n - 1]);
                std::hint::black_box(rho.trace());
            })
        });
    }
    group.finish();
}

fn bench_thermal_channel(c: &mut Criterion) {
    let channel = thermal_relaxation(120.0, 80.0, 300.0);
    c.bench_function("density/thermal_1q_on_4q", |b| {
        let mut rho = DensityMatrix::zero_state(4);
        rho.apply_unitary(&GateKind::H.matrix(&[]), &[2]);
        b.iter(|| {
            rho.apply_kraus(&channel, &[2]);
            std::hint::black_box(rho.trace());
        })
    });
}

fn bench_device_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("density/device_run");
    group.sample_size(20);
    for (name, desc, model) in [
        ("mnist2_santiago", fake_santiago(), QnnModel::mnist2()),
        ("mnist4_jakarta", fake_jakarta(), QnnModel::mnist4()),
    ] {
        let device = FakeDevice::new(desc);
        let prepared = device.prepare(model.circuit());
        let theta = model.symbol_vector(
            &vec![0.2; model.num_params()],
            &vec![0.7; model.input_dim()],
        );
        let job = CircuitJob::expectation(&prepared, theta, Execution::Shots(1024), 1);
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(device.run_job(&job)))
        });
    }
    group.finish();
}

/// One example's share of a full PGP step on the paper's workload: the
/// forward circuit plus all 72 shifted circuits of MNIST-4 on fake jakarta
/// at 1024 shots, through the gradient computer (which offers the Jacobian
/// to the device's hook) on one worker.
fn bench_example_jacobian(c: &mut Criterion) {
    let mut group = c.benchmark_group("density/jacobian");
    group.sample_size(10);
    let model = QnnModel::mnist4();
    let device = FakeDevice::new(fake_jakarta());
    let computer =
        QnnGradientComputer::new(&model, &device, Execution::Shots(1024)).with_workers(1);
    let params = vec![0.2; model.num_params()];
    let input = vec![0.7; model.input_dim()];
    let example: [(&[f64], usize); 1] = [(&input, 0)];
    group.bench_function("mnist4_jakarta", |b| {
        b.iter(|| std::hint::black_box(computer.batch_gradient(&params, &example, None, 5)))
    });
    group.finish();
}

/// Dumps the timing rows to `BENCH_density.json`.
fn dump_artifact(c: &mut Criterion) {
    let timings = c
        .take_results()
        .into_iter()
        .map(|r| qoc_bench::suite::timing_row(&r.id, r.median_ns, r.mean_ns, r.min_ns, r.samples));
    qoc_bench::suite::write_bench_artifact("BENCH_density.json", timings, Vec::new());
}

criterion_group!(
    benches,
    bench_kraus_application,
    bench_thermal_channel,
    bench_device_execution,
    bench_example_jacobian,
    dump_artifact
);
criterion_main!(benches);
