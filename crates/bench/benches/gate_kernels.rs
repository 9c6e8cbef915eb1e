//! Micro-benchmarks of the statevector gate kernels — the inner loop of
//! everything in this repository (classical simulation cost is the villain
//! of the paper's Figures 2(a) and 8).
//!
//! Besides the raw `apply_1q`/`apply_2q` scaling sweeps, this bench pits the
//! specialized [`Kernel`]s and the fused execution pipeline against the
//! generic dense-matrix path on the paper's 4-qubit QNN ansatz, times the
//! shot sampler every sampled read-out goes through, and dumps the timings
//! plus derived speedup ratios to `BENCH_gate_kernels.json` (gated by
//! `bench_smoke`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use qoc_nn::model::QnnModel;
use qoc_sim::fusion::FusedProgram;
use qoc_sim::gates::GateKind;
use qoc_sim::kernels::Kernel;
use qoc_sim::simulator::StatevectorSimulator;
use qoc_sim::statevector::{sample_counts, Statevector};

fn bench_single_qubit(c: &mut Criterion) {
    let h = GateKind::H.matrix(&[]);
    let mut group = c.benchmark_group("apply_1q");
    for n in [8usize, 12, 16, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut sv = Statevector::zero_state(n);
            b.iter(|| {
                sv.apply_1q(&h, n / 2);
                std::hint::black_box(sv.amplitudes()[0]);
            });
        });
    }
    group.finish();
}

fn bench_two_qubit(c: &mut Criterion) {
    let rzz = GateKind::Rzz.matrix(&[0.37]);
    let mut group = c.benchmark_group("apply_2q");
    for n in [8usize, 12, 16, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut sv = Statevector::zero_state(n);
            b.iter(|| {
                sv.apply_2q(&rzz, 0, n - 1);
                std::hint::black_box(sv.amplitudes()[0]);
            });
        });
    }
    group.finish();
}

/// Specialized kernel vs generic dense-matrix apply for the gates that
/// dominate the paper's ansätze, at a fixed 12-qubit register.
fn bench_kernel_vs_matrix(c: &mut Criterion) {
    const N: usize = 12;
    let mut group = c.benchmark_group("kernel_vs_matrix");
    let cases: &[(&str, GateKind, &[f64])] = &[
        ("rz", GateKind::Rz, &[0.37]),
        ("ry", GateKind::Ry, &[0.81]),
        ("cx", GateKind::Cx, &[]),
    ];
    for &(name, gate, params) in cases {
        let qubits: Vec<usize> = (0..gate.num_qubits()).map(|k| k * (N - 1)).collect();
        let kernel = Kernel::for_gate(gate, &qubits, params);
        let matrix = gate.matrix(params);
        group.bench_function(format!("{name}_kernel"), |b| {
            let mut sv = Statevector::zero_state(N);
            b.iter(|| {
                sv.apply_kernel(&kernel);
                std::hint::black_box(sv.amplitudes()[0]);
            });
        });
        group.bench_function(format!("{name}_matrix"), |b| {
            let mut sv = Statevector::zero_state(N);
            b.iter(|| {
                if gate.num_qubits() == 1 {
                    sv.apply_1q(&matrix, qubits[0]);
                } else {
                    sv.apply_2q(&matrix, qubits[0], qubits[1]);
                }
                std::hint::black_box(sv.amplitudes()[0]);
            });
        });
    }
    group.finish();
}

/// The headline comparison: one full state preparation of the paper's
/// 4-qubit MNIST-2 ansatz (encoder + RZZ ring + RY layer) through the fused
/// kernel program vs the generic per-gate dense-matrix oracle — exactly the
/// work one parameter-shift job performs.
fn bench_qnn4_fused_vs_generic(c: &mut Criterion) {
    let model = QnnModel::mnist2();
    let circuit = model.circuit();
    let theta = model.symbol_vector(&[0.2; 8], &[0.7; 16]);
    let program = FusedProgram::compile(circuit);
    let sim = StatevectorSimulator::new();
    let mut group = c.benchmark_group("kernels");
    group.bench_function("qnn4_fused", |b| {
        let mut sv = Statevector::zero_state(circuit.num_qubits());
        b.iter(|| {
            program.run_into(&theta, &mut sv);
            std::hint::black_box(sv.amplitudes()[0]);
        });
    });
    group.bench_function("qnn4_generic", |b| {
        let mut sv = Statevector::zero_state(circuit.num_qubits());
        b.iter(|| {
            sim.run_into_reference(circuit, &theta, &mut sv);
            std::hint::black_box(sv.amplitudes()[0]);
        });
    });
    group.finish();
}

fn bench_expectations(c: &mut Criterion) {
    let mut group = c.benchmark_group("expectation_all_z");
    for n in [8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut sv = Statevector::zero_state(n);
            let h = GateKind::H.matrix(&[]);
            for q in 0..n {
                sv.apply_1q(&h, q);
            }
            b.iter(|| std::hint::black_box(sv.expectation_all_z()));
        });
    }
    group.finish();
}

/// Shots through `sample_counts` with a `&mut dyn RngCore` over a seeded
/// `StdRng`, as a batch job draws them: the MNIST-4 read-out (16 bins) at
/// 1024 shots and at the shot allocator's 128-shot floor, and a spread
/// 10-qubit distribution (1024 bins at 1024 shots, one shot per bin), where
/// a binomial draw per bin costs more than a table lookup per shot would.
fn bench_sample_counts(c: &mut Criterion) {
    let spread: Vec<f64> = (0..1024)
        .map(|i| 1.0 + (f64::from(i) * 0.37).sin())
        .collect();
    let readout = qoc_bench::suite::mnist4_readout();
    let mut group = c.benchmark_group("sim/sample_counts");
    for (name, probs, shots) in [
        ("16bins_1024shots", &readout, 1024),
        ("16bins_128shots", &readout, 128),
        ("1024bins_1024shots", &spread, 1024),
    ] {
        group.bench_function(name, |b| {
            let mut std_rng = StdRng::seed_from_u64(7);
            let rng: &mut dyn RngCore = &mut std_rng;
            b.iter(|| std::hint::black_box(sample_counts(probs, shots, rng)));
        });
    }
    group.finish();
}

/// Dumps timings plus derived `generic_over_fused` / `matrix_over_kernel`
/// speedup ratios to `BENCH_gate_kernels.json`; `bench_smoke` gates the
/// fused and 16-bin sampler rows against it.
fn dump_artifact(c: &mut Criterion) {
    let results = c.take_results();
    let min_ns = |label: &str| -> Option<f64> {
        results
            .iter()
            .find(|r| r.id == label)
            .map(|r| r.min_ns)
            .filter(|&v| v > 0.0)
    };
    let ratios: &[(&str, &str, &str)] = &[
        (
            "ratio/qnn4_generic_over_fused",
            "kernels/qnn4_generic",
            "kernels/qnn4_fused",
        ),
        (
            "ratio/rz_matrix_over_kernel",
            "kernel_vs_matrix/rz_matrix",
            "kernel_vs_matrix/rz_kernel",
        ),
        (
            "ratio/ry_matrix_over_kernel",
            "kernel_vs_matrix/ry_matrix",
            "kernel_vs_matrix/ry_kernel",
        ),
        (
            "ratio/cx_matrix_over_kernel",
            "kernel_vs_matrix/cx_matrix",
            "kernel_vs_matrix/cx_kernel",
        ),
    ];
    let speedups = ratios
        .iter()
        .filter_map(|&(label, slow, fast)| {
            Some(qoc_bench::suite::Measurement {
                label: label.into(),
                values: vec![("speedup".into(), min_ns(slow)? / min_ns(fast)?)],
            })
        })
        .collect();
    let timings = results
        .iter()
        .map(|r| qoc_bench::suite::timing_row(&r.id, r.median_ns, r.mean_ns, r.min_ns, r.samples));
    qoc_bench::suite::write_bench_artifact("BENCH_gate_kernels.json", timings, speedups);
}

criterion_group!(
    benches,
    bench_single_qubit,
    bench_two_qubit,
    bench_kernel_vs_matrix,
    bench_qnn4_fused_vs_generic,
    bench_expectations,
    bench_sample_counts,
    dump_artifact
);
criterion_main!(benches);
