//! Noise anatomy across the five fake IBM machines: how each device's
//! calibration corrupts the same QNN circuit's expectation values. What
//! that does to parameter-shift gradients (small ones flip sign, the
//! observation behind probabilistic gradient pruning) is measured over
//! paired seeds by `cargo run --release -p qoc-bench --bin study --
//! --section fig2c`.
//!
//! Run with: `cargo run --release --example noise_study`

use qoc::prelude::*;

fn main() {
    let model = QnnModel::mnist2();
    let params: Vec<f64> = (0..model.num_params())
        .map(|k| 0.4 - 0.1 * k as f64)
        .collect();
    let input = vec![0.8; model.input_dim()];
    let theta = model.symbol_vector(&params, &input);

    let exact = |backend: &dyn QuantumBackend| {
        let prepared = backend.prepare(model.circuit());
        backend.run_job(&CircuitJob::expectation(
            &prepared,
            theta.clone(),
            Execution::Exact,
            0,
        ))
    };
    let simulator = NoiselessBackend::new();
    let ideal = exact(&simulator);
    println!("per-qubit ⟨Z⟩ of the MNIST-2 circuit:\n");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}",
        "backend", "q0", "q1", "q2", "q3"
    );
    println!(
        "{:<16} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
        "ideal", ideal[0], ideal[1], ideal[2], ideal[3]
    );
    for desc in all_paper_devices() {
        let device = FakeDevice::new(desc);
        let ez = exact(&device);
        println!(
            "{:<16} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            device.name(),
            ez[0],
            ez[1],
            ez[2],
            ez[3]
        );
    }
    println!("\nNoise pulls every |⟨Z⟩| toward 0; the damping differs per machine");
    println!("(gate errors, T1/T2, readout) and per qubit (routing placement).");
}
