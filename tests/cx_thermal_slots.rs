//! Measures the CX thermal-relaxation wire-slot shortcut on the paper's
//! MNIST-4 circuit on fake jakarta.
//!
//! Device noise models attach each CX edge's two thermal-relaxation
//! channels by edge order (the lower-indexed qubit's T1/T2 on the gate's
//! first wire), not by which qubit each wire actually is. A CX whose
//! control is the higher-indexed qubit therefore relaxes each wire with
//! the other endpoint's T1/T2. This test rebuilds the calibrated evolution
//! densely on the full physical circuit twice — once with the shortcut
//! (which must reproduce the device to 1e-12) and once with each qubit's
//! own channel on its own wire — and bounds the outcome-probability gap.

use qoc::device::calibration::{DeviceCalibration, EdgeCalibration};
use qoc::device::transpile::{transpile, TranspileOptions};
use qoc::noise::channels::{error_rate_to_depolarizing_prob, thermal_relaxation};
use qoc::noise::density::DensityMatrix;
use qoc::noise::readout::apply_confusion;
use qoc::prelude::*;
use qoc::sim::kernels::Kernel;

/// Logical outcome distribution of the calibrated evolution of `circuit`
/// (physical wires), readout-corrupted and marginalized onto `readout`.
fn calibrated_outcome(
    circuit: &Circuit,
    theta: &[f64],
    cal: &DeviceCalibration,
    readout: &[usize],
    own_wires: bool,
) -> Vec<f64> {
    let n = circuit.num_qubits();
    let mut rho = DensityMatrix::zero_state(n);
    for op in circuit.ops() {
        rho.apply_kernel(&Kernel::from_operation(op, theta));
        match *op.qubits.as_slice() {
            [q] => {
                let qc = cal.qubit(q);
                let p = error_rate_to_depolarizing_prob(qc.gate_error_1q, 1);
                rho.apply_depolarizing(p, &[q]);
                let ns = qc.gate_duration_1q_ns;
                rho.apply_kraus(&thermal_relaxation(qc.t1_us, qc.t2_us, ns), &[q]);
            }
            [a, b] => {
                let edge = cal
                    .edge(a, b)
                    .copied()
                    .unwrap_or(EdgeCalibration::typical());
                let p = error_rate_to_depolarizing_prob(edge.gate_error_cx, 2);
                rho.apply_depolarizing(p, &[a, b]);
                // The shortcut's slot 0 (wire `a`) carries the lower qubit.
                let (for_a, for_b) = if own_wires {
                    (a, b)
                } else {
                    (a.min(b), a.max(b))
                };
                for (wire, source) in [(a, for_a), (b, for_b)] {
                    let qc = cal.qubit(source);
                    let ns = edge.gate_duration_cx_ns;
                    rho.apply_kraus(&thermal_relaxation(qc.t1_us, qc.t2_us, ns), &[wire]);
                }
            }
            _ => unreachable!("transpiled circuits use 1q and 2q gates"),
        }
    }
    let mut probs = rho.probabilities();
    let errors: Vec<_> = (0..n).map(|q| cal.qubit(q).readout_error()).collect();
    apply_confusion(&mut probs, &errors);
    let mut out = vec![0.0; 1 << readout.len()];
    for (s, p) in probs.iter().enumerate() {
        let idx = readout
            .iter()
            .enumerate()
            .fold(0, |acc, (l, &w)| acc | (((s >> w) & 1) << l));
        out[idx] += p;
    }
    out
}

#[test]
fn cx_thermal_wire_slot_shortcut_error_on_mnist4_jakarta() {
    let model = QnnModel::mnist4();
    let desc = fake_jakarta();
    let device = FakeDevice::new(desc.clone());
    let prepared = device.prepare(model.circuit());
    let t = transpile(model.circuit(), &desc.coupling, TranspileOptions::default());
    let readout = &t.final_layout[..model.circuit().num_qubits()];
    let reversed = t
        .circuit
        .ops()
        .iter()
        .filter(|op| op.qubits.len() == 2 && op.qubits[0] > op.qubits[1])
        .count();
    assert!(reversed > 0, "the circuit must exercise the shortcut");

    let mut max_gap: f64 = 0.0;
    for (k, input) in [0.7, -0.4, 1.9].into_iter().enumerate() {
        let params: Vec<f64> = (0..model.num_params())
            .map(|i| ((i * 7 + k * 3) % 11) as f64 * 0.5 - 2.5)
            .collect();
        let theta = model.symbol_vector(&params, &vec![input; model.input_dim()]);
        let device_probs = device.run_job(&CircuitJob::distribution(
            &prepared,
            theta.clone(),
            Execution::Exact,
            0,
        ));
        let shortcut = calibrated_outcome(&t.circuit, &theta, &desc.calibration, readout, false);
        for (d, s) in device_probs.iter().zip(&shortcut) {
            assert!((d - s).abs() < 1e-12, "harness must reproduce the device");
        }
        let exact = calibrated_outcome(&t.circuit, &theta, &desc.calibration, readout, true);
        for (s, e) in shortcut.iter().zip(&exact) {
            max_gap = max_gap.max((s - e).abs());
        }
    }
    println!(
        "CX thermal wire-slot shortcut on MNIST-4/jakarta: \
         {reversed} reversed CX, max |Δp| = {max_gap:.3e}"
    );
    assert!(
        max_gap < 1e-3,
        "shortcut error grew: max |Δp| = {max_gap:e}"
    );
}
