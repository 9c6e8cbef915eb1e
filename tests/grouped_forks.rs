//! The noisy forks of the paper's Jacobian, grouped into lane states, hold
//! to the shifted runs bit for bit on every dispatch arm this host runs,
//! and the base state they fork from, carried to the end, holds to the
//! forward run.
//!
//! `NoisyProgram::for_each_shift` cuts the rows, in the order their
//! symbols' windows open, into groups that share one lane state: one row
//! per pair on the baseline arm, four rows per eight lanes under AVX-512. On
//! MNIST-4 transpiled to fake jakarta most symbols of an ansatz block
//! (symbols 0–11, 12–23, 24–35) open their windows at one pass, so a group
//! holds rows of one block or of two neighbouring blocks. Fake santiago, a
//! line, routes the same model with other SWAPs and so other windows.

use qoc::device::backends::DeviceDescription;
use qoc::noise::density::LaneArm;
use qoc::noise::sim::NoisyProgram;
use qoc::prelude::*;
use qoc::sim::diff::ShiftRun;

/// MNIST-4 transpiled to `desc`, compiled with the device's noise, and a
/// binding of its weights and one input.
fn mnist4_on(desc: DeviceDescription) -> (NoisyProgram, Vec<f64>) {
    let model = QnnModel::mnist4();
    let device = FakeDevice::new(desc.clone());
    let executable = device.prepare(model.circuit()).executable().clone();
    let program = NoisyProgram::compile(executable, &desc.calibration.noise_model());
    let params: Vec<f64> = (0..model.num_params())
        .map(|i| 0.1 + 0.37 * i as f64)
        .collect();
    let input: Vec<f64> = (0..model.input_dim()).map(|i| 0.05 * i as f64).collect();
    (program, model.symbol_vector(&params, &input))
}

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

/// Runs the forks of `rows` and the forward run on `arm` and holds each to
/// the measured run at its `θ`; every `(row, sign)` and the forward run
/// must be visited exactly once.
fn check_forks(program: &NoisyProgram, theta: &[f64], rows: &[usize], arm: LaneArm) {
    let mut visits = Vec::new();
    program.for_each_shift_on(arm, theta, rows, true, |run, probs| {
        visits.push(run);
        assert_eq!(
            bits(probs),
            bits(&program.outcome_probabilities(&run.theta(theta, rows))),
            "{arm:?}: {run:?} of rows {rows:?} differs from its measured run"
        );
    });
    visits.sort_unstable();
    let mut want: Vec<ShiftRun> = (0..rows.len())
        .flat_map(|row| [false, true].map(|minus| ShiftRun::Shifted { row, minus }))
        .collect();
    want.push(ShiftRun::Unshifted);
    assert_eq!(visits, want, "{arm:?}: every run visited once");
}

#[test]
fn grouped_forks_on_mnist4_jakarta_are_bit_identical_to_shifted_runs() {
    let arms = LaneArm::available();
    if !arms.contains(&LaneArm::Avx512) {
        println!("no AVX-512F on this host: the eight-lane AVX-512 arm is skipped");
    }
    for desc in [fake_jakarta(), fake_santiago()] {
        let (program, mut theta) = mnist4_on(desc);
        let past = theta.len();
        // Symbol `past` is read by no gate: its forks are the unshifted run.
        theta.push(0.4);

        let all: Vec<usize> = (0..36).collect();
        // A pruned step's 18 rows, spread over the three blocks, one of them
        // a second row for symbol 3, plus a row for `past`: 19 rows, so under
        // eight lanes four full groups and a last group of three rows with an
        // idle lane pair.
        let mut pruned = vec![0, 2, 3, 5, 7, 8, 11];
        pruned.extend([12, 14, 15, 18, 20, 23]);
        pruned.extend([25, 27, 30, 34]);
        pruned.extend([3, past]);
        assert_eq!(pruned.len(), 19);

        // One row: under eight lanes its group leaves six lanes idle.
        let single = [14];

        for &arm in &arms {
            check_forks(&program, &theta, &all, arm);
            check_forks(&program, &theta, &pruned, arm);
            check_forks(&program, &theta, &single, arm);
        }
    }
}
