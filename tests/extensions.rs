//! Integration tests of the beyond-the-paper extensions: VQE, SPSA, ZNE,
//! readout mitigation, and randomized benchmarking, all running through the
//! same fake-device stack as the main QOC experiments.

use qoc::core::spsa::{minimize_spsa, SpsaConfig};
use qoc::core::vqe::{hardware_efficient_ansatz, run_vqe, Hamiltonian, VqeConfig, VqeProblem};
use qoc::core::zne::zero_noise_extrapolate;
use qoc::device::backend::job_seed;
use qoc::device::mitigation::ReadoutMitigator;
use qoc::device::rb::randomized_benchmarking;
use qoc::device::transpile::TranspileOptions;
use qoc::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn vqe_h2_runs_on_a_fake_device() {
    let device = FakeDevice::new(fake_santiago());
    let ansatz = hardware_efficient_ansatz(2, 1);
    let h = Hamiltonian::h2_minimal();
    let exact = h.ground_state_energy(300);
    let problem = VqeProblem::new(&device, &ansatz, h, Some(1024));
    let config = VqeConfig {
        steps: 25,
        ..VqeConfig::default()
    };
    let result = run_vqe(&problem, &config);
    // Noisy hardware cannot reach the exact ground state, but it must get
    // into the right basin (well below the θ=0 energy of ≈ −0.46).
    assert!(
        result.best_energy < exact + 0.35,
        "device VQE stuck at {} (exact {exact})",
        result.best_energy
    );
    assert!(
        result.best_energy >= exact - 0.05,
        "below-ground energy is unphysical"
    );
}

#[test]
fn spsa_trains_the_qnn_loss() {
    // SPSA on the noiseless backend should reduce the MNIST-2 batch loss.
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let computer = QnnGradientComputer::new(&model, &backend, Execution::Exact);
    let (train_set, _) = Task::Mnist2.load(3);
    let subset = train_set.take_front(8);
    let mut objective = |candidates: &[Vec<f64>], seed: u64| -> Vec<f64> {
        candidates
            .iter()
            .enumerate()
            .map(|(c, theta)| {
                let mut loss = 0.0;
                for i in 0..subset.len() {
                    let (input, label) = subset.example(i);
                    let logits = computer.forward(theta, input, job_seed(seed, c as u64));
                    loss += qoc::nn::loss::cross_entropy(&logits, label) / subset.len() as f64;
                }
                loss
            })
            .collect()
    };
    let init = vec![0.05; model.num_params()];
    let initial_loss = objective(std::slice::from_ref(&init), 0)[0];
    let result = minimize_spsa(&mut objective, &init, 60, &SpsaConfig::standard(60), 5);
    let final_loss = *result.losses.last().unwrap();
    assert!(
        final_loss < initial_loss - 0.05,
        "SPSA failed to learn: {initial_loss} → {final_loss}"
    );
}

#[test]
fn zne_and_readout_mitigation_both_help() {
    let device = FakeDevice::new(fake_lima());
    let simulator = NoiselessBackend::new();
    let mut rng = StdRng::seed_from_u64(6);

    let mut c = Circuit::new(3);
    c.ry(0, 0.9);
    c.rzz(0, 1, 0.5);
    c.rzz(1, 2, 0.8);
    c.rx(2, 0.4);
    let theta: [f64; 0] = [];

    let exact = |backend: &dyn QuantumBackend, kind| {
        let prepared = backend.prepare(&c);
        backend.run_job(&CircuitJob {
            prepared: &prepared,
            theta: theta.to_vec(),
            execution: Execution::Exact,
            seed: 0,
            kind,
        })
    };
    let ideal = exact(&simulator, JobKind::ExpectationZ);
    let raw = exact(&device, JobKind::ExpectationZ);
    let raw_probs = exact(&device, JobKind::OutcomeDistribution);
    let err = |v: &[f64]| -> f64 { v.iter().zip(&ideal).map(|(a, b)| (a - b).abs()).sum() };

    // Readout mitigation.
    let mitigator = ReadoutMitigator::calibrate(&device, 3, 120_000, &mut rng);
    let fixed = mitigator.mitigated_expectations(&raw_probs);
    assert!(err(&fixed) < err(&raw), "readout mitigation failed to help");

    // ZNE.
    let zne = zero_noise_extrapolate(&device, &c, &theta, &[1, 3, 5], Execution::Exact, 6);
    assert!(err(&zne.extrapolated) < err(&raw), "ZNE failed to help");
}

#[test]
fn rb_measures_calibration_scale_errors_on_every_device() {
    let mut rng = StdRng::seed_from_u64(7);
    for desc in [fake_santiago(), fake_jakarta()] {
        let name = desc.name.clone();
        let device = FakeDevice::new(desc).with_options(TranspileOptions {
            optimize: false, // RB needs compile barriers; see rb.rs docs
            smart_layout: true,
        });
        let result =
            randomized_benchmarking(&device, 0, &[1, 10, 30], 4, Execution::Exact, &mut rng);
        assert!(
            result.points[0].survival > result.points[2].survival,
            "{name}: no RB decay"
        );
        assert!(
            result.error_per_clifford > 1e-5 && result.error_per_clifford < 3e-2,
            "{name}: error/Clifford {} implausible",
            result.error_per_clifford
        );
    }
}
