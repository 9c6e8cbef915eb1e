//! Cross-crate gradient oracles: the parameter-shift pipeline agrees with
//! finite differences through every paper model, and shot-sampled gradients
//! are unbiased estimates of the exact ones.

use qoc::core::grad::QnnGradientComputer;
use qoc::nn::loss::cross_entropy;
use qoc::prelude::*;
use qoc::sim::statevector::sample_counts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fd_loss_grad(model: &QnnModel, params: &[f64], input: &[f64], target: usize) -> Vec<f64> {
    let sim = StatevectorSimulator::new();
    let loss_at = |p: &[f64]| -> f64 {
        let ez = sim.expectations_z(model.circuit(), &model.symbol_vector(p, input));
        cross_entropy(&model.logits_from_expectations(&ez), target)
    };
    let eps = 1e-6;
    (0..params.len())
        .map(|i| {
            let mut pp = params.to_vec();
            pp[i] += eps;
            let mut pm = params.to_vec();
            pm[i] -= eps;
            (loss_at(&pp) - loss_at(&pm)) / (2.0 * eps)
        })
        .collect()
}

#[test]
fn all_paper_models_match_finite_difference() {
    let models: Vec<(&str, QnnModel)> = vec![
        ("mnist2", QnnModel::mnist2()),
        ("mnist4", QnnModel::mnist4()),
        ("fashion4", QnnModel::fashion4()),
        ("vowel4", QnnModel::vowel4()),
    ];
    let backend = NoiselessBackend::new();
    let mut rng = StdRng::seed_from_u64(11);
    for (name, model) in models {
        let computer = QnnGradientComputer::new(&model, &backend, Execution::Exact);
        let params: Vec<f64> = (0..model.num_params())
            .map(|_| rng.gen_range(-1.5..1.5))
            .collect();
        let input: Vec<f64> = (0..model.input_dim())
            .map(|_| rng.gen_range(-1.0..2.5))
            .collect();
        let target = model.num_classes() - 1;
        let batch = [(input.as_slice(), target)];
        let got = computer.batch_gradient(&params, &batch, None, 0);
        let want = fd_loss_grad(&model, &params, &input, target);
        for (i, (a, b)) in got.grad.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() < 1e-5,
                "{name}: ∂L/∂θ[{i}] shift {a} vs fd {b}"
            );
        }
    }
}

#[test]
fn shot_sampled_gradients_are_unbiased() {
    // Averaging many shot-noisy gradient estimates must converge on the
    // exact gradient (parameter shift is exact in expectation).
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let exact_computer = QnnGradientComputer::new(&model, &backend, Execution::Exact);
    let noisy_computer = QnnGradientComputer::new(&model, &backend, Execution::Shots(512));
    let params = vec![0.3; 8];
    let input = vec![1.0; 16];
    let batch = [(input.as_slice(), 0usize)];
    let exact = exact_computer.batch_gradient(&params, &batch, None, 0);

    let reps = 60u64;
    let mut mean = [0.0; 8];
    for rep in 0..reps {
        let noisy = noisy_computer.batch_gradient(&params, &batch, None, rep);
        for (m, g) in mean.iter_mut().zip(&noisy.grad) {
            *m += g / reps as f64;
        }
    }
    for (i, (m, e)) in mean.iter().zip(&exact.grad).enumerate() {
        assert!(
            (m - e).abs() < 0.02,
            "θ[{i}]: mean shot-gradient {m} vs exact {e}"
        );
    }
}

#[test]
fn device_gradients_correlate_with_exact() {
    // On a noisy device gradients are biased toward zero but must still
    // point the right way for the large components.
    let model = QnnModel::mnist2();
    let simulator = NoiselessBackend::new();
    let device = FakeDevice::new(fake_santiago());
    let exact_computer = QnnGradientComputer::new(&model, &simulator, Execution::Exact);
    let noisy_computer = QnnGradientComputer::new(&model, &device, Execution::Shots(4096));
    let params: Vec<f64> = (0..8).map(|k| 0.5 - 0.17 * k as f64).collect();
    let input = vec![1.2; 16];
    let batch = [(input.as_slice(), 1usize)];
    let exact = exact_computer.batch_gradient(&params, &batch, None, 9);
    let noisy = noisy_computer.batch_gradient(&params, &batch, None, 9);

    // The largest exact component keeps its sign on hardware.
    let i_max = (0..8)
        .max_by(|&a, &b| exact.grad[a].abs().total_cmp(&exact.grad[b].abs()))
        .unwrap();
    assert!(
        exact.grad[i_max].signum() == noisy.grad[i_max].signum(),
        "largest gradient flipped sign: exact {} vs noisy {}",
        exact.grad[i_max],
        noisy.grad[i_max]
    );
    // And correlation across components is positive.
    let dot: f64 = exact.grad.iter().zip(&noisy.grad).map(|(a, b)| a * b).sum();
    assert!(dot > 0.0, "gradients anti-correlated: {dot}");
}

#[test]
fn sample_counts_pass_chi_squared_goodness_of_fit() {
    // The shot sampler must actually draw from the statevector's Born
    // distribution: chi-squared goodness-of-fit over every bin of a
    // near-uniform state, across several seeds — 8 bins at 1024 shots and
    // 16 bins at the shot allocator's 128-shot floor, where most of the
    // conditional binomials have small means. Critical values are
    // χ²₀.₉₉₉ at 7 and 15 degrees of freedom. Seeds are fixed, so this is
    // a deterministic regression test, not a flaky statistical one.
    for (qubits, shots, critical) in [
        (3, 1024u32, 24.32),
        (4, qoc::core::alloc::DEFAULT_MIN_SHOTS, 37.70),
    ] {
        let mut c = Circuit::new(qubits);
        for q in 0..qubits {
            c.h(q);
            c.ry(q, 0.15 * (q as f64 + 1.0));
        }
        let probs = StatevectorSimulator::new().run(&c, &[]).probabilities();
        for seed in [0u64, 1, 2, 3, 4] {
            let mut rng = StdRng::seed_from_u64(seed);
            let counts = sample_counts(&probs, shots, &mut rng);
            let mut chi2 = 0.0;
            for (p, &n) in probs.iter().zip(&counts) {
                let expected = p * shots as f64;
                let observed = f64::from(n);
                chi2 += (observed - expected).powi(2) / expected;
            }
            assert!(
                chi2 < critical,
                "{} bins × {shots} shots, seed {seed}: χ² = {chi2:.2} exceeds {critical}",
                probs.len()
            );
        }
    }
}

#[test]
fn resampling_is_bit_identical_across_worker_counts() {
    // Per-job seed streams mean a shot-sampled Jacobian depends only on the
    // master seed, never on how jobs are spread over workers — and the exact
    // Jacobian through the fused kernel path matches the dense-matrix oracle
    // applied to the shift rule by hand, at every worker count.
    let model = QnnModel::mnist2();
    let backend = NoiselessBackend::new();
    let params: Vec<f64> = (0..model.num_params())
        .map(|k| 0.4 - 0.11 * k as f64)
        .collect();
    let input = vec![0.9; 16];
    let theta = model.symbol_vector(&params, &input);

    let shot_jacobians: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            ParameterShiftEngine::new(
                &backend,
                model.circuit(),
                model.num_params(),
                Execution::Shots(1024),
            )
            .with_workers(w)
            .jacobian(&theta, 7)
        })
        .collect();
    assert_eq!(shot_jacobians[0], shot_jacobians[1], "1 vs 2 workers");
    assert_eq!(shot_jacobians[0], shot_jacobians[2], "1 vs 8 workers");

    // Oracle Jacobian: ±π/2 shifts run through `run_reference` (the old
    // generic dense-matrix path) — the fused engine must agree to ≤ 1e-12.
    let sim = StatevectorSimulator::new();
    let oracle: Vec<Vec<f64>> = (0..model.num_params())
        .map(|i| {
            let mut plus = theta.clone();
            plus[i] += std::f64::consts::FRAC_PI_2;
            let mut minus = theta.clone();
            minus[i] -= std::f64::consts::FRAC_PI_2;
            let ep = sim
                .run_reference(model.circuit(), &plus)
                .expectation_all_z();
            let em = sim
                .run_reference(model.circuit(), &minus)
                .expectation_all_z();
            ep.iter().zip(&em).map(|(p, m)| 0.5 * (p - m)).collect()
        })
        .collect();
    for &w in &[1usize, 2, 8] {
        let exact = ParameterShiftEngine::new(
            &backend,
            model.circuit(),
            model.num_params(),
            Execution::Exact,
        )
        .with_workers(w)
        .jacobian(&theta, 7);
        for (i, (row, want)) in exact.iter().zip(&oracle).enumerate() {
            for (j, (a, b)) in row.iter().zip(want).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "{w} workers: J[{i}][{j}] fused {a} vs oracle {b}"
                );
            }
        }
    }
}

#[test]
fn loss_decreases_along_negative_gradient() {
    let model = QnnModel::vowel4();
    let backend = NoiselessBackend::new();
    let computer = QnnGradientComputer::new(&model, &backend, Execution::Exact);
    let mut rng = StdRng::seed_from_u64(3);
    let params: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let input: Vec<f64> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let batch = [(input.as_slice(), 2usize)];
    let g = computer.batch_gradient(&params, &batch, None, 3);
    let step = 0.05;
    let moved: Vec<f64> = params
        .iter()
        .zip(&g.grad)
        .map(|(p, gi)| p - step * gi)
        .collect();
    let after = computer.batch_gradient(&moved, &batch, None, 4);
    assert!(
        after.loss < g.loss,
        "gradient step increased loss: {} → {}",
        g.loss,
        after.loss
    );
}
