//! Property tests of the training core: the parameter-shift rule against
//! finite differences on random circuits, pruning-schedule algebra, and
//! optimizer behaviour.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use qoc_core::optim::OptimizerKind;
use qoc_core::prune::{
    weighted_sample_without_replacement, ProbabilisticPruner, PruneConfig, Pruner, Selection,
};
use qoc_core::sched::LrSchedule;
use qoc_core::shift::ParameterShiftEngine;
use qoc_device::backend::{Execution, NoiselessBackend};
use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
use qoc_device::retry::RetryPolicy;
use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::gates::GateKind;
use qoc_sim::simulator::StatevectorSimulator;

const SHIFT_GATES: &[GateKind] = &[
    GateKind::Rx,
    GateKind::Ry,
    GateKind::Rz,
    GateKind::Rxx,
    GateKind::Ryy,
    GateKind::Rzz,
    GateKind::Rzx,
];

/// Random trainable circuit: every symbol in exactly one shift-rule gate,
/// interleaved with random fixed gates.
fn arb_trainable_circuit(n: usize) -> impl Strategy<Value = Circuit> {
    let op = (0..SHIFT_GATES.len(), 0..n, 1..n.max(2), any::<bool>());
    proptest::collection::vec(op, 1..8).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        let mut sym = 0;
        for (g, a, off, add_h) in specs {
            if add_h {
                c.h(a);
            }
            let gate = SHIFT_GATES[g];
            if gate.num_qubits() == 1 {
                c.push(gate, &[a], &[ParamValue::sym(sym)]);
            } else {
                let b = (a + off) % n;
                if a == b {
                    continue;
                }
                c.push(gate, &[a, b], &[ParamValue::sym(sym)]);
            }
            sym += 1;
        }
        if sym == 0 {
            c.ry(0, ParamValue::sym(0));
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parameter_shift_equals_finite_difference_on_random_circuits(
        c in arb_trainable_circuit(3),
        theta_seed in -3.0f64..3.0,
    ) {
        let backend = NoiselessBackend::new();
        let n_params = c.num_symbols();
        let engine = ParameterShiftEngine::new(&backend, &c, n_params, Execution::Exact);
        let theta: Vec<f64> = (0..n_params)
            .map(|k| theta_seed + 0.37 * k as f64)
            .collect();
        let jac = engine.jacobian(&theta, 1);

        let sim = StatevectorSimulator::new();
        let eps = 1e-6;
        for i in 0..n_params {
            let mut plus = theta.clone();
            plus[i] += eps;
            let mut minus = theta.clone();
            minus[i] -= eps;
            let fp = sim.expectations_z(&c, &plus);
            let fm = sim.expectations_z(&c, &minus);
            for (q, (p, m)) in fp.iter().zip(&fm).enumerate() {
                let fd = (p - m) / (2.0 * eps);
                prop_assert!(
                    (jac[i][q] - fd).abs() < 1e-5,
                    "∂f[{q}]/∂θ[{i}]: shift {} vs fd {fd}\n{c}",
                    jac[i][q]
                );
            }
        }
    }

    #[test]
    fn pruning_schedule_has_exact_cadence(
        wa in 1usize..5,
        wp in 1usize..5,
        ratio in 0.1f64..0.9,
        steps in 1usize..40,
    ) {
        let n = 12;
        let cfg = PruneConfig {
            accumulation_window: wa,
            pruning_window: wp,
            ratio,
        };
        let mut pruner = ProbabilisticPruner::new(n, cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let keep = (((1.0 - ratio) * n as f64).ceil() as usize).clamp(1, n);
        for step in 0..steps {
            let sel = pruner.begin_step(&mut rng);
            let pos = step % (wa + wp);
            match sel {
                Selection::Full => prop_assert!(pos < wa, "unexpected full step at {step}"),
                Selection::Subset(s) => {
                    prop_assert!(pos >= wa, "unexpected pruned step at {step}");
                    prop_assert_eq!(s.len(), keep);
                    let mut d = s.clone();
                    d.dedup();
                    prop_assert_eq!(d.len(), keep, "duplicates sampled");
                    prop_assert!(s.iter().all(|&i| i < n));
                }
            }
            pruner.record(&vec![0.1; n]);
        }
    }

    #[test]
    fn weighted_sampling_matches_k_and_support(
        weights in proptest::collection::vec(0.0f64..5.0, 3..40),
        k_frac in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let k = ((weights.len() as f64 * k_frac) as usize).clamp(1, weights.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let s = weighted_sample_without_replacement(&weights, k, &mut rng);
        prop_assert_eq!(s.len(), k);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
        prop_assert!(s.iter().all(|&i| i < weights.len()));
    }

    #[test]
    fn cosine_schedule_stays_in_band(
        start in 0.01f64..1.0,
        end_frac in 0.01f64..1.0,
        total in 2usize..200,
        step in 0usize..400,
    ) {
        let end = start * end_frac;
        let s = LrSchedule::Cosine { start, end, total_steps: total };
        let lr = s.lr(step);
        prop_assert!(lr <= start + 1e-12 && lr >= end - 1e-12);
    }

    #[test]
    fn optimizers_fix_points_at_zero_gradient(
        kind_idx in 0usize..3,
        params in proptest::collection::vec(-2.0f64..2.0, 4),
    ) {
        let kind = [
            OptimizerKind::Sgd,
            OptimizerKind::Momentum { beta: 0.8 },
            OptimizerKind::Adam,
        ][kind_idx];
        let mut opt = kind.build(params.len());
        let mut p = params.clone();
        opt.step(&mut p, &vec![0.0; params.len()], 0.1, None);
        for (a, b) in p.iter().zip(&params) {
            prop_assert!((a - b).abs() < 1e-12, "zero gradient moved parameters");
        }
    }

    #[test]
    fn recoverable_faults_leave_the_jacobian_bit_identical(
        c in arb_trainable_circuit(3),
        theta_seed in -2.0f64..2.0,
        transient_rate in 0.0f64..1.0,
        timeout_rate in 0.0f64..1.0,
        fault_seed in 0u64..1_000,
        master_seed in 0u64..1_000,
        max_failures_per_job in 1u32..=4,
    ) {
        // Only value-preserving faults (transients, timeouts) at any rate;
        // no permanents or drift. Under the shipped policy a retry reruns
        // the identical job, so the recovered Jacobian must match a
        // fault-free backend bit for bit — even under shot noise.
        let plan = FaultPlan {
            seed: fault_seed,
            transient_rate,
            timeout_rate,
            permanent_rate: 0.0,
            slow_rate: 0.0,
            slow_delay: std::time::Duration::ZERO,
            drift_rate: 0.0,
            drift_damping: 0.0,
            max_failures_per_job,
        };
        let policy = RetryPolicy::default();
        prop_assert!(plan.recoverable_under(&policy));

        let n_params = c.num_symbols();
        let theta: Vec<f64> = (0..n_params)
            .map(|k| theta_seed + 0.41 * k as f64)
            .collect();

        let clean = NoiselessBackend::new();
        let clean_engine =
            ParameterShiftEngine::new(&clean, &c, n_params, Execution::Shots(1024));
        let reference = clean_engine.jacobian(&theta, master_seed);

        let faulty = FaultInjectingBackend::new(NoiselessBackend::new(), plan)
            .with_retry_policy(policy);
        let faulty_engine =
            ParameterShiftEngine::new(&faulty, &c, n_params, Execution::Shots(1024));
        let recovered = faulty_engine.jacobian(&theta, master_seed);

        prop_assert_eq!(reference.len(), recovered.len());
        for (i, (a, b)) in reference.iter().zip(&recovered).enumerate() {
            for (q, (x, y)) in a.iter().zip(b).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "jacobian[{}][{}] diverged: {} vs {}",
                    i, q, x, y
                );
            }
        }
    }

    #[test]
    fn masked_updates_touch_only_the_mask(
        active in proptest::sample::subsequence((0usize..6).collect::<Vec<_>>(), 1..5),
        grads in proptest::collection::vec(-1.0f64..1.0, 6),
    ) {
        let mut opt = OptimizerKind::Adam.build(6);
        let mut p = vec![0.0; 6];
        opt.step(&mut p, &grads, 0.05, Some(&active));
        for i in 0..6 {
            if active.contains(&i) {
                // Moves unless its gradient is (nearly) zero.
                if grads[i].abs() > 1e-9 {
                    prop_assert!(p[i] != 0.0);
                }
            } else {
                prop_assert_eq!(p[i], 0.0);
            }
        }
    }
}
