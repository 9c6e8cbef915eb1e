//! Property-based tests of the simulation core: gate algebra, state
//! evolution invariants, and sampling statistics over randomized inputs.

use proptest::prelude::*;

use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::complex::Complex64;
use qoc_sim::gates::{GateKind, ALL_GATES};
use qoc_sim::matrix::CMatrix;
use qoc_sim::simulator::StatevectorSimulator;
use qoc_sim::statevector::{sample_counts, Statevector};

fn arb_gate() -> impl Strategy<Value = GateKind> {
    (0..ALL_GATES.len()).prop_map(|i| ALL_GATES[i])
}

#[allow(dead_code)]
fn arb_params(gate: GateKind) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-6.0f64..6.0, gate.num_params())
}

/// 1–4096 unnormalized outcome weights (three vectors in five have at most 64)
/// mixing zero, negative (clamped), positive, denormal and near-`f64::MAX`
/// entries — two of the latter overflow the prefix sum to `inf`. One vector
/// in five is all zeros and one in five puts almost all weight on one bin.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    let weight = (0u8..6, 0.0f64..1.0).prop_map(|(kind, w)| match kind {
        0 => 0.0,
        1 => -w,
        2 => w * 1e-310,
        3 if w < 0.002 => 1e308 * (1.0 + w),
        _ => w,
    });
    (
        0u8..5,
        1usize..=64,
        proptest::collection::vec(weight, 1..=4096),
        0usize..4096,
    )
        .prop_map(|(kind, short, mut weights, at)| {
            if kind % 2 == 0 {
                weights.truncate(short);
            }
            match kind {
                0 => weights.iter_mut().for_each(|w| *w = 0.0),
                1 => {
                    let at = at % weights.len();
                    weights[at] = 1e6;
                }
                _ => {}
            }
            weights
        })
}

/// The clamped total `sample_counts` draws against: the suffix sum of
/// `max(w, 0)`.
fn clamped_total(weights: &[f64]) -> f64 {
    weights.iter().rev().fold(0.0, |acc, w| acc + w.max(0.0))
}

/// A random constant circuit on `n` qubits.
fn arb_circuit(n: usize, max_ops: usize) -> impl Strategy<Value = Circuit> {
    let op = (
        arb_gate(),
        0..n,
        1..n.max(2),
        proptest::collection::vec(-3.0f64..3.0, 3),
    );
    proptest::collection::vec(op, 1..max_ops).prop_map(move |ops| {
        let mut c = Circuit::new(n);
        for (gate, a, off, angles) in ops {
            let qubits: Vec<usize> = if gate.num_qubits() == 1 {
                vec![a]
            } else {
                vec![a, (a + off) % n]
            };
            if qubits.len() == 2 && qubits[0] == qubits[1] {
                continue;
            }
            let params: Vec<ParamValue> = angles
                .iter()
                .take(gate.num_params())
                .map(|&x| ParamValue::Const(x))
                .collect();
            if params.len() == gate.num_params() {
                c.push(gate, &qubits, &params);
            }
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_gate_matrix_is_unitary_for_any_angles(
        gate in arb_gate(),
        angles in proptest::collection::vec(-10.0f64..10.0, 3),
    ) {
        let params = &angles[..gate.num_params()];
        prop_assert!(gate.matrix(params).is_unitary(1e-9));
    }

    #[test]
    fn gate_times_inverse_is_identity(
        gate in arb_gate(),
        angles in proptest::collection::vec(-6.0f64..6.0, 3),
    ) {
        let params = angles[..gate.num_params()].to_vec();
        let (gi, pi) = gate.inverse(&params);
        let prod = &gate.matrix(&params) * &gi.matrix(&pi);
        prop_assert!(prod.approx_eq(&CMatrix::identity(1 << gate.num_qubits()), 1e-9));
    }

    #[test]
    fn rotation_angles_compose_additively(
        gate in proptest::sample::select(vec![
            GateKind::Rx, GateKind::Ry, GateKind::Rz,
            GateKind::Rxx, GateKind::Ryy, GateKind::Rzz, GateKind::Rzx,
        ]),
        a in -4.0f64..4.0,
        b in -4.0f64..4.0,
    ) {
        // e^{-i(a+b)H/2} = e^{-iaH/2}·e^{-ibH/2} for a fixed generator.
        let lhs = gate.matrix(&[a + b]);
        let rhs = &gate.matrix(&[a]) * &gate.matrix(&[b]);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn rotations_are_2pi_periodic_up_to_phase(
        gate in proptest::sample::select(vec![
            GateKind::Rx, GateKind::Ry, GateKind::Rz, GateKind::Rzz,
        ]),
        a in -4.0f64..4.0,
    ) {
        let lhs = gate.matrix(&[a]);
        let rhs = gate.matrix(&[a + 2.0 * std::f64::consts::PI]);
        prop_assert!(lhs.approx_eq_up_to_phase(&rhs, 1e-9));
    }

    #[test]
    fn circuits_preserve_norm(c in arb_circuit(4, 16)) {
        let sv = StatevectorSimulator::new().run(&c, &[]);
        let norm: f64 = sv.amplitudes().iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn circuit_then_inverse_returns_to_start(c in arb_circuit(3, 12)) {
        let sim = StatevectorSimulator::new();
        let mut sv = sim.run(&c, &[]);
        sim.run_into(&c.inverse(), &[], &mut sv);
        prop_assert!(sv.approx_eq_up_to_phase(&Statevector::zero_state(3), 1e-8));
    }

    #[test]
    fn expectations_are_bounded(c in arb_circuit(4, 16)) {
        for ez in StatevectorSimulator::new().expectations_z(&c, &[]) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ez));
        }
    }

    #[test]
    fn symmetric_two_qubit_gates_commute_with_wire_swap(
        gate in proptest::sample::select(vec![
            GateKind::Cz, GateKind::Cp, GateKind::Swap,
            GateKind::Rxx, GateKind::Ryy, GateKind::Rzz,
        ]),
        angle in -3.0f64..3.0,
        pre in arb_circuit(2, 6),
    ) {
        // For gates declared symmetric, (a, b) and (b, a) act identically.
        prop_assume!(gate.is_symmetric());
        let sim = StatevectorSimulator::new();
        let params: Vec<ParamValue> = (0..gate.num_params())
            .map(|_| ParamValue::Const(angle))
            .collect();
        let mut c1 = pre.clone();
        c1.push(gate, &[0, 1], &params);
        let mut c2 = pre.clone();
        c2.push(gate, &[1, 0], &params);
        let a = sim.run(&c1, &[]);
        let b = sim.run(&c2, &[]);
        prop_assert!(a.approx_eq_up_to_phase(&b, 1e-9));
    }

    #[test]
    fn kron_of_unitaries_is_unitary(
        g1 in arb_gate().prop_filter("1q", |g| g.num_qubits() == 1),
        g2 in arb_gate().prop_filter("1q", |g| g.num_qubits() == 1),
        angles in proptest::collection::vec(-3.0f64..3.0, 6),
    ) {
        let m1 = g1.matrix(&angles[..g1.num_params()]);
        let m2 = g2.matrix(&angles[3..3 + g2.num_params()]);
        prop_assert!(m1.kron(&m2).is_unitary(1e-9));
    }

    #[test]
    fn bind_then_run_equals_symbolic_run(
        theta in proptest::collection::vec(-3.0f64..3.0, 4),
    ) {
        let mut c = Circuit::new(3);
        c.rx(0, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        c.ry(2, ParamValue::sym(2));
        c.rzx(1, 2, ParamValue::sym(3));
        let sim = StatevectorSimulator::new();
        let a = sim.run(&c, &theta);
        let b = sim.run(&c.bind(&theta), &[]);
        prop_assert!(a.approx_eq_up_to_phase(&b, 1e-10));
    }

    #[test]
    fn global_phase_never_affects_expectations(
        c in arb_circuit(3, 10),
        phase in -3.0f64..3.0,
    ) {
        let sim = StatevectorSimulator::new();
        let base = sim.run(&c, &[]);
        let mut shifted = base.clone();
        let factor = Complex64::cis(phase);
        let amps: Vec<Complex64> = shifted.amplitudes().iter().map(|&a| a * factor).collect();
        shifted = Statevector::from_amplitudes(amps).unwrap();
        for q in 0..3 {
            prop_assert!((base.expectation_z(q) - shifted.expectation_z(q)).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_counts_keep_the_total_and_skip_zero_bins(
        probs in arb_weights(),
        shots in proptest::sample::select(vec![0u32, 1, 2, 3, 128, 1024, 4097, 65_537]),
        seed in any::<u64>(),
    ) {
        // The counts are a function of the seed and sum to the shot count.
        // A clamped-zero weight draws nothing; with no distribution to draw
        // from (a zero or overflowed total) the first largest clamped
        // weight takes every shot.
        use rand::SeedableRng;
        let counts = sample_counts(&probs, shots, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(counts.iter().sum::<u32>(), shots);
        let total = clamped_total(&probs);
        if total.is_finite() && total > 0.0 {
            for (&c, &w) in counts.iter().zip(&probs) {
                prop_assert!(w > 0.0 || c == 0, "weight {} drew {} shots", w, c);
            }
        } else {
            let top = probs.iter().map(|w| w.max(0.0)).fold(0.0, f64::max);
            let first = probs.iter().position(|w| w.max(0.0) == top).unwrap();
            prop_assert_eq!(counts[first], shots);
        }
        let again = sample_counts(&probs, shots, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(counts, again);
    }

    #[test]
    fn depth_le_len_and_gate_counts_consistent(c in arb_circuit(4, 20)) {
        prop_assert!(c.depth() <= c.len());
        let by_kind: usize = c.count_by_kind().values().sum();
        prop_assert_eq!(by_kind, c.len());
        prop_assert!(c.two_qubit_count() <= c.len());
    }
}
