//! Mode-equivalence suite for the shift-aware Jacobian planner.
//!
//! Three contracts, straight from the planner's design:
//!
//! 1. the two differentiation modes (`Shifted2P`, `Adjoint`) agree to
//!    ≤1e-12 on random symbolic circuits under exact execution — they are
//!    different *evaluation strategies* of the same mathematical Jacobian;
//! 2. gates without a two-term shift rule (Phase/U3/Cp/Crx/Cry/Crz) are
//!    decomposed at plan time, and every mode's Jacobian still matches
//!    finite differences on the ORIGINAL circuit;
//! 3. the noisy shifted-job path is byte-identical to its pre-refactor
//!    behaviour: golden Jacobian bit patterns pinned at 1, 2, and 8
//!    workers.

use proptest::prelude::*;

use qoc_core::shift::ParameterShiftEngine;
use qoc_device::backend::{DiffMode, Execution, FakeDevice, NoiselessBackend};
use qoc_device::backends::fake_lima;
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

/// Gates the planner must decompose before differentiating.
const DECOMPOSED_GATES: &[GateKind] = &[
    GateKind::Phase,
    GateKind::U3,
    GateKind::Cp,
    GateKind::Crx,
    GateKind::Cry,
    GateKind::Crz,
];

const ALL_MODES: [DiffMode; 2] = [DiffMode::Shifted2P, DiffMode::Adjoint];

/// Random symbolic circuit on `n` qubits: shift-rule gates whose angles may
/// reuse earlier symbols and carry non-trivial scales/offsets — the shapes
/// that exercise occurrence summing and the chain rule in every mode.
fn arb_symbolic_circuit(n: usize) -> impl Strategy<Value = Circuit> {
    let op = (
        0..SHIFT_GATES.len(),
        0..n,
        1..n.max(2),
        any::<bool>(), // reuse an existing symbol?
        0..3usize,     // scale/offset variant
        any::<bool>(), // prepend an H to leave the Z axis
    );
    proptest::collection::vec(op, 1..10).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        let mut syms = 0usize;
        for (g, a, off, reuse, variant, add_h) in specs {
            if add_h {
                c.h(a);
            }
            let index = if reuse && syms > 0 {
                (a + off) % syms
            } else {
                syms += 1;
                syms - 1
            };
            let (scale, offset) = [(1.0, 0.0), (-1.0, 0.2), (2.0, -0.4)][variant];
            let p = ParamValue::Sym {
                index,
                scale,
                offset,
            };
            let gate = SHIFT_GATES[g];
            if gate.num_qubits() == 1 {
                c.push(gate, &[a], &[p]);
            } else {
                let b = (a + off) % n;
                if a == b {
                    continue;
                }
                c.push(gate, &[a, b], &[p]);
            }
        }
        if syms == 0 {
            c.ry(0, ParamValue::sym(0));
        }
        c
    })
}

/// Central finite differences of all ⟨Zq⟩ against θᵢ on the raw circuit.
fn finite_difference(c: &Circuit, theta: &[f64], i: usize) -> Vec<f64> {
    let sim = StatevectorSimulator::new();
    let eps = 1e-6;
    let mut plus = theta.to_vec();
    plus[i] += eps;
    let mut minus = theta.to_vec();
    minus[i] -= eps;
    sim.expectations_z(c, &plus)
        .iter()
        .zip(&sim.expectations_z(c, &minus))
        .map(|(p, m)| (p - m) / (2.0 * eps))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn both_modes_agree_to_1e12_on_random_circuits(
        c in arb_symbolic_circuit(3),
        theta_seed in -3.0f64..3.0,
    ) {
        let backend = NoiselessBackend::new();
        let n_params = c.num_symbols();
        let theta: Vec<f64> = (0..n_params)
            .map(|k| theta_seed + 0.41 * k as f64)
            .collect();
        let jacs: Vec<_> = ALL_MODES
            .iter()
            .map(|&mode| {
                ParameterShiftEngine::new(&backend, &c, n_params, Execution::Exact)
                    .with_diff_mode(mode)
                    .jacobian(&theta, 7)
            })
            .collect();
        for (m, jac) in jacs.iter().enumerate().skip(1) {
            for (i, (row, base)) in jac.iter().zip(&jacs[0]).enumerate() {
                for (q, (a, b)) in row.iter().zip(base).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-12,
                        "{:?} vs Shifted2P at ∂f[{q}]/∂θ[{i}]: {a} vs {b}\n{c}",
                        ALL_MODES[m]
                    );
                }
            }
        }
    }

    #[test]
    fn decomposed_gates_match_finite_differences_in_every_mode(
        g in 0..DECOMPOSED_GATES.len(),
        a in 0..3usize,
        off in 1..3usize,
        theta_seed in -2.0f64..2.0,
    ) {
        let gate = DECOMPOSED_GATES[g];
        let mut c = Circuit::new(3);
        // Non-trivial prelude so phase-only gates still move ⟨Z⟩.
        c.h(a);
        c.ry((a + 1) % 3, ParamValue::Sym { index: 0, scale: 1.0, offset: 0.3 });
        let params: Vec<ParamValue> =
            (0..gate.num_params()).map(|k| ParamValue::sym(k + 1)).collect();
        if gate.num_qubits() == 1 {
            c.push(gate, &[a], &params);
        } else {
            c.push(gate, &[a, (a + off) % 3], &params);
        }
        let n_params = c.num_symbols();
        let theta: Vec<f64> = (0..n_params)
            .map(|k| theta_seed + 0.53 * k as f64)
            .collect();
        let backend = NoiselessBackend::new();
        for mode in ALL_MODES {
            let jac = ParameterShiftEngine::new(&backend, &c, n_params, Execution::Exact)
                .with_diff_mode(mode)
                .jacobian(&theta, 13);
            for (i, row) in jac.iter().enumerate() {
                let fd = finite_difference(&c, &theta, i);
                for (q, (s, f)) in row.iter().zip(&fd).enumerate() {
                    prop_assert!(
                        (s - f).abs() < 1e-5,
                        "{gate:?}/{mode:?} ∂f[{q}]/∂θ[{i}]: shift {s} vs fd {f}",
                    );
                }
            }
        }
    }
}

/// The pre-refactor noisy-path circuit the goldens were captured on.
fn golden_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0);
    c.ry(0, ParamValue::sym(0));
    c.rx(1, ParamValue::sym(1));
    c.rzz(0, 1, ParamValue::sym(2));
    c.cx(1, 2);
    c.rzx(1, 2, ParamValue::sym(3));
    c.rz(
        2,
        ParamValue::Sym {
            index: 1,
            scale: 2.0,
            offset: 0.3,
        },
    );
    c.ry(2, ParamValue::sym(4));
    c
}

/// Jacobian of the golden circuit on fake_lima, Shots(256), master seed
/// 0xC0FFEE — captured on the pre-refactor shifted-job path. The planner
/// refactor must not move a single bit of this, at any worker count.
const GOLDEN_BITS: [[u64; 3]; 5] = [
    [0xbfebe00000000000, 0xbf98000000000000, 0x3f70000000000000],
    [0x3fbc000000000000, 0x3fe6600000000000, 0xbfe0400000000000],
    [0x3fae000000000000, 0xbf9c000000000000, 0x3f88000000000000],
    [0xbf94000000000000, 0xbf70000000000000, 0x3fcc800000000000],
    [0xbfb3000000000000, 0xbfaa000000000000, 0x3fc4000000000000],
];

#[test]
fn noisy_jacobians_are_bit_identical_to_pre_refactor_goldens() {
    let c = golden_circuit();
    let theta = [0.37, -1.1, 0.52, 2.4, -0.8];
    let device = FakeDevice::new(fake_lima());
    for workers in [1usize, 2, 8] {
        let engine =
            ParameterShiftEngine::new(&device, &c, 5, Execution::Shots(256)).with_workers(workers);
        let jac = engine.jacobian(&theta, 0xC0FFEE);
        for (i, (row, want)) in jac.iter().zip(&GOLDEN_BITS).enumerate() {
            for (q, (v, bits)) in row.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    v.to_bits(),
                    *bits,
                    "workers={workers} row {i} qubit {q}: {v} != {}",
                    f64::from_bits(*bits)
                );
            }
        }
    }
}

#[test]
fn structured_modes_panic_cleanly_on_unknown_trainables() {
    // A symbol beyond num_trainable stays undifferentiated in every mode.
    let mut c = Circuit::new(2);
    c.ry(0, ParamValue::sym(0));
    c.rz(1, ParamValue::sym(1)); // input symbol — not trainable
    let backend = NoiselessBackend::new();
    for mode in ALL_MODES {
        let jac = ParameterShiftEngine::new(&backend, &c, 1, Execution::Exact)
            .with_diff_mode(mode)
            .jacobian(&[0.4, 0.9], 3);
        assert_eq!(jac.len(), 1, "{mode:?}");
    }
}

#[test]
fn subset_rows_match_full_jacobian_rows_in_every_mode() {
    let c = golden_circuit();
    let theta = [0.37, -1.1, 0.52, 2.4, -0.8];
    let backend = NoiselessBackend::new();
    for mode in ALL_MODES {
        let engine =
            ParameterShiftEngine::new(&backend, &c, 5, Execution::Exact).with_diff_mode(mode);
        let full = engine.jacobian(&theta, 21);
        let sub = engine.jacobian_subset(&theta, &[3, 0], 21);
        assert_eq!(sub[0], full[3], "{mode:?}");
        assert_eq!(sub[1], full[0], "{mode:?}");
    }
}
