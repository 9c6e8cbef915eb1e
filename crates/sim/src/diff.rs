//! Shift-aware differentiation primitives.
//!
//! Two building blocks behind the Jacobian planner in `qoc-core`:
//!
//! - [`decompose_for_shift_rules`] — Crooks-style decomposition (PAPERS.md,
//!   Crooks 2019) of trainable gates whose generators do not obey the
//!   two-term ±π/2 shift rule (`p`/`u3`/`cp`/`crx`/`cry`/`crz`) into
//!   sequences of shift-rule rotations. Each symbolic angle is split
//!   affinely, so every resulting occurrence stays differentiable and the
//!   per-occurrence-sum convention of the shift engine applies unchanged.
//! - [`adjoint_jacobian`] — exact adjoint-mode differentiation: one forward
//!   pass plus one backward `U†` sweep ([`Kernel::adjoint`]) that stops at
//!   the earliest trainable gate, so a frozen encoder prefix is never
//!   back-propagated through.
//!
//! Both operate on the per-op circuit IR (not the fused program), so every
//! trainable op keeps a kernel of its own. Span: `diff.adjoint`.

use std::collections::BTreeMap;

use crate::circuit::{Circuit, Operation, ParamValue};
use crate::complex::Complex64;
use crate::gates::GateKind;
use crate::kernels::Kernel;
use crate::statevector::{pooled_copy, pooled_zero};

/// Multiplies a gate angle by `f`, distributing over the affine form so a
/// symbolic angle `s·θ[i]+o` becomes `(s·f)·θ[i]+(o·f)`.
fn scaled(p: ParamValue, f: f64) -> ParamValue {
    match p {
        ParamValue::Const(v) => ParamValue::Const(v * f),
        ParamValue::Sym {
            index,
            scale,
            offset,
        } => ParamValue::Sym {
            index,
            scale: scale * f,
            offset: offset * f,
        },
    }
}

/// Rewrites every *trainable* gate that lacks the two-term shift rule into
/// an equivalent sequence of shift-rule rotations (equal up to global
/// phase, which Z-basis readout cannot see).
///
/// A gate is trainable when any of its angles references a symbol with
/// index below `num_trainable` (higher indices are bound data-encoder
/// inputs and never differentiated). Returns `None` when the circuit needs
/// no rewriting — callers keep the original, so circuits that were already
/// shift-friendly take the exact same execution path as before.
///
/// Decompositions (circuit order, control first where applicable):
///
/// | gate        | replacement                                          |
/// |-------------|------------------------------------------------------|
/// | `p(λ)`      | `rz(λ)`                                              |
/// | `u3(θ,φ,λ)` | `rz(λ) · ry(θ) · rz(φ)`                              |
/// | `cp(λ)`     | `rz(a,λ/2) rz(b,λ/2) cx rz(b,−λ/2) cx`               |
/// | `crz(p)`    | `rz(t,p/2) cx rz(t,−p/2) cx`                         |
/// | `cry(p)`    | `ry(t,p/2) cx ry(t,−p/2) cx`                         |
/// | `crx(p)`    | `rx(t,p/2) cz rx(t,−p/2) cz`                         |
///
/// # Panics
///
/// Panics if a trainable gate has no known decomposition (cannot happen
/// for the current gate set: every parameterized [`GateKind`] either
/// supports the shift rule natively or appears in the table above).
pub fn decompose_for_shift_rules(circuit: &Circuit, num_trainable: usize) -> Option<Circuit> {
    let trainable = |op: &Operation| {
        op.params
            .iter()
            .any(|p| matches!(p.symbol(), Some(s) if s < num_trainable))
    };
    if !circuit
        .ops()
        .iter()
        .any(|op| trainable(op) && !op.gate.supports_shift_rule())
    {
        return None;
    }
    let mut out = Circuit::new(circuit.num_qubits());
    for op in circuit.ops() {
        if op.gate.supports_shift_rule() || !trainable(op) {
            out.push(op.gate, &op.qubits, &op.params);
            continue;
        }
        match op.gate {
            GateKind::Phase => out.rz(op.qubits[0], op.params[0]),
            GateKind::U3 => {
                let q = op.qubits[0];
                out.rz(q, op.params[2]);
                out.ry(q, op.params[0]);
                out.rz(q, op.params[1]);
            }
            GateKind::Cp => {
                let (a, b) = (op.qubits[0], op.qubits[1]);
                let half = scaled(op.params[0], 0.5);
                out.rz(a, half);
                out.rz(b, half);
                out.cx(a, b);
                out.rz(b, scaled(op.params[0], -0.5));
                out.cx(a, b);
            }
            GateKind::Crz => {
                let (c, t) = (op.qubits[0], op.qubits[1]);
                out.rz(t, scaled(op.params[0], 0.5));
                out.cx(c, t);
                out.rz(t, scaled(op.params[0], -0.5));
                out.cx(c, t);
            }
            GateKind::Cry => {
                let (c, t) = (op.qubits[0], op.qubits[1]);
                out.ry(t, scaled(op.params[0], 0.5));
                out.cx(c, t);
                out.ry(t, scaled(op.params[0], -0.5));
                out.cx(c, t);
            }
            GateKind::Crx => {
                let (c, t) = (op.qubits[0], op.qubits[1]);
                out.rx(t, scaled(op.params[0], 0.5));
                out.cz(c, t);
                out.rx(t, scaled(op.params[0], -0.5));
                out.cz(c, t);
            }
            other => panic!("no shift-rule decomposition for trainable gate {other}"),
        }
    }
    Some(out)
}

/// One shifted gate occurrence contributing to a Jacobian row: the
/// parameter-shift rule evaluates `±π/2` shifts of operation `op_index`'s
/// parameter `slot` and weighs the difference by the occurrence's affine
/// `scale` (chain rule through `scale·θ+offset`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftOccurrence {
    /// Operation index inside the circuit.
    pub op_index: usize,
    /// Parameter slot inside that operation.
    pub slot: usize,
    /// Affine coefficient of the symbol in that slot.
    pub scale: f64,
}

/// The occurrences of one trainable symbol — one Jacobian row.
#[derive(Debug, Clone, Default)]
pub struct JacobianRowSpec {
    /// All gate occurrences of the row's symbol.
    pub occurrences: Vec<ShiftOccurrence>,
}

impl JacobianRowSpec {
    /// `true` for one occurrence with |scale| = 1: the row's gradient is
    /// `½·(f(θ+π/2) − f(θ−π/2))` with the *symbol* itself shifted, since
    /// the chain-rule factor ±1 cancels against the sign of the shift.
    pub fn is_symbol_shift(&self) -> bool {
        matches!(self.occurrences.as_slice(), [o] if (o.scale.abs() - 1.0).abs() < 1e-12)
    }
}

/// Builds one [`JacobianRowSpec`] per requested symbol from the circuit's
/// occurrence table.
pub fn rows_for_symbols(circuit: &Circuit, symbols: &[usize]) -> Vec<JacobianRowSpec> {
    symbols
        .iter()
        .map(|&s| JacobianRowSpec {
            occurrences: circuit
                .symbol_occurrences(s)
                .into_iter()
                .map(|(op_index, slot)| {
                    let scale = match circuit.ops()[op_index].params[slot] {
                        ParamValue::Sym { scale, .. } => scale,
                        ParamValue::Const(_) => 0.0,
                    };
                    ShiftOccurrence {
                        op_index,
                        slot,
                        scale,
                    }
                })
                .collect(),
        })
        .collect()
}

/// Work accounting for one adjoint-mode Jacobian evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdjointStats {
    /// Kernels applied in the forward pass (the circuit length).
    pub gates_forward: usize,
    /// `U†` kernels applied in the backward sweep, across the running state
    /// and all adjoint observables.
    pub gates_backward: usize,
}

/// The generator `H` of a shift-rule gate (`U = e^{-iθH/2}`) as a dense
/// kernel on the operation's wires. `H` is Hermitian, not unitary; that is
/// fine because [`Kernel::apply`] is linear in the matrix entries.
fn generator_kernel(op: &Operation) -> Kernel {
    let g = op
        .gate
        .generator()
        .unwrap_or_else(|| panic!("gate {} has no shift-rule generator", op.gate));
    let m = g.as_slice();
    match op.qubits.len() {
        1 => Kernel::Unitary1 {
            q: op.qubits[0],
            m: [m[0], m[1], m[2], m[3]],
        },
        _ => {
            let mut buf = [Complex64::ZERO; 16];
            buf.copy_from_slice(m);
            Kernel::Unitary2 {
                a: op.qubits[0],
                b: op.qubits[1],
                m: buf,
            }
        }
    }
}

/// Evaluates an exact Jacobian of all per-qubit Z expectations by adjoint
/// differentiation: one forward pass, then one backward sweep that holds
/// the running state `|ψ_k⟩` and one adjoint observable `|λ_q⟩ =
/// U_{k+1}†…U_G† Z_q |ψ⟩` per output qubit.
///
/// For `U_k = e^{-iθH/2}`, `∂⟨Z_q⟩/∂angle_k = Im⟨λ_q|H|ψ_k⟩`; the affine
/// `scale` applies the chain rule and occurrences of one symbol sum. The
/// sweep stops at the earliest trainable operation, so gates before it
/// (e.g. a bound data encoder) are applied exactly once.
///
/// Exact statevector readout only — there is no sampling hook because
/// adjoint gradients have no physical shot-noise analogue.
///
/// # Panics
///
/// Panics if an occurrence points at a gate without a shift-rule generator
/// (run [`decompose_for_shift_rules`] first).
pub fn adjoint_jacobian(
    circuit: &Circuit,
    theta: &[f64],
    rows: &[JacobianRowSpec],
) -> (Vec<Vec<f64>>, AdjointStats) {
    let n = circuit.num_qubits();
    let ops = circuit.ops();
    let kernels: Vec<Kernel> = ops
        .iter()
        .map(|op| Kernel::from_operation(op, theta))
        .collect();

    // op_index → rows (and chain-rule scales) that need ∂/∂angle there.
    let mut needed: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
    for (r, row) in rows.iter().enumerate() {
        for occ in &row.occurrences {
            assert!(
                ops[occ.op_index].gate.generator().is_some(),
                "occurrence at op {} ({}) has no generator; decompose first",
                occ.op_index,
                ops[occ.op_index].gate
            );
            needed.entry(occ.op_index).or_default().push((r, occ.scale));
        }
    }

    let mut out = vec![vec![0.0; n]; rows.len()];
    let mut stats = AdjointStats::default();
    let mut span = qoc_telemetry::span!("diff.adjoint", rows = rows.len(), outputs = n);

    let mut psi = pooled_zero(n);
    for k in &kernels {
        psi.apply_kernel(k);
    }
    stats.gates_forward = kernels.len();

    if let Some(&first) = needed.keys().next() {
        let mut lambdas: Vec<_> = (0..n)
            .map(|q| {
                let mut l = pooled_copy(&psi);
                l.apply_kernel(&Kernel::Diag1 {
                    q,
                    d: [Complex64::ONE, -Complex64::ONE],
                });
                l
            })
            .collect();
        for k in (first..ops.len()).rev() {
            if let Some(users) = needed.get(&k) {
                let mut mu = pooled_copy(&psi);
                mu.apply_kernel(&generator_kernel(&ops[k]));
                for (q, l) in lambdas.iter().enumerate() {
                    let partial = l.inner(&mu).im;
                    for &(r, scale) in users {
                        out[r][q] += scale * partial;
                    }
                }
            }
            if k > first {
                let adj = kernels[k].adjoint();
                psi.apply_kernel(&adj);
                for l in &mut lambdas {
                    l.apply_kernel(&adj);
                }
                stats.gates_backward += 1 + n;
            }
        }
    }
    if let Some(s) = span.as_mut() {
        s.field("gates_forward", stats.gates_forward);
        s.field("gates_backward", stats.gates_backward);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::StatevectorSimulator;

    /// Exact per-qubit Z Jacobian by central finite differences.
    fn fd_jacobian(circuit: &Circuit, theta: &[f64], symbols: &[usize], eps: f64) -> Vec<Vec<f64>> {
        let sim = StatevectorSimulator::new();
        symbols
            .iter()
            .map(|&s| {
                let mut tp = theta.to_vec();
                let mut tm = theta.to_vec();
                tp[s] += eps;
                tm[s] -= eps;
                let fp = sim.expectations_z(circuit, &tp);
                let fm = sim.expectations_z(circuit, &tm);
                fp.iter()
                    .zip(&fm)
                    .map(|(p, m)| (p - m) / (2.0 * eps))
                    .collect()
            })
            .collect()
    }

    /// Mixed circuit exercising shared symbols, affine scales, and a frozen
    /// (constant-angle) prefix.
    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.rx(1, 0.4);
        c.ry(0, ParamValue::sym(0));
        c.rzz(0, 1, ParamValue::sym(1));
        c.cx(1, 2);
        c.rzx(1, 2, ParamValue::sym(2));
        c.rz(
            2,
            ParamValue::Sym {
                index: 0,
                scale: -1.5,
                offset: 0.2,
            },
        );
        c.ry(2, ParamValue::sym(1));
        c
    }

    #[test]
    fn adjoint_matches_finite_differences() {
        let c = test_circuit();
        let theta = [0.7, -0.3, 1.2];
        let rows = rows_for_symbols(&c, &[0, 1, 2]);
        let (jac, stats) = adjoint_jacobian(&c, &theta, &rows);
        let fd = fd_jacobian(&c, &theta, &[0, 1, 2], 1e-6);
        for (a, b) in jac.iter().flatten().zip(fd.iter().flatten()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert_eq!(stats.gates_forward, c.len());
        // Earliest trainable op is index 2 → 5 backward steps × (1 + 3).
        assert_eq!(stats.gates_backward, (c.len() - 1 - 2) * 4);
    }

    #[test]
    fn subset_rows_only_touch_requested_symbols() {
        let c = test_circuit();
        let theta = [0.7, -0.3, 1.2];
        let rows = rows_for_symbols(&c, &[2]);
        let (jac, _) = adjoint_jacobian(&c, &theta, &rows);
        let fd = fd_jacobian(&c, &theta, &[2], 1e-6);
        for (a, b) in jac[0].iter().zip(&fd[0]) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn decomposition_preserves_unitary_action() {
        // Every decomposable gate, trainable, checked against the original
        // circuit state up to global phase.
        let cases: Vec<(GateKind, Vec<usize>, usize)> = vec![
            (GateKind::Phase, vec![0], 1),
            (GateKind::U3, vec![1], 3),
            (GateKind::Cp, vec![0, 1], 1),
            (GateKind::Crx, vec![1, 0], 1),
            (GateKind::Cry, vec![0, 1], 1),
            (GateKind::Crz, vec![1, 0], 1),
        ];
        for (gate, qubits, nparams) in cases {
            let mut c = Circuit::new(2);
            // Non-trivial input state so control branches both matter.
            c.h(0);
            c.ry(1, 0.8);
            let params: Vec<ParamValue> = (0..nparams).map(ParamValue::sym).collect();
            c.push(gate, &qubits, &params);
            let d = decompose_for_shift_rules(&c, nparams)
                .unwrap_or_else(|| panic!("{gate} should decompose"));
            assert!(d
                .ops()
                .iter()
                .all(|op| op.params.is_empty() || op.gate.supports_shift_rule()));
            let theta = [0.9, -0.4, 1.7];
            let sim = StatevectorSimulator::new();
            let a = sim.run(&c, &theta);
            let b = sim.run(&d, &theta);
            assert!(
                a.approx_eq_up_to_phase(&b, 1e-12),
                "{gate} decomposition drifted"
            );
        }
    }

    #[test]
    fn decomposition_is_identity_when_not_needed() {
        let c = test_circuit();
        assert!(decompose_for_shift_rules(&c, 3).is_none());
        // A crz on input symbols only (index ≥ num_trainable) stays put.
        let mut c2 = Circuit::new(2);
        c2.ry(0, ParamValue::sym(0));
        c2.push(GateKind::Crz, &[0, 1], &[ParamValue::sym(1)]);
        assert!(decompose_for_shift_rules(&c2, 1).is_none());
        assert!(decompose_for_shift_rules(&c2, 2).is_some());
    }

    #[test]
    fn decomposed_crz_gradient_matches_finite_differences() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.ry(1, ParamValue::sym(0));
        c.push(GateKind::Crz, &[0, 1], &[ParamValue::sym(1)]);
        let d = decompose_for_shift_rules(&c, 2).expect("decomposes");
        let theta = [0.6, -1.3];
        let rows = rows_for_symbols(&d, &[0, 1]);
        let (jac, _) = adjoint_jacobian(&d, &theta, &rows);
        // FD runs on the *original* circuit: the decomposition must carry
        // the true derivative, not just the value.
        let fd = fd_jacobian(&c, &theta, &[0, 1], 1e-6);
        for (a, b) in jac.iter().flatten().zip(fd.iter().flatten()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_rows_yield_empty_jacobian() {
        let c = test_circuit();
        let (jac, stats) = adjoint_jacobian(&c, &[0.1, 0.2, 0.3], &[]);
        assert!(jac.is_empty());
        assert_eq!(stats.gates_backward, 0);
    }
}
