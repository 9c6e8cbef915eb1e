//! Shift-aware gate decomposition behind the Jacobian planner in
//! `qoc-core`.
//!
//! [`decompose_for_shift_rules`] rewrites, Crooks-style (PAPERS.md, Crooks
//! 2019), the trainable gates whose generators do not obey the two-term
//! ±π/2 shift rule (`p`/`u3`/`cp`/`crx`/`cry`/`crz`) into sequences of
//! shift-rule rotations. Each symbolic angle is split affinely, so every
//! resulting occurrence stays differentiable and the per-occurrence-sum
//! convention of the shift engine applies unchanged. Which Jacobian rows
//! a backend's hook is offered is the planner's rule alone
//! (`qoc_core::shift`): the ±½ rows of a decomposed controlled rotation
//! run as per-occurrence shifted jobs.
//!
//! [`ShiftRun`] names the runs a fork driver hands its visitor: each row's
//! two shifted runs and, when asked for, the unshifted forward run.

use std::f64::consts::FRAC_PI_2;

use crate::circuit::{Circuit, Operation, ParamValue};
use crate::gates::GateKind;

/// One run of the parameter-shift rule that a fork driver
/// ([`crate::fusion::FusedProgram::for_each_shift`], and the noisy one in
/// `qoc-noise`) hands its visitor. Shifted runs order before the unshifted
/// one, by row, `+` before `−`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShiftRun {
    /// The run at `θ` with `θ[symbols[row]]` raised (`minus == false`) or
    /// lowered by π/2.
    Shifted {
        /// The requested row.
        row: usize,
        /// Whether the row's symbol is lowered.
        minus: bool,
    },
    /// The run at `θ` itself: the forward run.
    Unshifted,
}

impl ShiftRun {
    /// The binding this run evaluates, for rows `symbols` of `theta`.
    pub fn theta(self, theta: &[f64], symbols: &[usize]) -> Vec<f64> {
        let mut at = theta.to_vec();
        if let ShiftRun::Shifted { row, minus } = self {
            at[symbols[row]] += if minus { -FRAC_PI_2 } else { FRAC_PI_2 };
        }
        at
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::StatevectorSimulator;

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
}
