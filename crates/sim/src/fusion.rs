//! Peephole gate fusion for repeated circuit execution.
//!
//! The parameter-shift rule executes the *same* circuit structure `2·n_params`
//! times per Jacobian with only angle offsets changing, so anything resolved
//! per-gate per-run (matrix construction, gate classification, run detection)
//! is pure waste. A [`FusedProgram`] is compiled from a [`Circuit`] once and
//! then bound against many `θ` vectors:
//!
//! * **Runs of same-qubit 1q gates collapse to one step.** A greedy backward
//!   scan merges each 1q gate into the nearest earlier run on the same wire,
//!   commuting it past disjoint gates always, and past two-qubit gates when
//!   the incoming gate is diagonal and the two-qubit gate acts diagonally on
//!   the shared wire ([`GateKind::is_diagonal_on`] — e.g. RZ slides through
//!   the control of a CX or either wire of an RZZ).
//! * **Constant steps are baked at compile time** into a [`Kernel`]; steps
//!   that reference trainable symbols re-bind per run on the stack,
//!   multiplying at most a 2×2 product — never a `2ⁿ` statevector pass per
//!   source gate.
//! * **Runs bind to the cheapest kernel class**: all-diagonal runs fold into
//!   one [`Kernel::Diag1`], all-RY (or all-RX) runs sum their angles into a
//!   single rotation, and anything else becomes a dense 2×2 product that is
//!   classified again (a product that lands diagonal still runs the diagonal
//!   kernel).
//!
//! Unitary fusion is *skipped* where per-gate semantics matter: the noisy
//! density path interleaves error channels between gates, so it fuses whole
//! gate-plus-noise superoperators instead (see `qoc-noise`).
//!
//! Identity gates are dropped at compile time.
//!
//! [`FusedProgram::for_each_shift`] serves the parameter-shift rule: it binds
//! `θ` into one kernel per step once, advances one base state in order of
//! each symbol's first reading step, and forks every `±π/2` shift of a
//! symbol from the base state at that step, rebinding only the steps that
//! read the symbol; on request it then finishes the base state as the
//! unshifted forward run. Each fork does exactly the float operations of a
//! full run at the shifted `θ`, so its state is bit-identical to one.

use std::f64::consts::FRAC_PI_2;

use crate::circuit::{Circuit, ParamValue};
use crate::complex::Complex64;
use crate::diff::ShiftRun;
use crate::gates::GateKind;
use crate::kernels::{entries_1q, Kernel};
use crate::scratch::with_scratch;
use crate::statevector::Statevector;

/// One source gate inside a symbolic 1q run, kept unresolved until binding.
#[derive(Debug, Clone, PartialEq)]
pub struct DynGate {
    /// Which gate.
    pub gate: GateKind,
    /// Its (possibly symbolic) angle parameters.
    pub params: Vec<ParamValue>,
}

/// One executable step of a fused program.
///
/// `Fixed` inlines the full [`Kernel`] (its `Unitary2` variant carries a
/// 4×4 matrix) — boxing it would put a pointer chase in the per-gate
/// execution loop, so the size skew is accepted.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A kernel fully resolved at compile time.
    Fixed(Kernel),
    /// A run of 1q gates on one wire containing trainable symbols; re-bound
    /// into a single [`Kernel`] per execution.
    Dyn1 {
        /// The wire the run acts on.
        q: usize,
        /// The source gates, in circuit order.
        gates: Vec<DynGate>,
    },
    /// A symbolic two-qubit gate; re-classified per execution.
    Dyn2 {
        /// Which gate.
        gate: GateKind,
        /// Its two wires, in listed order.
        qubits: [usize; 2],
        /// Its (possibly symbolic) angle parameters.
        params: Vec<ParamValue>,
    },
}

/// Intermediate compile-time slot (a step plus merge bookkeeping).
enum Slot {
    One {
        q: usize,
        gates: Vec<DynGate>,
    },
    Two {
        gate: GateKind,
        qubits: [usize; 2],
        params: Vec<ParamValue>,
    },
}

impl Slot {
    fn touches(&self, wire: usize) -> bool {
        match self {
            Slot::One { q, .. } => *q == wire,
            Slot::Two { qubits, .. } => qubits.contains(&wire),
        }
    }
}

impl Step {
    /// The step's (possibly symbolic) parameters, in source-gate order.
    fn params(&self) -> impl Iterator<Item = &ParamValue> {
        let (run, two): (&[DynGate], &[ParamValue]) = match self {
            Step::Fixed(_) => (&[], &[]),
            Step::Dyn1 { gates, .. } => (gates, &[]),
            Step::Dyn2 { params, .. } => (&[], params),
        };
        run.iter().flat_map(|g| &g.params).chain(two)
    }

    /// The step's kernel at `theta`: the compiled one for a fixed step, a
    /// freshly bound one otherwise. The program's one step binder.
    fn bind(&self, theta: &[f64]) -> Kernel {
        match self {
            Step::Fixed(k) => *k,
            Step::Dyn1 { q, gates } => bind_1q(*q, gates, theta),
            Step::Dyn2 {
                gate,
                qubits,
                params,
            } => {
                let mut buf = [0.0f64; 3];
                for (slot, p) in buf.iter_mut().zip(params) {
                    *slot = p.eval(theta);
                }
                Kernel::for_gate(*gate, qubits, &buf[..params.len()])
            }
        }
    }

    /// Applies the step at `theta` to `state`; a fixed step applies its
    /// compiled kernel without copying it.
    fn apply(&self, theta: &[f64], state: &mut Statevector) {
        match self {
            Step::Fixed(k) => state.apply_kernel(k),
            symbolic => state.apply_kernel(&symbolic.bind(theta)),
        }
    }
}

/// Per symbol of `circuit`, the ascending indices of the steps that read it
/// (empty for a symbol no step reads).
fn reading_steps(circuit: &Circuit, steps: &[Step]) -> Vec<Vec<usize>> {
    let mut reads = vec![Vec::new(); circuit.num_symbols()];
    for (i, step) in steps.iter().enumerate() {
        for symbol in step.params().filter_map(|p| p.symbol()) {
            if reads[symbol].last() != Some(&i) {
                reads[symbol].push(i);
            }
        }
    }
    reads
}

/// A circuit compiled into fused, pre-classified gate steps.
///
/// Compile once per circuit structure (e.g. per `PreparedCircuit`), then
/// execute with [`FusedProgram::run`]/[`FusedProgram::run_into`] for every
/// parameter binding.
///
/// # Examples
///
/// ```
/// use qoc_sim::circuit::{Circuit, ParamValue};
/// use qoc_sim::fusion::FusedProgram;
///
/// let mut c = Circuit::new(2);
/// c.ry(0, ParamValue::sym(0));
/// c.rz(0, 0.3);
/// c.rzz(0, 1, 0.5);
/// let prog = FusedProgram::compile(&c);
/// assert!(prog.len() < c.len() + 1);
/// let sv = prog.run(&[0.7]);
/// assert!((sv.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    num_qubits: usize,
    steps: Vec<Step>,
    /// Per symbol: the steps that read it (see [`reading_steps`]).
    reading_steps: Vec<Vec<usize>>,
    source_len: usize,
}

impl FusedProgram {
    /// Fuses and pre-classifies `circuit`.
    pub fn compile(circuit: &Circuit) -> FusedProgram {
        let mut slots: Vec<Slot> = Vec::with_capacity(circuit.len());
        for op in circuit.ops() {
            if op.gate == GateKind::I {
                continue;
            }
            if op.gate.num_qubits() == 2 {
                slots.push(Slot::Two {
                    gate: op.gate,
                    qubits: [op.qubits[0], op.qubits[1]],
                    params: op.params.clone(),
                });
                continue;
            }
            let wire = op.qubits[0];
            let incoming = DynGate {
                gate: op.gate,
                params: op.params.clone(),
            };
            match merge_target(&slots, wire, incoming.gate) {
                Some(i) => match &mut slots[i] {
                    Slot::One { gates, .. } => gates.push(incoming),
                    Slot::Two { .. } => unreachable!("merge target is a 1q run"),
                },
                None => slots.push(Slot::One {
                    q: wire,
                    gates: vec![incoming],
                }),
            }
        }
        let steps: Vec<Step> = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::One { q, gates } => {
                    if gates
                        .iter()
                        .all(|g| g.params.iter().all(|p| p.symbol().is_none()))
                    {
                        Step::Fixed(bind_1q(q, &gates, &[]))
                    } else {
                        Step::Dyn1 { q, gates }
                    }
                }
                Slot::Two {
                    gate,
                    qubits,
                    params,
                } => {
                    if params.iter().all(|p| p.symbol().is_none()) {
                        let resolved: Vec<f64> = params.iter().map(|p| p.eval(&[])).collect();
                        Step::Fixed(Kernel::for_gate(gate, &qubits, &resolved))
                    } else {
                        Step::Dyn2 {
                            gate,
                            qubits,
                            params,
                        }
                    }
                }
            })
            .collect();
        FusedProgram {
            num_qubits: circuit.num_qubits(),
            reading_steps: reading_steps(circuit, &steps),
            steps,
            source_len: circuit.len(),
        }
    }

    /// Wire count of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of fused execution steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the program has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of gate operations in the source circuit (before fusion).
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// The fused steps, for introspection.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Executes the program against `theta` from `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is shorter than the highest symbol index used.
    pub fn run(&self, theta: &[f64]) -> Statevector {
        let mut sv = Statevector::zero_state(self.num_qubits);
        self.run_into(theta, &mut sv);
        sv
    }

    /// Executes the program against `theta`, applying to `state` in place.
    ///
    /// # Panics
    ///
    /// Panics on a state/program width mismatch or an out-of-range symbol.
    pub fn run_into(&self, theta: &[f64], state: &mut Statevector) {
        assert_eq!(
            state.num_qubits(),
            self.num_qubits,
            "state width does not match program width"
        );
        for step in &self.steps {
            step.apply(theta, state);
        }
    }

    /// Runs the program at each `±π/2` shift of each symbol in `symbols`
    /// and hands `visit(run, state)` the final state of each
    /// [`ShiftRun::Shifted`] run — `θ` with `θ[symbols[row]]` raised or
    /// lowered by π/2, the two runs of the parameter-shift rule, plus
    /// before minus per row — and then, when `unshifted` is set, of the
    /// [`ShiftRun::Unshifted`] forward run at `θ`.
    ///
    /// `θ` is bound into one kernel per step once, and one base state
    /// advances through them in order of each symbol's first reading step.
    /// Each shift copies the base state at its symbol's first reading step
    /// into a fork, rebinds the steps that read the symbol at the shifted
    /// `θ`, and applies the base kernels everywhere else: exactly the float
    /// operations of [`Self::run_into`] at the shifted `θ`, so the state is
    /// bit-identical to that run's. A symbol no step reads visits the
    /// unshifted final state. The forward run is the base state carried
    /// through the remaining base kernels, bit-identical to
    /// [`Self::run_into`] at `θ`. Both states come from the per-thread
    /// scratch pool ([`with_scratch`]).
    ///
    /// # Panics
    ///
    /// Panics if a listed symbol indexes past `theta`.
    pub fn for_each_shift(
        &self,
        theta: &[f64],
        symbols: &[usize],
        unshifted: bool,
        mut visit: impl FnMut(ShiftRun, &Statevector),
    ) {
        let len = self.steps.len();
        let reads = |s: usize| self.reading_steps.get(s).map_or(&[][..], Vec::as_slice);
        let first = |s: usize| reads(s).first().copied().unwrap_or(len);
        let base: Vec<Kernel> = self.steps.iter().map(|step| step.bind(theta)).collect();
        let mut order: Vec<usize> = (0..symbols.len()).collect();
        order.sort_by_key(|&r| first(symbols[r]));
        let mut shifted = theta.to_vec();
        with_scratch(self.num_qubits, |state: &mut Statevector| {
            with_scratch(self.num_qubits, |fork: &mut Statevector| {
                state.reset_zero();
                let mut applied = 0;
                for &row in &order {
                    let s = symbols[row];
                    let start = first(s);
                    for k in &base[applied..start] {
                        state.apply_kernel(k);
                    }
                    applied = start;
                    for (minus, value) in
                        [(false, theta[s] + FRAC_PI_2), (true, theta[s] - FRAC_PI_2)]
                    {
                        fork.copy_from(state);
                        shifted[s] = value;
                        let mut next = start;
                        for &i in reads(s) {
                            for k in &base[next..i] {
                                fork.apply_kernel(k);
                            }
                            self.steps[i].apply(&shifted, fork);
                            next = i + 1;
                        }
                        for k in &base[next..] {
                            fork.apply_kernel(k);
                        }
                        visit(ShiftRun::Shifted { row, minus }, fork);
                    }
                    shifted[s] = theta[s];
                }
                if unshifted {
                    for k in &base[applied..] {
                        state.apply_kernel(k);
                    }
                    visit(ShiftRun::Unshifted, state);
                }
            })
        });
    }
}

/// Finds the earliest-reachable existing 1q run on `wire` that `gate` can
/// legally join, commuting backward past disjoint slots and past two-qubit
/// gates that act diagonally on the shared wire (diagonal incoming gates
/// only).
fn merge_target(slots: &[Slot], wire: usize, gate: GateKind) -> Option<usize> {
    for (i, slot) in slots.iter().enumerate().rev() {
        if !slot.touches(wire) {
            continue;
        }
        match slot {
            Slot::One { .. } => return Some(i),
            Slot::Two {
                gate: two, qubits, ..
            } => {
                let pos = if qubits[0] == wire { 0 } else { 1 };
                if gate.is_diagonal() && two.is_diagonal_on(pos) {
                    continue;
                }
                return None;
            }
        }
    }
    None
}

/// Row-major 2×2 product `a · b`.
fn mul2(a: &[Complex64; 4], b: &[Complex64; 4]) -> [Complex64; 4] {
    [
        a[0].mul_add(b[0], a[1] * b[2]),
        a[0].mul_add(b[1], a[1] * b[3]),
        a[2].mul_add(b[0], a[3] * b[2]),
        a[2].mul_add(b[1], a[3] * b[3]),
    ]
}

/// Binds a 1q run against `theta` and classifies the result into the
/// cheapest kernel class.
fn bind_1q(q: usize, gates: &[DynGate], theta: &[f64]) -> Kernel {
    let mut buf = [0.0f64; 3];
    let resolve = |g: &DynGate, buf: &mut [f64; 3]| -> usize {
        for (slot, p) in buf.iter_mut().zip(&g.params) {
            *slot = p.eval(theta);
        }
        g.params.len()
    };
    if gates.len() == 1 {
        let n = resolve(&gates[0], &mut buf);
        return Kernel::for_gate(gates[0].gate, &[q], &buf[..n]);
    }
    if gates.iter().all(|g| g.gate.is_diagonal()) {
        // Fold diagonal entries directly; no 2×2 product needed.
        let mut d = [Complex64::ONE, Complex64::ONE];
        for g in gates {
            let n = resolve(g, &mut buf);
            match Kernel::for_gate(g.gate, &[q], &buf[..n]) {
                Kernel::Diag1 { d: dg, .. } => {
                    d[0] = dg[0] * d[0];
                    d[1] = dg[1] * d[1];
                }
                Kernel::Id => {}
                other => unreachable!("diagonal gate bound to {other:?}"),
            }
        }
        return Kernel::Diag1 { q, d };
    }
    for axis in [GateKind::Ry, GateKind::Rx] {
        if gates.iter().all(|g| g.gate == axis) {
            // Same-axis rotations compose by angle addition.
            let angle: f64 = gates
                .iter()
                .map(|g| {
                    let n = resolve(g, &mut buf);
                    debug_assert_eq!(n, 1);
                    buf[0]
                })
                .sum();
            return Kernel::for_gate(axis, &[q], &[angle]);
        }
    }
    let mut m = [
        Complex64::ONE,
        Complex64::ZERO,
        Complex64::ZERO,
        Complex64::ONE,
    ];
    for g in gates {
        let n = resolve(g, &mut buf);
        m = mul2(&entries_1q(g.gate, &buf[..n]), &m);
    }
    // A product whose off-diagonal cancelled exactly still earns the
    // diagonal kernel (e.g. RZ·Z·Phase chains routed through the dense path).
    if m[1] == Complex64::ZERO && m[2] == Complex64::ZERO {
        Kernel::Diag1 { q, d: [m[0], m[3]] }
    } else {
        Kernel::Unitary1 { q, m }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::StatevectorSimulator;

    fn assert_matches_reference(c: &Circuit, theta: &[f64], max_steps: usize) {
        let prog = FusedProgram::compile(c);
        assert!(
            prog.len() <= max_steps,
            "expected ≤{max_steps} fused steps, got {}",
            prog.len()
        );
        let got = prog.run(theta);
        let want = StatevectorSimulator::new().run_reference(c, theta);
        for (g, w) in got.amplitudes().iter().zip(want.amplitudes()) {
            assert!(g.approx_eq(*w, 1e-12), "{g} vs {w}");
        }
    }

    #[test]
    fn adjacent_run_fuses_to_one_step() {
        let mut c = Circuit::new(2);
        c.ry(0, 0.3);
        c.rz(0, -0.8);
        c.rx(0, 1.1);
        c.ry(0, 0.2);
        c.h(1);
        assert_matches_reference(&c, &[], 2);
    }

    #[test]
    fn diagonal_commutes_through_control_wire() {
        // RZ on the CX control merges with the pre-control run; RY does not.
        let mut c = Circuit::new(2);
        c.ry(0, ParamValue::sym(0));
        c.cx(0, 1);
        c.rz(0, ParamValue::sym(1));
        c.ry(0, ParamValue::sym(2));
        let prog = FusedProgram::compile(&c);
        // [run ry+rz on 0] [cx] [ry on 0] = 3 steps.
        assert_eq!(prog.len(), 3);
        let theta = [0.4, -1.3, 0.9];
        let got = prog.run(&theta);
        let want = StatevectorSimulator::new().run_reference(&c, &theta);
        for (g, w) in got.amplitudes().iter().zip(want.amplitudes()) {
            assert!(g.approx_eq(*w, 1e-12));
        }
    }

    #[test]
    fn non_diagonal_does_not_cross_target_wire() {
        let mut c = Circuit::new(2);
        c.rz(1, 0.4);
        c.cx(0, 1);
        c.rz(1, -0.7); // CX acts as X on wire 1: RZ must NOT slide through.
        assert_matches_reference(&c, &[], 3);
    }

    #[test]
    fn diagonal_crosses_rzz_on_both_wires() {
        let mut c = Circuit::new(3);
        c.rz(0, 0.2);
        c.rz(1, 0.3);
        c.rzz(0, 1, ParamValue::sym(0));
        c.rz(0, 0.5);
        c.rz(1, -0.1);
        // Both trailing RZs merge backward through the RZZ → 3 steps.
        assert_matches_reference(&c, &[0.77], 3);
    }

    #[test]
    fn symbolic_ry_run_sums_angles() {
        let mut c = Circuit::new(1);
        c.ry(0, ParamValue::sym(0));
        c.ry(0, 0.25);
        c.ry(0, ParamValue::sym(1));
        let prog = FusedProgram::compile(&c);
        assert_eq!(prog.len(), 1);
        let theta = [1.9, -0.6];
        let got = prog.run(&theta);
        let want = StatevectorSimulator::new().run_reference(&c, &theta);
        for (g, w) in got.amplitudes().iter().zip(want.amplitudes()) {
            assert!(g.approx_eq(*w, 1e-12));
        }
    }

    #[test]
    fn identity_gates_are_dropped() {
        let mut c = Circuit::new(2);
        c.push(GateKind::I, &[0], &[]);
        c.h(0);
        c.push(GateKind::I, &[1], &[]);
        let prog = FusedProgram::compile(&c);
        assert_eq!(prog.len(), 1);
    }

    #[test]
    fn dense_product_landing_diagonal_is_reclassified() {
        // S·H·H·Sdg = I up to rounding; H·H alone folds via the dense path.
        let mut c = Circuit::new(1);
        c.push(GateKind::S, &[0], &[]);
        c.h(0);
        c.h(0);
        assert_matches_reference(&c, &[], 1);
    }

    /// Every state `for_each_shift` visits equals `run` at its run's `θ`
    /// amplitude for amplitude, and each `(row, sign)` and the unshifted
    /// run are visited once.
    fn assert_forks_match_shifted_runs(c: &Circuit, theta: &[f64], symbols: &[usize]) {
        let prog = FusedProgram::compile(c);
        let mut visits = Vec::new();
        prog.for_each_shift(theta, symbols, true, |run, sv| {
            let want = prog.run(&run.theta(theta, symbols));
            assert!(
                sv.amplitudes() == want.amplitudes(),
                "{run:?} of symbols {symbols:?} differs from its run"
            );
            visits.push(run);
        });
        visits.sort_unstable();
        let mut want: Vec<ShiftRun> = (0..symbols.len())
            .flat_map(|row| [false, true].map(|minus| ShiftRun::Shifted { row, minus }))
            .collect();
        want.push(ShiftRun::Unshifted);
        assert_eq!(visits, want);
        let mut shifted_only = Vec::new();
        prog.for_each_shift(theta, symbols, false, |run, _| shifted_only.push(run));
        shifted_only.sort_unstable();
        assert_eq!(shifted_only, want[..2 * symbols.len()]);
    }

    /// Symbols in `Dyn1` runs (several in one run, one spread over two
    /// runs) and in `Dyn2` gates, around fixed steps; symbol 3 is read by
    /// no step.
    fn shift_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.ry(0, ParamValue::sym(0));
        c.rz(0, ParamValue::sym(1));
        c.rx(1, ParamValue::sym(2));
        c.rzz(0, 1, ParamValue::sym(4));
        c.cx(1, 2);
        c.ry(
            1,
            ParamValue::Sym {
                index: 0,
                scale: -2.0,
                offset: 0.3,
            },
        );
        c.rxx(1, 2, ParamValue::sym(2));
        c.rx(2, ParamValue::sym(5));
        c.ry(2, 0.4);
        c
    }

    #[test]
    fn forks_match_shifted_runs_bit_for_bit() {
        let c = shift_circuit();
        let prog = FusedProgram::compile(&c);
        assert!(
            prog.steps()
                .iter()
                .any(|s| matches!(s, Step::Dyn1 { gates, .. }
            if gates.iter().filter(|g| g.params.iter().any(|p| p.symbol().is_some())).count() > 1))
        );
        assert!(prog.steps().iter().any(|s| matches!(s, Step::Dyn2 { .. })));
        assert!(prog.reading_steps[3].is_empty());
        let theta = [0.37, -1.1, 0.52, 2.4, -0.8, 1.3];
        assert_forks_match_shifted_runs(&c, &theta, &[0, 1, 2, 3, 4, 5]);
        // Out of first-step order, and the last symbol first.
        assert_forks_match_shifted_runs(&c, &theta, &[5, 2, 0]);
    }

    #[test]
    fn forks_cover_repeated_unread_and_no_symbols() {
        let c = shift_circuit();
        let theta = [0.37, -1.1, 0.52, 2.4, -0.8, 1.3, 0.9];
        // Symbol 6 lies past every symbol the circuit reads.
        assert_forks_match_shifted_runs(&c, &theta, &[3, 6]);
        assert_forks_match_shifted_runs(&c, &theta, &[2, 4, 2]);
        assert_forks_match_shifted_runs(&c, &theta, &[]);
    }

    #[test]
    fn empty_circuit_runs() {
        let c = Circuit::new(2);
        let prog = FusedProgram::compile(&c);
        assert!(prog.is_empty());
        let sv = prog.run(&[]);
        assert!((sv.probabilities()[0] - 1.0).abs() < 1e-15);
    }
}
