//! Noisy circuit execution on the density-matrix backend.
//!
//! A circuit and its noise model compile into a [`NoisyProgram`] that
//! updates `ρ` in place:
//!
//! - Every single-qubit gate is followed by the same per-wire noise, so the
//!   gate and its noise fold into one 4×4 superoperator
//!   `S = N_q · (U ⊗ Ū)` on the local index `c + 2r` of wire `q` (column
//!   bit `c`, row bit `r` of the flattened `ρ`). `N_q`, the product of the
//!   wire's noise-entry superoperators (e.g. thermal · depolarizing), is
//!   composed once at compile time; only `U` is rebound per `θ`, and
//!   constant gates are baked in whole.
//! - Single-qubit maps on different wires commute, so consecutive
//!   superoperators on one wire multiply into a *pending* 4×4 that touches
//!   `ρ` only when a two-qubit gate needs the wire, or at the end: one
//!   [`Kernel::Unitary2`] pass on the flattened bits `(q, n + q)` per run of
//!   single-qubit gates. The fusion is exact; only the floating-point
//!   summation order changes.
//! - Two-qubit gates keep their kernel pass pair, their analytic
//!   depolarizing runs in place, a two-qubit Kraus channel runs as one
//!   16×16 superoperator pass, and per-wire entries (thermal relaxation
//!   during a CX) start that wire's next pending map.
//!
//! Running a program first *binds* `θ`: one walk of the step list multiplies
//! out the pending maps and turns the steps into bound in-place passes,
//! which then run on `ρ`. A *measured* run
//! ([`NoisyProgram::outcome_probabilities`]) reads only the diagonal of
//! `ρ`, so its *tail* — the closing flushes, on distinct wires — computes
//! only the entries the diagonal depends on, each with the full pass's
//! float operations; [`NoisyProgram::run`] keeps every pass in full.
//!
//! [`NoisyProgram::for_each_shift`] reuses one bound list for the
//! parameter-shift rule. A shift of a symbol changes only the pending maps
//! of the wires its single-qubit gates sit on (its *dirty* wires) and the
//! two-qubit gates reading it, and only up to its *rejoin step*. The forks
//! of up to `L/2` symbols run as one `L`-lane state, `L = 8` where the host
//! has AVX-512F and `L = 2` elsewhere ([`LaneArm`]): at the pass where the
//! first of their windows opens, every lane loads the unshifted evolution;
//! from there the lanes run the unshifted passes they all share, one pass
//! with a matrix per lane for each dirty flush, and the measured tail. Each
//! lane does the float operations of a measured run at its shifted `θ`, so
//! each fork's distribution is bit-identical to one. On request, the base
//! state then runs the rest of the unshifted passes as the forward run.
//!
//! The dense per-gate Kraus evolution is the oracle the program is tested
//! against (`tests/compiled_equivalence.rs`).

use std::f64::consts::FRAC_PI_2;
use std::ops::Range;

use qoc_sim::circuit::{Circuit, Operation, ParamValue};
use qoc_sim::complex::Complex64;
use qoc_sim::diff::ShiftRun;
use qoc_sim::kernels::{entries_1q, Coeff, Kernel};
use qoc_sim::scratch::with_scratch;

use crate::channels::depolarizing_1q;
use crate::density::{
    lane_matrix, superoperator, DensityLanes, DensityMatrix, LaneArm, Passes, MAX_QUBITS,
};
use crate::model::{NoiseModel, NoiseOpKind, WireSelect};
use crate::readout::{apply_confusion, ReadoutError};

/// A row-major 4×4 single-qubit superoperator on the local index `c + 2r`.
type Super1 = [Complex64; 16];

const IDENTITY: Super1 = {
    let mut m = [Complex64::ZERO; 16];
    m[0] = Complex64::ONE;
    m[5] = Complex64::ONE;
    m[10] = Complex64::ONE;
    m[15] = Complex64::ONE;
    m
};

/// `a · b` for row-major 4×4 matrices.
fn mul4(a: &Super1, b: &Super1) -> Super1 {
    std::array::from_fn(|i| {
        let (r, c) = (i / 4, i % 4);
        let mut acc = Complex64::ZERO;
        for k in 0..4 {
            acc = a[4 * r + k].mul_add(b[4 * k + c], acc);
        }
        acc
    })
}

/// `U ⊗ Ū`, the superoperator of `ρ ↦ UρU†` for a row-major 2×2 `U`:
/// `S[2r + c, 2r' + c'] = U[r, r'] · conj(U[c, c'])`.
fn conjugation(u: &[Complex64; 4]) -> Super1 {
    std::array::from_fn(|i| {
        let (row, col) = (i / 4, i % 4);
        u[2 * (row >> 1) + (col >> 1)] * u[2 * (row & 1) + (col & 1)].conj()
    })
}

/// The superoperator of a single-wire noise entry (a depolarizing entry
/// through its uniform-Pauli Kraus form, equal to the analytic map).
fn entry_superop(kind: &NoiseOpKind) -> Super1 {
    let channel = match kind {
        NoiseOpKind::Kraus(channel) => superoperator(channel),
        NoiseOpKind::Depolarizing(p) => superoperator(&depolarizing_1q(*p)),
    };
    let mut s = [Complex64::ZERO; 16];
    s.copy_from_slice(channel.as_slice());
    s
}

/// `N_q · (U ⊗ Ū)` for single-qubit gate `op` bound against `theta`.
fn gate_superop(op: &Operation, theta: &[f64], noise: Option<&Super1>) -> Super1 {
    let mut buf = [0.0f64; 3];
    for (slot, p) in buf.iter_mut().zip(&op.params) {
        *slot = p.eval(theta);
    }
    let s = conjugation(&entries_1q(op.gate, &buf[..op.params.len()]));
    noise.map_or(s, |n| mul4(n, &s))
}

/// One in-place pass (or pending-map update) of a compiled program.
#[derive(Debug, Clone)]
enum Step {
    /// Multiplies compile-time superoperator `folds[fold]` into wire `q`'s
    /// pending map.
    Fold { q: usize, fold: usize },
    /// Binds symbolic single-qubit gate `op` and folds `N_q · (U ⊗ Ū)` into
    /// its wire's pending map.
    Bind { op: usize },
    /// Applies wire `q`'s pending map to `ρ` and resets it to identity.
    /// `tail` is `Some(free)` for a flush in the measured tail (see
    /// [`measured_tail`]): `free` holds `q` and the wires flushed after it.
    Flush { q: usize, tail: Option<usize> },
    /// Two-qubit gate `op` as its kernel pass pair.
    Gate2 { op: usize },
    /// Analytic depolarizing on the gate's wires, in place.
    Depolarize { wires: [usize; 2], p: f64 },
    /// A two-qubit Kraus channel as its 16×16 superoperator.
    Kraus2 {
        wires: [usize; 2],
        s: Vec<Complex64>,
    },
}

/// One bound in-place pass on `ρ`: what a [`Step`] becomes once `θ` is
/// known and the pending maps are multiplied out.
#[derive(Debug, Clone)]
enum Pass<'p> {
    /// A flushed pending map on wire `q`; in a measured run, a tail flush
    /// (`tail` is `Some(free)`) computes only what the diagonal needs.
    Super1 {
        q: usize,
        s: Super1,
        tail: Option<usize>,
    },
    /// A two-qubit gate's kernel pass pair.
    Kernel(Kernel),
    /// Analytic depolarizing on the gate's wires.
    Depolarize { wires: &'p [usize; 2], p: f64 },
    /// A two-qubit Kraus channel as its 16×16 superoperator.
    Kraus2 {
        wires: [usize; 2],
        s: &'p [Complex64],
    },
}

impl Pass<'_> {
    /// Runs the pass on `state`: one density matrix, or every lane of a
    /// lane state with the matrices all lanes share.
    #[inline(always)]
    fn apply<S: Passes>(&self, state: &mut S)
    where
        Complex64: Coeff<S::Amp>,
    {
        match self {
            Pass::Super1 { q, s, tail } => flush(state, *q, s, *tail),
            Pass::Kernel(kernel) => state.apply_kernel(kernel),
            Pass::Depolarize { wires, p } => state.apply_depolarizing(*p, &wires[..]),
            Pass::Kraus2 { wires: [a, b], s } => state.apply_superop_2q(*a, *b, s),
        }
    }
}

/// Wire `q`'s flush on `state`: matrix `m` shared by every lane or one per
/// lane ([`Coeff`]), a tail flush only where the diagonal needs it.
#[inline(always)]
fn flush<S: Passes, M: Coeff<S::Amp>>(state: &mut S, q: usize, m: &[M; 16], tail: Option<usize>) {
    match tail {
        None => state.apply_superop_1q(q, m),
        Some(free) => state.apply_superop_1q_diag(q, m, free),
    }
}

/// Whether step `step` reads symbol `symbol` of `circuit`.
fn reads_symbol(circuit: &Circuit, step: &Step, symbol: usize) -> bool {
    let op = match step {
        Step::Bind { op } | Step::Gate2 { op } => &circuit.ops()[*op],
        _ => return false,
    };
    op.params
        .iter()
        .any(|p| matches!(p, ParamValue::Sym { index, .. } if *index == symbol))
}

/// The steps a shift of one symbol has to rebind (see [`shift_windows`]).
#[derive(Debug, Clone, Copy)]
struct Window {
    /// The first step reading the symbol.
    first: usize,
    /// The first step from which every step binds as in the unshifted run.
    rejoin: usize,
    /// The wires whose pending maps a single-qubit bind of the symbol
    /// enters: inside the window, only their steps and the two-qubit gates
    /// reading the symbol differ from the unshifted passes.
    dirty: usize,
}

impl Window {
    /// The window of a symbol no step reads.
    fn empty(len: usize) -> Window {
        Window {
            first: len,
            rejoin: len,
            dirty: 0,
        }
    }
}

/// Per symbol of `circuit`, the step window a shift of it has to rebind:
/// `first` is the first step reading the symbol and `rejoin` the first step
/// after its last reading step at which every wire whose pending map it
/// entered has been flushed. Steps from `rejoin` on bind identically at
/// every value of the symbol. A symbol no step reads gets the empty window
/// at `len`.
fn shift_windows(circuit: &Circuit, steps: &[Step]) -> Vec<Window> {
    (0..circuit.num_symbols())
        .map(|symbol| {
            let mut first = None;
            let mut rejoin = 0;
            let mut dirty = 0;
            let mut unflushed = 0usize;
            for (i, step) in steps.iter().enumerate() {
                if reads_symbol(circuit, step, symbol) {
                    first.get_or_insert(i);
                    rejoin = rejoin.max(i + 1);
                    if let Step::Bind { op } = step {
                        let bit = 1 << circuit.ops()[*op].qubits[0];
                        dirty |= bit;
                        unflushed |= bit;
                    }
                } else if let Step::Flush { q, .. } = step {
                    if unflushed & (1 << q) != 0 {
                        unflushed &= !(1 << q);
                        rejoin = i + 1;
                    }
                }
            }
            first.map_or(Window::empty(steps.len()), |first| Window {
                first,
                rejoin,
                dirty,
            })
        })
        .collect()
}

/// Marks the measured tail of `steps`: the trailing run of flushes on
/// distinct wires, each tagged with the wires it and the flushes after it
/// touch. Those wires' passes may leave entries off their diagonals stale,
/// since nothing after them reads one (see [`DensityMatrix::probabilities`]).
fn measured_tail(steps: &mut [Step]) {
    let mut later = 0usize;
    for step in steps.iter_mut().rev() {
        match step {
            Step::Flush { q, tail } if later & (1 << *q) == 0 => {
                later |= 1 << *q;
                *tail = Some(later);
            }
            _ => break,
        }
    }
}

/// Debug-build check that a compiled run ended in a state.
fn debug_check_state(rho: &DensityMatrix) {
    debug_assert!(
        (rho.trace() - 1.0).abs() < 1e-9 && rho.matrix().is_hermitian(1e-9),
        "compiled evolution left a non-state: trace {}",
        rho.trace()
    );
}

/// Debug-build check that a measured run ended in a distribution.
fn debug_check_distribution(probs: &[f64]) {
    debug_assert!(
        probs.iter().all(|&p| p >= 0.0) && (probs.iter().sum::<f64>() - 1.0).abs() < 1e-9,
        "compiled evolution measured a non-distribution: {probs:?}"
    );
}

/// What every fork group of one [`NoisyProgram::for_each_shift`] call
/// shares: the requested rows, their windows and first-step pending maps,
/// and the unshifted passes.
struct Forks<'a, 'p> {
    program: &'p NoisyProgram,
    theta: &'a [f64],
    symbols: &'a [usize],
    /// Row `r`'s pending maps at its first step, `n` per row.
    snapshots: &'a [Super1],
    base: &'a [Pass<'p>],
    /// The unshifted `N_q · (U ⊗ Ū)` of each `Step::Bind`, in step order.
    binds: &'a [Super1],
}

impl Forks<'_, '_> {
    /// Row `row`'s window.
    fn window(&self, row: usize) -> Window {
        self.program.shift_window(self.symbols[row])
    }

    /// Runs the forks of `group` (at most `L/2` rows, in first-step order)
    /// on `lanes`, loaded from the base state `rho` at the pass where
    /// `group[0]`'s window opens, and visits each fork's measured
    /// distribution. Lane `2k` is `group[k]`'s `+` fork and lane `2k + 1`
    /// its `−` fork; the lanes past them idle, and nothing reads them.
    #[inline(always)]
    fn run_group<const L: usize>(
        &self,
        group: &[usize],
        rho: &DensityMatrix,
        lanes: &mut DensityLanes<L>,
        lane_state: &mut DensityMatrix,
        shifted: &mut [f64],
        visit: &mut dyn FnMut(ShiftRun, &[f64]),
    ) {
        let program = self.program;
        let (n, ops) = (program.num_qubits(), program.circuit.ops());
        let active = 2 * group.len();
        debug_assert!(active <= L, "group wider than the lanes");
        let row = |lane: usize| group[lane / 2];
        let value = |lane: usize| {
            let theta = self.theta[self.symbols[row(lane)]];
            if lane.is_multiple_of(2) {
                theta + FRAC_PI_2
            } else {
                theta - FRAC_PI_2
            }
        };
        // Whether step `i` lies in lane `lane`'s window; with wire `q`
        // dirty; reading the lane's symbol.
        let in_window = |lane: usize, i: usize| {
            let w = self.window(row(lane));
            (w.first..w.rejoin).contains(&i)
        };
        let dirty_at = |lane: usize, i: usize, q: usize| {
            in_window(lane, i) && self.window(row(lane)).dirty & (1 << q) != 0
        };
        let reads_at = |lane: usize, i: usize| {
            in_window(lane, i)
                && reads_symbol(&program.circuit, &program.steps[i], self.symbols[row(lane)])
        };
        // Rows come in first-step order; the group ends at its last rejoin.
        let first = self.window(group[0]).first;
        let end = group
            .iter()
            .fold(first, |end, &r| end.max(self.window(r).rejoin));
        lanes.fill(rho);
        // Each lane's own pending maps of its row's dirty wires.
        let mut maps = [[IDENTITY; MAX_QUBITS]; L];
        for (lane, maps) in maps.iter_mut().enumerate().take(active) {
            let r = row(lane);
            maps[..n].copy_from_slice(&self.snapshots[r * n..(r + 1) * n]);
        }
        for (i, step) in program.steps.iter().enumerate().take(end).skip(first) {
            let base = &self.base[program.pass_at[i]..];
            match step {
                Step::Fold { q, fold } => {
                    for (lane, maps) in maps.iter_mut().enumerate().take(active) {
                        if dirty_at(lane, i, *q) {
                            maps[*q] = mul4(&program.folds[*fold], &maps[*q]);
                        }
                    }
                }
                Step::Bind { op } => {
                    let (op, q) = (&ops[*op], ops[*op].qubits[0]);
                    // A bind of another symbol is the unshifted one.
                    let unshifted = &self.binds[program.bind_at[i]];
                    for (lane, maps) in maps.iter_mut().enumerate().take(active) {
                        if dirty_at(lane, i, q) {
                            maps[q] = if reads_at(lane, i) {
                                let s = self.symbols[row(lane)];
                                shifted[s] = value(lane);
                                let g = gate_superop(op, shifted, program.wire_noise[q].as_ref());
                                shifted[s] = self.theta[s];
                                mul4(&g, &maps[q])
                            } else {
                                mul4(unshifted, &maps[q])
                            };
                        }
                    }
                }
                Step::Flush { q, tail } if (0..active).any(|lane| dirty_at(lane, i, *q)) => {
                    let Pass::Super1 { s: unshifted, .. } = &base[0] else {
                        unreachable!("a flush binds to a one-qubit pass")
                    };
                    let m = lane_matrix::<L>(std::array::from_fn(|lane| {
                        if lane < active && dirty_at(lane, i, *q) {
                            &maps[lane][*q]
                        } else {
                            unshifted
                        }
                    }));
                    flush(lanes, *q, &m, *tail);
                    // A lane whose window opens later keeps its first-step
                    // maps, which already hold this flush.
                    for (lane, maps) in maps.iter_mut().enumerate().take(active) {
                        if dirty_at(lane, i, *q) {
                            maps[*q] = IDENTITY;
                        }
                    }
                }
                Step::Gate2 { op } if (0..active).any(|lane| reads_at(lane, i)) => {
                    // Lane by lane: the shifted kernel on the lanes of rows
                    // reading the gate, the unshifted one on the others.
                    let Pass::Kernel(unshifted) = &base[0] else {
                        unreachable!("a two-qubit gate binds to a kernel pass")
                    };
                    for lane in 0..active {
                        let kernel = if reads_at(lane, i) {
                            let s = self.symbols[row(lane)];
                            shifted[s] = value(lane);
                            let k = Kernel::from_operation(&ops[*op], shifted);
                            shifted[s] = self.theta[s];
                            k
                        } else {
                            *unshifted
                        };
                        lanes.lane_into(lane, lane_state);
                        lane_state.apply_kernel(&kernel);
                        lanes.set_lane(lane, lane_state);
                    }
                }
                _ => base[0].apply(lanes),
            }
        }
        for pass in &self.base[program.pass_at[end]..] {
            pass.apply(lanes);
        }
        for lane in 0..active {
            let mut probs = lanes.lane_probabilities(lane);
            apply_confusion(&mut probs, &program.readout);
            debug_check_distribution(&probs);
            let run = ShiftRun::Shifted {
                row: row(lane),
                minus: lane % 2 == 1,
            };
            visit(run, &probs);
        }
    }
}

/// What a wire's pending map holds while compiling.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pending {
    /// Identity: nothing to flush.
    Clean,
    /// Ends in the compile-time map `folds[i]`, which later constant maps
    /// on the wire multiply into.
    Fold(usize),
    /// Ends in a per-`θ` binding.
    Bound,
}

/// Step list under construction, with each wire's pending-map state.
struct Builder {
    steps: Vec<Step>,
    folds: Vec<Super1>,
    pending: Vec<Pending>,
}

impl Builder {
    fn fold(&mut self, q: usize, s: Super1) {
        if let Pending::Fold(i) = self.pending[q] {
            self.folds[i] = mul4(&s, &self.folds[i]);
            return;
        }
        self.pending[q] = Pending::Fold(self.folds.len());
        self.steps.push(Step::Fold {
            q,
            fold: self.folds.len(),
        });
        self.folds.push(s);
    }

    fn bind(&mut self, q: usize, op: usize) {
        self.pending[q] = Pending::Bound;
        self.steps.push(Step::Bind { op });
    }

    fn flush(&mut self, q: usize) {
        if self.pending[q] != Pending::Clean {
            self.pending[q] = Pending::Clean;
            self.steps.push(Step::Flush { q, tail: None });
        }
    }
}

/// A circuit and its noise model compiled into in-place density-matrix
/// passes (see the [module docs](self)). Compile once per circuit
/// structure, then run against many `θ` bindings.
///
/// # Examples
///
/// ```
/// use qoc_sim::circuit::{Circuit, ParamValue};
/// use qoc_noise::channels::thermal_relaxation;
/// use qoc_noise::model::NoiseModel;
/// use qoc_noise::sim::NoisyProgram;
///
/// let mut c = Circuit::new(2);
/// c.ry(0, ParamValue::sym(0));
/// c.cx(0, 1);
/// let noise = NoiseModel::builder(2)
///     .one_qubit_depolarizing(0, 0.001)
///     .one_qubit(0, thermal_relaxation(100.0, 80.0, 35.0))
///     .two_qubit_depolarizing(0, 1, 0.01)
///     .build();
/// let program = NoisyProgram::compile(c, &noise);
/// let rho = program.run(&[0.8]);
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct NoisyProgram {
    circuit: Circuit,
    /// `N_q` per wire; `None` for a noiseless wire.
    wire_noise: Vec<Option<Super1>>,
    steps: Vec<Step>,
    /// The compile-time superoperators `Step::Fold` multiplies in.
    folds: Vec<Super1>,
    /// `pass_at[i]`: passes the steps before step `i` bind to.
    pass_at: Vec<usize>,
    /// `bind_at[i]`: `Step::Bind`s before step `i`.
    bind_at: Vec<usize>,
    /// Per symbol: its step window (see [`shift_windows`]).
    shift_windows: Vec<Window>,
    readout: Vec<ReadoutError>,
}

impl NoisyProgram {
    /// Compiles `circuit` with the noise `noise` attaches to its gates.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the noise model.
    pub fn compile(circuit: Circuit, noise: &NoiseModel) -> NoisyProgram {
        let n = circuit.num_qubits();
        assert!(
            n <= noise.num_qubits(),
            "circuit ({n}) wider than noise model ({})",
            noise.num_qubits()
        );
        let wire_noise: Vec<Option<Super1>> = (0..n)
            .map(|q| {
                noise
                    .one_qubit_noise(q)
                    .iter()
                    .map(|entry| entry_superop(&entry.kind))
                    .reduce(|acc, s| mul4(&s, &acc))
            })
            .collect();
        let mut b = Builder {
            steps: Vec::with_capacity(circuit.len() + n),
            folds: Vec::new(),
            pending: vec![Pending::Clean; n],
        };
        for (i, op) in circuit.ops().iter().enumerate() {
            match *op.qubits.as_slice() {
                [q] => {
                    if op.params.iter().all(|p| matches!(p, ParamValue::Const(_))) {
                        b.fold(q, gate_superop(op, &[], wire_noise[q].as_ref()));
                    } else {
                        b.bind(q, i);
                    }
                }
                [x, y] => {
                    b.flush(x);
                    b.flush(y);
                    b.steps.push(Step::Gate2 { op: i });
                    for entry in noise.two_qubit_noise(x, y) {
                        if let WireSelect::Wire(w) = entry.wires {
                            b.fold(op.qubits[w], entry_superop(&entry.kind));
                            continue;
                        }
                        b.flush(x);
                        b.flush(y);
                        b.steps.push(match &entry.kind {
                            NoiseOpKind::Depolarizing(p) => Step::Depolarize {
                                wires: [x, y],
                                p: *p,
                            },
                            NoiseOpKind::Kraus(channel) => Step::Kraus2 {
                                wires: [x, y],
                                s: superoperator(channel).as_slice().to_vec(),
                            },
                        });
                    }
                }
                _ => unreachable!("gates act on one or two qubits"),
            }
        }
        for q in 0..n {
            b.flush(q);
        }
        measured_tail(&mut b.steps);
        let (mut pass_at, mut bind_at) = (vec![0], vec![0]);
        for step in &b.steps {
            let passes = usize::from(!matches!(step, Step::Fold { .. } | Step::Bind { .. }));
            pass_at.push(pass_at[pass_at.len() - 1] + passes);
            let binds = usize::from(matches!(step, Step::Bind { .. }));
            bind_at.push(bind_at[bind_at.len() - 1] + binds);
        }
        NoisyProgram {
            readout: noise.readout()[..n].to_vec(),
            shift_windows: shift_windows(&circuit, &b.steps),
            circuit,
            wire_noise,
            steps: b.steps,
            folds: b.folds,
            pass_at,
            bind_at,
        }
    }

    /// The source circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// The step window of a shift of `symbol`: the empty window for a
    /// symbol no step reads.
    fn shift_window(&self, symbol: usize) -> Window {
        self.shift_windows
            .get(symbol)
            .copied()
            .unwrap_or(Window::empty(self.steps.len()))
    }

    /// Binds steps `range` against `theta` — carrying each wire's pending
    /// map in `pending` — and hands the resulting passes to `emit` in order;
    /// tail flushes keep their tail mark only when `measured`, and each
    /// bound `N_q · (U ⊗ Ū)` goes to `binds` when given. The program's one
    /// step interpreter.
    fn bind<'p>(
        &'p self,
        range: Range<usize>,
        theta: &[f64],
        measured: bool,
        pending: &mut [Super1; MAX_QUBITS],
        mut binds: Option<&mut Vec<Super1>>,
        mut emit: impl FnMut(Pass<'p>),
    ) {
        let ops = self.circuit.ops();
        for step in &self.steps[range] {
            match step {
                Step::Fold { q, fold } => pending[*q] = mul4(&self.folds[*fold], &pending[*q]),
                Step::Bind { op } => {
                    let op = &ops[*op];
                    let q = op.qubits[0];
                    let s = gate_superop(op, theta, self.wire_noise[q].as_ref());
                    pending[q] = mul4(&s, &pending[q]);
                    if let Some(binds) = binds.as_deref_mut() {
                        binds.push(s);
                    }
                }
                Step::Flush { q, tail } => {
                    emit(Pass::Super1 {
                        q: *q,
                        s: pending[*q],
                        tail: tail.filter(|_| measured),
                    });
                    pending[*q] = IDENTITY;
                }
                Step::Gate2 { op } => emit(Pass::Kernel(Kernel::from_operation(&ops[*op], theta))),
                Step::Depolarize { wires, p } => emit(Pass::Depolarize { wires, p: *p }),
                Step::Kraus2 { wires, s } => emit(Pass::Kraus2 { wires: *wires, s }),
            }
        }
    }

    /// Resets `rho` to `|0…0⟩⟨0…0|` and evolves it through the program:
    /// binds `θ` and runs each pass as it is bound. A `measured` run ends
    /// in the diagonal-only tail, so only `rho`'s diagonal is its state's.
    fn evolve(&self, theta: &[f64], measured: bool, rho: &mut DensityMatrix) {
        assert_eq!(
            rho.num_qubits(),
            self.num_qubits(),
            "state width does not match program"
        );
        rho.reset_zero();
        let mut pending = [IDENTITY; MAX_QUBITS];
        self.bind(
            0..self.steps.len(),
            theta,
            measured,
            &mut pending,
            None,
            |pass| pass.apply(rho),
        );
        if !measured {
            debug_check_state(rho);
        }
    }

    /// Runs the program at each `±π/2` shift of each symbol in `symbols`
    /// and hands `visit(run, probs)` the measured distribution (with
    /// readout error) of each [`ShiftRun::Shifted`] run — `θ` with
    /// `θ[symbols[row]]` raised or lowered by π/2, the two runs of the
    /// parameter-shift rule — and then, when `unshifted` is set, of the
    /// [`ShiftRun::Unshifted`] forward run at `θ`. Every shifted run is
    /// visited once, in group order (below), not in row order, so a caller
    /// files what it is handed by its run.
    ///
    /// `θ` is bound once into the unshifted passes, and one base state
    /// advances through them. The rows, in the order their symbols'
    /// windows open, are cut into groups of `L/2` that each share one
    /// `L`-lane state ([`LaneArm::detect`] picks the widest arm this host
    /// runs: `L = 8` under AVX-512F, else `L = 2`); lanes `2k` and `2k + 1`
    /// are the group's row `k` at `+` and at `−`, and the lanes of a short
    /// last group idle unread. At the pass where the group's first window
    /// opens, every lane loads the base state, and the lanes walk the steps
    /// up to the group's last rejoin step. A shift changes only the pending
    /// maps of the symbol's dirty wires and the two-qubit gates reading it,
    /// so only those steps are rebound per lane, and only inside the row's
    /// window; before a row's window opens its lanes run the unshifted
    /// passes, as the base state would have, and a bind of another symbol
    /// on a dirty wire takes the unshifted bind. A flush dirty for any row
    /// of the group is one pass with a matrix per lane (the unshifted
    /// matrix for the other lanes), a shifted two-qubit gate runs one lane
    /// at a time, and every other pass is the unshifted pass all lanes
    /// share. From the last rejoin step on the lanes run the unshifted
    /// passes, and the measured tail computes only what the diagonal needs.
    /// Each lane does exactly the float operations of a run at its shifted
    /// `θ` on every entry the diagonal depends on, so `probs` is
    /// bit-identical to [`Self::outcome_probabilities`] and to
    /// [`Self::measure`] of [`Self::run`] at that `θ`. The forward run is
    /// the base state carried through the rest of the unshifted passes,
    /// measured tail included: bit-identical to
    /// [`Self::outcome_probabilities`] at `θ`. The base state, the lane
    /// state and a lane buffer come from the per-thread scratch pool
    /// ([`with_scratch`]).
    ///
    /// # Panics
    ///
    /// Panics if a listed symbol indexes past `theta`.
    pub fn for_each_shift(
        &self,
        theta: &[f64],
        symbols: &[usize],
        unshifted: bool,
        visit: impl FnMut(ShiftRun, &[f64]),
    ) {
        self.for_each_shift_on(LaneArm::detect(), theta, symbols, unshifted, visit);
    }

    /// [`Self::for_each_shift`] with its forks compiled for `arm`: two-lane
    /// pairs on [`LaneArm::Baseline`], eight lanes on [`LaneArm::Avx512`].
    /// Every arm visits the same bits.
    ///
    /// # Panics
    ///
    /// Panics if this host does not run `arm` ([`LaneArm::available`]), or
    /// if a listed symbol indexes past `theta`.
    pub fn for_each_shift_on(
        &self,
        arm: LaneArm,
        theta: &[f64],
        symbols: &[usize],
        unshifted: bool,
        mut visit: impl FnMut(ShiftRun, &[f64]),
    ) {
        match arm {
            LaneArm::Baseline => {
                self.shifts_in_lanes::<2>(arm, theta, symbols, unshifted, &mut visit)
            }
            LaneArm::Avx512 => {
                self.shifts_in_lanes::<8>(arm, theta, symbols, unshifted, &mut visit)
            }
        }
    }

    /// [`Self::for_each_shift`] on `L`-lane states, compiled for `arm`.
    fn shifts_in_lanes<const L: usize>(
        &self,
        arm: LaneArm,
        theta: &[f64],
        symbols: &[usize],
        unshifted: bool,
        visit: &mut dyn FnMut(ShiftRun, &[f64]),
    ) {
        let n = self.num_qubits();
        let len = self.steps.len();
        let mut order: Vec<usize> = (0..symbols.len()).collect();
        order.sort_by_key(|&r| self.shift_window(symbols[r]).first);
        // The unshifted passes and binds, and each row's pending maps at its
        // first step (only the first `n` wires are ever pending).
        let mut base = Vec::with_capacity(self.pass_at[len]);
        let mut binds = Vec::with_capacity(self.bind_at[len]);
        let mut pending = [IDENTITY; MAX_QUBITS];
        let mut snapshots = vec![IDENTITY; symbols.len() * n];
        let mut cursor = 0;
        for &r in &order {
            let first = self.shift_window(symbols[r]).first;
            self.bind(
                cursor..first,
                theta,
                true,
                &mut pending,
                Some(&mut binds),
                |pass| base.push(pass),
            );
            debug_assert_eq!(base.len(), self.pass_at[first], "pass index drifted");
            cursor = first;
            snapshots[r * n..(r + 1) * n].copy_from_slice(&pending[..n]);
        }
        self.bind(
            cursor..len,
            theta,
            true,
            &mut pending,
            Some(&mut binds),
            |pass| base.push(pass),
        );
        debug_assert_eq!(base.len(), self.pass_at[len], "pass index drifted");

        let forks = Forks {
            program: self,
            theta,
            symbols,
            snapshots: &snapshots,
            base: &base,
            binds: &binds,
        };
        let mut shifted = theta.to_vec();
        with_scratch(n, |rho: &mut DensityMatrix| {
            with_scratch(n, |lane_state: &mut DensityMatrix| {
                with_scratch(n, |lanes: &mut DensityLanes<L>| {
                    arm.run(
                        #[inline(always)]
                        || {
                            rho.reset_zero();
                            let mut applied = 0;
                            for group in order.chunks(L / 2) {
                                let opens = self.pass_at[forks.window(group[0]).first];
                                for pass in &base[applied..opens] {
                                    pass.apply(rho);
                                }
                                applied = opens;
                                forks.run_group(group, rho, lanes, lane_state, &mut shifted, visit);
                            }
                            if unshifted {
                                for pass in &base[applied..] {
                                    pass.apply(rho);
                                }
                                let probs = self.measure(rho);
                                debug_check_distribution(&probs);
                                visit(ShiftRun::Unshifted, &probs);
                            }
                        },
                    )
                })
            })
        });
    }

    /// Evolves `|0…0⟩⟨0…0|` through the program into a new density matrix,
    /// every pass in full.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is shorter than the highest symbol index used.
    pub fn run(&self, theta: &[f64]) -> DensityMatrix {
        let mut rho = DensityMatrix::zero_state(self.num_qubits());
        self.evolve(theta, false, &mut rho);
        rho
    }

    /// The measurement distribution after gate noise *and* readout error,
    /// from a measured run: its tail computes only the diagonal, which is
    /// bit-identical to [`Self::run`]'s.
    pub fn outcome_probabilities(&self, theta: &[f64]) -> Vec<f64> {
        with_scratch(self.num_qubits(), |rho: &mut DensityMatrix| {
            self.evolve(theta, true, rho);
            let probs = self.measure(rho);
            debug_check_distribution(&probs);
            probs
        })
    }

    /// The measurement distribution of a final state `rho` of this program
    /// (e.g. one [`Self::run`] returns), readout error included.
    pub fn measure(&self, rho: &DensityMatrix) -> Vec<f64> {
        let mut probs = rho.probabilities();
        apply_confusion(&mut probs, &self.readout);
        probs
    }

    /// Exact (infinite-shot) per-qubit Z expectations including readout
    /// error.
    pub fn expectations_z(&self, theta: &[f64]) -> Vec<f64> {
        expectations_z_of(&self.outcome_probabilities(theta), self.num_qubits())
    }
}

/// Exact per-qubit Z expectations of a distribution over `num_qubits`-bit
/// outcomes.
pub fn expectations_z_of(probs: &[f64], num_qubits: usize) -> Vec<f64> {
    let mut ez = vec![0.0; num_qubits];
    for (i, p) in probs.iter().enumerate() {
        for (q, e) in ez.iter_mut().enumerate() {
            if i & (1 << q) == 0 {
                *e += p;
            } else {
                *e -= p;
            }
        }
    }
    ez
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{depolarizing_1q, depolarizing_2q};
    use crate::readout::ReadoutError;
    use qoc_sim::simulator::StatevectorSimulator;

    fn test_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.ry(0, 0.9);
        c.rzz(0, 1, 0.6);
        c.rx(1, 1.4);
        c
    }

    #[test]
    fn ideal_noise_matches_statevector() {
        let c = test_circuit();
        let noisy = NoisyProgram::compile(c.clone(), &NoiseModel::ideal(2));
        let exact = StatevectorSimulator::new().expectations_z(&c, &[]);
        let got = noisy.expectations_z(&[]);
        for (a, b) in exact.iter().zip(&got) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn gate_noise_shrinks_expectations() {
        let c = test_circuit();
        let noise = NoiseModel::builder(2)
            .one_qubit_all(depolarizing_1q(0.05))
            .two_qubit_default(depolarizing_2q(0.08))
            .build();
        let noisy = NoisyProgram::compile(c.clone(), &noise);
        let exact = StatevectorSimulator::new().expectations_z(&c, &[]);
        let got = noisy.expectations_z(&[]);
        for (a, b) in exact.iter().zip(&got) {
            assert!(b.abs() < a.abs() + 1e-12, "noise must not amplify |⟨Z⟩|");
            assert!(b.abs() > 0.0);
        }
    }

    #[test]
    fn readout_error_biases_distribution() {
        let mut c = Circuit::new(1);
        c.x(0); // deterministic |1⟩
        let noise = NoiseModel::builder(1)
            .readout(0, ReadoutError::new(0.0, 0.25))
            .build();
        let noisy = NoisyProgram::compile(c, &noise);
        // ⟨Z⟩ should be −1 shifted by the 25% chance of reading 0: −0.5.
        let ez = noisy.expectations_z(&[])[0];
        assert!((ez + 0.5).abs() < 1e-10);
    }

    /// Rows whose windows open at one pass and at later passes, symbols
    /// read by two-qubit gates (so a group mixes lanes that take a shifted
    /// kernel with lanes that take the unshifted one), a repeated row, a
    /// symbol no gate reads and no rows at all: every lane width on every
    /// arm this host runs visits each fork once, bit-identical to its
    /// shifted run, and the forward run when asked, bit-identical to the
    /// measured run at `θ`.
    #[test]
    fn lane_groups_are_bit_identical_to_shifted_runs() {
        let mut c = Circuit::new(3);
        c.ry(0, ParamValue::sym(0));
        c.rx(1, ParamValue::sym(1));
        c.rz(2, ParamValue::sym(2));
        c.rzz(0, 1, ParamValue::sym(1));
        c.rx(0, 0.7);
        c.rxx(1, 2, ParamValue::sym(3));
        c.ry(2, ParamValue::sym(0));
        c.cx(0, 2);
        c.rx(0, ParamValue::sym(3));
        c.ry(1, ParamValue::sym(4));
        let noise = NoiseModel::builder(3)
            .one_qubit_all(depolarizing_1q(0.02))
            .two_qubit_default(depolarizing_2q(0.05))
            .readout(1, ReadoutError::new(0.01, 0.05))
            .build();
        let program = NoisyProgram::compile(c, &noise);
        let theta = [0.3, -1.1, 0.7, 2.0, 0.9, 0.4];
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // In `[0, 3]` symbol 3's window opens after a flush of wire 0, which
        // symbol 0 dirties and symbol 3 enters with a constant gate pending.
        let row_sets: [&[usize]; 4] = [&[0, 1, 2, 3, 4, 1, 5], &[0, 3], &[2, 3, 4], &[]];
        for (arm, rows) in LaneArm::available()
            .into_iter()
            .flat_map(|arm| row_sets.map(|rows| (arm, rows)))
        {
            for (width, unshifted) in [2, 4, 8].into_iter().flat_map(|w| [(w, true), (w, false)]) {
                let mut visits = Vec::new();
                let mut check = |run: ShiftRun, probs: &[f64]| {
                    visits.push(run);
                    assert_eq!(
                        bits(probs),
                        bits(&program.outcome_probabilities(&run.theta(&theta, rows))),
                        "{arm:?}, L={width}, rows {rows:?}: {run:?}"
                    );
                };
                match width {
                    2 => program.shifts_in_lanes::<2>(arm, &theta, rows, unshifted, &mut check),
                    4 => program.shifts_in_lanes::<4>(arm, &theta, rows, unshifted, &mut check),
                    _ => program.shifts_in_lanes::<8>(arm, &theta, rows, unshifted, &mut check),
                }
                visits.sort_unstable();
                let mut want: Vec<ShiftRun> = (0..rows.len())
                    .flat_map(|row| [false, true].map(|minus| ShiftRun::Shifted { row, minus }))
                    .collect();
                if unshifted {
                    want.push(ShiftRun::Unshifted);
                }
                assert_eq!(
                    visits, want,
                    "{arm:?}, L={width}, rows {rows:?}: one visit per run"
                );
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one_under_noise() {
        let c = test_circuit();
        let noise = NoiseModel::builder(2)
            .one_qubit_all(depolarizing_1q(0.02))
            .two_qubit_default(depolarizing_2q(0.05))
            .readout(0, ReadoutError::symmetric(0.03))
            .readout(1, ReadoutError::new(0.01, 0.05))
            .build();
        let noisy = NoisyProgram::compile(c, &noise);
        let probs = noisy.outcome_probabilities(&[]);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
