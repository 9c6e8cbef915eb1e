//! Differential and invariant tests of the compiled noisy density path.
//!
//! The oracle is the per-gate evolution the compiled program replaced,
//! written densely over the full 2ⁿ space: every gate is `ρ ↦ UρU†` and
//! every noise entry `ρ ↦ Σ KρK†`, each operator embedded with identities
//! on the other wires, one gate and one entry at a time in model order.
//! Analytic depolarizing entries enter the oracle through their uniform-Pauli
//! Kraus form. Random `{RZ, SX, X, CX}` circuits on 1–5 qubits run under
//! random calibration-shaped models (1q depolarizing + thermal relaxation +
//! readout per wire, 2q depolarizing + per-wire thermal per CX edge, as the
//! fake devices build them), under the generic builder entries (a 2q Kraus
//! channel on the gate wires, a 1q amplitude damping, a per-wire entry ahead
//! of a 2q entry), and under the ideal model. The public `DensityMatrix`
//! entry points (`apply_kraus`, `apply_unitary`, `apply_depolarizing`) are
//! held to the same oracle on mixed states.
//!
//! Three bitwise contracts ride along: `apply_depolarizing` equals the
//! per-element offset loop it replaced, the two-qubit superoperator pass
//! `superop_2q` equals the full-index scan it replaced on random 16×16
//! matrices, and every fork's distribution from
//! `NoisyProgram::for_each_shift` — and its forward run, the base state
//! carried to the end — equals both the measured run
//! (`outcome_probabilities`, diagonal-only tail) and the measured full run
//! (`measure(run(…))`) at the run's `θ`, on random symbolic circuits
//! (shared symbols, parametrized RZZ) under calibrated models with an
//! asymmetric 2q Kraus entry on every edge, so the forks' two-lane passes
//! cover every kind of pass the program emits; each full run ends in a
//! state.

use proptest::prelude::*;

use qoc_noise::channels::{
    amplitude_damping, depolarizing_1q, depolarizing_2q, error_rate_to_depolarizing_prob,
    phase_damping, thermal_relaxation,
};
use qoc_noise::density::{superop_2q, DensityMatrix};
use qoc_noise::kraus::KrausChannel;
use qoc_noise::model::{NoiseModel, NoiseOpKind, WireSelect};
use qoc_noise::readout::{apply_confusion, ReadoutError};
use qoc_noise::sim::NoisyProgram;
use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::complex::Complex64;
use qoc_sim::diff::ShiftRun;
use qoc_sim::gates::GateKind;
use qoc_sim::matrix::CMatrix;

const TOL: f64 = 1e-12;

/// `op` on `qubits` (first listed = least-significant local bit) embedded
/// in the full `2ⁿ` space with identities on every other wire.
fn embed(op: &CMatrix, qubits: &[usize], n: usize) -> CMatrix {
    let dim = 1usize << n;
    let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
    let local = |x: usize| {
        qubits
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &q)| acc | (((x >> q) & 1) << i))
    };
    let mut out = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            if i & !mask == j & !mask {
                out[(i, j)] = op[(local(i), local(j))];
            }
        }
    }
    out
}

/// `Σ K ρ K†` with each `K` embedded on `qubits`.
fn dense_channel(rho: &CMatrix, ops: &[CMatrix], qubits: &[usize], n: usize) -> CMatrix {
    let dim = 1usize << n;
    let mut out = CMatrix::zeros(dim, dim);
    for k in ops {
        let e = embed(k, qubits, n);
        out = &out + &(&(&e * rho) * &e.adjoint());
    }
    out
}

/// The per-gate oracle evolution of `circuit` under `noise`.
fn oracle(circuit: &Circuit, theta: &[f64], noise: &NoiseModel) -> CMatrix {
    let n = circuit.num_qubits();
    let mut rho = CMatrix::zeros(1 << n, 1 << n);
    rho[(0, 0)] = Complex64::ONE;
    for op in circuit.ops() {
        let u = op.gate.matrix(&op.resolve(theta));
        rho = dense_channel(&rho, &[u], &op.qubits, n);
        let entries = match *op.qubits.as_slice() {
            [q] => noise.one_qubit_noise(q),
            [a, b] => noise.two_qubit_noise(a, b),
            _ => unreachable!(),
        };
        for entry in entries {
            let wires = match entry.wires {
                WireSelect::Gate => op.qubits.clone(),
                WireSelect::Wire(i) => vec![op.qubits[i]],
            };
            let channel = match &entry.kind {
                NoiseOpKind::Kraus(channel) => channel.clone(),
                NoiseOpKind::Depolarizing(p) if wires.len() == 1 => depolarizing_1q(*p),
                NoiseOpKind::Depolarizing(p) => depolarizing_2q(*p),
            };
            rho = dense_channel(&rho, channel.operators(), &wires, n);
        }
    }
    rho
}

fn max_abs_diff(a: &CMatrix, b: &CMatrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (*x - *y).norm())
        .fold(0.0, f64::max)
}

/// `true` when every eigenvalue of Hermitian `rho` is at least `floor`:
/// the Cholesky factorization of `ρ − floor·I` exists exactly then.
fn min_eigenvalue_at_least(rho: &CMatrix, floor: f64) -> bool {
    let dim = rho.rows();
    let mut l = CMatrix::zeros(dim, dim);
    for j in 0..dim {
        let mut d = rho[(j, j)].re - floor;
        for k in 0..j {
            d -= l[(j, k)].norm_sqr();
        }
        if d <= 0.0 {
            return false;
        }
        let inv = 1.0 / d.sqrt();
        l[(j, j)] = Complex64::real(d.sqrt());
        for i in j + 1..dim {
            let mut v = rho[(i, j)];
            for k in 0..j {
                v -= l[(i, k)] * l[(j, k)].conj();
            }
            l[(i, j)] = v * inv;
        }
    }
    true
}

/// One source gate: `(kind, wire, partner offset, angle, symbol)`; RZ
/// angles are symbolic (`θ[symbol] + angle`) for symbols below 3.
type GateSpec = (u8, usize, usize, f64, usize);

fn build_circuit(n: usize, gates: &[GateSpec]) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, q, off, angle, sym) in gates {
        let q = q % n;
        match kind {
            0 if sym < 3 => c.rz(
                q,
                ParamValue::Sym {
                    index: sym,
                    scale: 1.0,
                    offset: angle,
                },
            ),
            0 => c.rz(q, angle),
            1 => c.push(GateKind::Sx, &[q], &[]),
            2 => c.x(q),
            _ if n == 1 => c.push(GateKind::Sx, &[q], &[]),
            _ => c.cx(q, (q + 1 + off % (n - 1)) % n),
        };
    }
    c
}

fn arb_circuit() -> impl Strategy<Value = (Circuit, Vec<f64>)> {
    let gate = (0u8..4, 0usize..5, 0usize..4, -3.2f64..3.2, 0usize..6);
    (
        1usize..=5,
        proptest::collection::vec(gate, 1..28),
        proptest::collection::vec(-3.2f64..3.2, 3),
    )
        .prop_map(|(n, gates, theta)| (build_circuit(n, &gates), theta))
}

/// Per-wire calibration: `(T1 µs, T2/T1, 1q ns, 1q error, p(1|0), p(0|1))`.
type QubitCal = (f64, f64, f64, f64, f64, f64);
/// Per-edge calibration: `(CX error, CX ns)`.
type EdgeCal = (f64, f64);

fn arb_calibration() -> impl Strategy<Value = (Vec<QubitCal>, Vec<EdgeCal>)> {
    let qubit = (
        20.0f64..250.0,
        0.1f64..2.0,
        20.0f64..120.0,
        1e-4f64..5e-3,
        0.0f64..0.08,
        0.0f64..0.12,
    );
    let edge = (3e-3f64..6e-2, 150.0f64..700.0);
    (
        proptest::collection::vec(qubit, 5),
        proptest::collection::vec(edge, 25),
    )
}

/// Builds the model the fake devices derive from a calibration: per wire
/// 1q depolarizing + thermal relaxation + readout, per CX edge 2q
/// depolarizing + each endpoint's thermal relaxation on a wire slot, then
/// `edge_kraus` on the gate wires when given.
fn calibrated_model(
    circuit: &Circuit,
    qubits: &[QubitCal],
    edges: &[EdgeCal],
    edge_kraus: Option<&KrausChannel>,
) -> NoiseModel {
    let n = circuit.num_qubits();
    let thermal = |q: usize, ns: f64| {
        let (t1, ratio, ..) = qubits[q];
        thermal_relaxation(t1, t1 * ratio, ns)
    };
    let mut b = NoiseModel::builder(n);
    for (q, &(_, _, ns, e1, p10, p01)) in qubits.iter().take(n).enumerate() {
        b = b
            .one_qubit_depolarizing(q, error_rate_to_depolarizing_prob(e1, 1))
            .one_qubit(q, thermal(q, ns))
            .readout(q, ReadoutError::new(p10, p01));
    }
    for a in 0..n {
        for c in a + 1..n {
            let (ecx, ns) = edges[a * 5 + c];
            b = b
                .two_qubit_depolarizing(a, c, error_rate_to_depolarizing_prob(ecx, 2))
                .two_qubit_wire(a, c, 0, thermal(a, ns))
                .two_qubit_wire(a, c, 1, thermal(c, ns));
            if let Some(channel) = edge_kraus {
                b = b.two_qubit(a, c, channel.clone());
            }
        }
    }
    b.build()
}

/// An asymmetric two-qubit Kraus channel, so that a swapped wire order
/// shows.
fn asymmetric_2q(gamma: f64, p: f64) -> KrausChannel {
    amplitude_damping(gamma).tensor(&phase_damping(p))
}

/// The generic builder entries the device models never use: a 1q amplitude
/// damping, an asymmetric 2q Kraus channel on the gate wires (so a swapped
/// wire order shows), and a per-wire entry listed ahead of a 2q entry.
fn generic_model(n: usize, gamma: f64, p: f64) -> NoiseModel {
    let mut b = NoiseModel::builder(n)
        .one_qubit_all(amplitude_damping(gamma))
        .one_qubit_depolarizing(0, p)
        .two_qubit_default(asymmetric_2q(gamma, p));
    if n >= 2 {
        b = b
            .two_qubit_wire(0, 1, 1, amplitude_damping(gamma))
            .two_qubit_depolarizing(0, 1, p)
            .two_qubit(0, 1, depolarizing_2q(p / 2.0));
    }
    b.build()
}

/// Compiled vs oracle ≤ 1e-12, plus trace 1, Hermiticity and PSD of the
/// compiled state, plus the readout-corrupted distribution.
fn check(circuit: &Circuit, theta: &[f64], noise: NoiseModel) {
    let want = oracle(circuit, theta, &noise);
    let program = NoisyProgram::compile(circuit.clone(), &noise);
    let got = program.run(theta);
    let rho = got.matrix();
    let diff = max_abs_diff(rho, &want);
    prop_assert!(diff <= TOL, "compiled vs oracle: max |Δρ| = {diff:e}");
    prop_assert!((got.trace() - 1.0).abs() <= TOL, "trace {}", got.trace());
    let herm = max_abs_diff(rho, &rho.adjoint());
    prop_assert!(herm <= TOL, "non-Hermitian by {herm:e}");
    prop_assert!(
        min_eigenvalue_at_least(rho, -TOL),
        "eigenvalue below -1e-12"
    );

    let n = circuit.num_qubits();
    let mut want_probs: Vec<f64> = (0..1 << n).map(|i| want[(i, i)].re.max(0.0)).collect();
    apply_confusion(&mut want_probs, &noise.readout()[..n]);
    let probs = program.outcome_probabilities(theta);
    for (p, w) in probs.iter().zip(&want_probs) {
        prop_assert!((p - w).abs() <= TOL, "outcome {p} vs oracle {w}");
    }
    // The measured run's diagonal-only tail reads out the full run's bits.
    prop_assert_eq!(bits(&probs), bits(&program.measure(&got)));
}

/// The depolarizing loop `DensityMatrix::apply_depolarizing` used before
/// its offsets were tabulated: every index spread per element. Kept as the
/// bitwise oracle of the tabulated loop.
fn depolarize_per_element(rho: &mut CMatrix, n: usize, p: f64, qubits: &[usize]) {
    let spread = |x: usize, offset: usize| {
        qubits
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &q)| acc | (((x >> i) & 1) << (q + offset)))
    };
    let sub = 1usize << qubits.len();
    let d = sub as f64;
    let lambda = p * d * d / (d * d - 1.0);
    let inv_d = 1.0 / d;
    let mask = spread(sub - 1, 0) | spread(sub - 1, n);
    let flat = rho.as_mut_slice();
    for base in 0..flat.len() {
        if base & mask != 0 {
            continue;
        }
        let mut acc = Complex64::ZERO;
        for s in 0..sub {
            acc += flat[base | spread(s, 0) | spread(s, n)];
        }
        let acc = acc * inv_d;
        for x in 0..sub {
            let row = base | spread(x, n);
            for y in 0..sub {
                let i = row | spread(y, 0);
                let mixed = if x == y { acc } else { Complex64::ZERO };
                flat[i] = flat[i] * (1.0 - lambda) + mixed * lambda;
            }
        }
    }
}

/// The two-qubit superoperator loop `DensityMatrix::apply_kraus` ran before
/// it stepped from block base to block base: every flat index scanned, the
/// 15 in 16 that are no block base skipped. Kept as the bitwise oracle of
/// `superop_2q`.
fn superop_2q_scan(rho: &mut CMatrix, n: usize, a: usize, b: usize, s: &[Complex64]) {
    let spread = |x: usize, offset: usize| ((x & 1) << (a + offset)) | ((x >> 1) << (b + offset));
    let offsets: [usize; 16] = std::array::from_fn(|x| spread(x & 3, 0) | spread(x >> 2, n));
    let mask = offsets[15];
    let flat = rho.as_mut_slice();
    for base in 0..flat.len() {
        if base & mask != 0 {
            continue;
        }
        let v: [Complex64; 16] = std::array::from_fn(|x| flat[base | offsets[x]]);
        for (row, &off) in s.chunks_exact(16).zip(&offsets) {
            let mut acc = Complex64::ZERO;
            for (&m, &x) in row.iter().zip(&v) {
                acc = m.mul_add(x, acc);
            }
            flat[base | off] = acc;
        }
    }
}

fn entry_bits(m: &CMatrix) -> Vec<(u64, u64)> {
    m.as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Random circuits over `{RZ(θ), RY(θ), SX, CX, RZZ(θ)}` whose angles read
/// symbols `0..4` (often more than once), plus `θ`.
fn arb_symbolic_circuit() -> impl Strategy<Value = (Circuit, Vec<f64>)> {
    let gate = (0u8..5, 0usize..5, 0usize..4, 0usize..4, -1.0f64..1.0);
    (
        1usize..=5,
        proptest::collection::vec(gate, 1..24),
        proptest::collection::vec(-3.2f64..3.2, 4),
    )
        .prop_map(|(n, gates, theta)| {
            let mut c = Circuit::new(n);
            for (kind, q, off, index, offset) in gates {
                let q = q % n;
                let angle = ParamValue::Sym {
                    index,
                    scale: 1.0,
                    offset,
                };
                let partner = (q + 1 + off % n.max(2).saturating_sub(1)) % n;
                match kind {
                    0 => c.rz(q, angle),
                    1 => c.ry(q, angle),
                    2 => c.push(GateKind::Sx, &[q], &[]),
                    _ if partner == q => c.ry(q, angle),
                    3 => c.cx(q, partner),
                    _ => c.rzz(q, partner, angle),
                };
            }
            (c, theta)
        })
}

/// Trace 1, Hermitian and PSD to 1e-12.
fn assert_state(rho: &DensityMatrix) {
    let m = rho.matrix();
    prop_assert!((rho.trace() - 1.0).abs() <= TOL, "trace {}", rho.trace());
    let herm = max_abs_diff(m, &m.adjoint());
    prop_assert!(herm <= TOL, "non-Hermitian by {herm:e}");
    prop_assert!(min_eigenvalue_at_least(m, -TOL), "eigenvalue below -1e-12");
}

/// Symbols `0..4` plus one past the circuits' symbols, a random subset in
/// random order.
fn arb_rows() -> impl Strategy<Value = Vec<usize>> {
    (
        proptest::sample::subsequence(vec![0usize, 1, 2, 3, 5], 0..=5),
        proptest::collection::vec(0u32..1000, 5),
    )
        .prop_map(|(rows, keys)| {
            let mut keyed: Vec<(u32, usize)> = keys.into_iter().zip(rows).collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, r)| r).collect()
        })
}

/// [`arb_symbolic_circuit`] and [`arb_rows`]; half the circuits (on two or
/// more qubits) behind RY(θ₀) on a wire, a CX that flushes it, a constant
/// SX on it and RZ(θ₃), symbol 3's first gate. Their rows then hold 0 and
/// 3, which open first and so share a lane group: symbol 3's window opens
/// after row 0 flushed a wire both rows dirty, with the SX pending on it.
fn arb_fork_case() -> impl Strategy<Value = (Circuit, Vec<f64>, Vec<usize>)> {
    (
        arb_symbolic_circuit(),
        arb_rows(),
        (any::<bool>(), 0usize..5, 0usize..4),
    )
        .prop_map(|((body, theta), mut rows, (late, q, off))| {
            let n = body.num_qubits();
            if !late || n < 2 {
                return (body, theta, rows);
            }
            let q = q % n;
            let mut c = Circuit::new(n);
            c.ry(q, ParamValue::sym(0));
            c.cx(q, (q + 1 + off % (n - 1)) % n);
            c.push(GateKind::Sx, &[q], &[]);
            c.rz(q, ParamValue::sym(3));
            for op in body.ops() {
                c.push(op.gate, &op.qubits, &op.params);
            }
            for symbol in [0, 3] {
                if !rows.contains(&symbol) {
                    rows.push(symbol);
                }
            }
            (c, theta, rows)
        })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tabulated_depolarizing_is_bit_identical_to_the_per_element_loop(
        case in arb_circuit(),
        wires in (0usize..5, 0usize..4, any::<bool>()),
        gamma in 0.0f64..0.3,
        p in 0.0f64..=1.0,
    ) {
        let (circuit, theta) = case;
        let n = circuit.num_qubits();
        let mut rho = NoisyProgram::compile(circuit, &generic_model(n, gamma, 0.1)).run(&theta);
        let a = wires.0 % n;
        let qubits = if n >= 2 && wires.2 {
            vec![a, (a + 1 + wires.1 % (n - 1)) % n]
        } else {
            vec![a]
        };
        let mut want = rho.matrix().clone();
        depolarize_per_element(&mut want, n, p, &qubits);
        rho.apply_depolarizing(p, &qubits);
        let got: Vec<(u64, u64)> =
            rho.matrix().as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect();
        let want: Vec<(u64, u64)> =
            want.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn block_stepped_2q_superoperator_is_bit_identical_to_the_scan(
        case in arb_circuit(),
        wires in (0usize..5, 0usize..4),
        gamma in 0.0f64..0.3,
        entries in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 256),
    ) {
        // A mixed state, any wire pair in either order, and a 16×16 matrix
        // that need not be a channel: the pass's arithmetic is all in play.
        let (circuit, theta) = case;
        let n = circuit.num_qubits();
        prop_assume!(n >= 2);
        let rho = NoisyProgram::compile(circuit, &generic_model(n, gamma, 0.1)).run(&theta);
        let a = wires.0 % n;
        let b = (a + 1 + wires.1 % (n - 1)) % n;
        let s: Vec<Complex64> = entries.into_iter().map(|(re, im)| Complex64::new(re, im)).collect();
        let mut want = rho.matrix().clone();
        superop_2q_scan(&mut want, n, a, b, &s);
        let mut got = rho.matrix().clone();
        superop_2q(got.as_mut_slice(), n, a, b, &s);
        prop_assert_eq!(entry_bits(&got), entry_bits(&want));
    }

    #[test]
    fn forked_shifts_are_bit_identical_to_shifted_runs(
        case in arb_fork_case(),
        cal in arb_calibration(),
        kraus in (0.0f64..0.3, 0.0f64..0.3),
    ) {
        // Symbol 5 indexes past the circuit's symbols: its shifts leave the
        // program unchanged, and its forks must say so. The edge Kraus entry
        // puts a 16×16 superoperator pass into the forks' paired suffix.
        let (circuit, mut theta, symbols) = case;
        theta.resize(6, 0.4);
        let edge_kraus = asymmetric_2q(kraus.0, kraus.1);
        let noise = calibrated_model(&circuit, &cal.0, &cal.1, Some(&edge_kraus));
        let program = NoisyProgram::compile(circuit, &noise);
        let mut visits = Vec::new();
        program.for_each_shift(&theta, &symbols, true, |run, probs| {
            visits.push(run);
            let shifted = run.theta(&theta, &symbols);
            let rho = program.run(&shifted);
            assert_state(&rho);
            prop_assert_eq!(
                bits(probs),
                bits(&program.outcome_probabilities(&shifted)),
                "{:?}: fork differs from the measured run", run
            );
            prop_assert_eq!(
                bits(probs),
                bits(&program.measure(&rho)),
                "{:?}: fork differs from the full run", run
            );
        });
        visits.sort_unstable();
        let mut want: Vec<ShiftRun> = (0..symbols.len())
            .flat_map(|row| [false, true].map(|minus| ShiftRun::Shifted { row, minus }))
            .collect();
        want.push(ShiftRun::Unshifted);
        prop_assert_eq!(visits, want, "every row visited once per sign, then the forward run");
    }

    #[test]
    fn calibrated_models_match_the_oracle(case in arb_circuit(), cal in arb_calibration()) {
        let (circuit, theta) = case;
        let noise = calibrated_model(&circuit, &cal.0, &cal.1, None);
        check(&circuit, &theta, noise);
    }

    #[test]
    fn generic_builder_entries_match_the_oracle(
        case in arb_circuit(),
        gamma in 0.0f64..0.3,
        p in 0.0f64..0.3,
    ) {
        let (circuit, theta) = case;
        let noise = generic_model(circuit.num_qubits(), gamma, p);
        check(&circuit, &theta, noise);
    }

    #[test]
    fn kraus_and_unitary_entry_points_match_the_oracle(
        case in arb_circuit(),
        wires in (0usize..5, 0usize..4),
        gamma in 0.0f64..0.5,
        p in 0.0f64..0.5,
    ) {
        // A mixed input state: the circuit under the generic model.
        let (circuit, theta) = case;
        let n = circuit.num_qubits();
        let mut rho = NoisyProgram::compile(circuit, &generic_model(n, gamma, p)).run(&theta);
        let a = wires.0 % n;
        let mut want = rho.matrix().clone();
        let one_qubit = [
            thermal_relaxation(80.0, 60.0, 400.0 * gamma + 1.0),
            amplitude_damping(gamma),
            depolarizing_1q(p),
        ];
        for channel in &one_qubit {
            rho.apply_kraus(channel, &[a]);
            want = dense_channel(&want, channel.operators(), &[a], n);
        }
        let sx = GateKind::Sx.matrix(&[]);
        rho.apply_unitary(&sx, &[a]);
        want = dense_channel(&want, &[sx], &[a], n);
        if n >= 2 {
            // Listed in either order, adjacent or not.
            let b = (a + 1 + wires.1 % (n - 1)) % n;
            let two_qubit = [asymmetric_2q(gamma, p), depolarizing_2q(p)];
            for channel in &two_qubit {
                rho.apply_kraus(channel, &[a, b]);
                want = dense_channel(&want, channel.operators(), &[a, b], n);
            }
            let cry = GateKind::Cry.matrix(&[gamma * 5.0]);
            rho.apply_unitary(&cry, &[a, b]);
            want = dense_channel(&want, &[cry], &[a, b], n);
            rho.apply_depolarizing(p, &[b, a]);
            want = dense_channel(&want, depolarizing_2q(p).operators(), &[b, a], n);
        }
        let diff = max_abs_diff(rho.matrix(), &want);
        prop_assert!(diff <= TOL, "entry points vs oracle: max |Δρ| = {diff:e}");
    }

    #[test]
    fn ideal_model_matches_the_oracle(case in arb_circuit()) {
        let (circuit, theta) = case;
        let noise = NoiseModel::ideal(circuit.num_qubits());
        check(&circuit, &theta, noise);
    }
}
