//! Method-equivalence suite for the shift-aware Jacobian planner.
//!
//! Five contracts, straight from the planner's design:
//!
//! 1. the engine's own exact Jacobian — the noiseless backend's forked
//!    answer to the Jacobian hook, or the shifted jobs of a request the
//!    engine does not offer it — agrees
//!    to ≤1e-12 with the shifted jobs built and run one by one, on random
//!    symbolic circuits, at the shifted jobs' cost of two circuits per
//!    gate occurrence;
//! 2. gates without a two-term shift rule (Phase/U3/Cp/Crx/Cry/Crz) are
//!    decomposed at plan time, and both Jacobians still match finite
//!    differences on the ORIGINAL circuit;
//! 3. the noisy shifted jobs reproduce golden Jacobian bit patterns,
//!    captured from the shifted jobs, at 1, 2, and 8 workers, and so does
//!    the fake device's forked answer for the golden rows it forks (every
//!    row whose symbol the circuit reads once);
//! 4. a fake device's answer to the Jacobian hook — every shifted circuit
//!    forked from one forward evolution — is bit-identical to the shifted
//!    jobs run through a wrapper that declines the hook, on random circuits
//!    with encoder symbols and row subsets, at one random execution per
//!    request and at 1, 2 and 8 workers, and every fork's measured
//!    distribution equals its shifted run's, measured and in full, each
//!    full run a state (trace 1, Hermitian, PSD to 1e-12);
//! 5. the noiseless backend's forked answer — every shifted statevector
//!    forked from one binding of `θ` — is bit-identical to the declined
//!    shifted jobs on the same random cases, exact, at `Shots(64)` and at
//!    the case's execution, at 1, 2 and 8 workers.

use proptest::prelude::*;

use std::f64::consts::FRAC_PI_2;

use qoc_core::shift::{Jacobian, ParameterShiftEngine};
use qoc_device::backend::{Execution, FakeDevice, NoiselessBackend, QuantumBackend};
use qoc_device::backends::{fake_jakarta, fake_lima, fake_santiago};
use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
use qoc_noise::density::DensityMatrix;
use qoc_noise::sim::NoisyProgram;
use qoc_sim::circuit::{Circuit, ParamValue};
use qoc_sim::gates::GateKind;
use qoc_sim::matrix::CMatrix;
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

/// Rows `subset` (all when `None`) two ways, labelled: the shifted jobs
/// built and run one by one, then the engine's own choice — the hook's
/// forked answer, or the jobs it declined — labelled with its mode and
/// asserted to cost two circuits per gate occurrence.
fn both_methods(
    engine: &ParameterShiftEngine<'_>,
    theta: &[f64],
    subset: Option<&[usize]>,
    seed: u64,
) -> [(&'static str, Jacobian); 2] {
    let (jobs, plan) = engine.jacobian_jobs(theta, subset, seed);
    let shifted = plan.assemble(&engine.run_batch(&jobs));
    let rows: Vec<usize> =
        subset.map_or_else(|| (0..engine.num_trainable()).collect(), <[usize]>::to_vec);
    let before = engine.backend().stats().circuits_run;
    let mut offer = engine.offer_jacobian(theta, &rows, seed);
    let results = offer
        .take_jobs()
        .map_or_else(Vec::new, |jobs| engine.run_batch(&jobs));
    let own = offer.jacobian(&results);
    assert_eq!(
        engine.backend().stats().circuits_run - before,
        plan.num_jobs() as u64,
        "the engine's Jacobian must cost its shifted circuits"
    );
    [("shifted-2p", shifted), (offer.mode(), own)]
}

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

/// A random 4-qubit device case: the circuit, its trainable-symbol count
/// (later symbols are an untrainable encoder), `θ`, the requested rows in
/// random order, and the request's execution.
type DeviceCase = (Circuit, usize, Vec<f64>, Vec<usize>, Execution);

/// Random circuits over `{H, CX, RX, RY, RZ, RZZ}` whose angles read a fresh
/// symbol per gate (sometimes a reused one, sometimes at scale −1 or 2 —
/// a reused or doubled one is a row the engine must not offer), a random trainable prefix of the
/// symbols, a random row subset, and `Exact` or `Shots(1..=1024)`.
///
/// Half the circuits open with RY(θ₀) on a wire, a CX that flushes it, a
/// constant H on it and then RX(θ₁), symbol 1's first gate; their request
/// is rows 0 and 1, which open first and so share a fork lane group. Symbol
/// 1's window then opens after row 0 flushed a wire both rows dirty, with
/// a constant gate pending on it.
fn arb_device_case() -> impl Strategy<Value = DeviceCase> {
    let op = (0u8..6, 0usize..4, 1usize..4, 0u8..10, 0u32..1000);
    (
        proptest::collection::vec(op, 1..14),
        proptest::collection::vec((-3.0f64..3.0, 0u32..1000), 12),
        (0usize..12, 0u32..1025),
        (any::<bool>(), 0usize..4, 1usize..4),
    )
        .prop_map(|(ops, draws, (trainable_draw, shots), (late, a, off))| {
            let mut c = Circuit::new(4);
            // Symbols below `opening` belong to the opening gates and are
            // never reused, so their rows stay forkable.
            let opening = if late { 2 } else { 0 };
            if late {
                c.ry(a, ParamValue::sym(0));
                c.cx(a, (a + off) % 4);
                c.h(a);
                c.rx(a, ParamValue::sym(1));
            }
            let mut syms = opening;
            for (kind, a, off, variant, reuse) in ops {
                let b = (a + off) % 4;
                if kind == 0 {
                    c.h(a);
                    continue;
                }
                if kind == 1 {
                    c.cx(a, b);
                    continue;
                }
                let index = if variant == 0 && syms > opening {
                    opening + reuse as usize % (syms - opening)
                } else {
                    syms += 1;
                    syms - 1
                };
                let scale = match variant {
                    1 => -1.0,
                    2 => 2.0,
                    _ => 1.0,
                };
                let p = ParamValue::Sym {
                    index,
                    scale,
                    offset: 0.1 * f64::from(variant),
                };
                match kind {
                    2 => c.rx(a, p),
                    3 => c.ry(a, p),
                    4 => c.rz(a, p),
                    _ => c.rzz(a, b, p),
                };
            }
            if syms == 0 {
                c.ry(0, ParamValue::sym(0));
                syms = 1;
            }
            let trainable = opening.max(1) + trainable_draw % (syms + 1 - opening.max(1));
            let theta: Vec<f64> = draws.iter().take(syms).map(|d| d.0).collect();
            // A random subset of the trainable symbols in random order.
            let mut keyed: Vec<(u32, usize)> = (0..trainable)
                .map(|i| (draws[i].1, i))
                .filter(|&(key, i)| if late { i < opening } else { key % 4 != 0 })
                .collect();
            keyed.sort_unstable();
            let rows: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
            let execution = match shots {
                0 => Execution::Exact,
                shots => Execution::Shots(shots),
            };
            (c, trainable, theta, rows, execution)
        })
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
        l[(j, j)] = qoc_sim::complex::Complex64::real(d.sqrt());
        for i in j + 1..dim {
            let mut v = rho[(i, j)];
            for k in 0..j {
                v -= l[(i, k)] * l[(j, k)].conj();
            }
            l[(i, j)] = v * (1.0 / d.sqrt());
        }
    }
    true
}

fn assert_state(rho: &DensityMatrix) {
    let m = rho.matrix();
    assert!((rho.trace() - 1.0).abs() <= 1e-12, "trace {}", rho.trace());
    assert!(m.is_hermitian(1e-12), "fork is not Hermitian");
    assert!(
        min_eigenvalue_at_least(m, -1e-12),
        "fork eigenvalue below -1e-12"
    );
}

/// Offers rows `rows` of `c` at `theta` under `execution` to `backend` and
/// to `declining`, a wrapper of the same backend that declines the hook,
/// each engine at `workers` batch workers. The engine offers a forking
/// backend only non-empty requests whose rows are all single occurrences
/// with |scale| = 1, and runs the shifted jobs of the rest; either way its
/// Jacobian, row variances and charged stats equal the declined shifted
/// jobs' bit for bit.
fn check_forked_equals_declined(
    backend: &dyn QuantumBackend,
    declining: &dyn QuantumBackend,
    (c, trainable, theta, rows): (&Circuit, usize, &[f64], &[usize]),
    execution: Execution,
    seed: u64,
    workers: usize,
) {
    let engine = ParameterShiftEngine::new(backend, c, trainable, execution).with_workers(workers);
    let mut answered = engine.offer_jacobian(theta, rows, seed);
    let own = answered
        .take_jobs()
        .map_or_else(Vec::new, |jobs| engine.run_batch(&jobs));
    let reference =
        ParameterShiftEngine::new(declining, c, trainable, execution).with_workers(workers);
    let mut declined = reference.offer_jacobian(theta, rows, seed);
    let jobs = declined.take_jobs().expect("the wrapper declines");
    let results = reference.run_batch(&jobs);

    let all_simple = !rows.is_empty()
        && rows.iter().all(|&s| {
            let occ = c.symbol_occurrences(s);
            occ.len() == 1
                && matches!(c.ops()[occ[0].0].params[occ[0].1],
                    ParamValue::Sym { scale, .. } if scale.abs() == 1.0)
        });
    let mode = if all_simple { "forked" } else { "shifted-2p" };
    assert_eq!(answered.mode(), mode);
    assert_eq!(
        bits(&answered.jacobian(&own)),
        bits(&declined.jacobian(&results))
    );
    assert_eq!(
        bits(&answered.row_variances(&own)),
        bits(&declined.row_variances(&results))
    );
    assert_eq!(backend.stats().circuits_run, declining.stats().circuits_run);
    assert_eq!(backend.stats().total_shots, declining.stats().total_shots);
    assert_eq!(
        backend.stats().device_nanos(),
        declining.stats().device_nanos()
    );
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fake_device_answers_equal_the_declined_shifted_jobs_bit_for_bit(
        case in arb_device_case(),
        jakarta in any::<bool>(),
        seed in 0u32..1000,
    ) {
        let (c, trainable, theta, rows, execution) = case;
        let desc = if jakarta { fake_jakarta() } else { fake_santiago() };
        let device = FakeDevice::new(desc.clone());
        let declining = FaultInjectingBackend::new(FakeDevice::new(desc.clone()), FaultPlan::none());
        let case = (&c, trainable, &theta[..], &rows[..]);
        for workers in [1usize, 2, 8] {
            check_forked_equals_declined(
                &device,
                &declining,
                case,
                execution,
                u64::from(seed),
                workers,
            );
        }

        // Each fork of the executed (transpiled) circuit under the device's
        // calibrated noise reads out as its shifted run, measured and in
        // full, and that full run ends in a state.
        let executable = device.prepare(&c).executable().clone();
        let program = NoisyProgram::compile(executable, &desc.calibration.noise_model());
        program.for_each_shift(&theta, &rows, |row, minus, probs| {
            let mut shifted = theta.clone();
            shifted[rows[row]] += if minus { -FRAC_PI_2 } else { FRAC_PI_2 };
            let rho = program.run(&shifted);
            assert_state(&rho);
            let want = [program.outcome_probabilities(&shifted), program.measure(&rho)];
            assert_eq!(
                bits(&[probs.to_vec(), probs.to_vec()]),
                bits(&want),
                "row {row} minus={minus}: fork differs from the measured and the full run"
            );
        });
    }

    #[test]
    fn noiseless_forked_answers_equal_the_declined_shifted_jobs_bit_for_bit(
        case in arb_device_case(),
        seed in 0u32..1000,
    ) {
        let (c, trainable, theta, rows, drawn) = case;
        let noiseless = NoiselessBackend::new();
        let declining = FaultInjectingBackend::new(NoiselessBackend::new(), FaultPlan::none());
        let case = (&c, trainable, &theta[..], &rows[..]);
        for execution in [Execution::Exact, Execution::Shots(64), drawn] {
            for workers in [1usize, 2, 8] {
                check_forked_equals_declined(
                    &noiseless,
                    &declining,
                    case,
                    execution,
                    u64::from(seed),
                    workers,
                );
            }
        }
    }

    #[test]
    fn both_methods_agree_to_1e12_on_random_circuits(
        c in arb_symbolic_circuit(3),
        theta_seed in -3.0f64..3.0,
    ) {
        let backend = NoiselessBackend::new();
        let n_params = c.num_symbols();
        let theta: Vec<f64> = (0..n_params)
            .map(|k| theta_seed + 0.41 * k as f64)
            .collect();
        let engine = ParameterShiftEngine::new(&backend, &c, n_params, Execution::Exact);
        let [(_, shifted), (mode, own)] = both_methods(&engine, &theta, None, 7);
        for (i, (row, base)) in own.iter().zip(&shifted).enumerate() {
            for (q, (a, b)) in row.iter().zip(base).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-12,
                    "{mode} vs shifted-2p at ∂f[{q}]/∂θ[{i}]: {a} vs {b}\n{c}",
                );
            }
        }
    }

    #[test]
    fn decomposed_gates_match_finite_differences_by_both_methods(
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
        let engine = ParameterShiftEngine::new(&backend, &c, n_params, Execution::Exact);
        for (mode, jac) in both_methods(&engine, &theta, None, 13) {
            for (i, row) in jac.iter().enumerate() {
                let fd = finite_difference(&c, &theta, i);
                for (q, (s, f)) in row.iter().zip(&fd).enumerate() {
                    prop_assert!(
                        (s - f).abs() < 1e-5,
                        "{gate:?}/{mode} ∂f[{q}]/∂θ[{i}]: shift {s} vs fd {f}",
                    );
                }
            }
        }
    }
}

/// The noisy-path circuit the goldens are captured on.
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
/// 0xC0FFEE, captured from the plain shifted jobs: each ±π/2 job run
/// through `run_batch` on its own. Neither the fork inside the fake
/// device's Jacobian hook nor the shifted jobs may move a single bit of
/// this, at any worker count.
const GOLDEN_BITS: [[u64; 3]; 5] = [
    [0xbfeb600000000000, 0xbf9c000000000000, 0xbf98000000000000],
    [0x0000000000000000, 0x3feea00000000000, 0xbfe6e00000000000],
    [0x3fb7000000000000, 0x3fb7000000000000, 0x3f70000000000000],
    [0x3fac000000000000, 0xbf70000000000000, 0x3fd1400000000000],
    [0xbf9c000000000000, 0xbf94000000000000, 0x3fcb800000000000],
];

/// Asserts that rows `rows` of `GOLDEN_BITS` are `jac`, bit for bit.
fn assert_golden_rows(jac: &Jacobian, rows: &[usize], path: &str, workers: usize) {
    assert_eq!(
        jac.len(),
        rows.len(),
        "{path}, workers={workers}: row count"
    );
    for (row, &i) in jac.iter().zip(rows) {
        for (q, (v, bits)) in row.iter().zip(&GOLDEN_BITS[i]).enumerate() {
            assert_eq!(
                v.to_bits(),
                *bits,
                "{path}, workers={workers} row {i} qubit {q}: {v} != {}",
                f64::from_bits(*bits)
            );
        }
    }
}

#[test]
fn noisy_shifted_and_forked_jacobians_match_goldens() {
    let c = golden_circuit();
    let theta = [0.37, -1.1, 0.52, 2.4, -0.8];
    let all = [0, 1, 2, 3, 4];
    // Every row but the one whose symbol the golden circuit reads twice:
    // RY, RZZ, RZX and RY shifts, so the fake device forks the request.
    let forkable = [0, 2, 3, 4];
    let device = FakeDevice::new(fake_lima());
    for workers in [1usize, 2, 8] {
        let engine =
            ParameterShiftEngine::new(&device, &c, 5, Execution::Shots(256)).with_workers(workers);
        let (jobs, plan) = engine.jacobian_jobs(&theta, None, 0xC0FFEE);
        let shifted = plan.assemble(&engine.run_batch(&jobs));
        assert_golden_rows(&shifted, &all, "shifted jobs", workers);
        // The full request reads symbol 1 twice, so the hook declines it.
        let declined = engine.jacobian(&theta, 0xC0FFEE);
        assert_golden_rows(&declined, &all, "declined hook", workers);
        let mut offer = engine.offer_jacobian(&theta, &forkable, 0xC0FFEE);
        assert!(
            offer.take_jobs().is_none(),
            "the fake device forks rows {forkable:?}"
        );
        assert_eq!(offer.mode(), "forked");
        assert_golden_rows(&offer.jacobian(&[]), &forkable, "forked hook", workers);
    }
}

#[test]
fn untrainable_symbols_stay_undifferentiated_by_both_methods() {
    // A symbol beyond num_trainable stays undifferentiated by either method.
    let mut c = Circuit::new(2);
    c.ry(0, ParamValue::sym(0));
    c.rz(1, ParamValue::sym(1)); // input symbol — not trainable
    let backend = NoiselessBackend::new();
    let engine = ParameterShiftEngine::new(&backend, &c, 1, Execution::Exact);
    for (mode, jac) in both_methods(&engine, &[0.4, 0.9], None, 3) {
        assert_eq!(jac.len(), 1, "{mode}");
    }
}

#[test]
fn subset_rows_match_full_jacobian_rows_by_both_methods() {
    let c = golden_circuit();
    let theta = [0.37, -1.1, 0.52, 2.4, -0.8];
    let backend = NoiselessBackend::new();
    let engine = ParameterShiftEngine::new(&backend, &c, 5, Execution::Exact);
    let full = both_methods(&engine, &theta, None, 21);
    let sub = both_methods(&engine, &theta, Some(&[3, 0]), 21);
    for ((mode, full), (_, sub)) in full.into_iter().zip(sub) {
        assert_eq!(sub[0], full[3], "{mode}");
        assert_eq!(sub[1], full[0], "{mode}");
    }
}
