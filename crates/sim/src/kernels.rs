//! Specialized in-place gate kernels.
//!
//! [`GateKind::matrix`] builds a heap-allocated dense matrix on every call,
//! and the generic [`Statevector::apply_unitary`](crate::statevector::Statevector::apply_unitary)
//! path multiplies it in full — wasteful for gates that are diagonal,
//! permutations, or real rotations. A [`Kernel`] is the *classified* form of
//! one gate application: construction resolves the gate class once
//! (allocation-free for every gate the QOC circuits use on their hot path),
//! and [`Kernel::apply`] runs a branch-free loop specialized to that class.
//!
//! Kernels operate on a raw amplitude slice, generic over the [`Amplitude`]
//! type, so the same code serves the statevector simulator, the
//! density-matrix simulator *and* its lockstep lane states: a `2ⁿ×2ⁿ`
//! row-major density matrix is a `4ⁿ` vector on `2n` qubits where gate
//! qubit `q` appears as column bit `q` and row bit `n + q`, so `ρ ↦ UρU†`
//! is [`Kernel::remapped`]`(n)` followed by [`Kernel::conj`] (see
//! `qoc-noise`). A lane state stores entry `i` of every lane as one
//! amplitude whose operations are the [`Complex64`] ones written once per
//! lane, so each lane rounds exactly as a lone state.
//!
//! Kernel classes:
//!
//! | class | gates | inner loop |
//! |---|---|---|
//! | [`Kernel::Diag1`] | Z, S, S†, T, T†, RZ, Phase | 2 complex multiplies per pair |
//! | [`Kernel::RealRot1`] | RY | 4 real multiplies per pair |
//! | [`Kernel::Flip`] | X | swap per pair |
//! | [`Kernel::Unitary1`] | H, Y, √X, √X†, RX, U3, fused products | dense 2×2 |
//! | [`Kernel::ControlledFlip`] | CX | one swap per 4-block |
//! | [`Kernel::PhaseFlip2`] | CZ | one negation per 4-block |
//! | [`Kernel::Diag2`] | RZZ, CP, CRZ | 4 complex multiplies per 4-block |
//! | [`Kernel::Exchange`] | SWAP | one swap per 4-block |
//! | [`Kernel::Unitary2`] | CY, CRX, CRY, RXX, RYY, RZX | dense 4×4 |

use std::f64::consts::FRAC_PI_2;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use crate::circuit::Operation;
use crate::complex::{c64, Complex64};
use crate::gates::GateKind;

/// One gate application, classified and pre-resolved for in-place execution
/// on an amplitude slice.
///
/// # Examples
///
/// ```
/// use qoc_sim::gates::GateKind;
/// use qoc_sim::kernels::Kernel;
/// use qoc_sim::statevector::Statevector;
///
/// let mut sv = Statevector::zero_state(2);
/// sv.apply_kernel(&Kernel::for_gate(GateKind::H, &[0], &[]));
/// sv.apply_kernel(&Kernel::for_gate(GateKind::Cx, &[0, 1], &[]));
/// assert!((sv.probabilities()[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(clippy::large_enum_variant)] // Copy by design: kernels live on the stack in hot loops.
pub enum Kernel {
    /// Identity — no work.
    Id,
    /// Diagonal 1q gate `diag(d[0], d[1])` on qubit `q`.
    Diag1 {
        /// Target qubit.
        q: usize,
        /// Diagonal entries.
        d: [Complex64; 2],
    },
    /// Real rotation `[[c, -s], [s, c]]` (RY) on qubit `q`.
    RealRot1 {
        /// Target qubit.
        q: usize,
        /// `cos(θ/2)`.
        c: f64,
        /// `sin(θ/2)`.
        s: f64,
    },
    /// Bit flip (X) on qubit `q`.
    Flip {
        /// Target qubit.
        q: usize,
    },
    /// Dense 2×2 unitary (row-major) on qubit `q`.
    Unitary1 {
        /// Target qubit.
        q: usize,
        /// Row-major entries `[m00, m01, m10, m11]`.
        m: [Complex64; 4],
    },
    /// CX: flip `target` where `control` is 1.
    ControlledFlip {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// CZ: negate amplitudes where both qubits are 1.
    PhaseFlip2 {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Diagonal 2q gate on `(a, b)`; `d` is indexed by `bit(a) + 2·bit(b)`
    /// (first listed qubit = least-significant matrix bit).
    Diag2 {
        /// First listed qubit (LSB of the diagonal index).
        a: usize,
        /// Second listed qubit.
        b: usize,
        /// Diagonal entries.
        d: [Complex64; 4],
    },
    /// SWAP of qubits `a` and `b`.
    Exchange {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Dense 4×4 unitary (row-major, first listed qubit = LSB) on `(a, b)`.
    Unitary2 {
        /// First listed qubit (LSB of the matrix index).
        a: usize,
        /// Second listed qubit.
        b: usize,
        /// Row-major entries.
        m: [Complex64; 16],
    },
}

/// Row-major 2×2 entries of any single-qubit gate, matching
/// [`GateKind::matrix`] exactly (up to the sign of zero components).
///
/// # Panics
///
/// Panics if `gate` is not single-qubit or `params` has the wrong arity.
pub fn entries_1q(gate: GateKind, params: &[f64]) -> [Complex64; 4] {
    assert_eq!(gate.num_qubits(), 1, "{gate} is not a single-qubit gate");
    assert_eq!(params.len(), gate.num_params(), "{gate} parameter arity");
    const O: Complex64 = Complex64::ZERO;
    const L: Complex64 = Complex64::ONE;
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    match gate {
        GateKind::I => [L, O, O, L],
        GateKind::X => [O, L, L, O],
        GateKind::Y => [O, c64(0.0, -1.0), c64(0.0, 1.0), O],
        GateKind::Z => [L, O, O, c64(-1.0, 0.0)],
        GateKind::H => [
            c64(inv_sqrt2, 0.0),
            c64(inv_sqrt2, 0.0),
            c64(inv_sqrt2, 0.0),
            c64(-inv_sqrt2, 0.0),
        ],
        GateKind::S => [L, O, O, Complex64::I],
        GateKind::Sdg => [L, O, O, c64(0.0, -1.0)],
        GateKind::T => [L, O, O, Complex64::cis(FRAC_PI_2 / 2.0)],
        GateKind::Tdg => [L, O, O, Complex64::cis(-FRAC_PI_2 / 2.0)],
        GateKind::Sx => [c64(0.5, 0.5), c64(0.5, -0.5), c64(0.5, -0.5), c64(0.5, 0.5)],
        GateKind::Sxdg => [c64(0.5, -0.5), c64(0.5, 0.5), c64(0.5, 0.5), c64(0.5, -0.5)],
        GateKind::Rx => {
            let (s, c) = (params[0] / 2.0).sin_cos();
            [c64(c, 0.0), c64(0.0, -s), c64(0.0, -s), c64(c, 0.0)]
        }
        GateKind::Ry => {
            let (s, c) = (params[0] / 2.0).sin_cos();
            [c64(c, 0.0), c64(-s, 0.0), c64(s, 0.0), c64(c, 0.0)]
        }
        GateKind::Rz => {
            let (s, c) = (params[0] / 2.0).sin_cos();
            [c64(c, -s), O, O, c64(c, s)]
        }
        GateKind::Phase => [L, O, O, Complex64::cis(params[0])],
        GateKind::U3 => {
            let (theta, phi, lam) = (params[0], params[1], params[2]);
            let (s, c) = (theta / 2.0).sin_cos();
            [
                Complex64::real(c),
                -Complex64::cis(lam) * s,
                Complex64::cis(phi) * s,
                Complex64::cis(phi + lam) * c,
            ]
        }
        _ => unreachable!("two-qubit gate {gate} reached entries_1q"),
    }
}

/// An amplitude the kernels run on: a [`Complex64`], or a value holding
/// several states' amplitudes whose every operation is the `Complex64` one
/// per state, operand for operand.
pub trait Amplitude:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Neg<Output = Self>
    + Mul<f64, Output = Self>
    + AddAssign
{
    /// The zero amplitude.
    const ZERO: Self;
}

impl Amplitude for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
}

/// An entry of a pass matrix acting on amplitudes of type `A`: a
/// [`Complex64`] shared by every state an amplitude holds, or a value
/// holding one matrix entry per state.
pub trait Coeff<A>: Copy + Mul<A, Output = A> {}

impl<A, M: Copy + Mul<A, Output = A>> Coeff<A> for M {}

/// Inserts a zero bit at position `bit`, shifting higher bits up.
#[inline(always)]
fn insert_zero_bit(x: usize, bit: usize) -> usize {
    let mask = (1usize << bit) - 1;
    ((x & !mask) << 1) | (x & mask)
}

/// Expands a compact index `k` into a base amplitude index with zero bits at
/// positions `lo < hi`: `k` in `0..len/4` enumerates the 4-blocks of a
/// two-qubit pass.
#[inline(always)]
pub fn expand2(k: usize, lo: usize, hi: usize) -> usize {
    insert_zero_bit(insert_zero_bit(k, lo), hi)
}

impl Kernel {
    /// Classifies one gate application into its kernel.
    ///
    /// Allocation-free for every gate class except the rare dense 2-qubit
    /// fallbacks (CY, CRX, CRY, RXX, RYY, RZX), which bake the
    /// [`GateKind::matrix`] result once into the kernel.
    ///
    /// # Panics
    ///
    /// Panics on a qubit-count or parameter-arity mismatch.
    pub fn for_gate(gate: GateKind, qubits: &[usize], params: &[f64]) -> Kernel {
        assert_eq!(qubits.len(), gate.num_qubits(), "{gate} qubit arity");
        if gate.num_qubits() == 1 {
            let q = qubits[0];
            return match gate {
                GateKind::I => Kernel::Id,
                GateKind::X => Kernel::Flip { q },
                GateKind::Z => Kernel::Diag1 {
                    q,
                    d: [Complex64::ONE, c64(-1.0, 0.0)],
                },
                GateKind::S => Kernel::Diag1 {
                    q,
                    d: [Complex64::ONE, Complex64::I],
                },
                GateKind::Sdg => Kernel::Diag1 {
                    q,
                    d: [Complex64::ONE, c64(0.0, -1.0)],
                },
                GateKind::T => Kernel::Diag1 {
                    q,
                    d: [Complex64::ONE, Complex64::cis(FRAC_PI_2 / 2.0)],
                },
                GateKind::Tdg => Kernel::Diag1 {
                    q,
                    d: [Complex64::ONE, Complex64::cis(-FRAC_PI_2 / 2.0)],
                },
                GateKind::Rz => {
                    let (s, c) = (params[0] / 2.0).sin_cos();
                    Kernel::Diag1 {
                        q,
                        d: [c64(c, -s), c64(c, s)],
                    }
                }
                GateKind::Phase => Kernel::Diag1 {
                    q,
                    d: [Complex64::ONE, Complex64::cis(params[0])],
                },
                GateKind::Ry => {
                    let (s, c) = (params[0] / 2.0).sin_cos();
                    Kernel::RealRot1 { q, c, s }
                }
                _ => Kernel::Unitary1 {
                    q,
                    m: entries_1q(gate, params),
                },
            };
        }
        let (a, b) = (qubits[0], qubits[1]);
        assert_ne!(a, b, "two-qubit gate on a repeated wire");
        match gate {
            GateKind::Cx => Kernel::ControlledFlip {
                control: a,
                target: b,
            },
            GateKind::Cz => Kernel::PhaseFlip2 { a, b },
            GateKind::Swap => Kernel::Exchange { a, b },
            GateKind::Cp => Kernel::Diag2 {
                a,
                b,
                d: [
                    Complex64::ONE,
                    Complex64::ONE,
                    Complex64::ONE,
                    Complex64::cis(params[0]),
                ],
            },
            // CRZ diag indexed by bit(control=a) + 2·bit(target=b).
            GateKind::Crz => {
                let (s, c) = (params[0] / 2.0).sin_cos();
                Kernel::Diag2 {
                    a,
                    b,
                    d: [Complex64::ONE, c64(c, -s), Complex64::ONE, c64(c, s)],
                }
            }
            // RZZ diag = e^{∓iθ/2} by the parity of the two bits.
            GateKind::Rzz => {
                let (s, c) = (params[0] / 2.0).sin_cos();
                let even = c64(c, -s);
                let odd = c64(c, s);
                Kernel::Diag2 {
                    a,
                    b,
                    d: [even, odd, odd, even],
                }
            }
            _ => {
                let u = gate.matrix(params);
                let mut m = [Complex64::ZERO; 16];
                m.copy_from_slice(u.as_slice());
                Kernel::Unitary2 { a, b, m }
            }
        }
    }

    /// Classifies a circuit [`Operation`] with its parameters resolved
    /// against `theta`.
    pub fn from_operation(op: &Operation, theta: &[f64]) -> Kernel {
        let mut buf = [0.0f64; 3];
        for (slot, p) in buf.iter_mut().zip(&op.params) {
            *slot = p.eval(theta);
        }
        Kernel::for_gate(op.gate, &op.qubits, &buf[..op.params.len()])
    }

    /// The qubit indices the kernel touches (empty for [`Kernel::Id`]).
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Kernel::Id => vec![],
            Kernel::Diag1 { q, .. }
            | Kernel::RealRot1 { q, .. }
            | Kernel::Flip { q }
            | Kernel::Unitary1 { q, .. } => vec![q],
            Kernel::ControlledFlip { control, target } => vec![control, target],
            Kernel::PhaseFlip2 { a, b }
            | Kernel::Diag2 { a, b, .. }
            | Kernel::Exchange { a, b }
            | Kernel::Unitary2 { a, b, .. } => vec![a, b],
        }
    }

    /// The element-wise complex conjugate kernel (conj(U), *not* U†).
    ///
    /// Combined with [`Kernel::remapped`] this implements `ρ ↦ UρU†` on a
    /// flattened density matrix.
    #[must_use]
    pub fn conj(&self) -> Kernel {
        match *self {
            Kernel::Id => Kernel::Id,
            Kernel::Diag1 { q, d } => Kernel::Diag1 {
                q,
                d: [d[0].conj(), d[1].conj()],
            },
            Kernel::RealRot1 { q, c, s } => Kernel::RealRot1 { q, c, s },
            Kernel::Flip { q } => Kernel::Flip { q },
            Kernel::Unitary1 { q, m } => Kernel::Unitary1 {
                q,
                m: [m[0].conj(), m[1].conj(), m[2].conj(), m[3].conj()],
            },
            Kernel::ControlledFlip { control, target } => {
                Kernel::ControlledFlip { control, target }
            }
            Kernel::PhaseFlip2 { a, b } => Kernel::PhaseFlip2 { a, b },
            Kernel::Diag2 { a, b, d } => Kernel::Diag2 {
                a,
                b,
                d: [d[0].conj(), d[1].conj(), d[2].conj(), d[3].conj()],
            },
            Kernel::Exchange { a, b } => Kernel::Exchange { a, b },
            Kernel::Unitary2 { a, b, mut m } => {
                for e in &mut m {
                    *e = e.conj();
                }
                Kernel::Unitary2 { a, b, m }
            }
        }
    }

    /// The same kernel with every qubit index shifted up by `offset`
    /// (used to address the row bits of a flattened density matrix).
    #[must_use]
    pub fn remapped(&self, offset: usize) -> Kernel {
        let mut k = *self;
        match &mut k {
            Kernel::Id => {}
            Kernel::Diag1 { q, .. }
            | Kernel::RealRot1 { q, .. }
            | Kernel::Flip { q }
            | Kernel::Unitary1 { q, .. } => *q += offset,
            Kernel::ControlledFlip { control, target } => {
                *control += offset;
                *target += offset;
            }
            Kernel::PhaseFlip2 { a, b }
            | Kernel::Diag2 { a, b, .. }
            | Kernel::Exchange { a, b }
            | Kernel::Unitary2 { a, b, .. } => {
                *a += offset;
                *b += offset;
            }
        }
        k
    }

    /// Applies the kernel in place to an amplitude slice of power-of-two
    /// length (a statevector, or a flattened density matrix or lane state).
    ///
    /// # Panics
    ///
    /// Panics if a two-qubit kernel names one wire twice (a pass on it
    /// would mix amplitudes that are not one block). Debug-asserts that
    /// every touched qubit fits the slice length.
    pub fn apply<A: Amplitude>(&self, amps: &mut [A])
    where
        Complex64: Coeff<A>,
    {
        if let Kernel::ControlledFlip {
            control: a,
            target: b,
        }
        | Kernel::PhaseFlip2 { a, b }
        | Kernel::Diag2 { a, b, .. }
        | Kernel::Exchange { a, b }
        | Kernel::Unitary2 { a, b, .. } = *self
        {
            assert_ne!(a, b, "repeated wire {a}");
        }
        debug_assert!(amps.len().is_power_of_two(), "amplitude length");
        let len = amps.len();
        match *self {
            Kernel::Id => {}
            Kernel::Diag1 { q, d } => {
                let stride = 1usize << q;
                debug_assert!(stride < len, "qubit {q} out of range");
                let (d0, d1) = (d[0], d[1]);
                let mut base = 0usize;
                while base < len {
                    for i in base..base + stride {
                        amps[i] = d0 * amps[i];
                        amps[i + stride] = d1 * amps[i + stride];
                    }
                    base += stride << 1;
                }
            }
            Kernel::RealRot1 { q, c, s } => {
                let stride = 1usize << q;
                debug_assert!(stride < len, "qubit {q} out of range");
                let mut base = 0usize;
                while base < len {
                    for i in base..base + stride {
                        let a0 = amps[i];
                        let a1 = amps[i + stride];
                        amps[i] = a0 * c - a1 * s;
                        amps[i + stride] = a0 * s + a1 * c;
                    }
                    base += stride << 1;
                }
            }
            Kernel::Flip { q } => {
                let stride = 1usize << q;
                debug_assert!(stride < len, "qubit {q} out of range");
                let mut base = 0usize;
                while base < len {
                    for i in base..base + stride {
                        amps.swap(i, i + stride);
                    }
                    base += stride << 1;
                }
            }
            Kernel::Unitary1 { q, m } => {
                let stride = 1usize << q;
                debug_assert!(stride < len, "qubit {q} out of range");
                let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);
                let mut base = 0usize;
                while base < len {
                    for i in base..base + stride {
                        let a0 = amps[i];
                        let a1 = amps[i + stride];
                        amps[i] = m00 * a0 + m01 * a1;
                        amps[i + stride] = m10 * a0 + m11 * a1;
                    }
                    base += stride << 1;
                }
            }
            Kernel::ControlledFlip { control, target } => {
                let (cb, tb) = (1usize << control, 1usize << target);
                debug_assert!(cb < len && tb < len, "qubit out of range");
                let (lo, hi) = (control.min(target), control.max(target));
                for k in 0..len >> 2 {
                    let on = expand2(k, lo, hi) | cb;
                    amps.swap(on, on | tb);
                }
            }
            Kernel::PhaseFlip2 { a, b } => {
                let both = (1usize << a) | (1usize << b);
                debug_assert!(both < len, "qubit out of range");
                let (lo, hi) = (a.min(b), a.max(b));
                for k in 0..len >> 2 {
                    let i = expand2(k, lo, hi) | both;
                    amps[i] = -amps[i];
                }
            }
            Kernel::Diag2 { a, b, d } => {
                let (ba, bb) = (1usize << a, 1usize << b);
                debug_assert!(ba < len && bb < len, "qubit out of range");
                let (lo, hi) = (a.min(b), a.max(b));
                for k in 0..len >> 2 {
                    let base = expand2(k, lo, hi);
                    amps[base] = d[0] * amps[base];
                    amps[base | ba] = d[1] * amps[base | ba];
                    amps[base | bb] = d[2] * amps[base | bb];
                    amps[base | ba | bb] = d[3] * amps[base | ba | bb];
                }
            }
            Kernel::Exchange { a, b } => {
                let (ba, bb) = (1usize << a, 1usize << b);
                debug_assert!(ba < len && bb < len, "qubit out of range");
                let (lo, hi) = (a.min(b), a.max(b));
                for k in 0..len >> 2 {
                    let base = expand2(k, lo, hi);
                    amps.swap(base | ba, base | bb);
                }
            }
            Kernel::Unitary2 { a, b, ref m } => unitary2(amps, a, b, m),
        }
    }
}

/// The [`Kernel::Unitary2`] loop: row-major 4×4 `m` on bits `(a, b)` of
/// `amps`, first listed bit least significant. Each output is
/// `Σ_c m[r][c]·v_c` summed left to right from zero; `m`'s entries are
/// shared by every state an amplitude holds or hold one matrix per state
/// ([`Coeff`]).
///
/// Always inlined, so that a caller compiled for a wider instruction set
/// (`qoc-noise`'s AVX-512 fork lanes) gets the loop in that set.
///
/// # Panics
///
/// Debug-asserts that the bits are distinct and fit the slice length.
#[inline(always)]
pub fn unitary2<A: Amplitude, M: Coeff<A>>(amps: &mut [A], a: usize, b: usize, m: &[M; 16]) {
    let (ba, bb) = (1usize << a, 1usize << b);
    debug_assert!(ba < amps.len() && bb < amps.len(), "qubit out of range");
    debug_assert_ne!(a, b, "repeated wire {a}");
    let (lo, hi) = (a.min(b), a.max(b));
    for k in 0..amps.len() >> 2 {
        let base = expand2(k, lo, hi);
        let idx = [base, base | ba, base | bb, base | ba | bb];
        let amp = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
        for (r, &out_i) in idx.iter().enumerate() {
            let row = &m[4 * r..4 * r + 4];
            let mut acc = A::ZERO;
            for (c, &v) in amp.iter().enumerate() {
                acc = row[c] * v + acc;
            }
            amps[out_i] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::ALL_GATES;
    use crate::statevector::Statevector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_state(n: usize, seed: u64) -> Statevector {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut amps: Vec<Complex64> = (0..1usize << n)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = a.scale(1.0 / norm);
        }
        Statevector::from_amplitudes(amps).expect("normalized")
    }

    fn params_for(g: GateKind) -> Vec<f64> {
        (0..g.num_params())
            .map(|k| -1.23 + 0.71 * k as f64)
            .collect()
    }

    #[test]
    #[should_panic(expected = "repeated wire")]
    fn two_qubit_kernel_on_a_repeated_wire_panics() {
        let mut amps = [Complex64::ZERO; 4];
        amps[0] = Complex64::ONE;
        Kernel::Unitary2 {
            a: 1,
            b: 1,
            m: [Complex64::ONE; 16],
        }
        .apply(&mut amps);
    }

    #[test]
    fn every_gate_kernel_matches_generic_apply() {
        // Exhaustive: all gates × qubit orderings (adjacent, distant,
        // reversed) against the dense apply_unitary oracle.
        let n = 4;
        let placements: &[&[usize]] = &[&[0], &[2], &[3], &[0, 1], &[1, 0], &[0, 3], &[3, 0]];
        for &g in ALL_GATES {
            let p = params_for(g);
            for qs in placements {
                if qs.len() != g.num_qubits() {
                    continue;
                }
                let mut want = random_state(n, 0xABCD ^ g as u64);
                let mut got = want.clone();
                want.apply_unitary(&g.matrix(&p), qs);
                got.apply_kernel(&Kernel::for_gate(g, qs, &p));
                for (w, h) in want.amplitudes().iter().zip(got.amplitudes()) {
                    assert!(w.approx_eq(*h, 1e-14), "{g} on {qs:?}: {w} vs {h}");
                }
            }
        }
    }

    #[test]
    fn entries_match_gate_matrix() {
        for &g in ALL_GATES {
            if g.num_qubits() != 1 {
                continue;
            }
            let p = params_for(g);
            let m = g.matrix(&p);
            let e = entries_1q(g, &p);
            for (i, &v) in e.iter().enumerate() {
                assert!(
                    v.approx_eq(m.as_slice()[i], 0.0) || v.approx_eq(m.as_slice()[i], 1e-15),
                    "{g} entry {i}"
                );
            }
        }
    }

    #[test]
    fn conj_and_remap_compose_for_density_vectorization() {
        // U ⊗ conj(U) on the doubled register equals UρU† flattened.
        let g = GateKind::Cry;
        let p = [0.37];
        let n = 2;
        let sv = random_state(n, 7);
        // ρ = |ψ⟩⟨ψ| flattened row-major: ρ[r·2ⁿ + c] = ψ_r · conj(ψ_c).
        let dim = 1usize << n;
        let mut rho: Vec<Complex64> = (0..dim * dim)
            .map(|i| sv.amplitudes()[i / dim] * sv.amplitudes()[i % dim].conj())
            .collect();
        let k = Kernel::for_gate(g, &[0, 1], &p);
        k.remapped(n).apply(&mut rho);
        k.conj().apply(&mut rho);
        // Reference: evolve the pure state, re-flatten.
        let mut evolved = sv.clone();
        evolved.apply_kernel(&k);
        for r in 0..dim {
            for c in 0..dim {
                let want = evolved.amplitudes()[r] * evolved.amplitudes()[c].conj();
                assert!(
                    rho[r * dim + c].approx_eq(want, 1e-13),
                    "ρ[{r},{c}] mismatch"
                );
            }
        }
    }

    #[test]
    fn expand2_enumerates_clear_bit_bases() {
        let mut bases: Vec<usize> = (0..4).map(|k| expand2(k, 1, 3)).collect();
        bases.sort_unstable();
        assert_eq!(bases, vec![0, 1, 4, 5]); // bits 1 and 3 clear in a 4-qubit space
    }
}
