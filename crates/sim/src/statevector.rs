//! Statevector representation and gate-application kernels.
//!
//! A pure `n`-qubit state is a normalized vector of `2ⁿ` complex amplitudes.
//! Qubit `k` maps to bit `k` of the amplitude index (little-endian).

use std::cell::RefCell;
use std::fmt;

use rand::Rng;

use crate::complex::Complex64;
use crate::kernels::Kernel;
use crate::matrix::CMatrix;

/// A pure quantum state on `num_qubits` qubits.
///
/// # Examples
///
/// ```
/// use qoc_sim::statevector::Statevector;
/// use qoc_sim::gates::GateKind;
///
/// let mut sv = Statevector::zero_state(1);
/// sv.apply_1q(&GateKind::H.matrix(&[]), 0);
/// let p = sv.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// assert!(sv.expectation_z(0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statevector {
    num_qubits: usize,
    amps: Vec<Complex64>,
}

impl Statevector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(num_qubits < 64, "statevector limited to < 64 qubits");
        let mut amps = vec![Complex64::ZERO; 1usize << num_qubits];
        amps[0] = Complex64::ONE;
        Statevector { num_qubits, amps }
    }

    /// A computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        let mut sv = Statevector::zero_state(num_qubits);
        assert!(index < sv.amps.len(), "basis index out of range");
        sv.amps[0] = Complex64::ZERO;
        sv.amps[index] = Complex64::ONE;
        sv
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Errors
    ///
    /// Returns an error when the length is not a power of two or the norm
    /// differs from 1 by more than `1e-6`.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Result<Self, StateError> {
        let len = amps.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(StateError::BadLength(len));
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm - 1.0).abs() > 1e-6 {
            return Err(StateError::NotNormalized(norm));
        }
        Ok(Statevector {
            num_qubits: len.trailing_zeros() as usize,
            amps,
        })
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude vector, little-endian indexed.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Measurement probabilities `|αᵢ|²` over all basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Renormalizes the state to unit norm (guards against float drift in
    /// long circuits).
    ///
    /// A numerically dead state — all-zero, denormal, or non-finite norm —
    /// is left untouched rather than divided into NaN/Inf amplitudes.
    pub fn normalize(&mut self) {
        let norm_sqr: f64 = self.amps.iter().map(|a| a.norm_sqr()).sum();
        if norm_sqr < f64::MIN_POSITIVE || !norm_sqr.is_finite() {
            return;
        }
        let inv = 1.0 / norm_sqr.sqrt();
        for a in &mut self.amps {
            *a *= inv;
        }
    }

    /// Resets the state to `|0…0⟩` in place, reusing the allocation.
    pub fn reset_zero(&mut self) {
        for a in &mut self.amps {
            *a = Complex64::ZERO;
        }
        self.amps[0] = Complex64::ONE;
    }

    /// Copies the amplitudes of `src` into this state without reallocating
    /// (the fork primitive behind [`FusedProgram::for_each_shift`]).
    ///
    /// [`FusedProgram::for_each_shift`]: crate::fusion::FusedProgram::for_each_shift
    ///
    /// # Panics
    ///
    /// Panics on a qubit-count mismatch.
    pub fn copy_from(&mut self, src: &Statevector) {
        assert_eq!(
            self.num_qubits, src.num_qubits,
            "copy_from qubit count mismatch"
        );
        self.amps.copy_from_slice(&src.amps);
    }

    /// Applies a specialized gate [`Kernel`] in place — the fast path the
    /// fused program executor runs on.
    ///
    /// # Panics
    ///
    /// Panics if a two-qubit kernel names one wire twice; debug-asserts
    /// that its qubits are in range.
    pub fn apply_kernel(&mut self, kernel: &Kernel) {
        kernel.apply(&mut self.amps);
    }

    /// Applies a 2×2 unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not 2×2 or `q` is out of range.
    pub fn apply_1q(&mut self, u: &CMatrix, q: usize) {
        assert_eq!((u.rows(), u.cols()), (2, 2), "expected a 2x2 matrix");
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let m = u.as_slice();
        let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);
        let stride = 1usize << q;
        let len = self.amps.len();
        let mut base = 0usize;
        while base < len {
            for i in base..base + stride {
                let a0 = self.amps[i];
                let a1 = self.amps[i + stride];
                self.amps[i] = m00.mul_add(a0, m01 * a1);
                self.amps[i + stride] = m10.mul_add(a0, m11 * a1);
            }
            base += stride << 1;
        }
    }

    /// Applies a 4×4 unitary to qubits `(q0, q1)` where `q0` is the
    /// least-significant bit of the matrix index.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not 4×4, indices repeat, or are out of range.
    pub fn apply_2q(&mut self, u: &CMatrix, q0: usize, q1: usize) {
        assert_eq!((u.rows(), u.cols()), (4, 4), "expected a 4x4 matrix");
        assert!(
            q0 < self.num_qubits && q1 < self.num_qubits,
            "qubit out of range"
        );
        assert_ne!(q0, q1, "two-qubit gate on a repeated wire");
        let m = u.as_slice();
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let mask = b0 | b1;
        for i in 0..self.amps.len() {
            if i & mask != 0 {
                continue;
            }
            let idx = [i, i | b0, i | b1, i | b0 | b1];
            let a = [
                self.amps[idx[0]],
                self.amps[idx[1]],
                self.amps[idx[2]],
                self.amps[idx[3]],
            ];
            for (r, &out_i) in idx.iter().enumerate() {
                let row = &m[4 * r..4 * r + 4];
                let mut acc = Complex64::ZERO;
                for (c, &amp) in a.iter().enumerate() {
                    acc = row[c].mul_add(amp, acc);
                }
                self.amps[out_i] = acc;
            }
        }
    }

    /// Applies an arbitrary `2ᵏ × 2ᵏ` unitary to the listed qubits (first
    /// listed is the least-significant matrix bit). Used by gate fusion and
    /// tests; the 1q/2q fast paths above cover the hot loop.
    pub fn apply_unitary(&mut self, u: &CMatrix, qubits: &[usize]) {
        match qubits.len() {
            1 => self.apply_1q(u, qubits[0]),
            2 => self.apply_2q(u, qubits[0], qubits[1]),
            k => {
                let dim = 1usize << k;
                assert_eq!((u.rows(), u.cols()), (dim, dim), "matrix size mismatch");
                let masks: Vec<usize> = qubits.iter().map(|&q| 1usize << q).collect();
                let full: usize = masks.iter().sum();
                let mut scratch = vec![Complex64::ZERO; dim];
                for i in 0..self.amps.len() {
                    if i & full != 0 {
                        continue;
                    }
                    for (r, s) in scratch.iter_mut().enumerate() {
                        let mut idx = i;
                        for (bit, m) in masks.iter().enumerate() {
                            if (r >> bit) & 1 == 1 {
                                idx |= m;
                            }
                        }
                        *s = self.amps[idx];
                    }
                    for r in 0..dim {
                        let mut idx = i;
                        for (bit, m) in masks.iter().enumerate() {
                            if (r >> bit) & 1 == 1 {
                                idx |= m;
                            }
                        }
                        let row = &u.as_slice()[dim * r..dim * (r + 1)];
                        let mut acc = Complex64::ZERO;
                        for (c, &amp) in scratch.iter().enumerate() {
                            acc = row[c].mul_add(amp, acc);
                        }
                        self.amps[idx] = acc;
                    }
                }
            }
        }
    }

    /// The Pauli-Z expectation of qubit `q`: `P(bit=0) − P(bit=1)`, in
    /// `[-1, 1]`.
    pub fn expectation_z(&self, q: usize) -> f64 {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        let mut ez = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if i & bit == 0 {
                ez += p;
            } else {
                ez -= p;
            }
        }
        ez
    }

    /// Pauli-Z expectations of all qubits (the QNN readout).
    pub fn expectation_all_z(&self) -> Vec<f64> {
        let mut ez = vec![0.0; self.num_qubits];
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
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

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics on a qubit-count mismatch.
    pub fn inner(&self, other: &Statevector) -> Complex64 {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &Statevector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Equality up to a global phase within `tol` (trace-distance style check
    /// via fidelity).
    pub fn approx_eq_up_to_phase(&self, other: &Statevector, tol: f64) -> bool {
        self.num_qubits == other.num_qubits && (1.0 - self.fidelity(other)).abs() <= tol
    }
}

/// Samples `shots` basis-state outcomes from a probability vector and
/// returns dense per-outcome counts (`counts[i]` = draws of outcome `i`).
///
/// Negative weights (float noise on noisy density diagonals) are clamped to
/// zero and the weights need not be normalized. The counts follow the
/// multinomial law of `shots` independent draws, drawn as conditional
/// binomials: bin `i` gets `Binomial(n_rem, wᵢ / w_rem)` of the shots still
/// unassigned, `w_rem` being the suffix sum of the clamped weights from `i`
/// on, and the last bin gets the remainder. One uniform per bin (none once
/// no shots remain) makes this `O(bins)`, and a seeded stream always
/// produces the same counts. A bin whose clamped weight is zero gets no
/// shot. A zero or non-finite total has no distribution to draw from: every
/// shot then goes to the first largest clamped weight.
///
/// The suffix sums live in per-thread scratch: the returned vector is the
/// only allocation.
///
/// # Examples
///
/// ```
/// use qoc_sim::statevector::sample_counts;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // The clamped-zero bins get nothing.
/// let counts = sample_counts(&[0.1, 0.4, -1e-17, 0.5], 20, &mut rng);
/// assert_eq!(counts.iter().sum::<u32>(), 20);
/// assert_eq!(counts[2], 0);
/// let counts = sample_counts(&[0.0, 1.0, -1e-17], 100, &mut rng);
/// assert_eq!(counts, vec![0, 100, 0]);
/// ```
pub fn sample_counts<R: Rng + ?Sized>(probs: &[f64], shots: u32, rng: &mut R) -> Vec<u32> {
    let mut counts = vec![0u32; probs.len()];
    if probs.is_empty() || shots == 0 {
        return counts;
    }
    SUFFIX_SCRATCH.with(|suffix| {
        crate::binomial::multinomial_counts(
            probs,
            shots,
            rng,
            &mut suffix.borrow_mut(),
            &mut counts,
        );
    });
    counts
}

thread_local! {
    /// Suffix sums of [`sample_counts`].
    static SUFFIX_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Converts dense outcome counts (see [`sample_counts`]) into per-qubit Z
/// expectations: `(#zeros − #ones) / shots` for each qubit.
pub fn expectation_z_from_counts(counts: &[u32], num_qubits: usize, shots: u32) -> Vec<f64> {
    let mut ez = vec![0.0; num_qubits];
    for (state, &n) in counts.iter().enumerate() {
        for (q, e) in ez.iter_mut().enumerate() {
            if state & (1 << q) == 0 {
                *e += f64::from(n);
            } else {
                *e -= f64::from(n);
            }
        }
    }
    for e in &mut ez {
        *e /= f64::from(shots.max(1));
    }
    ez
}

/// Errors constructing a [`Statevector`] from raw data.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// Amplitude count was zero or not a power of two.
    BadLength(usize),
    /// The 2-norm of the amplitudes was not 1.
    NotNormalized(f64),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::BadLength(n) => {
                write!(f, "amplitude count {n} is not a nonzero power of two")
            }
            StateError::NotNormalized(norm) => {
                write!(f, "state norm² is {norm}, expected 1")
            }
        }
    }
}

impl std::error::Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::gates::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "repeated wire")]
    fn kernel_on_a_repeated_wire_panics() {
        let mut sv = Statevector::zero_state(2);
        sv.apply_kernel(&Kernel::Exchange { a: 1, b: 1 });
    }

    #[test]
    fn copy_from_clones_amplitudes_in_place() {
        let src = Statevector::basis_state(2, 2);
        let mut dst = Statevector::zero_state(2);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn zero_state_is_normalized() {
        let sv = Statevector::zero_state(3);
        assert_eq!(sv.amplitudes().len(), 8);
        assert_eq!(sv.amplitudes()[0], Complex64::ONE);
        assert_eq!(sv.expectation_z(0), 1.0);
    }

    #[test]
    fn x_flips_qubit() {
        let mut sv = Statevector::zero_state(2);
        sv.apply_1q(&GateKind::X.matrix(&[]), 1);
        assert_eq!(sv.amplitudes()[2], Complex64::ONE);
        assert_eq!(sv.expectation_z(1), -1.0);
        assert_eq!(sv.expectation_z(0), 1.0);
    }

    #[test]
    fn bell_state_via_h_cx() {
        let mut sv = Statevector::zero_state(2);
        sv.apply_1q(&GateKind::H.matrix(&[]), 0);
        sv.apply_2q(&GateKind::Cx.matrix(&[]), 0, 1);
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12 && p[2].abs() < 1e-12);
        // Each marginal is maximally mixed.
        assert!(sv.expectation_z(0).abs() < 1e-12);
        assert!(sv.expectation_z(1).abs() < 1e-12);
    }

    #[test]
    fn two_qubit_matrix_order_matches_listed_qubits() {
        // CX with control listed first: apply to (control=1, target=0).
        let mut sv = Statevector::zero_state(2);
        sv.apply_1q(&GateKind::X.matrix(&[]), 1); // set qubit 1 (control)
        sv.apply_2q(&GateKind::Cx.matrix(&[]), 1, 0);
        // Target 0 must now be flipped: state |11⟩ = index 3.
        assert!((sv.probabilities()[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_unitary_generic_matches_fast_paths() {
        let mut a = Statevector::zero_state(3);
        let mut b = Statevector::zero_state(3);
        let h = GateKind::H.matrix(&[]);
        let cx = GateKind::Cx.matrix(&[]);
        a.apply_1q(&h, 1);
        a.apply_2q(&cx, 1, 2);
        b.apply_unitary(&h, &[1]);
        b.apply_unitary(&cx, &[1, 2]);
        assert!(a.approx_eq_up_to_phase(&b, 1e-12));
    }

    #[test]
    fn expectation_all_z_matches_single() {
        let mut sv = Statevector::zero_state(3);
        sv.apply_1q(&GateKind::Ry.matrix(&[0.7]), 0);
        sv.apply_1q(&GateKind::Ry.matrix(&[1.9]), 2);
        let all = sv.expectation_all_z();
        for (q, &v) in all.iter().enumerate() {
            assert!((v - sv.expectation_z(q)).abs() < 1e-12);
        }
        assert!((all[0] - 0.7f64.cos()).abs() < 1e-12);
        assert!((all[2] - 1.9f64.cos()).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_validates() {
        assert!(Statevector::from_amplitudes(vec![]).is_err());
        assert!(Statevector::from_amplitudes(vec![Complex64::ONE; 3]).is_err());
        assert!(matches!(
            Statevector::from_amplitudes(vec![Complex64::ONE, Complex64::ONE]),
            Err(StateError::NotNormalized(_))
        ));
        let ok = Statevector::from_amplitudes(vec![
            c64(std::f64::consts::FRAC_1_SQRT_2, 0.0),
            c64(0.0, std::f64::consts::FRAC_1_SQRT_2),
        ]);
        assert!(ok.is_ok());
    }

    #[test]
    fn sampling_converges_to_probabilities() {
        let mut sv = Statevector::zero_state(1);
        sv.apply_1q(&GateKind::Ry.matrix(&[1.0]), 0);
        let exact = sv.expectation_z(0);
        let mut rng = StdRng::seed_from_u64(7);
        let counts = sample_counts(&sv.probabilities(), 200_000, &mut rng);
        let est = expectation_z_from_counts(&counts, 1, 200_000)[0];
        assert!((est - exact).abs() < 0.01, "est {est} vs exact {exact}");
    }

    #[test]
    fn sample_counts_total_shots() {
        let sv = Statevector::zero_state(2);
        let mut rng = StdRng::seed_from_u64(1);
        let counts = sample_counts(&sv.probabilities(), 1024, &mut rng);
        assert_eq!(counts, vec![1024, 0, 0, 0]);
    }

    #[test]
    fn fidelity_and_phase_equivalence() {
        let mut a = Statevector::zero_state(2);
        a.apply_1q(&GateKind::H.matrix(&[]), 0);
        let mut b = a.clone();
        for amp in b.amps.iter_mut() {
            *amp *= Complex64::cis(0.9);
        }
        assert!(a.approx_eq_up_to_phase(&b, 1e-12));
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_restores_unit_norm() {
        let mut sv = Statevector::zero_state(1);
        sv.amps[0] = c64(2.0, 0.0);
        sv.normalize();
        assert!((sv.amps[0].norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_leaves_dead_state_untouched() {
        // All-zero amplitudes must not become NaN.
        let mut sv = Statevector::zero_state(2);
        sv.amps[0] = Complex64::ZERO;
        sv.normalize();
        for a in sv.amplitudes() {
            assert!(a.re == 0.0 && a.im == 0.0, "dead state was rescaled: {a}");
        }
        // Denormal norm is also left alone rather than amplified to Inf.
        let mut sv = Statevector::zero_state(1);
        sv.amps[0] = c64(1e-170, 0.0);
        sv.normalize();
        assert!(sv.amps[0].re.is_finite() && sv.amps[0].re == 1e-170);
    }

    #[test]
    fn expectation_from_counts() {
        let ez = expectation_z_from_counts(&[512, 512, 0, 0], 2, 1024);
        assert!((ez[0] - 0.0).abs() < 1e-12);
        assert!((ez[1] - 1.0).abs() < 1e-12);
    }
}
