//! Density-matrix state representation.
//!
//! Mixed states arise as soon as noise channels act; a density matrix `ρ`
//! (2ⁿ × 2ⁿ, Hermitian, trace 1) tracks them exactly. At the paper's scale
//! (4-qubit QNNs) this is a 16×16 matrix — exact noisy simulation is cheap.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use qoc_sim::complex::Complex64;
use qoc_sim::kernels::{unitary2, Amplitude, Coeff, Kernel};
use qoc_sim::matrix::CMatrix;
use qoc_sim::scratch::Scratch;
use qoc_sim::statevector::Statevector;

use crate::kraus::KrausChannel;

/// Widest density matrix supported (a `4¹⁵`-entry buffer).
pub(crate) const MAX_QUBITS: usize = 15;

/// A mixed quantum state on `num_qubits` qubits.
///
/// Qubit `k` is bit `k` of both row and column indices (little-endian, same
/// convention as [`Statevector`]).
///
/// # Examples
///
/// ```
/// use qoc_noise::density::DensityMatrix;
/// use qoc_noise::channels::depolarizing_1q;
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_kraus(&depolarizing_1q(0.3), &[0]);
/// assert!(rho.purity() < 1.0);
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    mat: CMatrix,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_QUBITS,
            "density matrices limited to {MAX_QUBITS} qubits"
        );
        let dim = 1usize << num_qubits;
        let mut mat = CMatrix::zeros(dim, dim);
        mat[(0, 0)] = Complex64::ONE;
        DensityMatrix { num_qubits, mat }
    }

    /// The pure state `|ψ⟩⟨ψ|` of a statevector.
    pub fn from_statevector(sv: &Statevector) -> Self {
        let amps = sv.amplitudes();
        let dim = amps.len();
        let mut mat = CMatrix::zeros(dim, dim);
        for (i, &a) in amps.iter().enumerate() {
            for (j, &b) in amps.iter().enumerate() {
                mat[(i, j)] = a * b.conj();
            }
        }
        DensityMatrix {
            num_qubits: sv.num_qubits(),
            mat,
        }
    }

    /// The maximally mixed state `I / 2ⁿ`.
    pub fn maximally_mixed(num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let mat = CMatrix::identity(dim).scaled(Complex64::real(1.0 / dim as f64));
        DensityMatrix { num_qubits, mat }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw matrix.
    #[inline]
    pub fn matrix(&self) -> &CMatrix {
        &self.mat
    }

    /// Matrix trace (should stay 1 under CPTP evolution).
    pub fn trace(&self) -> f64 {
        self.mat.trace().re
    }

    /// Purity `tr(ρ²)`; 1 for pure states, `1/2ⁿ` for maximally mixed.
    pub fn purity(&self) -> f64 {
        let dim = self.mat.rows();
        let mut acc = 0.0;
        // tr(ρ²) = Σᵢⱼ ρᵢⱼ ρⱼᵢ = Σᵢⱼ |ρᵢⱼ|² for Hermitian ρ.
        for i in 0..dim {
            for j in 0..dim {
                acc += self.mat[(i, j)].norm_sqr();
            }
        }
        acc
    }

    /// Applies a unitary `ρ ↦ UρU†` via a specialized gate [`Kernel`].
    ///
    /// The row-major matrix is treated as a flat `4ⁿ` amplitude vector on
    /// `2n` qubits, where gate qubit `q` is column bit `q` and row bit
    /// `n + q`: `UρU†` is one pass of the kernel remapped onto the row bits
    /// followed by one pass of its element-wise conjugate on the column bits.
    /// Both passes reuse the statevector kernels, so the density path gets
    /// the same diagonal/permutation/rotation specializations for free.
    ///
    /// # Panics
    ///
    /// Panics if a two-qubit kernel names one wire twice, and (in debug
    /// builds) if a kernel qubit is out of range.
    pub fn apply_kernel(&mut self, kernel: &Kernel) {
        Passes::apply_kernel(self, kernel);
    }

    /// Applies a unitary `ρ ↦ UρU†` on one or two listed qubits, as the
    /// dense [`Kernel::Unitary1`]/[`Kernel::Unitary2`] pass pair.
    ///
    /// # Panics
    ///
    /// Panics if the matrix size does not match the qubit count, more than
    /// two qubits are listed, an index is out of range, or a wire repeats.
    pub fn apply_unitary(&mut self, u: &CMatrix, qubits: &[usize]) {
        let dim = 1usize << qubits.len();
        assert_eq!((u.rows(), u.cols()), (dim, dim), "matrix/qubit mismatch");
        check_wires(self.num_qubits, qubits);
        let kernel = match *qubits {
            [q] => {
                let mut m = [Complex64::ZERO; 4];
                m.copy_from_slice(u.as_slice());
                Kernel::Unitary1 { q, m }
            }
            [a, b] => {
                let mut m = [Complex64::ZERO; 16];
                m.copy_from_slice(u.as_slice());
                Kernel::Unitary2 { a, b, m }
            }
            _ => panic!("unitaries act on one or two qubits, got {}", qubits.len()),
        };
        self.apply_kernel(&kernel);
    }

    /// Applies a Kraus channel `ρ ↦ Σ KᵢρKᵢ†` on one or two listed qubits.
    ///
    /// The channel is converted to its superoperator `S = Σ Kᵢ ⊗ K̄ᵢ` and
    /// applied in one in-place pass: no copy of `ρ` is made per operator.
    ///
    /// # Panics
    ///
    /// Panics on a dimension/qubit mismatch, a channel on more than two
    /// qubits, an index out of range, or a repeated wire.
    pub fn apply_kraus(&mut self, channel: &KrausChannel, qubits: &[usize]) {
        assert_eq!(
            channel.num_qubits(),
            qubits.len(),
            "channel acts on {} qubit(s), got {} wire(s)",
            channel.num_qubits(),
            qubits.len()
        );
        if channel.is_unitary() {
            self.apply_unitary(&channel.operators()[0], qubits);
            return;
        }
        check_wires(self.num_qubits, qubits);
        let s = superoperator(channel);
        match *qubits {
            [q] => {
                let mut m = [Complex64::ZERO; 16];
                m.copy_from_slice(s.as_slice());
                self.apply_superop_1q(q, &m);
            }
            [a, b] => self.apply_superop_2q(a, b, s.as_slice()),
            _ => panic!(
                "Kraus channels act on one or two qubits, got {}",
                qubits.len()
            ),
        }
    }

    /// Applies a uniform-Pauli depolarizing channel of probability `p`
    /// analytically and in place: `ρ ↦ (1−λ)ρ + λ·(I/d ⊗ tr_sub ρ)` with
    /// `λ = p·d²/(d²−1)` — one linear pass instead of `d²` Kraus
    /// conjugations, which makes calibrated CX noise ~16× cheaper.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`, more than two qubits are listed, a qubit
    /// index is invalid, or a wire repeats.
    pub fn apply_depolarizing(&mut self, p: f64, qubits: &[usize]) {
        Passes::apply_depolarizing(self, p, qubits);
    }

    /// Resets to `|0…0⟩⟨0…0|` without reallocating.
    pub(crate) fn reset_zero(&mut self) {
        let flat = self.mat.as_mut_slice();
        flat.fill(Complex64::ZERO);
        flat[0] = Complex64::ONE;
    }

    /// Measurement probabilities in the computational basis (the diagonal).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.mat.rows())
            .map(|i| self.mat[(i, i)].re.max(0.0))
            .collect()
    }

    /// Pauli-Z expectation of qubit `q`.
    pub fn expectation_z(&self, q: usize) -> f64 {
        assert!(q < self.num_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        let mut ez = 0.0;
        for (i, p) in self.probabilities().iter().enumerate() {
            if i & bit == 0 {
                ez += p;
            } else {
                ez -= p;
            }
        }
        ez
    }

    /// Pauli-Z expectations of all qubits.
    pub fn expectation_all_z(&self) -> Vec<f64> {
        let probs = self.probabilities();
        let mut ez = vec![0.0; self.num_qubits];
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

    /// Fidelity `⟨ψ|ρ|ψ⟩` with a pure reference state.
    pub fn fidelity_with_pure(&self, sv: &Statevector) -> f64 {
        assert_eq!(sv.num_qubits(), self.num_qubits, "width mismatch");
        let amps = sv.amplitudes();
        let mut acc = Complex64::ZERO;
        for i in 0..amps.len() {
            for j in 0..amps.len() {
                acc += amps[i].conj() * self.mat[(i, j)] * amps[j];
            }
        }
        acc.re
    }
}

/// A flattened density state the in-place passes run on: one
/// [`DensityMatrix`] ([`Complex64`] entries) or lockstep [`DensityLanes`]
/// ([`Lanes`] entries). Each pass is written once, generic over the entry
/// [`Amplitude`], so each lane does exactly the float operations of a lone
/// state put through the same pass. The passes are `#[inline(always)]`, so
/// that [`LaneArm::run`] compiles them into each arm's copy of its job.
pub(crate) trait Passes {
    /// The entry type.
    type Amp: Amplitude;

    /// The width `n` and the `4ⁿ` row-major entries.
    fn flat(&mut self) -> (usize, &mut [Self::Amp]);

    /// `ρ ↦ UρU†` as the kernel pass pair of
    /// [`DensityMatrix::apply_kernel`].
    #[inline(always)]
    fn apply_kernel(&mut self, kernel: &Kernel)
    where
        Complex64: Coeff<Self::Amp>,
    {
        let (n, amps) = self.flat();
        kernel.remapped(n).apply(amps);
        kernel.conj().apply(amps);
    }

    /// Applies a one-qubit superoperator in place: `m` is row-major 4×4 on
    /// the local index `c + 2r` of qubit `q` (column bit `c`, row bit `r`),
    /// i.e. one [`Kernel::Unitary2`] pass on flattened bits `(q, n + q)`.
    /// On lanes `m` is one matrix every lane shares ([`Complex64`] entries)
    /// or one per lane ([`lane_matrix`]).
    #[inline(always)]
    fn apply_superop_1q<M: Coeff<Self::Amp>>(&mut self, q: usize, m: &[M; 16]) {
        let (n, amps) = self.flat();
        unitary2(amps, q, n + q, m);
    }

    /// [`Self::apply_superop_1q`] cut to what a measurement reads: only the
    /// entries diagonal on `q`, over the groups diagonal on every wire
    /// outside `free` ([`superop_1q_diag`]). Every entry it writes is
    /// bit-identical to the full pass's; the others are left stale.
    #[inline(always)]
    fn apply_superop_1q_diag<M: Coeff<Self::Amp>>(&mut self, q: usize, m: &[M; 16], free: usize) {
        let (n, amps) = self.flat();
        superop_1q_diag(amps, n, q, m, free);
    }

    /// A two-qubit superoperator on `(a, b)` in place ([`superop_2q`]).
    #[inline(always)]
    fn apply_superop_2q(&mut self, a: usize, b: usize, s: &[Complex64])
    where
        Complex64: Coeff<Self::Amp>,
    {
        let (n, amps) = self.flat();
        superop_2q(amps, n, a, b, s);
    }

    /// Uniform-Pauli depolarizing of probability `p` on `qubits`, as
    /// [`DensityMatrix::apply_depolarizing`].
    #[inline(always)]
    fn apply_depolarizing(&mut self, p: f64, qubits: &[usize]) {
        let (n, amps) = self.flat();
        depolarize(amps, n, p, qubits);
    }
}

/// A single state's passes stay out of line: inlined into the one-state
/// evolution they made the forward run ≈ 3% slower. Only the lane states
/// need them inlined (see [`LaneArm::run`]).
impl Passes for DensityMatrix {
    type Amp = Complex64;

    #[inline(always)]
    fn flat(&mut self) -> (usize, &mut [Complex64]) {
        (self.num_qubits, self.mat.as_mut_slice())
    }

    #[inline(never)]
    fn apply_superop_1q<M: Coeff<Complex64>>(&mut self, q: usize, m: &[M; 16]) {
        unitary2(self.mat.as_mut_slice(), q, self.num_qubits + q, m);
    }

    #[inline(never)]
    fn apply_superop_1q_diag<M: Coeff<Complex64>>(&mut self, q: usize, m: &[M; 16], free: usize) {
        superop_1q_diag(self.mat.as_mut_slice(), self.num_qubits, q, m, free);
    }

    #[inline(never)]
    fn apply_superop_2q(&mut self, a: usize, b: usize, s: &[Complex64]) {
        superop_2q(self.mat.as_mut_slice(), self.num_qubits, a, b, s);
    }

    #[inline(never)]
    fn apply_depolarizing(&mut self, p: f64, qubits: &[usize]) {
        depolarize(self.mat.as_mut_slice(), self.num_qubits, p, qubits);
    }
}

/// Entry `i` of `L` lockstep density matrices, stored `[re₀ … re_{L−1},
/// im₀ … im_{L−1}]`: the real parts side by side, then the imaginary parts.
///
/// Every operation below is the [`Complex64`] operation of the same shape
/// written once per lane, operand for operand, so a lane rounds exactly as
/// a lone `Complex64` would. Rust never contracts `a * b + c` into a fused
/// multiply-add, so the lanes of each line compile to one vector
/// instruction per register width (2 lanes in SSE2, 8 in AVX-512) without
/// changing a bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Lanes<const L: usize> {
    re: [f64; L],
    im: [f64; L],
}

impl<const L: usize> Amplitude for Lanes<L> {
    const ZERO: Lanes<L> = Lanes {
        re: [0.0; L],
        im: [0.0; L],
    };
}

impl<const L: usize> Mul<Lanes<L>> for Complex64 {
    type Output = Lanes<L>;
    /// `m · x` per lane, as `Complex64 * Complex64`.
    #[inline(always)]
    fn mul(self, x: Lanes<L>) -> Lanes<L> {
        Lanes {
            re: std::array::from_fn(|l| self.re * x.re[l] - self.im * x.im[l]),
            im: std::array::from_fn(|l| self.re * x.im[l] + self.im * x.re[l]),
        }
    }
}

impl<const L: usize> Mul for Lanes<L> {
    type Output = Lanes<L>;
    /// Lane `l` of `self` times lane `l` of `x`, as `Complex64 * Complex64`:
    /// a per-lane matrix entry ([`lane_matrix`]) on a lane entry.
    #[inline(always)]
    fn mul(self, x: Lanes<L>) -> Lanes<L> {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] * x.re[l] - self.im[l] * x.im[l]),
            im: std::array::from_fn(|l| self.re[l] * x.im[l] + self.im[l] * x.re[l]),
        }
    }
}

impl<const L: usize> Mul<f64> for Lanes<L> {
    type Output = Lanes<L>;
    #[inline(always)]
    fn mul(self, k: f64) -> Lanes<L> {
        Lanes {
            re: self.re.map(|x| x * k),
            im: self.im.map(|x| x * k),
        }
    }
}

impl<const L: usize> Add for Lanes<L> {
    type Output = Lanes<L>;
    #[inline(always)]
    fn add(self, o: Lanes<L>) -> Lanes<L> {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] + o.re[l]),
            im: std::array::from_fn(|l| self.im[l] + o.im[l]),
        }
    }
}

impl<const L: usize> Sub for Lanes<L> {
    type Output = Lanes<L>;
    #[inline(always)]
    fn sub(self, o: Lanes<L>) -> Lanes<L> {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] - o.re[l]),
            im: std::array::from_fn(|l| self.im[l] - o.im[l]),
        }
    }
}

impl<const L: usize> AddAssign for Lanes<L> {
    #[inline(always)]
    fn add_assign(&mut self, o: Lanes<L>) {
        *self = *self + o;
    }
}

impl<const L: usize> Neg for Lanes<L> {
    type Output = Lanes<L>;
    #[inline(always)]
    fn neg(self) -> Lanes<L> {
        Lanes {
            re: self.re.map(|x| -x),
            im: self.im.map(|x| -x),
        }
    }
}

/// `L` density matrices of one width evolved in lockstep, entry by entry
/// interleaved as [`Lanes`] — the `±π/2` forks of up to `L/2`
/// parameter-shift rows. It runs the [`Passes`] of a single state, so each
/// lane stays bit-identical to a single state put through the same passes;
/// one vector instruction serves several lanes.
#[derive(Debug, Clone)]
pub(crate) struct DensityLanes<const L: usize> {
    num_qubits: usize,
    flat: Vec<Lanes<L>>,
}

impl<const L: usize> DensityLanes<L> {
    /// A lane state of width `num_qubits` (every lane zero, not yet a
    /// state).
    pub(crate) fn new(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_QUBITS,
            "density matrices limited to {MAX_QUBITS} qubits"
        );
        DensityLanes {
            num_qubits,
            flat: vec![Lanes::ZERO; 1 << (2 * num_qubits)],
        }
    }

    /// Overwrites lane `lane` with `rho`.
    pub(crate) fn set_lane(&mut self, lane: usize, rho: &DensityMatrix) {
        debug_assert_eq!(self.num_qubits, rho.num_qubits, "state widths differ");
        for (e, z) in self.flat.iter_mut().zip(rho.mat.as_slice()) {
            e.re[lane] = z.re;
            e.im[lane] = z.im;
        }
    }

    /// Overwrites every lane with `rho`.
    pub(crate) fn fill(&mut self, rho: &DensityMatrix) {
        debug_assert_eq!(self.num_qubits, rho.num_qubits, "state widths differ");
        for (e, z) in self.flat.iter_mut().zip(rho.mat.as_slice()) {
            *e = Lanes {
                re: [z.re; L],
                im: [z.im; L],
            };
        }
    }

    /// Copies lane `lane` into `rho`.
    pub(crate) fn lane_into(&self, lane: usize, rho: &mut DensityMatrix) {
        debug_assert_eq!(self.num_qubits, rho.num_qubits, "state widths differ");
        for (z, e) in rho.mat.as_mut_slice().iter_mut().zip(&self.flat) {
            *z = Complex64::new(e.re[lane], e.im[lane]);
        }
    }

    /// The measurement distribution of lane `lane`, as
    /// [`DensityMatrix::probabilities`] of it.
    pub(crate) fn lane_probabilities(&self, lane: usize) -> Vec<f64> {
        let dim = 1usize << self.num_qubits;
        (0..dim)
            .map(|i| self.flat[i * (dim + 1)].re[lane].max(0.0))
            .collect()
    }
}

/// A noisy run's state: a thread parks up to two.
impl Scratch for DensityMatrix {
    const CAP: usize = 2;

    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn fresh(num_qubits: usize) -> Self {
        DensityMatrix::zero_state(num_qubits)
    }
}

/// The forks' lane state: a thread parks up to two per lane count.
impl<const L: usize> Scratch for DensityLanes<L> {
    const CAP: usize = 2;

    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn fresh(num_qubits: usize) -> Self {
        DensityLanes::new(num_qubits)
    }
}

impl<const L: usize> Passes for DensityLanes<L> {
    type Amp = Lanes<L>;

    #[inline(always)]
    fn flat(&mut self) -> (usize, &mut [Lanes<L>]) {
        (self.num_qubits, &mut self.flat)
    }
}

/// The per-lane matrix with `m[l]` in lane `l`, for the lane passes that
/// take [`Coeff`] entries.
pub(crate) fn lane_matrix<const L: usize>(m: [&[Complex64; 16]; L]) -> [Lanes<L>; 16] {
    std::array::from_fn(|i| Lanes {
        re: std::array::from_fn(|l| m[l][i].re),
        im: std::array::from_fn(|l| m[l][i].im),
    })
}

/// The instruction set the lane passes are compiled for: one copy of the
/// passes per arm, chosen at run time. Every arm does the same IEEE float
/// operations (no arm contracts a multiply-add), so results are bit for bit
/// the same on every arm; only the speed differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneArm {
    /// The target's baseline instruction set (SSE2 on x86-64), on any
    /// host: forks run as two-lane pairs.
    Baseline,
    /// AVX-512F, on x86-64 hosts that have it: forks run eight lanes at a
    /// time.
    Avx512,
}

impl LaneArm {
    /// The widest arm this host runs.
    pub fn detect() -> LaneArm {
        if has_avx512() {
            LaneArm::Avx512
        } else {
            LaneArm::Baseline
        }
    }

    /// Every arm this host runs, the baseline first.
    pub fn available() -> Vec<LaneArm> {
        let mut arms = vec![LaneArm::Baseline];
        if has_avx512() {
            arms.push(LaneArm::Avx512);
        }
        arms
    }

    /// The arm's name as a run manifest records it.
    pub fn name(self) -> &'static str {
        match self {
            LaneArm::Baseline => "baseline",
            LaneArm::Avx512 => "avx512",
        }
    }

    /// The lane count of the arm's fork states, as
    /// [`NoisyProgram::for_each_shift_on`](crate::sim::NoisyProgram::for_each_shift_on)
    /// runs them.
    pub fn lanes(self) -> usize {
        match self {
            LaneArm::Baseline => 2,
            LaneArm::Avx512 => 8,
        }
    }

    /// Runs `job` compiled for this arm. `job` and every pass it runs must
    /// be `#[inline(always)]`: only code inlined into the AVX-512 wrapper is
    /// compiled for AVX-512.
    ///
    /// # Panics
    ///
    /// Panics if this host does not run the arm.
    #[inline]
    pub(crate) fn run<T>(self, job: impl FnOnce() -> T) -> T {
        match self {
            LaneArm::Baseline => job(),
            #[cfg(target_arch = "x86_64")]
            LaneArm::Avx512 => {
                assert!(has_avx512(), "this host has no AVX-512F");
                // SAFETY: calling a `#[target_feature(enable = "avx512f")]`
                // function is sound exactly when the CPU running it has
                // AVX-512F, and the assert above has just detected it on
                // this one. `run_avx512` does nothing but call `job`, which
                // is safe code. This is the workspace's one `unsafe` site.
                unsafe { run_avx512(job) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            LaneArm::Avx512 => panic!("this host has no AVX-512F"),
        }
    }
}

/// Whether the host has AVX-512F (detected once and cached by `std`).
fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `job` compiled with AVX-512F enabled: [`LaneArm::Avx512`]'s wrapper.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<T>(job: impl FnOnce() -> T) -> T {
    job()
}

/// The rows `r ∈ {0, 3}` of a one-qubit superoperator pass `m` on wire `q`
/// of the flat `4ⁿ` slice `amps` (the [`Kernel::Unitary2`] loop on bits
/// `(q, n + q)`), over only the groups whose row and column bits agree on
/// every wire outside `free`: the entries diagonal on `q` and on those
/// wires. Each entry it writes gets the full loop's float operations in the
/// same order; the rows `r ∈ {1, 2}` and the other groups are left as they
/// were.
///
/// A measured run ends in passes on distinct wires `w₁ … w_k`; pass `j`
/// with `free = {w_j … w_k}` reads only entries the pass before it wrote,
/// so after pass `k` the diagonal equals the full passes' bit for bit.
#[inline(always)]
fn superop_1q_diag<A: Amplitude, M: Coeff<A>>(
    amps: &mut [A],
    n: usize,
    q: usize,
    m: &[M; 16],
    free: usize,
) {
    let (col_q, row_q) = (1usize << q, 1usize << (n + q));
    debug_assert_eq!(amps.len(), 1 << (2 * n), "state width");
    debug_assert!(q < n, "qubit {q} out of range");
    // Wires other than `q` whose row bits may differ from their column bits.
    let open = free & !col_q & ((1 << n) - 1);
    for col in (0..1usize << n).filter(|col| col & col_q == 0) {
        let pinned = col & !open;
        let mut row = 0;
        loop {
            let base = col | ((pinned | row) << n);
            let amp = [
                amps[base],
                amps[base | col_q],
                amps[base | row_q],
                amps[base | col_q | row_q],
            ];
            for (r, out_i) in [(0, base), (3, base | col_q | row_q)] {
                let mut acc = A::ZERO;
                for (c, &v) in amp.iter().enumerate() {
                    acc = m[4 * r + c] * v + acc;
                }
                amps[out_i] = acc;
            }
            if row == open {
                break;
            }
            // The next subset of `open`, in increasing order.
            row = ((row | !open) + 1) & open;
        }
    }
}

/// Applies a two-qubit superoperator in place to the flat `4ⁿ` row-major
/// entries `amps` of an `n`-qubit density matrix (or lanes): `s` is
/// row-major 16×16 on the local index `c + 4r`, where `c = c_a + 2·c_b` are
/// the column bits and `r = r_a + 2·r_b` the row bits of qubits `(a, b)` —
/// the pass [`DensityMatrix::apply_kraus`] runs for a two-qubit channel.
/// It steps from block base to block base, the 16 entries of a block being
/// mixed together; each output is `Σ_x s[row][x]·v_x` summed left to right
/// from zero.
///
/// # Panics
///
/// Debug-asserts the slice and matrix sizes and that `a ≠ b` fit `n`.
#[inline(always)]
pub fn superop_2q<A: Amplitude>(amps: &mut [A], n: usize, a: usize, b: usize, s: &[Complex64])
where
    Complex64: Coeff<A>,
{
    debug_assert_eq!(amps.len(), 1 << (2 * n), "state width");
    debug_assert_eq!(s.len(), 256, "two-qubit superoperator is 16×16");
    debug_assert!(a < n && b < n && a != b, "wires ({a}, {b}) on {n} qubits");
    // The flat offsets of the 16 cells of a block, by local index `c + 4r`.
    let offsets: [usize; 16] =
        std::array::from_fn(|x| spread(x & 3, &[a, b], 0) | spread(x >> 2, &[a, b], n));
    let mask = offsets[15];
    let mut base = 0;
    while base < amps.len() {
        let v: [A; 16] = std::array::from_fn(|x| amps[base | offsets[x]]);
        for (row, &off) in s.chunks_exact(16).zip(&offsets) {
            let mut acc = A::ZERO;
            for (&m, &x) in row.iter().zip(&v) {
                acc = m * x + acc;
            }
            amps[base | off] = acc;
        }
        base = ((base | mask) + 1) & !mask;
    }
}

/// Uniform-Pauli depolarizing of probability `p` on `qubits` of the flat
/// `4ⁿ` entries `amps` (see [`DensityMatrix::apply_depolarizing`]),
/// stepping from block base to block base.
///
/// # Panics
///
/// As [`DensityMatrix::apply_depolarizing`].
#[inline(always)]
fn depolarize<A: Amplitude>(amps: &mut [A], n: usize, p: f64, qubits: &[usize]) {
    let Some(Depolarizer {
        sub,
        lambda,
        inv_d,
        mask,
        diag,
        cells,
    }) = Depolarizer::new(n, p, qubits)
    else {
        return;
    };
    let (keep, off_diag) = (1.0 - lambda, A::ZERO * lambda);
    // Block (i_rest, j_rest): out[(i_rest, x), (j_rest, y)] =
    // (1−λ)·ρ[…] + λ·δ_{x,y}/d · Σ_s ρ[(i_rest, s), (j_rest, s)].
    let mut base = 0;
    while base < amps.len() {
        let mut acc = A::ZERO;
        for &off in &diag[..sub] {
            acc += amps[base | off];
        }
        let mixed = acc * inv_d * lambda;
        for (x, row) in cells[..sub * sub].chunks_exact(sub).enumerate() {
            for (y, &off) in row.iter().enumerate() {
                let i = base | off;
                amps[i] = amps[i] * keep + if x == y { mixed } else { off_diag };
            }
        }
        base = ((base | mask) + 1) & !mask;
    }
}

/// The superoperator `S = Σ Kᵢ ⊗ K̄ᵢ` of a Kraus channel on `k` qubits: a
/// `4ᵏ × 4ᵏ` matrix acting on the local index `c + 2ᵏ·r` (column bits `c`
/// low, row bits `r` high, first listed qubit least significant in each),
/// so that `ρ'[r, c] = Σ S[c + 2ᵏr, c' + 2ᵏr'] · ρ[r', c']`.
pub(crate) fn superoperator(channel: &KrausChannel) -> CMatrix {
    let d = 1usize << channel.num_qubits();
    let mut s = CMatrix::zeros(d * d, d * d);
    let out = s.as_mut_slice();
    for k in channel.operators() {
        let k = k.as_slice();
        // S[r·d + c, r'·d + c'] += K[r, r'] · conj(K[c, c']), skipping the
        // zero entries that make Pauli-type operators sparse.
        for (rr, &a) in k.iter().enumerate() {
            if a == Complex64::ZERO {
                continue;
            }
            let (r, r2) = (rr / d, rr % d);
            for (cc, &b) in k.iter().enumerate() {
                let (c, c2) = (cc / d, cc % d);
                out[(r * d + c) * d * d + r2 * d + c2] += a * b.conj();
            }
        }
    }
    s
}

/// The constants and block offsets of an analytic depolarizing pass on
/// `qubits` of an `n`-qubit state.
struct Depolarizer {
    /// `d = 2^|qubits|`.
    sub: usize,
    lambda: f64,
    inv_d: f64,
    /// The bits of `qubits` in both halves of a flat index.
    mask: usize,
    /// `diag[s]` is cell (s, s) of a block.
    diag: [usize; 4],
    /// `cells[x·sub + y]` is cell (row x, column y) of a block.
    cells: [usize; 16],
}

impl Depolarizer {
    /// The pass of probability `p` on `qubits`; `None` when it is the
    /// identity (`p = 0` or no qubits).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`, more than two qubits are listed, a qubit
    /// index is out of range, or a wire repeats.
    fn new(n: usize, p: f64, qubits: &[usize]) -> Option<Depolarizer> {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        assert!(
            qubits.len() <= 2,
            "depolarizing acts on one or two qubits, got {}",
            qubits.len()
        );
        check_wires(n, qubits);
        if p == 0.0 || qubits.is_empty() {
            return None;
        }
        let sub = 1usize << qubits.len();
        let d = sub as f64;
        let mut diag = [0usize; 4];
        let mut cells = [0usize; 16];
        for x in 0..sub {
            diag[x] = spread(x, qubits, 0) | spread(x, qubits, n);
            for y in 0..sub {
                cells[x * sub + y] = spread(x, qubits, n) | spread(y, qubits, 0);
            }
        }
        Some(Depolarizer {
            sub,
            // λ may exceed 1 for p near 1 (over-uniform Pauli mixing); the
            // map stays CPTP for p ≤ 1, so no clamping.
            lambda: p * d * d / (d * d - 1.0),
            inv_d: 1.0 / d,
            mask: spread(sub - 1, qubits, 0) | spread(sub - 1, qubits, n),
            diag,
            cells,
        })
    }
}

/// Panics unless every wire of `qubits` is below `n` and none repeats: a
/// pass on a repeated wire would mix entries that are not one block and
/// leave a non-state.
fn check_wires(n: usize, qubits: &[usize]) {
    for (i, &q) in qubits.iter().enumerate() {
        assert!(q < n, "qubit {q} out of range");
        assert!(!qubits[..i].contains(&q), "repeated wire {q}");
    }
}

/// Spreads the low bits of `x` onto the bit positions `qubits[i] + offset`.
#[inline]
fn spread(x: usize, qubits: &[usize], offset: usize) -> usize {
    qubits
        .iter()
        .enumerate()
        .fold(0, |acc, (i, &q)| acc | (((x >> i) & 1) << (q + offset)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{amplitude_damping, depolarizing_1q, depolarizing_2q, phase_damping};
    use qoc_sim::circuit::Circuit;
    use qoc_sim::gates::GateKind;
    use qoc_sim::simulator::StatevectorSimulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pure_state_round_trip() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let sv = StatevectorSimulator::new().run(&c, &[]);
        let rho = DensityMatrix::from_statevector(&sv);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.fidelity_with_pure(&sv) - 1.0).abs() < 1e-12);
        for q in 0..2 {
            assert!((rho.expectation_z(q) - sv.expectation_z(q)).abs() < 1e-12);
        }
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut rho = DensityMatrix::zero_state(3);
        let mut sv = Statevector::zero_state(3);
        let seq: Vec<(GateKind, Vec<usize>, Vec<f64>)> = vec![
            (GateKind::H, vec![0], vec![]),
            (GateKind::Rx, vec![1], vec![0.8]),
            (GateKind::Cx, vec![0, 2], vec![]),
            (GateKind::Rzz, vec![1, 2], vec![1.3]),
            (GateKind::Ry, vec![2], vec![-0.4]),
        ];
        for (g, qs, ps) in &seq {
            let m = g.matrix(ps);
            rho.apply_unitary(&m, qs);
            sv.apply_unitary(&m, qs);
        }
        let want = DensityMatrix::from_statevector(&sv);
        assert!(rho.mat.approx_eq(&want.mat, 1e-10));
    }

    #[test]
    fn kernel_application_matches_apply_unitary() {
        let seq: Vec<(GateKind, Vec<usize>, Vec<f64>)> = vec![
            (GateKind::H, vec![0], vec![]),
            (GateKind::Rz, vec![1], vec![0.9]),
            (GateKind::Cx, vec![0, 2], vec![]),
            (GateKind::Cx, vec![2, 0], vec![]),
            (GateKind::Rzz, vec![1, 2], vec![1.3]),
            (GateKind::Ry, vec![2], vec![-0.4]),
            (GateKind::Cry, vec![2, 1], vec![0.6]),
            (GateKind::Swap, vec![0, 2], vec![]),
        ];
        let mut a = DensityMatrix::zero_state(3);
        let mut b = DensityMatrix::zero_state(3);
        for (g, qs, ps) in &seq {
            a.apply_unitary(&g.matrix(ps), qs);
            b.apply_kernel(&Kernel::for_gate(*g, qs, ps));
        }
        assert!(a.matrix().approx_eq(b.matrix(), 1e-12));
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_kraus(&depolarizing_1q(1.0), &[0]);
        // p=1 uniform-Pauli leaves 1/4 weight each on I,X,Y,Z applications:
        // ρ → (ρ + XρX + YρY + ZρZ)/… not exactly I/2 unless p=3/4 in this
        // parametrization — but expectation must shrink toward 0.
        assert!(rho.expectation_z(0).abs() < 0.70);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_shrinks_bloch_vector() {
        let mut rho = DensityMatrix::zero_state(1);
        let ez0 = rho.expectation_z(0);
        rho.apply_kraus(&depolarizing_1q(0.3), &[0]);
        // Z expectation shrinks by the depolarizing factor 1 − 4p/3·(3/4)… —
        // uniform-Pauli p leaves (1 − 4p/3) of ⟨Z⟩.
        let want = ez0 * (1.0 - 4.0 * 0.3 / 3.0);
        assert!((rho.expectation_z(0) - want).abs() < 1e-10);
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_unitary(&GateKind::X.matrix(&[]), &[0]);
        assert!((rho.expectation_z(0) + 1.0).abs() < 1e-12);
        rho.apply_kraus(&amplitude_damping(0.25), &[0]);
        // P(1) drops from 1 to 0.75 ⇒ ⟨Z⟩ = 0.25 − 0.75 = −0.5.
        assert!((rho.expectation_z(0) + 0.5).abs() < 1e-10);
    }

    #[test]
    fn phase_damping_kills_coherence_not_populations() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_unitary(&GateKind::H.matrix(&[]), &[0]);
        let before = rho.mat[(0, 1)].norm();
        rho.apply_kraus(&phase_damping(0.36), &[0]);
        let after = rho.mat[(0, 1)].norm();
        assert!((after / before - (1.0f64 - 0.36).sqrt()).abs() < 1e-10);
        assert!((rho.expectation_z(0)).abs() < 1e-10);
    }

    #[test]
    fn two_qubit_channel_preserves_trace() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_unitary(&GateKind::H.matrix(&[]), &[0]);
        rho.apply_unitary(&GateKind::Cx.matrix(&[]), &[0, 1]);
        rho.apply_kraus(&depolarizing_2q(0.05), &[0, 1]);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn kraus_on_subset_of_qubits() {
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_unitary(&GateKind::X.matrix(&[]), &[2]);
        rho.apply_kraus(&amplitude_damping(1.0), &[2]);
        // Full damping resets qubit 2 to |0⟩.
        assert!((rho.expectation_z(2) - 1.0).abs() < 1e-10);
        assert!((rho.expectation_z(0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn maximally_mixed_properties() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 0.25).abs() < 1e-12);
        assert!(rho.expectation_z(0).abs() < 1e-12);
    }

    #[test]
    fn analytic_depolarizing_matches_kraus_1q() {
        for p in [0.0, 0.1, 0.37, 0.9] {
            let mut a = DensityMatrix::zero_state(2);
            a.apply_unitary(&GateKind::H.matrix(&[]), &[0]);
            a.apply_unitary(&GateKind::Cx.matrix(&[]), &[0, 1]);
            let mut b = a.clone();
            a.apply_kraus(&depolarizing_1q(p), &[1]);
            b.apply_depolarizing(p, &[1]);
            assert!(
                a.matrix().approx_eq(b.matrix(), 1e-10),
                "1q analytic vs Kraus mismatch at p={p}"
            );
        }
    }

    #[test]
    fn analytic_depolarizing_matches_kraus_2q() {
        for p in [0.05, 0.4] {
            let mut a = DensityMatrix::zero_state(3);
            a.apply_unitary(&GateKind::H.matrix(&[]), &[0]);
            a.apply_unitary(&GateKind::Cx.matrix(&[]), &[0, 2]);
            a.apply_unitary(&GateKind::Ry.matrix(&[0.7]), &[1]);
            let mut b = a.clone();
            a.apply_kraus(&depolarizing_2q(p), &[0, 2]);
            b.apply_depolarizing(p, &[0, 2]);
            assert!(
                a.matrix().approx_eq(b.matrix(), 1e-10),
                "2q analytic vs Kraus mismatch at p={p}"
            );
        }
    }

    /// A random Hermitian `2ⁿ × 2ⁿ` matrix (not a state: trace and sign are
    /// free, which the passes do not care about).
    fn random_hermitian(n: usize, rng: &mut StdRng) -> DensityMatrix {
        let dim = 1usize << n;
        let mut mat = CMatrix::zeros(dim, dim);
        for i in 0..dim {
            mat[(i, i)] = Complex64::real(rng.gen::<f64>() - 0.5);
            for j in 0..i {
                let z = random_c64(rng);
                mat[(i, j)] = z;
                mat[(j, i)] = z.conj();
            }
        }
        DensityMatrix { num_qubits: n, mat }
    }

    fn random_c64(rng: &mut StdRng) -> Complex64 {
        Complex64::new(rng.gen::<f64>() * 2.0 - 1.0, rng.gen::<f64>() * 2.0 - 1.0)
    }

    fn random_entries<const N: usize>(rng: &mut StdRng) -> [Complex64; N] {
        std::array::from_fn(|_| random_c64(rng))
    }

    fn bit_pattern(rho: &DensityMatrix) -> Vec<(u64, u64)> {
        let flat = rho.matrix().as_slice();
        flat.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// Puts `L` random Hermitian matrices through `single(lane, ·)` one by
    /// one and, as the lanes of one lane state, through `lanes` compiled for
    /// `arm`; each lane must match its single pass bit for bit.
    fn assert_lanes_match<const L: usize>(
        arm: LaneArm,
        n: usize,
        rng: &mut StdRng,
        what: &str,
        single: impl Fn(usize, &mut DensityMatrix),
        lanes: impl Fn(&mut DensityLanes<L>),
    ) {
        let mut states: [DensityMatrix; L] = std::array::from_fn(|_| random_hermitian(n, rng));
        let mut state = DensityLanes::<L>::new(n);
        for (lane, rho) in states.iter().enumerate() {
            state.set_lane(lane, rho);
        }
        arm.run(
            #[inline(always)]
            || lanes(&mut state),
        );
        let mut got = DensityMatrix::zero_state(n);
        for (lane, rho) in states.iter_mut().enumerate() {
            single(lane, rho);
            state.lane_into(lane, &mut got);
            assert!(
                bit_pattern(&got) == bit_pattern(rho),
                "{arm:?}, L={L}, n={n}, {what}: lane {lane} differs from the single pass"
            );
        }
    }

    /// Every sequence of distinct wires of an `n`-qubit state.
    fn wire_sequences(n: usize) -> Vec<Vec<usize>> {
        let mut all = Vec::new();
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(seq) = stack.pop() {
            for q in (0..n).filter(|q| !seq.contains(q)) {
                let mut next = seq.clone();
                next.push(q);
                stack.push(next.clone());
                all.push(next);
            }
        }
        all
    }

    fn diagonal_bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
        let dim = rho.matrix().rows();
        (0..dim)
            .map(|i| {
                let z = rho.matrix()[(i, i)];
                (z.re.to_bits(), z.im.to_bits())
            })
            .collect()
    }

    /// Runs random superoperators on the distinct wires `order` as a
    /// measured tail — single, `L` lanes with shared matrices, `L` lanes
    /// with one matrix per lane, the lanes compiled for `arm` — and holds
    /// every diagonal to the full passes', bit for bit.
    fn assert_tail_diagonal_matches<const L: usize>(
        arm: LaneArm,
        n: usize,
        order: &[usize],
        rng: &mut StdRng,
    ) {
        let maps: Vec<[[Complex64; 16]; L]> = order
            .iter()
            .map(|_| std::array::from_fn(|_| random_entries(rng)))
            .collect();
        // Pass j may leave entries off the diagonal on its own wire and on
        // the later tail wires stale.
        let free: Vec<usize> = (0..order.len())
            .map(|j| order[j..].iter().fold(0, |acc, &q| acc | 1 << q))
            .collect();
        let inputs: [DensityMatrix; L] = std::array::from_fn(|_| random_hermitian(n, rng));
        let mut full = inputs.clone();
        for (lane, rho) in full.iter_mut().enumerate() {
            for (&q, m) in order.iter().zip(&maps) {
                rho.apply_superop_1q(q, &m[lane]);
            }
        }
        let what = format!("{arm:?}, L={L}, n={n}, tail on {order:?}");

        let mut single = inputs[0].clone();
        for ((&q, m), &free) in order.iter().zip(&maps).zip(&free) {
            single.apply_superop_1q_diag(q, &m[0], free);
        }
        assert!(
            diagonal_bits(&single) == diagonal_bits(&full[0]),
            "{what}: single tail diagonal differs"
        );

        let mut got = DensityMatrix::zero_state(n);
        let mut shared = DensityLanes::<L>::new(n);
        let mut per_lane = DensityLanes::<L>::new(n);
        for (lane, rho) in inputs.iter().enumerate() {
            shared.set_lane(lane, rho);
            per_lane.set_lane(lane, rho);
        }
        arm.run(
            #[inline(always)]
            || {
                for ((&q, m), &free) in order.iter().zip(&maps).zip(&free) {
                    shared.apply_superop_1q_diag(q, &m[0], free);
                    per_lane.apply_superop_1q_diag(
                        q,
                        &lane_matrix(std::array::from_fn(|l| &m[l])),
                        free,
                    );
                }
            },
        );
        for lane in 0..L {
            let mut want = inputs[lane].clone();
            for (&q, m) in order.iter().zip(&maps) {
                want.apply_superop_1q(q, &m[0]);
            }
            shared.lane_into(lane, &mut got);
            assert!(
                diagonal_bits(&got) == diagonal_bits(&want),
                "{what}: shared lanes tail, lane {lane} diagonal differs"
            );
            per_lane.lane_into(lane, &mut got);
            assert!(
                diagonal_bits(&got) == diagonal_bits(&full[lane]),
                "{what}: per-lane tail, lane {lane} diagonal differs"
            );
            let probs: Vec<u64> = per_lane
                .lane_probabilities(lane)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let want: Vec<u64> = full[lane]
                .probabilities()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(probs, want, "{what}: lane {lane} probabilities");
        }
    }

    /// Every pass kind on `L` lanes compiled for `arm`, against `L` single
    /// states: every kernel class on every wire (pair), the 1q
    /// superoperator with a shared and a per-lane matrix, every measured
    /// tail order, analytic depolarizing and the 2q superoperator.
    fn assert_every_lane_pass_matches<const L: usize>(arm: LaneArm, rng: &mut StdRng) {
        for n in 1..=5usize {
            let wire_pairs: Vec<(usize, usize)> = (0..n)
                .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
                .collect();
            let mut kernels = vec![Kernel::Id];
            for q in 0..n {
                let (s, c) = (rng.gen::<f64>() * 6.0).sin_cos();
                kernels.extend([
                    Kernel::Diag1 {
                        q,
                        d: random_entries(rng),
                    },
                    Kernel::RealRot1 { q, c, s },
                    Kernel::Flip { q },
                    Kernel::Unitary1 {
                        q,
                        m: random_entries(rng),
                    },
                ]);
            }
            for &(a, b) in &wire_pairs {
                kernels.extend([
                    Kernel::ControlledFlip {
                        control: a,
                        target: b,
                    },
                    Kernel::PhaseFlip2 { a, b },
                    Kernel::Diag2 {
                        a,
                        b,
                        d: random_entries(rng),
                    },
                    Kernel::Exchange { a, b },
                    Kernel::Unitary2 {
                        a,
                        b,
                        m: random_entries(rng),
                    },
                ]);
            }
            for kernel in &kernels {
                assert_lanes_match::<L>(
                    arm,
                    n,
                    rng,
                    &format!("{kernel:?}"),
                    |_, rho| rho.apply_kernel(kernel),
                    #[inline(always)]
                    |lanes| lanes.apply_kernel(kernel),
                );
            }
            for q in 0..n {
                let s: [Complex64; 16] = random_entries(rng);
                assert_lanes_match::<L>(
                    arm,
                    n,
                    rng,
                    &format!("1q superoperator on {q}"),
                    |_, rho| rho.apply_superop_1q(q, &s),
                    #[inline(always)]
                    |lanes| lanes.apply_superop_1q(q, &s),
                );
                // One matrix per lane: each lane rounds as the single pass
                // with its own matrix.
                let per_lane: [[Complex64; 16]; L] =
                    std::array::from_fn(|l| if l == 0 { s } else { random_entries(rng) });
                let m = lane_matrix(std::array::from_fn(|l| &per_lane[l]));
                assert_lanes_match::<L>(
                    arm,
                    n,
                    rng,
                    &format!("per-lane 1q superoperator on {q}"),
                    |lane, rho| rho.apply_superop_1q(q, &per_lane[lane]),
                    #[inline(always)]
                    |lanes| lanes.apply_superop_1q(q, &m),
                );
            }
            for order in wire_sequences(n) {
                assert_tail_diagonal_matches::<L>(arm, n, &order, rng);
            }
            let depolarized: Vec<Vec<usize>> = (0..n)
                .map(|q| vec![q])
                .chain(wire_pairs.iter().map(|&(a, b)| vec![a, b]))
                .collect();
            for qubits in &depolarized {
                for p in [0.0, 0.3, 1.0] {
                    assert_lanes_match::<L>(
                        arm,
                        n,
                        rng,
                        &format!("depolarizing p={p} on {qubits:?}"),
                        |_, rho| rho.apply_depolarizing(p, qubits),
                        #[inline(always)]
                        |lanes| lanes.apply_depolarizing(p, qubits),
                    );
                }
            }
            for &(a, b) in &wire_pairs {
                let s: [Complex64; 256] = random_entries(rng);
                assert_lanes_match::<L>(
                    arm,
                    n,
                    rng,
                    &format!("2q superoperator on ({a}, {b})"),
                    |_, rho| rho.apply_superop_2q(a, b, &s),
                    #[inline(always)]
                    |lanes| lanes.apply_superop_2q(a, b, &s),
                );
            }
        }
    }

    /// The arms this host runs; says which it skips.
    fn host_arms() -> Vec<LaneArm> {
        let arms = LaneArm::available();
        if !arms.contains(&LaneArm::Avx512) {
            println!("no AVX-512F on this host: the AVX-512 arm is skipped");
        }
        arms
    }

    #[test]
    fn lane_passes_are_bit_identical_to_single_passes() {
        for arm in host_arms() {
            let mut rng = StdRng::seed_from_u64(0x9a17);
            assert_every_lane_pass_matches::<2>(arm, &mut rng);
            assert_every_lane_pass_matches::<4>(arm, &mut rng);
            assert_every_lane_pass_matches::<8>(arm, &mut rng);
        }
    }

    #[test]
    fn fill_copies_one_state_into_every_lane() {
        let mut rng = StdRng::seed_from_u64(0xf111);
        let rho = random_hermitian(3, &mut rng);
        let mut lanes = DensityLanes::<4>::new(3);
        lanes.fill(&rho);
        let mut got = DensityMatrix::zero_state(3);
        for lane in 0..4 {
            lanes.lane_into(lane, &mut got);
            assert!(bit_pattern(&got) == bit_pattern(&rho), "lane {lane}");
            let probs: Vec<u64> = lanes
                .lane_probabilities(lane)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let want: Vec<u64> = rho.probabilities().iter().map(|p| p.to_bits()).collect();
            assert_eq!(probs, want, "lane {lane} probabilities");
        }
    }

    #[test]
    #[should_panic(expected = "repeated wire")]
    fn unitary_on_a_repeated_wire_panics() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_unitary(&GateKind::Cx.matrix(&[]), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "repeated wire")]
    fn kernel_on_a_repeated_wire_panics() {
        let mut rho = DensityMatrix::maximally_mixed(2);
        rho.apply_kernel(&Kernel::Unitary2 {
            a: 1,
            b: 1,
            m: GateKind::Cry
                .matrix(&[1.1])
                .as_slice()
                .try_into()
                .expect("4×4"),
        });
    }

    #[test]
    #[should_panic(expected = "repeated wire")]
    fn kraus_on_a_repeated_wire_panics() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_kraus(&depolarizing_2q(0.5), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "repeated wire")]
    fn depolarizing_on_a_repeated_wire_panics() {
        let mut rho = DensityMatrix::maximally_mixed(2);
        rho.apply_depolarizing(0.5, &[0, 0]);
    }

    #[test]
    fn sampling_respects_diagonal() {
        let rho = DensityMatrix::zero_state(2);
        let mut rng = StdRng::seed_from_u64(3);
        let counts = qoc_sim::statevector::sample_counts(&rho.probabilities(), 100, &mut rng);
        assert_eq!(counts, vec![100, 0, 0, 0]);
    }
}
