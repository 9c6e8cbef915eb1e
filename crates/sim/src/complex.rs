//! Double-precision complex arithmetic.
//!
//! Implemented from scratch (rather than pulling in `num-complex`) so the
//! simulator workspace has zero numeric dependencies and so the layout of
//! [`Complex64`] is guaranteed to be two consecutive `f64`s, which the
//! statevector kernels rely on for cache-friendly access.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A complex number `re + i·im` with `f64` components.
///
/// # Examples
///
/// ```
/// use qoc_sim::complex::Complex64;
///
/// let i = Complex64::I;
/// assert_eq!(i * i, -Complex64::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{iθ}`, a unit-modulus phase factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64::new(theta.cos(), theta.sin())
    }

    /// The complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// The squared modulus `re² + im²`.
    ///
    /// This is the probability weight of a statevector amplitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The modulus `√(re² + im²)`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// The argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The multiplicative inverse.
    ///
    /// Returns non-finite components when `self` is zero, mirroring `f64`
    /// division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex64::new(self.re / d, -self.im / d)
    }

    /// Multiplies by the imaginary unit: `i·z = (-im) + i·re`.
    #[inline]
    pub fn mul_i(self) -> Self {
        Complex64::new(-self.im, self.re)
    }

    /// Multiplies by `-i`.
    #[inline]
    pub fn mul_neg_i(self) -> Self {
        Complex64::new(self.im, -self.re)
    }

    /// Multiply-add `self * b + c`, *not* fused: each component is the
    /// product rounded, then `c`'s component added and rounded again, so the
    /// result is bit for bit `self * b + c`. Rust never contracts `a * b + c`
    /// into a fused multiply-add, and the bit identity of the density
    /// pairs' lanes, the parameter-shift forks and the seeded goldens
    /// relies on every such expression rounding exactly this way.
    #[inline]
    pub fn mul_add(self, b: Complex64, c: Complex64) -> Self {
        Complex64::new(
            self.re * b.re - self.im * b.im + c.re,
            self.re * b.im + self.im * b.re + c.im,
        )
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }

    /// Complex square root on the principal branch.
    #[inline]
    pub fn sqrt(self) -> Self {
        Complex64::from_polar(self.norm().sqrt(), self.arg() / 2.0)
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality within an absolute tolerance on both components.
    #[inline]
    pub fn approx_eq(self, other: Complex64, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::real(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

/// Shorthand constructor used pervasively in gate-matrix definitions.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn constants_behave() {
        assert_eq!(Complex64::ZERO + Complex64::ONE, Complex64::ONE);
        assert_eq!(Complex64::I * Complex64::I, -Complex64::ONE);
        assert_eq!(Complex64::ONE.norm(), 1.0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = c64(1.5, -2.5);
        let b = c64(-0.25, 3.0);
        assert!((a + b - b).approx_eq(a, TOL));
        assert!((a * b / b).approx_eq(a, TOL));
        assert!((a * a.recip()).approx_eq(Complex64::ONE, TOL));
        assert!((-a + a).approx_eq(Complex64::ZERO, TOL));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
        assert!((z * z.conj()).approx_eq(c64(25.0, 0.0), TOL));
        assert_eq!(z.conj().conj(), z);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!((z.norm() - 2.0).abs() < TOL);
        assert!((z.arg() - 0.7).abs() < TOL);
    }

    #[test]
    fn cis_is_unit_phase() {
        for k in 0..16 {
            let theta = k as f64 * 0.41 - 3.0;
            let z = Complex64::cis(theta);
            assert!((z.norm() - 1.0).abs() < TOL);
            assert!(z.approx_eq(Complex64::I.scale(theta).exp(), 1e-10));
        }
    }

    #[test]
    fn mul_i_matches_multiplication() {
        let z = c64(0.3, -1.7);
        assert!(z.mul_i().approx_eq(z * Complex64::I, TOL));
        assert!(z.mul_neg_i().approx_eq(z * -Complex64::I, TOL));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = c64(1.0, 2.0);
        let b = c64(-0.5, 0.25);
        let c = c64(3.0, -1.0);
        assert!(a.mul_add(b, c).approx_eq(a * b + c, TOL));
        // Unfused: bit for bit the separate product and sum, on inputs
        // whose products round.
        let (a, b, c) = (c64(0.1, 0.7), c64(-0.3, 1.0 / 3.0), c64(1e-3, -0.2));
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        assert_eq!(bits(a.mul_add(b, c)), bits(a * b + c));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (0.0, 2.0), (-1.0, 0.0), (1.3, -2.4)] {
            let z = c64(re, im);
            let r = z.sqrt();
            assert!((r * r).approx_eq(z, 1e-10), "sqrt({z})^2 != {z}");
        }
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(c64(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(c64(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn sum_folds() {
        let total: Complex64 = (0..4).map(|k| c64(k as f64, 1.0)).sum();
        assert_eq!(total, c64(6.0, 4.0));
    }

    #[test]
    fn assign_ops() {
        let mut z = c64(1.0, 1.0);
        z += c64(1.0, 0.0);
        z -= c64(0.0, 1.0);
        z *= c64(2.0, 0.0);
        z /= c64(2.0, 0.0);
        z *= 3.0;
        assert!(z.approx_eq(c64(6.0, 0.0), TOL));
    }
}
