//! Pauli strings and their expectation values.
//!
//! Used by the VQE Hamiltonian bookkeeping (`qoc-core`) and by observable
//! checks in tests.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::complex::Complex64;
use crate::gates::GateKind;
use crate::statevector::Statevector;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    /// The corresponding fixed gate, or `None` for identity.
    pub fn gate(self) -> Option<GateKind> {
        match self {
            Pauli::I => None,
            Pauli::X => Some(GateKind::X),
            Pauli::Y => Some(GateKind::Y),
            Pauli::Z => Some(GateKind::Z),
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// A tensor product of single-qubit Paulis; index `k` acts on qubit `k`.
///
/// # Examples
///
/// ```
/// use qoc_sim::pauli::PauliString;
/// use qoc_sim::statevector::Statevector;
///
/// let zz: PauliString = "ZZ".parse()?;
/// let sv = Statevector::zero_state(2);
/// assert!((zz.expectation(&sv) - 1.0).abs() < 1e-12);
/// # Ok::<(), qoc_sim::pauli::ParsePauliError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PauliString {
    paulis: Vec<Pauli>,
}

impl PauliString {
    /// Creates a Pauli string from per-qubit factors.
    pub fn new(paulis: Vec<Pauli>) -> Self {
        PauliString { paulis }
    }

    /// The all-identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            paulis: vec![Pauli::I; n],
        }
    }

    /// A single-qubit Z observable embedded in `n` qubits.
    pub fn z_on(n: usize, qubit: usize) -> Self {
        let mut paulis = vec![Pauli::I; n];
        paulis[qubit] = Pauli::Z;
        PauliString { paulis }
    }

    /// Number of qubits covered.
    pub fn len(&self) -> usize {
        self.paulis.len()
    }

    /// Returns `true` for an empty string.
    pub fn is_empty(&self) -> bool {
        self.paulis.is_empty()
    }

    /// Per-qubit factors, index `k` acting on qubit `k`.
    pub fn factors(&self) -> &[Pauli] {
        &self.paulis
    }

    /// Number of non-identity factors.
    pub fn weight(&self) -> usize {
        self.paulis.iter().filter(|&&p| p != Pauli::I).count()
    }

    /// Applies the string to a state (in place).
    ///
    /// # Panics
    ///
    /// Panics if widths mismatch.
    pub fn apply(&self, state: &mut Statevector) {
        assert_eq!(state.num_qubits(), self.len(), "width mismatch");
        for (q, p) in self.paulis.iter().enumerate() {
            if let Some(g) = p.gate() {
                state.apply_1q(&g.matrix(&[]), q);
            }
        }
    }

    /// Expectation value `⟨ψ|P|ψ⟩` (always real for Hermitian `P`).
    pub fn expectation(&self, state: &Statevector) -> f64 {
        let mut transformed = state.clone();
        self.apply(&mut transformed);
        let ip: Complex64 = state.inner(&transformed);
        ip.re
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.paulis {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// Error parsing a Pauli-string literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePauliError {
    bad_char: char,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Pauli character {:?}", self.bad_char)
    }
}

impl std::error::Error for ParsePauliError {}

impl FromStr for PauliString {
    type Err = ParsePauliError;

    /// Parses `"IXYZ"`-style literals; **leftmost character acts on qubit 0**.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let paulis = s
            .chars()
            .map(|c| match c.to_ascii_uppercase() {
                'I' => Ok(Pauli::I),
                'X' => Ok(Pauli::X),
                'Y' => Ok(Pauli::Y),
                'Z' => Ok(Pauli::Z),
                bad => Err(ParsePauliError { bad_char: bad }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PauliString { paulis })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::simulator::StatevectorSimulator;

    #[test]
    fn z_expectation_matches_statevector_method() {
        let mut c = Circuit::new(2);
        c.ry(0, 0.8);
        c.rx(1, 1.4);
        let sv = StatevectorSimulator::new().run(&c, &[]);
        for q in 0..2 {
            let z = PauliString::z_on(2, q);
            assert!((z.expectation(&sv) - sv.expectation_z(q)).abs() < 1e-12);
        }
    }

    #[test]
    fn bell_state_correlations() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let sv = StatevectorSimulator::new().run(&c, &[]);
        let zz: PauliString = "ZZ".parse().unwrap();
        let xx: PauliString = "XX".parse().unwrap();
        let zi: PauliString = "ZI".parse().unwrap();
        assert!((zz.expectation(&sv) - 1.0).abs() < 1e-12);
        assert!((xx.expectation(&sv) - 1.0).abs() < 1e-12);
        assert!(zi.expectation(&sv).abs() < 1e-12);
    }

    #[test]
    fn weight_counts_non_identity() {
        let p: PauliString = "IXIZ".parse().unwrap();
        assert_eq!(p.weight(), 2);
        assert_eq!(p.len(), 4);
        assert_eq!(p.to_string(), "IXIZ");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("IXQ".parse::<PauliString>().is_err());
        assert!("ixyz".parse::<PauliString>().is_ok());
    }

    #[test]
    fn identity_expectation_is_one() {
        let sv = Statevector::zero_state(3);
        assert!((PauliString::identity(3).expectation(&sv) - 1.0).abs() < 1e-12);
    }
}
