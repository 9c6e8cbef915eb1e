//! # qoc-sim — statevector quantum-circuit simulation
//!
//! The classical-simulation substrate of the QOC (DAC'22) reproduction:
//!
//! - [`complex`] — `f64` complex arithmetic built from scratch.
//! - [`matrix`] — small dense complex matrices for gate definitions.
//! - [`gates`] — the full gate library (fixed gates, single-qubit rotations,
//!   and the RXX/RYY/RZZ/RZX entangling rotations the QNN ansatz uses).
//! - [`circuit`] — the circuit IR with constant and symbolic (trainable)
//!   parameters.
//! - [`kernels`] — specialized in-place gate kernels (diagonal, permutation,
//!   real-rotation, dense) shared by the statevector and density paths.
//! - [`fusion`] — peephole gate fusion compiling a circuit into a
//!   [`FusedProgram`] reusable across parameter bindings.
//! - [`diff`] — Crooks-style gate decomposition onto shift-rule-friendly
//!   generators.
//! - [`statevector`] / [`simulator`] — exact state evolution, expectation
//!   values, and shot sampling.
//! - [`scratch`] — the per-thread pool every state a circuit run evolves
//!   is borrowed from.
//! - [`resources`] — the exponential classical-cost model behind Figures
//!   2(a) and 8 of the paper.
//!
//! # Quick example
//!
//! ```
//! use qoc_sim::circuit::{Circuit, ParamValue};
//! use qoc_sim::simulator::StatevectorSimulator;
//!
//! // A tiny trainable circuit: RY(θ₀) then RZZ(θ₁) entangler.
//! let mut c = Circuit::new(2);
//! c.ry(0, ParamValue::sym(0));
//! c.rzz(0, 1, ParamValue::sym(1));
//!
//! let sim = StatevectorSimulator::new();
//! let ez = sim.expectations_z(&c, &[0.6, 0.3]);
//! assert!((ez[0] - 0.6f64.cos()).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod binomial;
pub mod circuit;
pub mod complex;
pub mod diff;
pub mod fusion;
pub mod gates;
pub mod kernels;
pub mod matrix;
pub mod resources;
pub mod scratch;
pub mod simulator;
pub mod statevector;

pub use circuit::{Circuit, Operation, ParamValue};
pub use complex::Complex64;
pub use fusion::FusedProgram;
pub use gates::GateKind;
pub use kernels::Kernel;
pub use matrix::CMatrix;
pub use simulator::StatevectorSimulator;
pub use statevector::Statevector;
