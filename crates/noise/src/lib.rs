//! # qoc-noise — NISQ noise modelling
//!
//! The hardware-error substrate of the QOC (DAC'22) reproduction. Real IBM
//! machines are unavailable in this environment, so their error processes
//! are rebuilt here and attached to the fake devices in `qoc-device`:
//!
//! - [`kraus`] — CPTP channels in Kraus form with completeness validation.
//! - [`channels`] — depolarizing, Pauli-flip, amplitude/phase damping,
//!   thermal relaxation from T1/T2, coherent over-rotation.
//! - [`density`] — exact density-matrix state evolution (4-qubit QNNs fit in
//!   a 16×16 matrix).
//! - [`model`] — per-gate/per-qubit channel assignment plus readout error.
//! - [`sim`] — the noisy executor that stands in for a real backend: a
//!   circuit and its noise compiled into fused in-place superoperator passes.
//! - [`readout`] — measurement confusion matrices.
//!
//! # Quick example
//!
//! ```
//! use qoc_sim::circuit::Circuit;
//! use qoc_noise::channels::{depolarizing_1q, depolarizing_2q};
//! use qoc_noise::model::NoiseModel;
//! use qoc_noise::sim::NoisyProgram;
//!
//! let mut c = Circuit::new(2);
//! c.ry(0, 1.1);
//! c.rzz(0, 1, 0.4);
//!
//! let noise = NoiseModel::builder(2)
//!     .one_qubit_all(depolarizing_1q(0.001))
//!     .two_qubit_default(depolarizing_2q(0.01))
//!     .build();
//! // Compile once, then run at any binding of the circuit's symbols.
//! let program = NoisyProgram::compile(c, &noise);
//! let ez = program.expectations_z(&[]);
//! assert!(ez[0].abs() <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The AVX-512 fork lanes (`density::LaneArm::run`) hold the workspace's one
// `unsafe` block; every other crate forbids `unsafe` outright.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod channels;
pub mod density;
pub mod kraus;
pub mod model;
pub mod readout;
pub mod sim;

pub use density::DensityMatrix;
pub use kraus::KrausChannel;
pub use model::{NoiseModel, NoiseModelBuilder};
pub use readout::ReadoutError;
pub use sim::NoisyProgram;
