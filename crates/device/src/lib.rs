//! # qoc-device — fake superconducting backends
//!
//! The hardware substrate of the QOC (DAC'22) reproduction. The paper runs
//! on five IBM machines through qiskit; this crate rebuilds that interface
//! so the training engine sees the same thing a real device would hand back:
//!
//! - [`topology`] — coupling graphs of the real machines;
//! - [`calibration`] — per-qubit/per-edge error figures in the published
//!   ranges, and the noise model they imply;
//! - [`backends`] — `fake_jakarta`, `fake_manila`, `fake_santiago`,
//!   `fake_lima`, `fake_toronto`;
//! - [`transpile`] — basis decomposition to `{RZ, SX, X, CX}` (symbolic
//!   parameters preserved), layout, SWAP routing, peephole optimization;
//! - [`schedule`] — ASAP gate scheduling and the job latency model behind
//!   Figure 8;
//! - [`backend`] — the [`backend::QuantumBackend`] trait with
//!   [`backend::NoiselessBackend`] and [`backend::FakeDevice`];
//! - [`pool`] — a leased fleet of backend instances with calibration-aware
//!   placement scoring (the substrate `qoc-serve` schedules over).
//!
//! # Quick example
//!
//! ```
//! use qoc_sim::circuit::{Circuit, ParamValue};
//! use qoc_device::backends::fake_santiago;
//! use qoc_device::backend::{CircuitJob, Execution, FakeDevice, QuantumBackend};
//!
//! let mut c = Circuit::new(2);
//! c.ry(0, ParamValue::sym(0));
//! c.rzz(0, 1, ParamValue::sym(1));
//!
//! let device = FakeDevice::new(fake_santiago());
//! let prepared = device.prepare(&c);
//! // One job: a binding, a shot count and the job's own RNG seed.
//! let job = CircuitJob::expectation(&prepared, vec![0.7, 0.3], Execution::Shots(1024), 42);
//! let ez = device.run_batch_expect(&[job]).remove(0);
//! assert_eq!(ez.len(), 2);
//! assert_eq!(device.stats().total_shots, 1024);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod backends;
pub mod calibration;
pub mod faults;
pub mod pool;
pub mod rb;
pub mod retry;
pub mod schedule;
pub mod topology;
pub mod transpile;

pub use backend::{
    Execution, ExecutionStats, FakeDevice, JacobianBatch, JacobianRow, NoiselessBackend,
    QuantumBackend,
};
pub use backends::DeviceDescription;
pub use calibration::{DeviceCalibration, EdgeCalibration, QubitCalibration};
pub use faults::{FaultInjectingBackend, FaultPlan};
pub use pool::{placement_score, DevicePool, PlacementScore, PoolBuilder, PooledDevice};
/// The instruction set a fake device's noisy parameter-shift forks run on.
pub use qoc_noise::density::LaneArm;
pub use retry::{BatchError, BatchResult, JobError, RetryPolicy};
pub use topology::CouplingMap;
pub use transpile::{transpile, TranspileOptions, TranspiledCircuit};
