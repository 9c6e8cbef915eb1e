//! # qoc — Quantum On-Chip Training with Parameter Shift and Gradient Pruning
//!
//! A full-stack Rust reproduction of the QOC paper (Wang et al., DAC 2022):
//! training parameterized quantum circuits *on (emulated) quantum hardware*
//! with exact parameter-shift gradients, made noise-robust and cheaper by
//! probabilistic gradient pruning.
//!
//! This façade crate re-exports the workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | [`sim`] | statevector simulator, gate library, circuit IR |
//! | [`noise`] | Kraus channels, density-matrix simulation, readout error |
//! | [`device`] | fake IBM backends, transpiler, latency model |
//! | [`data`] | synthetic MNIST/Fashion/vowel tasks with the paper's splits |
//! | [`nn`] | QNN encoders, ansatz layers, heads, loss |
//! | [`core`] | parameter shift, gradient pruning, optimizers, training engine |
//! | [`telemetry`] | structured tracing, metrics registry, JSONL trace sink |
//!
//! # Quickstart
//!
//! ```
//! use qoc::prelude::*;
//!
//! // The paper's MNIST-2 setup on an emulated ibmq_santiago.
//! let model = QnnModel::mnist2();
//! let device = FakeDevice::new(fake_santiago());
//! let (train_set, val_set) = Task::Mnist2.load(42);
//!
//! let mut config = TrainConfig::paper_pgp(3); // 3 steps for the doctest
//! config.batch_size = 2;
//! config.eval_examples = 4;
//! let result = train(
//!     &model,
//!     &device,
//!     &train_set.take_front(8),
//!     &val_set,
//!     &config,
//! );
//! assert!(result.total_inferences > 0);
//! ```

#![forbid(unsafe_code)]

pub use qoc_core as core;
pub use qoc_data as data;
pub use qoc_device as device;
pub use qoc_nn as nn;
pub use qoc_noise as noise;
pub use qoc_sim as sim;
pub use qoc_telemetry as telemetry;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use qoc_core::alloc::ShotAllocConfig;
    pub use qoc_core::checkpoint::{CheckpointConfig, TrainState};
    pub use qoc_core::engine::{
        train, train_anchored, PruningKind, RunAnchor, TrainConfig, TrainError, TrainResult,
    };
    pub use qoc_core::eval::{evaluate, evaluate_with_params};
    pub use qoc_core::grad::QnnGradientComputer;
    pub use qoc_core::optim::OptimizerKind;
    pub use qoc_core::prune::PruneConfig;
    pub use qoc_core::sched::LrSchedule;
    pub use qoc_core::shift::ParameterShiftEngine;
    pub use qoc_data::dataset::Dataset;
    pub use qoc_data::tasks::Task;
    pub use qoc_device::backend::{
        CircuitJob, Execution, FakeDevice, JobKind, NoiselessBackend, QuantumBackend, PAPER_SHOTS,
    };
    pub use qoc_device::backends::{
        all_paper_devices, fake_jakarta, fake_lima, fake_manila, fake_santiago, fake_toronto,
    };
    pub use qoc_device::faults::{FaultInjectingBackend, FaultPlan};
    pub use qoc_device::rb::randomized_benchmarking;
    pub use qoc_device::retry::{BatchError, JobError, RetryPolicy};
    pub use qoc_nn::model::QnnModel;
    pub use qoc_sim::circuit::{Circuit, ParamValue};
    pub use qoc_sim::gates::GateKind;
    pub use qoc_sim::simulator::StatevectorSimulator;
}
