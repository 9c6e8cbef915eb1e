//! # qoc-core — quantum on-chip training
//!
//! The primary contribution of the QOC paper (DAC'22), reproduced in full:
//!
//! - [`shift`] — exact in-situ gradients via the ±π/2 parameter-shift rule
//!   (Eq. 2), including shared-parameter occurrence summation;
//! - [`grad`] — the hybrid gradient pipeline of Figure 4: quantum Jacobian ×
//!   classical softmax/cross-entropy backward;
//! - [`prune`] — **probabilistic gradient pruning** (Algorithm 1): magnitude
//!   accumulation windows, weighted sampling without replacement, and the
//!   deterministic top-k baseline;
//! - [`optim`] / [`sched`] — SGD, Momentum, Adam with masked (frozen-
//!   parameter) updates, and the paper's cosine learning-rate schedule;
//! - [`engine`] — the on-chip [`engine::train`] loop with inference
//!   accounting (Figure 6's x-axis);
//! - [`health`] — the one per-parameter gradient tracker (|g| EMA, sign
//!   flips, shot-noise SNR) and pruning-window efficacy, always on and
//!   emitted as telemetry when enabled;
//! - [`eval`] — on-backend validation.
//!
//! # Quick example — train a QNN on a fake IBM device
//!
//! ```
//! use qoc_core::engine::{train, TrainConfig};
//! use qoc_device::backend::NoiselessBackend;
//! use qoc_data::dataset::Dataset;
//! use qoc_nn::model::QnnModel;
//!
//! let model = QnnModel::mnist2();
//! let backend = NoiselessBackend::new();
//! // Two tiny separable clusters in encoder space:
//! let features: Vec<Vec<f64>> = (0..8)
//!     .map(|i| vec![if i % 2 == 0 { 0.4 } else { 2.2 }; 16])
//!     .collect();
//! let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
//! let data = Dataset::new(features, labels, 2);
//!
//! let mut config = TrainConfig::paper_pgp(6);
//! config.execution = qoc_device::backend::Execution::Exact;
//! config.eval_examples = 8;
//! let result = train(&model, &backend, &data, &data, &config);
//! assert_eq!(result.steps.len(), 6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod eval;
pub mod grad;
pub mod health;
pub mod optim;
pub mod prune;
pub mod sched;
pub mod shift;

pub use checkpoint::{CheckpointConfig, CheckpointError, TrainState};
pub use engine::{
    train, train_anchored, DeviceCounters, PruningKind, ResumeError, RunAnchor, TrainConfig,
    TrainError, TrainObserver, TrainResult,
};
pub use grad::QnnGradientComputer;
pub use optim::OptimizerKind;
pub use prune::{PruneConfig, Pruner};
pub use sched::LrSchedule;
pub use shift::ParameterShiftEngine;
