//! # qoc-serve — multi-tenant training-as-a-service
//!
//! The paper trains one QNN at a time on one device; a lab shares a
//! handful of devices among many users. This crate is the serving plane
//! over the rest of the stack:
//!
//! - [`job`] — [`job::TrainRequest`] in, [`job::JobHandle`] out: status
//!   polling, preemption, blocking wait;
//! - [`quota`] — per-tenant admission caps and typed
//!   [`quota::AdmissionError`] backpressure;
//! - [`server`] — the [`server::Server`]: fair-share scheduling,
//!   calibration-aware placement onto a [`qoc_device::pool::DevicePool`],
//!   checkpoint-based preemption, per-tenant telemetry;
//! - [`preempt`] — the backend wrapper that turns a flag into a
//!   checkpoint-and-requeue;
//! - [`soak`] — the deterministic fault-injected soak harness that proves
//!   the whole thing: interleaved tenants, aggressive faults, random
//!   preemptions — and every job's result bit-identical to a solo run.
//!
//! Everything is `std::thread` + channels/condvars; no async runtime.
//!
//! # Quick example
//!
//! ```
//! use std::sync::Arc;
//! use qoc_core::engine::TrainConfig;
//! use qoc_data::dataset::Dataset;
//! use qoc_device::backend::NoiselessBackend;
//! use qoc_device::pool::PoolBuilder;
//! use qoc_nn::model::QnnModel;
//! use qoc_serve::{JobOutcome, ServeConfig, Server, TenantQuota, TrainRequest};
//!
//! let pool = PoolBuilder::new()
//!     .class("sim", None, 2, || Box::new(NoiselessBackend::new()))
//!     .build();
//! let dir = std::env::temp_dir().join("qoc-serve-doc");
//! let server = Server::new(pool, ServeConfig {
//!     quota: TenantQuota::default(),
//!     tenants: None,
//!     checkpoint_dir: dir,
//!     checkpoint_every: 1,
//! });
//!
//! let features: Vec<Vec<f64>> = (0..8)
//!     .map(|i| vec![if i % 2 == 0 { 0.4 } else { 2.2 }; 16])
//!     .collect();
//! let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
//! let data = Dataset::new(features, labels, 2);
//! let mut config = TrainConfig::paper_default(2);
//! config.execution = qoc_device::backend::Execution::Exact;
//! config.eval_examples = 4;
//!
//! let handle = server
//!     .submit(TrainRequest {
//!         tenant: "acme".to_string(),
//!         name: "demo".to_string(),
//!         model: QnnModel::mnist2(),
//!         train_data: data.clone(),
//!         val_data: data,
//!         config,
//!     })
//!     .unwrap();
//! match handle.wait() {
//!     JobOutcome::Finished(result) => assert_eq!(result.steps.len(), 2),
//!     JobOutcome::Failed(e) => panic!("{e}"),
//! }
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod job;
pub mod preempt;
pub mod quota;
pub mod server;
pub mod soak;

pub use job::{JobHandle, JobId, JobOutcome, JobPhase, JobStatus, TrainRequest};
pub use preempt::PreemptableBackend;
pub use quota::{AdmissionError, TenantQuota};
pub use server::{ServeConfig, Server, TenantSnapshot};
pub use soak::{run_soak, SoakProfile, SoakReport};
