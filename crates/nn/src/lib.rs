//! # qoc-nn — quantum neural networks
//!
//! The QNN model family of the QOC (DAC'22) reproduction:
//!
//! - [`encoder`] — rotation-gate input encoders (the paper's 16-value image
//!   and 10-value vowel encoders);
//! - [`layers`] — the 7 ansatz layer kinds (RX/RY/RZ, RZZ/RXX/RZX rings,
//!   CZ chain);
//! - [`model`] — [`model::QnnModel`] with the paper's 5 task architectures,
//!   built as a single symbolic circuit template (weights *and* inputs are
//!   symbols, so backends transpile once);
//! - [`head`] — measurement heads (pair-sum for 2-class, identity for
//!   4-class);
//! - [`loss`] — softmax cross-entropy with analytic logits-gradient;
//! - [`metrics`] — accuracy and confusion matrices.
//!
//! # Quick example
//!
//! ```
//! use qoc_nn::model::QnnModel;
//! use qoc_sim::simulator::StatevectorSimulator;
//!
//! let model = QnnModel::mnist2();
//! let params = vec![0.1; model.num_params()];
//! let input = vec![0.5; model.input_dim()];
//! let sim = StatevectorSimulator::new();
//! let ez = sim.expectations_z(model.circuit(), &model.symbol_vector(&params, &input));
//! let logits = model.logits_from_expectations(&ez);
//! assert_eq!(logits.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod encoder;
pub mod head;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;

pub use encoder::RotationEncoder;
pub use head::MeasurementHead;
pub use layers::Layer;
pub use model::QnnModel;
