//! # qoc-data — synthetic benchmark datasets
//!
//! The data substrate of the QOC (DAC'22) reproduction. The paper trains on
//! MNIST, Fashion-MNIST, and vowel recordings; none are downloadable in this
//! environment, so procedurally generated stand-ins exercise the exact same
//! preprocessing and encoding path (see DESIGN.md for the substitution
//! argument):
//!
//! - [`image`] — 28×28 rasterization primitives;
//! - [`mnist`] — stroke-skeleton digit renderer (0, 1, 2, 3, 6);
//! - [`fashion`] — clothing-silhouette renderer (t-shirt/top, trouser,
//!   pullover, dress, shirt);
//! - [`vowel`] — formant-statistics vowel synthesizer (hid, hId, hAd, hOd);
//! - [`preprocess`] — the paper's center-crop 24×24 → average-pool 4×4 →
//!   angle-scaling chain;
//! - [`pca`] — from-scratch PCA (Jacobi eigensolver) for the vowel features;
//! - [`dataset`] / [`tasks`] — splits matching the paper (front-N train,
//!   300 random validation) for all five benchmark tasks.
//!
//! # Quick example
//!
//! ```
//! use qoc_data::tasks::Task;
//!
//! let (train, val) = Task::Mnist2.load(42);
//! assert_eq!(train.len(), 500);
//! assert_eq!(val.len(), 300);
//! assert_eq!(train.feature_dim(), 16); // 4×4 pooled pixels as angles
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod fashion;
pub mod image;
pub mod mnist;
pub mod pca;
pub mod preprocess;
pub mod tasks;
pub mod vowel;

pub use dataset::Dataset;
pub use image::Image;
pub use pca::Pca;
pub use tasks::Task;
