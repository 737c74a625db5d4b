//! Minimal dense neural-network substrate for the SAFELOC reproduction.
//!
//! This crate is the hand-rolled ML stack the paper's models are built on:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the linear-algebra ops needed
//!   for dense networks (matmul, transpose, elementwise algebra, reductions),
//!   including `*_into` variants that write into caller-owned buffers.
//! * [`kernels`] — the slice-level kernels every product, every `O(d)`
//!   reduction and the optimizer's element-wise update route through (see
//!   the module docs for the design rules and measured speedups over the
//!   seed scalar loops).
//! * [`Dense`] — a fully-connected layer with explicit forward/backward.
//! * [`Activation`] — ReLU / LeakyReLU / Sigmoid / Tanh / Identity, with
//!   in-place `forward_assign` / `backward_assign` hot-path variants.
//! * [`MseLoss`] / [`SparseCrossEntropyLoss`] — the two losses the paper
//!   trains with (autoencoder reconstruction and RP classification); the
//!   softmax/NLL pass is fused in `loss_and_grad_into`.
//! * [`Sgd`] / [`Adam`] — optimizers over named parameter lists, streaming
//!   updates through [`optim::ParamStream`] without per-step allocation.
//! * [`Sequential`] — an MLP assembled from the above, with mini-batch
//!   training, prediction and **input gradients** (required by the
//!   gradient-based poisoning attacks in `safeloc-attacks`).
//! * [`Workspace`] — reusable forward/backward scratch; a warm
//!   `train_batch_with` step performs zero heap allocations
//!   (`tests/alloc_free.rs`).
//! * [`NamedParams`] / [`HasParams`] — the named-tensor views that the
//!   federated-learning layer (`safeloc-fl`) aggregates over.
//! * [`snapshot`] — schema-tagged parameter/network file snapshots (the
//!   serving registry's persistence primitive); architecture mismatches
//!   surface through [`ParamError`].
//!
//! Everything is deterministic given a seed; there is no global RNG, and
//! the only threading is the row-chunked parallel [`Sequential::predict`],
//! which is bitwise order-independent.
//!
//! # Example
//!
//! Train a tiny classifier on a toy two-cluster problem:
//!
//! ```
//! use safeloc_nn::{Activation, Adam, Matrix, Sequential, TrainConfig};
//!
//! // Two 2-D clusters around (0,0) and (1,1).
//! let x = Matrix::from_rows(&[
//!     vec![0.0, 0.1], vec![0.1, 0.0], vec![0.9, 1.0], vec![1.0, 0.9],
//! ]);
//! let labels = vec![0, 0, 1, 1];
//!
//! let mut model = Sequential::mlp(&[2, 8, 2], Activation::Relu, 7);
//! let mut opt = Adam::new(0.05);
//! let losses = model.fit_classifier(&x, &labels, &mut opt, &TrainConfig::new(200, 4, 7));
//! assert!(losses.last().unwrap() < &0.1);
//! assert_eq!(model.predict(&x), labels);
//! ```

pub mod activation;
pub mod data;
pub mod dense;
pub mod init;
pub mod kernels;
pub mod loss;
pub mod optim;
pub mod params;
pub mod sequential;
pub mod snapshot;
pub mod tensor;

pub use activation::Activation;
pub use data::{
    gather_labels, gather_labels_into, gather_rows, gather_rows_into, shuffled_batches,
};
pub use dense::{Dense, DenseGrads};
pub use init::Init;
pub use loss::{MseLoss, SparseCrossEntropyLoss};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{HasParams, NamedParams, ParamError};
pub use sequential::{Sequential, TrainConfig, Workspace};
pub use snapshot::{
    load_network, load_params, load_params_into, save_network, save_params, SnapshotError,
};
pub use tensor::{Matrix, ShapeError};
