//! A minimal CPU neural-network framework.
//!
//! The paper trains two neural systems we must reproduce: InceptionTime
//! (a deep 1-D convolutional ensemble) and TimeGAN (five cooperating GRU
//! networks). No offline crate provides training-capable layers, so this
//! crate implements them: explicit forward/backward layers over a small
//! `f32` [`Tensor`], an [`optim::Adam`] optimiser, classification /
//! regression losses, a mini-batch training loop with early stopping, and
//! the cyclical learning-rate range test the paper uses to pick learning
//! rates (Smith 2017).
//!
//! Design notes:
//! * layers cache what backward needs during forward — no autodiff tape;
//! * parameters are visited through [`layers::Layer::visit_params`], so
//!   optimisers are agnostic to layer internals;
//! * everything is deterministic given a seed.

#![forbid(unsafe_code)]

pub mod init;
pub mod layers;
pub mod loss;
pub mod lr;
pub mod optim;
pub mod tensor;
pub mod train;

pub use layers::{Layer, Activation, BatchNorm1d, Conv1d, Dense, GlobalAvgPool1d, Gru, MaxPool1dSame};
pub use loss::{mse_loss, softmax_cross_entropy, bce_with_logits};
pub use optim::Adam;
pub use tensor::Tensor;
