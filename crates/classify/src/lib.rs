//! Time series classifiers: the paper's two baselines — ROCKET with a
//! ridge classifier, and InceptionTime.
//!
//! * [`rocket`] — random convolutional kernel transform (Dempster et
//!   al. 2020): thousands of random dilated kernels, PPV + max pooled
//!   features, transform parallelised on the shared workspace pool;
//! * [`ridge`] — multi-class ridge classifier with exact LOOCV alpha
//!   selection (the scikit-learn `RidgeClassifierCV` the paper pairs
//!   with ROCKET, Table I/II);
//! * [`inception`] — InceptionTime (Ismail Fawzi et al. 2020): an
//!   ensemble of deep 1-D CNNs with inception modules and residual
//!   connections, trained with the paper's §IV-D protocol (2:1
//!   train/val split, early stopping, cyclical LR range test);
//! * [`minirocket`] — MiniRocket (Dempster et al. 2021), the (almost)
//!   deterministic ROCKET successor, included as the ROCKET-family
//!   extension the paper's related work points to.
//!
//! [`dtw_distance_matrix`] is the pooled all-pairs DTW kernel that
//! `perf_baseline` measures.

#![forbid(unsafe_code)]

mod dtw;
pub mod encode;
pub mod inception;
pub mod minirocket;
pub mod persist;
pub mod ridge;
pub mod rocket;
pub mod traits;

pub use dtw::dtw_distance_matrix;
pub use inception::{InceptionTime, InceptionTimeConfig};
pub use minirocket::{MiniRocket, MiniRocketConfig};
pub use persist::{load_model, load_model_bytes, save_model, SavedModel};
pub use ridge::RidgeClassifier;
pub use rocket::{Rocket, RocketConfig};
pub use traits::Classifier;
