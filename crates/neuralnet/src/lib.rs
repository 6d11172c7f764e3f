//! From-scratch neural networks for the elevation-privacy attack.
//!
//! Implements exactly the deep models the paper uses, with manual
//! backpropagation over [`tensorlite::Tensor`]s:
//!
//! - [`models::mlp`]: the paper's MLP — one hidden layer of 100 units
//!   (scikit-learn's `MLPClassifier` default, which the paper describes
//!   as "100 hidden layers") trained with Adam,
//! - [`models::paper_cnn`]: the Fig. 7 CNN — two 5×5 conv layers
//!   (stride 1, padding 2) each followed by ReLU and 2×2 max-pooling,
//!   reducing 32×32 to 8×8, then a fully-connected head; cross-entropy
//!   loss with the Adam optimizer,
//! - [`loss`]: softmax cross-entropy, optionally **class-weighted**
//!   (the paper's "weighted loss function" for unbalanced datasets),
//! - [`finetune`]: the round-based fine-tuning scheme of Figs. 10–11.
//!
//! Every layer's backward pass is verified against finite differences
//! in the test suite.
//!
//! # Examples
//!
//! ```
//! use neuralnet::{models, train, TrainConfig};
//! use tensorlite::Tensor;
//!
//! // Learn XOR with a tiny MLP.
//! let x = Tensor::from_rows(&[
//!     vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0],
//! ]);
//! let y = vec![0u32, 1, 1, 0];
//! let mut net = models::mlp(2, 16, 2, 7);
//! train(&mut net, &x, &y, &TrainConfig { epochs: 300, lr: 0.01, ..Default::default() });
//! assert_eq!(net.predict(&x), y);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod conv;
pub mod finetune;
pub mod infer;
pub mod layer;
pub mod loss;
pub mod models;
pub mod optim;
pub mod snapshot;

mod net;

pub use arena::TrainArena;
pub use infer::{FlatMlp, InferScratch};
pub use layer::{Dense, Dropout, Flatten, Layer, Relu};
pub use net::{
    gather_samples, shard_ranges, train, train_in_arena, train_sparse, Sequential, TrainConfig,
    TrainReport,
};
pub use optim::{Adam, Sgd};
pub use snapshot::{ArchSpec, NetSnapshot};
