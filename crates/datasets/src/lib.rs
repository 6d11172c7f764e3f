//! Dataset construction for the three corpora of the paper.
//!
//! - [`user_specific`]: the athlete archive of Table I (region-clustered
//!   labels, ~35% route overlap),
//! - [`city_level`]: the ten-city mined dataset of Table II,
//! - [`borough_level`]: the 22-borough mined dataset of Table III,
//! - [`overlap`]: the overlap-injection simulator behind Table VI and
//!   Fig. 9,
//! - [`split`]: stratified k-fold cross-validation, balanced
//!   downsampling, and the inverse-proportional test split used by the
//!   image-side evaluations.
//!
//! Every builder is a pure function of its seed, so experiments
//! regenerate identical corpora.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod borough_level;
pub mod city_level;
pub mod overlap;
pub mod split;
pub mod user_specific;

mod dataset;
mod mined;

pub use dataset::{Dataset, DatasetError, Sample};
pub use mined::mine_to_target;
