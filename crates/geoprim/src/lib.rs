//! Geographic primitives for the elevation-privacy reproduction.
//!
//! This crate provides the low-level geometry used throughout the attack
//! pipeline of *Understanding the Potential Risks of Sharing Elevation
//! Information on Fitness Applications* (ICDCS 2020):
//!
//! - [`LatLon`] coordinates with haversine distances and a local
//!   equirectangular projection to metres,
//! - [`BoundingBox`] "tight rectangles" that encapsulate a route
//!   trajectory (paper Fig. 3) with intersection-over-union overlap
//!   ratios (used to measure the 35% route overlap of the user-specific
//!   dataset),
//! - the Google encoded [`polyline`] codec (route segments are mined as
//!   polyline paths, paper Fig. 4),
//! - [`region`] clustering that assigns trajectories to labelled regions
//!   by rectangle-centre distance, exactly as the paper labels the
//!   user-specific dataset.
//!
//! # Examples
//!
//! ```
//! use geoprim::{BoundingBox, LatLon};
//!
//! let route = [
//!     LatLon::new(38.889, -77.050),
//!     LatLon::new(38.897, -77.036),
//!     LatLon::new(38.889, -77.009),
//! ];
//! let rect = BoundingBox::tight(route.iter().copied()).unwrap();
//! assert!(rect.contains(LatLon::new(38.890, -77.040)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod latlon;
mod rect;
pub mod polyline;
pub mod region;

pub use latlon::{LatLon, LocalProjection, EARTH_RADIUS_M};
pub use rect::{average_pairwise_iou, BoundingBox};
pub use region::{RegionId, RegionIndex};

/// Errors produced by geometric operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeoError {
    /// An operation that requires at least one point received none.
    EmptyTrajectory,
    /// A coordinate was outside the valid latitude/longitude domain.
    InvalidCoordinate {
        /// The offending latitude in degrees.
        lat: String,
        /// The offending longitude in degrees.
        lon: String,
    },
    /// An encoded polyline contained a truncated or malformed chunk.
    MalformedPolyline {
        /// Byte offset at which decoding failed.
        offset: usize,
    },
}

impl std::fmt::Display for GeoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoError::EmptyTrajectory => write!(f, "trajectory contains no points"),
            GeoError::InvalidCoordinate { lat, lon } => {
                write!(f, "coordinate ({lat}, {lon}) is outside the valid domain")
            }
            GeoError::MalformedPolyline { offset } => {
                write!(f, "malformed polyline at byte offset {offset}")
            }
        }
    }
}

impl std::error::Error for GeoError {}
