//! GPX 1.1 reading and writing.
//!
//! The paper converts every collected activity "to our intermediate
//! format, the GPS Exchange Format (GPX)" before labelling and feature
//! extraction. This crate implements that intermediate format from
//! scratch: a borrowing XML tokenizer sized for the GPX subset
//! ([`stream::StreamReader`], with its errors and entity codec in
//! [`xml`]), the [`Gpx`]/[`Track`]/[`TrackPoint`] document model built
//! over it, the flat point walk the ingestion pipeline runs
//! ([`stream::PointBuf`]), a writer, and the trajectory/elevation-profile
//! extraction the pipeline consumes.
//!
//! # Examples
//!
//! ```
//! use gpxfile::{Gpx, Track, TrackPoint, TrackSegment};
//! use geoprim::LatLon;
//!
//! let mut gpx = Gpx::new("elevation-privacy");
//! gpx.tracks.push(Track {
//!     name: Some("morning run".into()),
//!     segments: vec![TrackSegment {
//!         points: vec![
//!             TrackPoint::with_elevation(LatLon::new(38.89, -77.05), 21.5),
//!             TrackPoint::with_elevation(LatLon::new(38.90, -77.04), 23.0),
//!         ],
//!     }],
//! });
//! let text = gpx.to_xml();
//! let parsed = Gpx::parse(&text)?;
//! assert_eq!(parsed.trajectory().len(), 2);
//! assert_eq!(parsed.elevation_profile(), vec![21.5, 23.0]);
//! # Ok::<(), gpxfile::GpxError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stream;
pub mod xml;

mod model;
mod parser;
mod writer;

pub use model::{Gpx, Track, TrackPoint, TrackSegment};

/// Errors produced while parsing GPX documents.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GpxError {
    /// The underlying XML was malformed.
    Xml(xml::XmlError),
    /// A `<trkpt>` was missing its `lat`/`lon` attributes or they failed
    /// to parse as finite numbers.
    BadTrackPoint {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// The document's root element was not `<gpx>`.
    NotGpx,
    /// The input bytes were not valid UTF-8 (mangled exports, partial
    /// downloads). Only produced by [`Gpx::parse_bytes`].
    InvalidUtf8 {
        /// Byte offset where decoding failed.
        offset: usize,
    },
}

impl std::fmt::Display for GpxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpxError::Xml(e) => write!(f, "malformed xml: {e}"),
            GpxError::BadTrackPoint { reason } => write!(f, "bad trkpt: {reason}"),
            GpxError::NotGpx => write!(f, "root element is not <gpx>"),
            GpxError::InvalidUtf8 { offset } => {
                write!(f, "invalid utf-8 at byte {offset}")
            }
        }
    }
}

impl std::error::Error for GpxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GpxError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<xml::XmlError> for GpxError {
    fn from(e: xml::XmlError) -> Self {
        GpxError::Xml(e)
    }
}
