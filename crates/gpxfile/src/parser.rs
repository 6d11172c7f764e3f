//! GPX parsing on top of the [`crate::stream`] borrowing event reader.
//!
//! `Gpx::parse` is now a thin tree-builder: it drives the zero-copy
//! [`StreamReader`] and only materializes the `String`s the document
//! model actually keeps (creator, track names, timestamps) — element
//! names, attribute scans, and numeric literals never allocate.

use crate::model::{Gpx, Track, TrackPoint, TrackSegment};
use crate::stream::{
    parse_ele, parse_trkpt_coord, path_parent, path_tail, StreamEvent, StreamReader,
};
use crate::xml::decode_entities;
use crate::GpxError;

impl Gpx {
    /// Parses a GPX 1.1 document.
    ///
    /// Unknown elements (extensions, metadata, waypoints, routes) are
    /// skipped, matching how the paper's pipeline only consumes track
    /// points. Namespace prefixes on the recognized element names are
    /// not supported (fitness exports emit unprefixed GPX).
    ///
    /// # Errors
    ///
    /// - [`GpxError::Xml`] for malformed XML,
    /// - [`GpxError::NotGpx`] when the root element is not `<gpx>`,
    /// - [`GpxError::BadTrackPoint`] when a `<trkpt>` lacks valid
    ///   `lat`/`lon` attributes or its `<ele>` is not a number.
    pub fn parse(src: &str) -> Result<Gpx, GpxError> {
        let mut reader = StreamReader::new(src);
        let mut gpx: Option<Gpx> = None;
        // Explicit element path, e.g. ["gpx", "trk", "trkseg", "trkpt"].
        let mut path: Vec<&str> = Vec::new();
        let mut cur_track: Option<Track> = None;
        let mut cur_segment: Option<TrackSegment> = None;
        let mut cur_point: Option<TrackPoint> = None;
        let mut text = String::new();

        while let Some(event) = reader.next_event()? {
            match event {
                StreamEvent::Start { name, attrs } => {
                    if path.is_empty() {
                        if name != "gpx" {
                            return Err(GpxError::NotGpx);
                        }
                        let creator = match attrs.iter().find(|(k, _)| *k == "creator") {
                            Some(&(_, v)) => decode_entities(v)?.into_owned(),
                            None => String::new(),
                        };
                        gpx = Some(Gpx::new(creator));
                    } else {
                        match (path_tail(&path), name) {
                            ("gpx", "trk") => cur_track = Some(Track::default()),
                            ("trk", "trkseg") => cur_segment = Some(TrackSegment::default()),
                            ("trkseg", "trkpt") => {
                                cur_point = Some(TrackPoint::new(parse_trkpt_coord(attrs)?));
                            }
                            _ => {}
                        }
                    }
                    path.push(name);
                    text.clear();
                }
                StreamEvent::Text(t) => {
                    text.push_str(&decode_entities(t)?);
                }
                StreamEvent::End { name } => {
                    match name {
                        "ele" if path_parent(&path) == "trkpt" => {
                            if let Some(p) = cur_point.as_mut() {
                                p.elevation_m = Some(parse_ele(&text)?);
                            }
                        }
                        "time" if path_parent(&path) == "trkpt" => {
                            if let Some(p) = cur_point.as_mut() {
                                p.time = Some(text.trim().to_owned());
                            }
                        }
                        "name" if path_parent(&path) == "trk" => {
                            if let Some(t) = cur_track.as_mut() {
                                t.name = Some(text.trim().to_owned());
                            }
                        }
                        "trkpt" => {
                            if let (Some(seg), Some(p)) = (cur_segment.as_mut(), cur_point.take())
                            {
                                seg.points.push(p);
                            }
                        }
                        "trkseg" => {
                            if let (Some(trk), Some(seg)) = (cur_track.as_mut(), cur_segment.take())
                            {
                                trk.segments.push(seg);
                            }
                        }
                        "trk" => {
                            if let (Some(g), Some(trk)) = (gpx.as_mut(), cur_track.take()) {
                                g.tracks.push(trk);
                            }
                        }
                        _ => {}
                    }
                    path.pop();
                    text.clear();
                }
            }
        }
        gpx.ok_or(GpxError::NotGpx)
    }

    /// Parses a GPX document from raw bytes.
    ///
    /// This is the entry point for untrusted input (uploads, mangled
    /// exports): it validates UTF-8 first instead of assuming a `&str`
    /// already exists.
    ///
    /// # Errors
    ///
    /// [`GpxError::InvalidUtf8`] for undecodable bytes, otherwise
    /// everything [`Gpx::parse`] can return.
    pub fn parse_bytes(src: &[u8]) -> Result<Gpx, GpxError> {
        let text = std::str::from_utf8(src)
            .map_err(|e| GpxError::InvalidUtf8 { offset: e.valid_up_to() })?;
        Gpx::parse(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<gpx version="1.1" creator="unit" xmlns="http://www.topografix.com/GPX/1/1">
  <metadata><name>ignored</name></metadata>
  <trk>
    <name>morning</name>
    <trkseg>
      <trkpt lat="38.89" lon="-77.05"><ele>21.5</ele><time>2020-01-11T08:00:00Z</time></trkpt>
      <trkpt lat="38.90" lon="-77.04"><ele>23.0</ele></trkpt>
      <trkpt lat="38.91" lon="-77.03"/>
    </trkseg>
  </trk>
</gpx>"#;

    #[test]
    fn parses_sample() {
        let g = Gpx::parse(SAMPLE).unwrap();
        assert_eq!(g.creator, "unit");
        assert_eq!(g.tracks.len(), 1);
        assert_eq!(g.tracks[0].name.as_deref(), Some("morning"));
        assert_eq!(g.point_count(), 3);
        assert_eq!(g.elevation_profile(), vec![21.5, 23.0]);
        assert_eq!(
            g.tracks[0].segments[0].points[0].time.as_deref(),
            Some("2020-01-11T08:00:00Z")
        );
    }

    #[test]
    fn metadata_name_does_not_leak_into_track() {
        let g = Gpx::parse(SAMPLE).unwrap();
        assert_eq!(g.tracks[0].name.as_deref(), Some("morning"));
    }

    #[test]
    fn roundtrip_write_then_parse() {
        let g = Gpx::parse(SAMPLE).unwrap();
        let g2 = Gpx::parse(&g.to_xml()).unwrap();
        assert_eq!(g.point_count(), g2.point_count());
        assert_eq!(g.elevation_profile(), g2.elevation_profile());
        for (a, b) in g.trajectory().iter().zip(g2.trajectory()) {
            assert!(a.degree_distance(b) < 1e-6);
        }
    }

    #[test]
    fn rejects_non_gpx_root() {
        assert_eq!(Gpx::parse("<kml></kml>"), Err(GpxError::NotGpx));
    }

    #[test]
    fn rejects_missing_lat() {
        let src = r#"<gpx creator="x"><trk><trkseg><trkpt lon="1"/></trkseg></trk></gpx>"#;
        assert!(matches!(Gpx::parse(src), Err(GpxError::BadTrackPoint { .. })));
    }

    #[test]
    fn rejects_out_of_range_coordinate() {
        let src = r#"<gpx creator="x"><trk><trkseg><trkpt lat="99" lon="1"/></trkseg></trk></gpx>"#;
        assert!(matches!(Gpx::parse(src), Err(GpxError::BadTrackPoint { .. })));
    }

    #[test]
    fn rejects_bad_elevation() {
        let src = r#"<gpx creator="x"><trk><trkseg>
            <trkpt lat="1" lon="1"><ele>tall</ele></trkpt>
        </trkseg></trk></gpx>"#;
        assert!(matches!(Gpx::parse(src), Err(GpxError::BadTrackPoint { .. })));
    }

    #[test]
    fn rejects_malformed_xml() {
        assert!(matches!(Gpx::parse("<gpx><trk>"), Err(GpxError::Xml(_))));
    }

    #[test]
    fn empty_gpx_is_valid() {
        let g = Gpx::parse(r#"<gpx creator="c"></gpx>"#).unwrap();
        assert_eq!(g.creator, "c");
        assert!(g.tracks.is_empty());
    }

    #[test]
    fn skips_unknown_elements() {
        let src = r#"<gpx creator="x"><wpt lat="1" lon="2"><ele>5</ele></wpt>
            <trk><trkseg><trkpt lat="3" lon="4"><ele>7</ele></trkpt></trkseg></trk></gpx>"#;
        let g = Gpx::parse(src).unwrap();
        assert_eq!(g.elevation_profile(), vec![7.0]);
    }

    #[test]
    fn decodes_entities_in_creator() {
        let g = Gpx::parse(r#"<gpx creator="a &amp; b"></gpx>"#).unwrap();
        assert_eq!(g.creator, "a & b");
    }
}
