//! The batch sampler equals the per-point reference bit for bit.
//!
//! `ElevationModel::elevations` on `SyntheticTerrain` reuses per-city
//! constants derived at construction and, per noise octave, the lattice
//! cell it hashed last; `components_at` recomputes everything per point.
//! Every sampled elevation must be the reference's, to the bit, for
//! 10 m paths that start inside, on the border of and outside every
//! city box, that cross into negative lattice cells, and over a catalog
//! with more octaves than any standard city.

use geoprim::LatLon;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use terrain::{Catalog, CityId, ElevationModel, SyntheticTerrain};

/// The per-point reference: `components_at`, clamped and quantized as
/// the model documents.
fn reference(t: &SyntheticTerrain, p: LatLon) -> f64 {
    let (base, regional, hills) = t.components_at(p);
    ((base + regional + hills).max(0.0) * 100.0).round() / 100.0
}

/// `n` points 10 m apart from `start`, turning by `turn` radians a step.
fn walk(start: LatLon, heading: f64, turn: f64, n: usize) -> Vec<LatLon> {
    let mut path = vec![start];
    let mut h = heading;
    while path.len() < n {
        let last = *path.last().expect("non-empty");
        path.push(last.offset_m(10.0 * h.cos(), 10.0 * h.sin()));
        h += turn;
    }
    path
}

fn check(t: &SyntheticTerrain, path: &[LatLon]) -> Result<(), TestCaseError> {
    let batch = t.elevations(path);
    prop_assert_eq!(batch.len(), path.len());
    for (p, e) in path.iter().zip(&batch) {
        let (want, one) = (reference(t, *p), t.elevation_at(*p));
        prop_assert_eq!(e.to_bits(), want.to_bits(), "batch {e} != reference {want} at {p}");
        prop_assert_eq!(one.to_bits(), want.to_bits(), "point {one} != reference {want} at {p}");
    }
    Ok(())
}

/// A start point for city box `city`: strictly inside (`mode` 0), on
/// one of its four edges (1), or outside it by up to ~0.3° (2).
fn start_point(catalog: &Catalog, city: usize, mode: u8, u: f64, v: f64) -> LatLon {
    let bbox = catalog.cities()[city].bbox;
    let (sw, ne) = (bbox.south_west(), bbox.north_east());
    let lat = sw.lat + bbox.lat_span() * u;
    let lon = sw.lon + bbox.lon_span() * v;
    match mode {
        0 => LatLon::new(lat, lon),
        1 => match (u * 4.0) as u32 {
            0 => LatLon::new(sw.lat, lon),
            1 => LatLon::new(ne.lat, lon),
            2 => LatLon::new(lat, sw.lon),
            _ => LatLon::new(lat, ne.lon),
        },
        _ => LatLon::new(lat + (u - 0.5) * 0.6 + 0.3f64.copysign(u - 0.5), lon),
    }
}

/// The standard catalog with every city's octave count set to `octaves`.
fn catalog_with_octaves(octaves: u32) -> Catalog {
    let mut json = serde_json::to_string(&Catalog::standard()).expect("serialize");
    for standard in 1..=9 {
        let (from, to) = (format!("\"octaves\":{standard},"), format!("\"octaves\":{octaves},"));
        json = json.replace(&from, &to);
    }
    let catalog: Catalog = serde_json::from_str(&json).expect("deserialize");
    let rewritten = catalog.cities().iter().all(|c| c.signature.octaves == octaves);
    assert!(rewritten, "the rewrite missed a city");
    catalog
}

#[test]
fn paths_from_every_box_corner_edge_and_outside_match_the_reference() {
    let t = SyntheticTerrain::new(42);
    for (i, city) in t.catalog().cities().iter().enumerate() {
        let (sw, ne) = (city.bbox.south_west(), city.bbox.north_east());
        let starts = [
            sw,
            ne,
            city.bbox.center(),
            LatLon::new(sw.lat, city.bbox.center().lon),
            LatLon::new(city.bbox.center().lat, ne.lon),
            LatLon::new(sw.lat - 0.05, sw.lon - 0.05),
            LatLon::new(ne.lat + 0.2, ne.lon + 0.2),
        ];
        for (j, start) in starts.into_iter().enumerate() {
            // Outward, inward and along the box: the south-west walks
            // run through negative lattice cells of every octave.
            for heading in [0.3, 2.0, 3.6, 5.1] {
                let path = walk(start, heading, 0.004 * (i + j) as f64, 400);
                check(&t, &path).unwrap_or_else(|e| panic!("{}: start {j}: {e}", city.id));
            }
        }
    }
}

#[test]
fn more_octaves_than_any_standard_city_match_the_reference() {
    let deepest = Catalog::standard().cities().iter().map(|c| c.signature.octaves).max();
    assert_eq!(deepest, Some(5));
    for octaves in [1, 9, 14] {
        let t = SyntheticTerrain::with_catalog(7, catalog_with_octaves(octaves));
        for id in [CityId::SanFrancisco, CityId::Miami, CityId::Duluth] {
            let start = t.catalog().city(id).bbox.center();
            check(&t, &walk(start, 1.0, 0.01, 300)).unwrap_or_else(|e| panic!("{id}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_equals_reference(
        seed in 0u64..1_000,
        city in 0usize..12,
        mode in 0u8..3,
        (u, v) in (0.0f64..1.0, 0.0f64..1.0),
        (heading, turn) in (0.0f64..6.3, -0.05f64..0.05),
        n in 1usize..300,
        octaves in 1u32..12,
    ) {
        let standard = SyntheticTerrain::new(seed);
        let start = start_point(standard.catalog(), city, mode, u, v);
        let path = walk(start, heading, turn, n);
        check(&standard, &path)?;
        check(&SyntheticTerrain::with_catalog(seed, catalog_with_octaves(octaves)), &path)?;
    }
}
