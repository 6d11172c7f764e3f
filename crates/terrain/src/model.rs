//! The synthetic terrain model.

use crate::catalog::{Catalog, City, CityId};
use crate::noise::{fbm, fbm_with, ridged, ridged_with, value_noise, CellMemo};
use geoprim::{LatLon, LocalProjection};

/// Anything that maps coordinates to elevations in metres.
///
/// This is the seam between the attack pipeline and its elevation source:
/// the paper used the Google Maps Elevation API, this reproduction uses
/// [`SyntheticTerrain`], and a downstream user could plug in a DEM.
pub trait ElevationModel {
    /// Elevation in metres above sea level at `p`.
    fn elevation_at(&self, p: LatLon) -> f64;

    /// Batch lookup; the default maps [`ElevationModel::elevation_at`]
    /// over the slice.
    fn elevations(&self, points: &[LatLon]) -> Vec<f64> {
        points.iter().map(|p| self.elevation_at(*p)).collect()
    }
}

impl<T: ElevationModel + ?Sized> ElevationModel for &T {
    fn elevation_at(&self, p: LatLon) -> f64 {
        (**self).elevation_at(p)
    }

    fn elevations(&self, points: &[LatLon]) -> Vec<f64> {
        (**self).elevations(points)
    }
}

/// Deterministic procedural terrain over the standard [`Catalog`].
///
/// Elevation at a point is computed from the signature of the containing
/// (or nearest) city as
///
/// ```text
/// base + regional·noise(p / λ_regional) + relief·fbm(p / λ_hill)
/// ```
///
/// clamped at sea level. All noise is a pure function of the
/// construction seed, so two `SyntheticTerrain::new(s)` instances agree
/// everywhere.
///
/// Construction derives each city's constants once, its metre
/// projection and noise seed, and the cities' order by box area, in
/// which the first box containing a point is its city. A batch call
/// ([`ElevationModel::elevations`], one per generated activity) also
/// keeps, per noise octave, the four lattice corners of the last cell
/// it hashed. Route points are 10 m apart, and even the finest hill
/// octave is ~90 m wide, so consecutive points mostly share every cell
/// and hash nothing. [`elevation_at`](ElevationModel::elevation_at) is
/// the one-point case of the same sampler, and
/// [`components_at`](Self::components_at) recomputes everything per
/// point: the reference the sampler equals bit for bit.
///
/// # Examples
///
/// ```
/// use terrain::{ElevationModel, SyntheticTerrain};
/// use geoprim::LatLon;
///
/// let t = SyntheticTerrain::new(7);
/// let p = LatLon::new(37.76, -122.45); // San Francisco
/// assert_eq!(t.elevation_at(p), SyntheticTerrain::new(7).elevation_at(p));
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTerrain {
    seed: u64,
    catalog: Catalog,
    /// Per-city constants, parallel to `catalog.cities()`.
    cities: Vec<CityConstants>,
    /// Indices into `catalog.cities()`, smallest box first, ties in
    /// catalog order.
    by_area: Vec<usize>,
}

/// What [`SyntheticTerrain`] would otherwise recompute for a city at
/// every point.
#[derive(Debug, Clone)]
struct CityConstants {
    projection: LocalProjection,
    seed: u64,
}

impl SyntheticTerrain {
    /// Creates terrain over [`Catalog::standard`] with the given seed.
    pub fn new(seed: u64) -> Self {
        Self::with_catalog(seed, Catalog::standard())
    }

    /// Creates terrain over a custom catalog.
    pub fn with_catalog(seed: u64, catalog: Catalog) -> Self {
        let all = catalog.cities();
        let cities = (all.iter())
            .map(|c| CityConstants {
                projection: LocalProjection::new(c.bbox.center()),
                seed: city_seed(seed, c.id),
            })
            .collect();
        let mut by_area: Vec<usize> = (0..all.len()).collect();
        by_area.sort_by(|&a, &b| all[a].bbox.area_deg2().total_cmp(&all[b].bbox.area_deg2()));
        Self { seed, catalog, cities, by_area }
    }

    /// The seed this terrain was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The city/borough catalog backing this terrain.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn city_for(&self, p: LatLon) -> &City {
        self.catalog.city_at(p).unwrap_or_else(|| self.catalog.nearest_city(p))
    }

    /// Index of [`city_for`](Self::city_for)'s city. `by_area` lists
    /// the cities smallest box first, ties in catalog order, so the
    /// first box in it containing `p` is the smallest one, the first
    /// of equals winning as in `Iterator::min_by`. A point outside
    /// every box (rare: routes wander past a boundary) takes the
    /// nearest box centre, as [`Catalog::nearest_city`] does.
    fn city_index(&self, p: LatLon) -> usize {
        let cities = self.catalog.cities();
        let inside = self.by_area.iter().copied().find(|&i| cities[i].bbox.contains(p));
        inside.unwrap_or_else(|| {
            let distance = |i: usize| p.degree_distance(cities[i].bbox.center());
            (0..cities.len())
                .min_by(|&a, &b| distance(a).total_cmp(&distance(b)))
                .expect("catalog is non-empty")
        })
    }

    /// Elevation decomposed into `(base, regional, hills)` components;
    /// useful for tests and for the ablation benches. Recomputes every
    /// per-city constant and noise cell, so it is the reference
    /// [`ElevationModel`]'s sampler must equal.
    pub fn components_at(&self, p: LatLon) -> (f64, f64, f64) {
        let city = self.city_for(p);
        let s = &city.signature;
        let proj = LocalProjection::new(city.bbox.center());
        let (x, y) = proj.to_meters(p);
        let cseed = city_seed(self.seed, city.id);

        let regional = s.regional_relief_m
            * value_noise(
                x / s.regional_wavelength_m,
                y / s.regional_wavelength_m,
                cseed.wrapping_add(0x00A1_1CE5),
            );
        let hills = if s.ridged {
            s.relief_m
                * 0.5
                * ridged(x / s.hill_wavelength_m, y / s.hill_wavelength_m, cseed, s.octaves, s.gain)
        } else {
            s.relief_m
                * 0.5
                * fbm(x / s.hill_wavelength_m, y / s.hill_wavelength_m, cseed, s.octaves, s.gain)
        };
        (s.base_m, regional, hills)
    }

    /// The elevation at `p`: [`components_at`](Self::components_at)
    /// over the constants derived at construction, with noise slot 0
    /// the regional octave and slot `1 + o` hill octave `o`.
    fn sample(&self, p: LatLon, memo: &mut CellMemo) -> f64 {
        let i = self.city_index(p);
        let (s, k) = (&self.catalog.cities()[i].signature, &self.cities[i]);
        let (x, y) = k.projection.to_meters(p);

        let regional = s.regional_relief_m
            * memo.noise(
                0,
                x / s.regional_wavelength_m,
                y / s.regional_wavelength_m,
                k.seed.wrapping_add(0x00A1_1CE5),
            );
        let (hx, hy) = (x / s.hill_wavelength_m, y / s.hill_wavelength_m);
        let octave = |o: usize, x, y, seed| memo.noise(1 + o, x, y, seed);
        let hills = if s.ridged {
            s.relief_m * 0.5 * ridged_with(hx, hy, k.seed, s.octaves, s.gain, octave)
        } else {
            s.relief_m * 0.5 * fbm_with(hx, hy, k.seed, s.octaves, s.gain, octave)
        };
        quantize(s.base_m + regional + hills)
    }
}

/// Stable per-city sub-seed: mix the city's position in
/// [`CityId::ALL`] into the terrain seed.
fn city_seed(seed: u64, id: CityId) -> u64 {
    let idx = CityId::ALL.iter().position(|c| *c == id).unwrap_or(0) as u64;
    seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x1234_5678)
}

/// Clamps at sea level and quantizes to 1 cm, like a real elevation
/// service interpolating a finite-resolution DEM: discrete elevation
/// values *repeat*, which the paper's text encoding (unique-value
/// codebook + n-gram frequencies) implicitly relies on.
fn quantize(elevation: f64) -> f64 {
    (elevation.max(0.0) * 100.0).round() / 100.0
}

impl ElevationModel for SyntheticTerrain {
    fn elevation_at(&self, p: LatLon) -> f64 {
        self.sample(p, &mut CellMemo::default())
    }

    fn elevations(&self, points: &[LatLon]) -> Vec<f64> {
        let mut memo = CellMemo::default();
        points.iter().map(|&p| self.sample(p, &mut memo)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::BoroughId;

    fn sample_city(t: &SyntheticTerrain, id: CityId, n: usize) -> Vec<f64> {
        let bbox = t.catalog().city(id).bbox;
        let mut out = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let lat = bbox.south_west().lat + bbox.lat_span() * (i as f64 + 0.5) / n as f64;
                let lon = bbox.south_west().lon + bbox.lon_span() * (j as f64 + 0.5) / n as f64;
                out.push(t.elevation_at(LatLon::new(lat, lon)));
            }
        }
        out
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn terrain_is_deterministic() {
        let a = SyntheticTerrain::new(99);
        let b = SyntheticTerrain::new(99);
        let p = LatLon::new(40.75, -73.98);
        assert_eq!(a.elevation_at(p), b.elevation_at(p));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticTerrain::new(1);
        let b = SyntheticTerrain::new(2);
        let p = LatLon::new(40.75, -73.98);
        assert_ne!(a.elevation_at(p), b.elevation_at(p));
    }

    #[test]
    fn elevation_is_never_below_sea_level() {
        let t = SyntheticTerrain::new(5);
        for v in sample_city(&t, CityId::Miami, 20) {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn city_means_reflect_signatures() {
        let t = SyntheticTerrain::new(11);
        let miami = mean(&sample_city(&t, CityId::Miami, 12));
        let nyc = mean(&sample_city(&t, CityId::NewYorkCity, 12));
        let springs = mean(&sample_city(&t, CityId::ColoradoSprings, 12));
        let duluth = mean(&sample_city(&t, CityId::Duluth, 12));
        assert!(miami < 15.0, "miami mean {miami}");
        assert!(nyc < 80.0 && nyc > 1.0, "nyc mean {nyc}");
        assert!(springs > 1600.0, "springs mean {springs}");
        assert!(duluth > 150.0 && duluth < 450.0, "duluth mean {duluth}");
    }

    #[test]
    fn sf_is_rougher_than_miami() {
        let t = SyntheticTerrain::new(3);
        let var = |v: &[f64]| {
            let m = mean(v);
            v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        let sf = var(&sample_city(&t, CityId::SanFrancisco, 15));
        let mia = var(&sample_city(&t, CityId::Miami, 15));
        assert!(sf > 20.0 * mia, "sf var {sf}, miami var {mia}");
    }

    #[test]
    fn terrain_is_continuous_along_a_path() {
        let t = SyntheticTerrain::new(17);
        let start = LatLon::new(38.90, -77.04);
        let mut prev = t.elevation_at(start);
        for i in 1..200 {
            let p = start.offset_m(i as f64 * 10.0, i as f64 * 5.0);
            let e = t.elevation_at(p);
            assert!((e - prev).abs() < 20.0, "jump of {} m at step {i}", (e - prev).abs());
            prev = e;
        }
    }

    #[test]
    fn components_sum_to_elevation_when_positive() {
        // Up to the 1 cm DEM quantization.
        let t = SyntheticTerrain::new(23);
        let p = LatLon::new(38.85, -104.8);
        let (b, r, h) = t.components_at(p);
        assert!((t.elevation_at(p) - (b + r + h)).abs() <= 0.005 + 1e-9);
    }

    #[test]
    fn elevation_is_quantized_to_centimetres() {
        let t = SyntheticTerrain::new(23);
        for i in 0..50 {
            let p = LatLon::new(37.72 + i as f64 * 0.001, -122.45);
            let v = t.elevation_at(p);
            assert!(((v * 100.0).round() / 100.0 - v).abs() < 1e-9, "{v} not quantized");
        }
    }

    #[test]
    fn boroughs_of_nyc_share_the_city_signature() {
        // Borough samples must stay in the plausible NYC elevation band —
        // the within-city separability comes only from the weak regional
        // octave, not from distinct signatures.
        let t = SyntheticTerrain::new(31);
        for b in BoroughId::of_city(CityId::NewYorkCity) {
            let bbox = t.catalog().borough(b).bbox;
            let e = t.elevation_at(bbox.center());
            assert!((0.0..=120.0).contains(&e), "{b}: {e}");
        }
    }
}
