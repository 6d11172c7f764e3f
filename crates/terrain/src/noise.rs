//! Seeded, deterministic value noise.
//!
//! A small fractal-Brownian-motion (fBm) value-noise implementation used
//! as the stochastic backbone of the synthetic terrain. Everything is a
//! pure function of `(x, y, seed)` — no global state — so any experiment
//! seeded identically regenerates byte-identical elevation profiles.

/// SplitMix64 finalizer: a high-quality 64-bit avalanche hash.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes an integer lattice point to a value uniform in `[-1, 1]`.
#[inline]
fn lattice(ix: i64, iy: i64, seed: u64) -> f64 {
    let h = splitmix64(
        (ix as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((iy as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(seed),
    );
    // Map the top 53 bits to [0,1), then to [-1,1].
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Quintic smoothstep (Perlin's fade curve): C2-continuous interpolation.
#[inline]
fn fade(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

#[inline]
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// The lattice cell a coordinate falls in, and its fade weight
/// within the cell.
#[inline]
fn cell_of(x: f64) -> (i64, f64) {
    let x0 = x.floor();
    (x0 as i64, fade(x - x0))
}

/// The hashed lattice values at the four corners of cell `(ix, iy)`:
/// `[v00, v10, v01, v11]`.
#[inline]
fn corners(ix: i64, iy: i64, seed: u64) -> [f64; 4] {
    [
        lattice(ix, iy, seed),
        lattice(ix + 1, iy, seed),
        lattice(ix, iy + 1, seed),
        lattice(ix + 1, iy + 1, seed),
    ]
}

#[inline]
fn interpolate([v00, v10, v01, v11]: [f64; 4], tx: f64, ty: f64) -> f64 {
    lerp(lerp(v00, v10, tx), lerp(v01, v11, tx), ty)
}

/// Single-octave value noise at `(x, y)`, in `[-1, 1]`.
///
/// Bilinear interpolation of hashed lattice values with a quintic fade,
/// giving smooth, band-limited terrain-like variation with wavelength ~1.
///
/// # Examples
///
/// ```
/// let a = terrain::noise::value_noise(1.5, 2.5, 7);
/// let b = terrain::noise::value_noise(1.5, 2.5, 7);
/// assert_eq!(a, b); // deterministic
/// assert!((-1.0..=1.0).contains(&a));
/// ```
pub fn value_noise(x: f64, y: f64, seed: u64) -> f64 {
    let (ix, tx) = cell_of(x);
    let (iy, ty) = cell_of(y);
    interpolate(corners(ix, iy, seed), tx, ty)
}

/// [`value_noise`] for a caller that samples many nearby points: each
/// slot (one per noise octave) keeps the corners of the last lattice
/// cell it hashed, so consecutive points in the same cell hash nothing.
/// Slots grow on demand, so any octave count works. The result equals
/// [`value_noise`]'s bit for bit: the corners are a pure function of
/// `(cell, seed)`, and the interpolation is the same.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellMemo {
    slots: Vec<Option<Cell>>,
}

/// A lattice cell `(ix, iy)` of the noise seeded `seed`, with its
/// [`corners`].
#[derive(Debug, Clone, Copy)]
struct Cell {
    key: (i64, i64, u64),
    corners: [f64; 4],
}

impl CellMemo {
    /// [`value_noise`]`(x, y, seed)` through slot `slot`.
    #[inline]
    pub(crate) fn noise(&mut self, slot: usize, x: f64, y: f64, seed: u64) -> f64 {
        let (ix, tx) = cell_of(x);
        let (iy, ty) = cell_of(y);
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        let key = (ix, iy, seed);
        let corners = match self.slots[slot] {
            Some(cell) if cell.key == key => cell.corners,
            _ => {
                let corners = corners(ix, iy, seed);
                self.slots[slot] = Some(Cell { key, corners });
                corners
            }
        };
        interpolate(corners, tx, ty)
    }
}

/// Multi-octave fractal Brownian motion over [`value_noise`].
///
/// Each successive octave doubles frequency and multiplies amplitude by
/// `gain`. The result is normalized back to roughly `[-1, 1]`.
///
/// # Panics
///
/// Panics if `octaves` is zero.
pub fn fbm(x: f64, y: f64, seed: u64, octaves: u32, gain: f64) -> f64 {
    fbm_with(x, y, seed, octaves, gain, |_, x, y, s| value_noise(x, y, s))
}

/// [`fbm`] over `noise(octave, x, y, seed)`, which must equal
/// [`value_noise`]`(x, y, seed)`.
pub(crate) fn fbm_with(
    x: f64,
    y: f64,
    seed: u64,
    octaves: u32,
    gain: f64,
    mut noise: impl FnMut(usize, f64, f64, u64) -> f64,
) -> f64 {
    assert!(octaves > 0, "fbm requires at least one octave");
    let mut sum = 0.0;
    let mut amp = 1.0;
    let mut freq = 1.0;
    let mut norm = 0.0;
    for o in 0..octaves {
        sum += amp * noise(o as usize, x * freq, y * freq, seed.wrapping_add(o as u64));
        norm += amp;
        amp *= gain;
        freq *= 2.0;
    }
    sum / norm
}

/// Ridged fBm: `1 - |fbm|` per octave, producing sharp hill crests.
///
/// Used for rugged cities (San Francisco, Duluth, Colorado Springs)
/// whose elevation profiles show the jagged texture the CNN keys on.
///
/// # Panics
///
/// Panics if `octaves` is zero.
pub fn ridged(x: f64, y: f64, seed: u64, octaves: u32, gain: f64) -> f64 {
    ridged_with(x, y, seed, octaves, gain, |_, x, y, s| value_noise(x, y, s))
}

/// [`ridged`] over `noise(octave, x, y, seed)`, which must equal
/// [`value_noise`]`(x, y, seed)`.
pub(crate) fn ridged_with(
    x: f64,
    y: f64,
    seed: u64,
    octaves: u32,
    gain: f64,
    mut noise: impl FnMut(usize, f64, f64, u64) -> f64,
) -> f64 {
    assert!(octaves > 0, "ridged requires at least one octave");
    let mut sum = 0.0;
    let mut amp = 1.0;
    let mut freq = 1.0;
    let mut norm = 0.0;
    for o in 0..octaves {
        let n = noise(o as usize, x * freq, y * freq, seed.wrapping_add(0x5D0_u64 + o as u64));
        sum += amp * (1.0 - n.abs());
        norm += amp;
        amp *= gain;
        freq *= 2.0;
    }
    // (sum/norm) is in [0,1]; recenter to [-1,1].
    (sum / norm) * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic() {
        for &(x, y, s) in &[(0.3, 0.7, 1u64), (12.5, -4.25, 99), (-3.0, -3.0, 7)] {
            assert_eq!(value_noise(x, y, s), value_noise(x, y, s));
        }
    }

    #[test]
    fn noise_depends_on_seed() {
        let a = value_noise(1.25, 2.75, 1);
        let b = value_noise(1.25, 2.75, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn noise_is_bounded() {
        for i in 0..500 {
            let x = (i as f64) * 0.137 - 30.0;
            let y = (i as f64) * 0.291 - 70.0;
            let v = value_noise(x, y, 42);
            assert!((-1.0..=1.0).contains(&v), "noise {v} out of range at ({x},{y})");
        }
    }

    #[test]
    fn noise_equals_lattice_at_integers() {
        let v = value_noise(5.0, -3.0, 11);
        let w = value_noise(5.0 + 1e-12, -3.0 + 1e-12, 11);
        assert!((v - w).abs() < 1e-9);
    }

    #[test]
    fn noise_is_continuous() {
        // Adjacent samples differ by a small amount (no lattice seams).
        let mut prev = value_noise(0.0, 0.5, 3);
        for i in 1..=400 {
            let x = i as f64 * 0.01;
            let v = value_noise(x, 0.5, 3);
            assert!((v - prev).abs() < 0.1, "jump at x={x}");
            prev = v;
        }
    }

    #[test]
    fn fbm_is_bounded_and_deterministic() {
        for i in 0..200 {
            let x = i as f64 * 0.31;
            let v = fbm(x, -x, 5, 4, 0.5);
            assert!((-1.0..=1.0).contains(&v));
            assert_eq!(v, fbm(x, -x, 5, 4, 0.5));
        }
    }

    #[test]
    fn ridged_is_bounded() {
        for i in 0..200 {
            let x = i as f64 * 0.17;
            let v = ridged(x, x * 0.5, 9, 4, 0.5);
            assert!((-1.0..=1.0).contains(&v), "ridged {v} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "at least one octave")]
    fn fbm_rejects_zero_octaves() {
        fbm(0.0, 0.0, 0, 0, 0.5);
    }
}
