//! Content digests for pipeline artifacts.
//!
//! FNV-1a 64-bit over a canonical byte encoding: every artifact the
//! golden registry pins, and every population shard and configuration
//! `routegen` fingerprints, is reduced to a stream of length-prefixed
//! fields (floats by their IEEE-754 bit patterns, never by display
//! formatting), so two artifacts collide only if they are
//! bit-identical field for field. The hash itself is [`crate::fnv1a64`],
//! the same checksum every on-disk container uses.

/// Incremental FNV-1a 64-bit hasher over canonical field encodings.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
}

impl Digest {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: crate::FNV1A64_INIT }
    }

    /// Absorbs raw bytes (no length prefix; use the typed writers for
    /// self-delimiting fields).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.state = crate::fnv1a64_continue(self.state, bytes);
        self
    }

    /// Absorbs a length-prefixed byte field.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.u64(bytes.len() as u64).raw(bytes)
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Absorbs a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Absorbs an `f64` by bit pattern (distinguishes -0.0 and every
    /// NaN payload — exactly what bit-stability pinning wants).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Absorbs an `f32` by bit pattern.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.raw(&v.to_bits().to_le_bytes())
    }

    /// Absorbs a length-prefixed UTF-8 string field.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Absorbs a whole `f64` slice, length-prefixed.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
        self
    }

    /// Absorbs a whole `f32` slice, length-prefixed.
    pub fn f32s(&mut self, vs: &[f32]) -> &mut Self {
        self.usize(vs.len());
        for &v in vs {
            self.f32(v);
        }
        self
    }

    /// The final 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c; `raw` is the unprefixed
        // primitive, so the reference vectors apply to it directly.
        assert_eq!(Digest::new().raw(b"a").finish(), 0xaf63dc4c8601ec8c);
        assert_eq!(Digest::new().raw(b"foobar").finish(), 0x85944171f73967e8);
    }

    #[test]
    fn fields_are_self_delimiting() {
        // ("ab", "c") must not collide with ("a", "bc").
        let d1 = Digest::new().str("ab").str("c").finish();
        let d2 = Digest::new().str("a").str("bc").finish();
        assert_ne!(d1, d2);
    }

    #[test]
    fn float_bits_not_display() {
        let zero = Digest::new().f64(0.0).finish();
        let negzero = Digest::new().f64(-0.0).finish();
        assert_ne!(zero, negzero);
        // NaN still hashes deterministically.
        assert_eq!(
            Digest::new().f64(f64::NAN).finish(),
            Digest::new().f64(f64::NAN).finish()
        );
    }

    #[test]
    fn digest_is_stable() {
        let mut d = Digest::new();
        d.u64(7).f64s(&[1.5, -2.25]).str("stage");
        assert_eq!(d.finish(), {
            let mut e = Digest::new();
            e.u64(7).f64s(&[1.5, -2.25]).str("stage");
            e.finish()
        });
    }
}
