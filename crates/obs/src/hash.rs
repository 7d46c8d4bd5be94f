//! Stable 64-bit FNV-1a hashing for configuration fingerprints.
//!
//! `std::hash` makes no cross-version stability promise, and registry
//! rows are compared across commits — so configuration hashes go through
//! this fixed, dependency-free FNV-1a implementation instead. The hash is
//! a *fingerprint* (collision-unlikely identity for registry series
//! keys), not a cryptographic commitment.

/// FNV-1a offset basis (64-bit).
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// `PRIME_POW[k]` is `PRIME^k`: folding `k` zero bytes is that multiply.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// An incremental FNV-1a 64-bit hasher with helpers for the primitive
/// shapes configuration structs are made of.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self(OFFSET)
    }

    /// Fold raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Fold a `u64` (little-endian bytes). A zero byte's xor is a no-op,
    /// so the high zero bytes of a small value (cell coordinates, lengths)
    /// fold as one multiply by a power of the prime — the same value as
    /// folding them one by one, at a fraction of the dependent multiplies.
    pub fn u64(self, v: u64) -> Self {
        let low = 8 - v.leading_zeros() as usize / 8;
        let mut out = self.bytes(&v.to_le_bytes()[..low]);
        out.0 = out.0.wrapping_mul(PRIME_POW[8 - low]);
        out
    }

    /// Fold a `usize` (widened — the fingerprint must not depend on the
    /// host's pointer width).
    pub fn usize(self, v: usize) -> Self {
        self.u64(v as u64)
    }

    /// Fold an `f64` through its IEEE-754 bits (configuration floats are
    /// exact values like 0.5 or 4.0; bit identity is the right equality).
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Fold a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// fingerprint differently.
    pub fn str(self, s: &str) -> Self {
        self.usize(s.len()).bytes(s.as_bytes())
    }

    /// The finished fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Render a fingerprint as the fixed-width lower-hex form used in
/// journal/registry provenance columns.
pub fn hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(Fnv64::new().finish(), OFFSET);
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn u64_equals_folding_every_byte() {
        let values = (0..64)
            .flat_map(|s| [1u64 << s, (1u64 << s) - 1, 0x9e37_79b9_7f4a_7c15 >> s])
            .chain([0, u64::MAX, 31 << 16 | 7, 4.0f64.to_bits()]);
        for v in values {
            let prefix = Fnv64::new().str("cell");
            assert_eq!(
                prefix.u64(v).finish(),
                prefix.bytes(&v.to_le_bytes()).finish(),
                "{v:#x}"
            );
        }
    }

    #[test]
    fn length_prefix_separates_field_boundaries() {
        let ab_c = Fnv64::new().str("ab").str("c").finish();
        let a_bc = Fnv64::new().str("a").str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(hex(0xab), "00000000000000ab");
        assert_eq!(hex(u64::MAX).len(), 16);
    }
}
