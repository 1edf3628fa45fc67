//! 64-bit FNV-1a, the workspace's one non-cryptographic byte hasher:
//! estimator-cache fingerprints, `.idx` snapshot checksums and the serve
//! profiled-bandwidth key all go through [`Fnv1a`].
//!
//! Multi-byte words are fed as fixed-width little-endian bytes, so a
//! hash is the same on every platform.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a-64 hash in progress.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(OFFSET_BASIS)
    }
}

impl Fnv1a {
    /// A fresh hash (the FNV offset basis).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Feeds one word as 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv1a::new();
        split.write(b"fo");
        split.write(b"o");
        assert_eq!(split.finish(), fnv1a64(b"foo"));
    }
}
