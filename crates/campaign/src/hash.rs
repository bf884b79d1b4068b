//! Hash primitives for the campaign layer: FNV-1a for content addresses
//! and CRC-32 (IEEE) for the frame codec ([`crate::frame`]).
//!
//! Both are implemented locally: the build environment has no crates
//! registry, and the campaign formats need hashes that are *stable across
//! builds and platforms* — `std::hash::Hasher` makes no such promise.

/// 64-bit FNV-1a over a byte slice. Stable, endian-independent, and fast
/// enough for the short identity strings the cache hashes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a, for hashing a structured identity without building
/// an intermediate string.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold a `u64` (little-endian) plus a domain-separating tag byte, so
    /// adjacent numeric fields cannot alias by concatenation.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&[0xfe]).update(&v.to_le_bytes())
    }

    /// Fold a length-prefixed string (prefix prevents `"ab","c"` from
    /// colliding with `"a","bc"`).
    pub fn update_str(&mut self, s: &str) -> &mut Self {
        self.update_u64(s.len() as u64).update(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup
/// tables for slicing-by-8, built at compile time: `CRC_TABLES[0]` is the
/// classic byte table, and `CRC_TABLES[k]` advances a byte through `k`
/// further zero bytes, so eight bytes fold in with eight independent
/// lookups instead of a chain of eight.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of a byte slice — the checksum in every campaign
/// frame ([`crate::frame`]), guarding pipe, socket, journal and cache
/// bytes against torn writes and bit rot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes(chunk[..4].try_into().unwrap());
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        let byte = |w: u32, shift: u32| ((w >> shift) & 0xFF) as usize;
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A flipped bit changes the checksum.
        assert_ne!(crc32(b"123456789"), crc32(b"123456788"));
        // Slicing-by-8 agrees with the byte-at-a-time definition at every
        // length and alignment of the tail.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..bytes.len() {
            let mut c: u32 = 0xFFFF_FFFF;
            for &b in &bytes[..len] {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(&bytes[..len]), c ^ 0xFFFF_FFFF, "len {len}");
        }
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.update(b"abc");
        assert_eq!(h.finish(), fnv1a64(b"abc"));
    }

    #[test]
    fn fnv_structured_fields_do_not_alias() {
        let mut a = Fnv1a::new();
        a.update_str("ab").update_str("c");
        let mut b = Fnv1a::new();
        b.update_str("a").update_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv1a::new();
        c.update_u64(1).update_u64(2);
        let mut d = Fnv1a::new();
        d.update_u64(2).update_u64(1);
        assert_ne!(c.finish(), d.finish());
    }
}
