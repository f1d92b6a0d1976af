//! Tiny content digests for artifact fingerprinting.
//!
//! Profiles, diagnostic bundles and `aovd` requests carry a digest of
//! the program (and profiles one of their flame table) so two artifacts
//! can be told apart or matched up. FNV-1a is enough for that — the
//! digests guard against accidental drift, not adversaries.

/// 64-bit FNV-1a hash of `bytes`.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// [`fnv1a_64`] rendered as a fixed-width hex string (the form stored in
/// artifacts).
#[must_use]
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"").len(), 16);
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(fnv1a_64(b"fig05 v=(1,2)"), fnv1a_64(b"fig05 v=(0,3)"));
    }
}
