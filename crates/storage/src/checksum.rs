//! Content checksums for intermediate objects (xxhash-style 64-bit).
//!
//! Every blob the [`ObjectStore`] holds is fingerprinted on `put` and
//! re-verified on `get`, so silent corruption of an intermediate partition
//! surfaces as a typed [`StoreError::Corrupted`] instead of propagating
//! garbage rows downstream. The hash is the XXH64 mixing schedule (prime
//! multiply-rotate lanes over 32-byte stripes) implemented in-tree — the
//! workspace is offline and carries no hashing crate.
//!
//! [`ObjectStore`]: crate::object_store::ObjectStore
//! [`StoreError::Corrupted`]: crate::object_store::StoreError::Corrupted

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D27D4EB4F;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

#[inline]
fn read_u32(b: &[u8]) -> u64 {
    u32::from_le_bytes(b[..4].try_into().unwrap()) as u64
}

/// 64-bit checksum of `data` under the given `seed`.
pub fn checksum64(data: &[u8], seed: u64) -> u64 {
    let len = data.len() as u64;
    let mut rest = data;
    let mut h: u64 = if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64(&rest[0..]));
            v2 = round(v2, read_u64(&rest[8..]));
            v3 = round(v3, read_u64(&rest[16..]));
            v4 = round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        merge_round(h, v4)
    } else {
        seed.wrapping_add(PRIME64_5)
    };
    h = h.wrapping_add(len);
    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ read_u32(rest).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// Default store seed: objects are fingerprinted unsalted.
pub(crate) const STORE_SEED: u64 = 0;

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors from the canonical XXH64 implementation.
    #[test]
    fn known_vectors() {
        assert_eq!(checksum64(b"", 0), 0xEF46DB3751D8E999);
        assert_eq!(checksum64(b"a", 0), 0xD24EC4F1A98C6E5B);
        assert_eq!(checksum64(b"abc", 0), 0x44BC2CF5AD770999);
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(checksum64(b"abc", 0), checksum64(b"abc", 1));
    }

    #[test]
    fn stripe_boundaries() {
        // Cross the 32-byte stripe and 8/4/1-byte tail paths.
        for n in [0usize, 1, 3, 4, 7, 8, 31, 32, 33, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            let h1 = checksum64(&data, 7);
            let h2 = checksum64(&data, 7);
            assert_eq!(h1, h2);
            if n > 0 {
                let mut flipped = data.clone();
                flipped[n / 2] ^= 0x01;
                assert_ne!(checksum64(&flipped, 7), h1, "len {n}");
            }
        }
    }
}
