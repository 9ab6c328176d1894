//! A fast, non-cryptographic hasher for maps keyed by internal ids.
//!
//! The points-to solver performs a node-id or edge-key lookup on nearly
//! every constraint application, and the instrumented machine looks up a
//! fact, a calling context or a property index on nearly every statement;
//! `std`'s default SipHash is a measurable cost there. This is the classic
//! Fx multiply-rotate mix (as used by rustc): not DoS-resistant, which is
//! fine for maps keyed by analysis-internal ids. The one string-keyed map,
//! a program's [`Interner`](crate::intern::Interner), holds that program's
//! own names: colliding names can slow only the analysis of the program
//! that contains them.
//!
//! The mix leaves the bucket index to the last word hashed: the table
//! indexes by the hash's low bits, and the low bits of `x × SEED` depend
//! only on the low bits of `x`. So never pack two ids into one `u64` key.
//! A `(from << 32) | to` key puts every edge into `to` on the same bucket
//! whatever `from` is. Key by the tuple `(from, to)` instead: each field
//! is mixed in as its own word, and the rotation carries the first
//! field's high product bits into the low bits.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the fast hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the fast hasher.
pub type FastSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate word hasher.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_differently() {
        let h = |f: &dyn Fn(&mut FxHasher)| {
            let mut x = FxHasher::default();
            f(&mut x);
            x.finish()
        };
        assert_ne!(h(&|x| x.write_u64(1)), h(&|x| x.write_u64(2)));
        assert_ne!(h(&|x| x.write_u32(7)), h(&|x| x.write_u32(8)));
        assert_ne!(h(&|x| x.write(b"abc")), h(&|x| x.write(b"abd")));
        // Same value through the same write path must agree.
        assert_eq!(h(&|x| x.write_u64(42)), h(&|x| x.write_u64(42)));
    }

    #[test]
    fn maps_work_end_to_end() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, i as u32 * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1000));
        let mut s: FastSet<(u32, u32)> = FastSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }
}
