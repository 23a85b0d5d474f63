//! A fast, deterministic hasher for maps keyed by [`VertexId`] and
//! [`EdgeId`].
//!
//! Every routing trial and connectivity check keeps per-trial vertex or edge
//! maps (visited sets, BFS parents, probe caches). Their keys are small
//! integers chosen by the graph family, not by an adversary, so std's
//! DoS-resistant SipHash buys nothing there and costs a large share of a
//! probe. [`FxHasher`] is the multiply-fold hash of rustc-hash 2.x: each
//! word is added to the state, which is then multiplied by an odd constant,
//! and `finish` rotates the product so that its well-mixed high bits land
//! where hashbrown takes its bucket index and control byte from.
//!
//! The hash is a pure function of the key (no per-process seed), so a map's
//! iteration order is reproducible — though nothing in this workspace may
//! depend on it: results must not depend on the hasher at all.
//!
//! Keep std's `RandomState` for maps whose keys come from outside the
//! process (the server's string-keyed caches).
//!
//! [`VertexId`]: crate::VertexId
//! [`EdgeId`]: crate::EdgeId
//!
//! # Examples
//!
//! ```
//! use faultnet_topology::hash::FxHashMap;
//! use faultnet_topology::VertexId;
//!
//! let mut dist: FxHashMap<VertexId, u64> = FxHashMap::default();
//! dist.insert(VertexId(7), 3);
//! assert_eq!(dist.get(&VertexId(7)), Some(&3));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc-hash 2.x (an odd constant with well-spread bits).
const K: u64 = 0xf1357aea2e62a9c5;

/// Rotation applied by [`FxHasher::finish`], as in rustc-hash 2.x.
const ROTATE: u32 = 26;

/// The multiply-fold hasher; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

/// Builds [`FxHasher`]s; the `S` parameter of [`FxHashMap`]/[`FxHashSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on [`FxHasher`]. Create one with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` on [`FxHasher`]. Create one with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeId, VertexId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn matches_the_rustc_hash_fold_on_a_word() {
        // One word: (0 + x) * K, rotated left by 26.
        let x = 0x0123_4567_89ab_cdefu64;
        assert_eq!(hash_of(&x), x.wrapping_mul(K).rotate_left(ROTATE));
        assert_eq!(hash_of(&VertexId(x)), hash_of(&x));
    }

    #[test]
    fn is_deterministic_and_separates_edges() {
        let e = EdgeId::new(VertexId(3), VertexId(9));
        assert_eq!(hash_of(&e), hash_of(&EdgeId::new(VertexId(9), VertexId(3))));
        assert_ne!(
            hash_of(&e),
            hash_of(&EdgeId::new(VertexId(9), VertexId(10)))
        );
        // Consecutive vertex ids never collide (K is odd, so the fold is a
        // bijection on one word).
        let hashes: FxHashSet<u64> = (0..10_000u64).map(|v| hash_of(&VertexId(v))).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_writes_see_every_byte_and_the_length() {
        assert_ne!(hash_of(&"abcdefghi"), hash_of(&"abcdefghj"));
        assert_ne!(hash_of(&[0u8; 3][..]), hash_of(&[0u8; 4][..]));
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: FxHashMap<EdgeId, bool> = FxHashMap::default();
        for v in 1..100u64 {
            map.insert(EdgeId::new(VertexId(0), VertexId(v)), v % 2 == 0);
        }
        assert_eq!(map.len(), 99);
        assert!(map[&EdgeId::new(VertexId(4), VertexId(0))]);
    }
}
