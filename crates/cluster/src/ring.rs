//! Deterministic consistent-hash ring.
//!
//! Each shard contributes `vnodes` points on a 64-bit ring, hashed with
//! FNV-1a from the stable label `shard-{i}/vnode-{v}` — no RNG, no
//! process state, so every router instance (and every test) agrees on
//! the mapping. A key routes to the first point clockwise from its own
//! hash. Virtual nodes smooth the distribution and bound the blast
//! radius of resizing: growing from N to N+1 shards only remaps the
//! keys whose nearest point now belongs to the new shard — about
//! 1/(N+1) of them, and the proptest in this module holds the observed
//! fraction under 2/N.

use hwm_jsonio::{fnv1a, FNV1A_BASIS};

/// Hashes bytes with the workspace's 64-bit FNV-1a, then avalanches the
/// result. Raw FNV-1a barely mixes its high bits, so the near-identical
/// labels short keys produce would clump on the ring; the murmur-style
/// finalizer spreads them without giving up determinism.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut state = fnv1a(FNV1A_BASIS, bytes);
    state ^= state >> 33;
    state = state.wrapping_mul(0xff51_afd7_ed55_8ccd);
    state ^= state >> 33;
    state = state.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    state ^ (state >> 33)
}

/// A consistent-hash ring over `shards` shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` sorted by point; ties broken by shard index so
    /// the ring is identical however it was built.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual nodes per shard.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `vnodes` is zero — an empty ring cannot
    /// route anything.
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a ring needs at least one virtual node per shard");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                points.push((ring_hash(format!("shard-{shard}/vnode-{v}").as_bytes()), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first ring point at or clockwise
    /// past the key's hash, wrapping at the top.
    pub fn route(&self, key: &str) -> usize {
        let h = ring_hash(key.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let a = HashRing::new(3, 64);
        let b = HashRing::new(3, 64);
        for i in 0..1000 {
            let key = format!("ic-{i}");
            let s = a.route(&key);
            assert_eq!(s, b.route(&key));
            assert!(s < 3);
        }
    }

    #[test]
    fn one_shard_takes_everything() {
        let ring = HashRing::new(1, 64);
        for i in 0..100 {
            assert_eq!(ring.route(&format!("k{i}")), 0);
        }
    }

    #[test]
    fn distribution_is_roughly_even() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            counts[ring.route(&format!("readout-{i}"))] += 1;
        }
        for &c in &counts {
            // 4000 keys over 4 shards: each should land well inside
            // [500, 2000] with 64 vnodes.
            assert!((500..2000).contains(&c), "skewed distribution: {counts:?}");
        }
    }

    proptest! {
        /// Growing the ring N -> N+1 remaps strictly fewer than 2/N of
        /// the keys: consistent hashing's whole point.
        #[test]
        fn growth_remaps_a_bounded_fraction(n in 2usize..8) {
            let before = HashRing::new(n, 64);
            let after = HashRing::new(n + 1, 64);
            let keys = 2000usize;
            let moved = (0..keys)
                .filter(|i| {
                    let key = format!("key-{i}");
                    before.route(&key) != after.route(&key)
                })
                .count();
            let bound = 2.0 / n as f64;
            let fraction = moved as f64 / keys as f64;
            prop_assert!(
                fraction < bound,
                "growing {} -> {} moved {:.3} of keys (bound {:.3})",
                n, n + 1, fraction, bound
            );
        }

        /// Keys that move under growth move *to the new shard*, never
        /// between old shards.
        #[test]
        fn growth_only_moves_keys_to_the_new_shard(n in 1usize..8) {
            let before = HashRing::new(n, 64);
            let after = HashRing::new(n + 1, 64);
            for i in 0..500 {
                let key = format!("key-{i}");
                let (b, a) = (before.route(&key), after.route(&key));
                if b != a {
                    prop_assert_eq!(a, n, "key {} moved to old shard {}", key, a);
                }
            }
        }
    }
}
