//! Deterministic consistent-hash ring over shard ids.
//!
//! The ring places [`Ring::DEFAULT_VNODES`] virtual nodes per shard on a
//! 64-bit circle (points come from a splitmix64 mix of the shard id and
//! the replica index — no RNG, no per-process state, so every router
//! instance agrees on the layout). Routing a key walks clockwise to the
//! first virtual node at or after the key's hash.
//!
//! Two invariants make this the right structure for shard failover, and
//! both are proptested below:
//!
//! * **balance** — with enough virtual nodes every shard owns a
//!   comparable slice of the key space;
//! * **minimal disruption** — removing a shard only moves the keys that
//!   routed *to it* (its virtual nodes vanish; every other point is
//!   untouched), and adding a shard only moves keys *onto* the newcomer.

use sspc_common::rng::splitmix64;
use std::collections::BTreeSet;

/// Where shard `shard`'s `replica`-th virtual node sits on the circle.
fn vnode_point(shard: u16, replica: u64) -> u64 {
    splitmix64((u64::from(shard) << 32) ^ replica ^ 0x5370_6c69_7452_696e)
}

/// Where a routing key lands on the circle.
fn key_point(key: u64) -> u64 {
    splitmix64(key ^ 0x4b65_7950_6f69_6e74)
}

/// A consistent-hash ring over shard ids. Mutating it (shard death,
/// rejoin) is cheap enough to do under a lock on the failover path.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Virtual nodes sorted by circle position; ties broken by shard id
    /// so iteration order is fully deterministic.
    vnodes: Vec<(u64, u16)>,
    shards: BTreeSet<u16>,
    vnodes_per_shard: usize,
}

impl Ring {
    /// Virtual nodes per shard: enough that 2–8 shards balance within a
    /// small constant factor, small enough that rebuilds are free.
    pub const DEFAULT_VNODES: usize = 64;

    /// Builds a ring over `shards` with `vnodes_per_shard` virtual nodes
    /// each (0 is clamped to 1). Duplicate shard ids collapse.
    pub fn new(shards: impl IntoIterator<Item = u16>, vnodes_per_shard: usize) -> Ring {
        let mut ring = Ring {
            vnodes: Vec::new(),
            shards: BTreeSet::new(),
            vnodes_per_shard: vnodes_per_shard.max(1),
        };
        for shard in shards {
            ring.add(shard);
        }
        ring
    }

    /// Adds a shard (no-op when already present). Only keys that now hash
    /// to the newcomer move; every existing point is untouched.
    pub fn add(&mut self, shard: u16) {
        if !self.shards.insert(shard) {
            return;
        }
        for replica in 0..self.vnodes_per_shard as u64 {
            let point = (vnode_point(shard, replica), shard);
            let at = self.vnodes.partition_point(|p| *p < point);
            self.vnodes.insert(at, point);
        }
    }

    /// Removes a shard (no-op when absent). Only keys that routed to it
    /// move — to whichever shard owns the next point clockwise.
    pub fn remove(&mut self, shard: u16) {
        if self.shards.remove(&shard) {
            self.vnodes.retain(|&(_, s)| s != shard);
        }
    }

    /// Whether `shard` is currently on the ring.
    pub fn contains(&self, shard: u16) -> bool {
        self.shards.contains(&shard)
    }

    /// Shards currently on the ring, ascending.
    pub fn shards(&self) -> Vec<u16> {
        self.shards.iter().copied().collect()
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no shards at all.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning `key`: the first virtual node at or after the
    /// key's circle position, wrapping at the top. `None` on an empty
    /// ring.
    pub fn route(&self, key: u64) -> Option<u16> {
        let point = key_point(key);
        let at = self.vnodes.partition_point(|&(p, _)| p < point);
        self.vnodes
            .get(at)
            .or_else(|| self.vnodes.first())
            .map(|&(_, shard)| shard)
    }

    /// Every shard in preference order for `key`: the owner first, then
    /// each further shard in the order their virtual nodes appear
    /// clockwise. Failover walks this list so a dead owner's keys land
    /// deterministically.
    pub fn candidates(&self, key: u64) -> Vec<u16> {
        let point = key_point(key);
        let start = self.vnodes.partition_point(|&(p, _)| p < point);
        let mut seen = BTreeSet::new();
        let mut order = Vec::new();
        for i in 0..self.vnodes.len() {
            let (_, shard) = self.vnodes[(start + i) % self.vnodes.len()];
            if seen.insert(shard) {
                order.push(shard);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn shares(ring: &Ring, keys: u64) -> BTreeMap<u16, u64> {
        let mut counts = BTreeMap::new();
        for key in 0..keys {
            *counts.entry(ring.route(key).unwrap()).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = Ring::new([], Ring::DEFAULT_VNODES);
        assert!(ring.is_empty());
        assert_eq!(ring.route(7), None);
        assert!(ring.candidates(7).is_empty());
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = Ring::new([3], Ring::DEFAULT_VNODES);
        for key in 0..256 {
            assert_eq!(ring.route(key), Some(3));
        }
    }

    /// The ISSUE's explicit sizes: at N ∈ {2, 3, 8} every shard's share
    /// of 4096 keys stays within a factor of two of fair.
    #[test]
    fn balance_at_fixed_sizes() {
        for n in [2u16, 3, 8] {
            let ring = Ring::new(0..n, Ring::DEFAULT_VNODES);
            let counts = shares(&ring, 4096);
            assert_eq!(counts.len(), n as usize, "every shard owns keys");
            let fair = 4096 / u64::from(n);
            for (&shard, &count) in &counts {
                assert!(
                    count >= fair / 2 && count <= fair * 2,
                    "shard {shard} of {n} owns {count} keys (fair {fair})"
                );
            }
        }
    }

    #[test]
    fn identical_inputs_build_identical_rings() {
        let a = Ring::new([5, 9, 2], Ring::DEFAULT_VNODES);
        let b = Ring::new([2, 5, 9], Ring::DEFAULT_VNODES);
        for key in 0..1024 {
            assert_eq!(a.route(key), b.route(key));
        }
    }

    proptest! {
        /// Balance holds for arbitrary shard id sets, not just 0..n:
        /// every shard owns at least a quarter and at most four times its
        /// fair share of 4096 keys.
        #[test]
        fn balance_for_arbitrary_ids(ids in prop::collection::vec(any::<u16>(), 2..9)) {
            let mut distinct: Vec<u16> = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assume!(distinct.len() >= 2);
            let ring = Ring::new(distinct.iter().copied(), Ring::DEFAULT_VNODES);
            let counts = shares(&ring, 4096);
            prop_assert_eq!(counts.len(), distinct.len());
            let fair = 4096 / distinct.len() as u64;
            for (&shard, &count) in &counts {
                prop_assert!(
                    count >= fair / 4 && count <= fair * 4,
                    "shard {} owns {} keys (fair {})", shard, count, fair
                );
            }
        }

        /// Removing a shard moves exactly the keys that routed to it:
        /// every other key keeps its owner.
        #[test]
        fn removal_moves_only_the_departing_shards_keys(
            ids in prop::collection::vec(any::<u16>(), 2..9),
            victim_index in 0usize..8,
            keys in prop::collection::vec(0u64..1_000_000, 64..257),
        ) {
            let mut distinct: Vec<u16> = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assume!(distinct.len() >= 2);
            let victim = distinct[victim_index % distinct.len()];
            let before = Ring::new(distinct.iter().copied(), Ring::DEFAULT_VNODES);
            let mut after = before.clone();
            after.remove(victim);
            for &key in &keys {
                let owner = before.route(key).unwrap();
                if owner != victim {
                    prop_assert_eq!(after.route(key), Some(owner));
                } else {
                    prop_assert!(after.route(key) != Some(victim));
                }
            }
        }

        /// Adding a shard only moves keys onto the newcomer: a key that
        /// does not route to the new shard keeps its previous owner.
        #[test]
        fn addition_moves_keys_only_onto_the_newcomer(
            ids in prop::collection::vec(any::<u16>(), 2..9),
            newcomer in any::<u16>(),
            keys in prop::collection::vec(0u64..1_000_000, 64..257),
        ) {
            let mut distinct: Vec<u16> = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assume!(distinct.len() >= 2 && !distinct.contains(&newcomer));
            let before = Ring::new(distinct.iter().copied(), Ring::DEFAULT_VNODES);
            let mut after = before.clone();
            after.add(newcomer);
            for &key in &keys {
                let now = after.route(key).unwrap();
                if now != newcomer {
                    prop_assert_eq!(Some(now), before.route(key));
                }
            }
        }

        /// `candidates` starts with the owner and enumerates every shard
        /// exactly once, deterministically.
        #[test]
        fn candidates_enumerate_every_shard_owner_first(
            ids in prop::collection::vec(any::<u16>(), 2..9),
            key in 0u64..1_000_000,
        ) {
            let mut distinct: Vec<u16> = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assume!(distinct.len() >= 2);
            let ring = Ring::new(distinct.iter().copied(), Ring::DEFAULT_VNODES);
            let order = ring.candidates(key);
            prop_assert_eq!(order.len(), distinct.len());
            prop_assert_eq!(order.first().copied(), ring.route(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, distinct);
        }
    }
}
