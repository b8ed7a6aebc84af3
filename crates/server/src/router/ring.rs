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

    /// The first virtual node at or after `point` (wrapping), as an index
    /// into `vnodes`. `None` on an empty ring.
    fn successor(&self, point: u64) -> Option<usize> {
        if self.vnodes.is_empty() {
            return None;
        }
        let at = self.vnodes.partition_point(|&(p, _)| p < point);
        Some(at % self.vnodes.len())
    }
}

/// One key the membership change moves: where it routed before, where it
/// routes after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovedKey {
    /// The routing key (a job id on the failover/handoff paths).
    pub key: u64,
    /// The shard that owned the key on the old ring.
    pub from: u16,
    /// The shard that owns the key on the new ring.
    pub to: u16,
}

/// The rebalance plan for a ring delta: exactly the keys of `keys` whose
/// owner changes between `before` and `after`, with both owners. Every
/// other key is untouched — this is the minimal-disruption property made
/// operational, and the plan-level proptest below holds it to a
/// plan-vs-`route()` oracle.
///
/// The plan is computed from the ring **delta**, not by re-routing every
/// key twice: a key can only move when its clockwise successor vnode
/// changed — the successor on `after` is a vnode `before` did not have
/// (a join claimed the arc), or the successor on `before` is a vnode
/// `after` no longer has (a leave released it). Keys whose successor
/// vnode survives in both rings are skipped without a second lookup.
pub fn rebalance_plan(before: &Ring, after: &Ring, keys: &[u64]) -> Vec<MovedKey> {
    let mut plan = Vec::new();
    for &key in keys {
        let point = key_point(key);
        let (Some(b), Some(a)) = (before.successor(point), after.successor(point)) else {
            continue;
        };
        let succ_before = before.vnodes[b];
        let succ_after = after.vnodes[a];
        // Delta test: an unchanged successor arc cannot move the key.
        if succ_before == succ_after {
            continue;
        }
        let from = succ_before.1;
        let to = succ_after.1;
        if from != to {
            plan.push(MovedKey { key, from, to });
        }
    }
    plan
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

        /// The plan-level oracle (ISSUE 9): across a random roster and a
        /// random join/leave sequence, `rebalance_plan` names **exactly**
        /// the keys whose `route()` owner changed — no key moved that the
        /// routes say stayed, no key stayed that the routes say moved,
        /// and every moved key's `from`/`to` match the two routes. And
        /// each step moves at most `⌈keys/N⌉·2` keys (N = shards on the
        /// larger of the two rings): a join claims at most the
        /// newcomer's balanced share, a leave releases at most the
        /// departer's.
        #[test]
        fn rebalance_plan_is_exactly_the_owner_delta_and_bounded(
            ids in prop::collection::vec(0u16..16, 2..6),
            steps in prop::collection::vec((any::<bool>(), 0u16..16), 1..6),
        ) {
            let mut distinct: Vec<u16> = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assume!(distinct.len() >= 2);
            let keys: Vec<u64> = (0..4096).collect();
            let mut ring = Ring::new(distinct.iter().copied(), Ring::DEFAULT_VNODES);
            for (join, shard) in steps {
                let before = ring.clone();
                if join {
                    ring.add(shard);
                } else {
                    if ring.len() == 1 && ring.contains(shard) {
                        continue; // keep the ring routable
                    }
                    ring.remove(shard);
                }
                let plan = rebalance_plan(&before, &ring, &keys);
                let planned: std::collections::BTreeMap<u64, (u16, u16)> =
                    plan.iter().map(|m| (m.key, (m.from, m.to))).collect();
                prop_assert_eq!(planned.len(), plan.len(), "no key planned twice");
                for &key in &keys {
                    let was = before.route(key).unwrap();
                    let now = ring.route(key).unwrap();
                    match planned.get(&key) {
                        Some(&(from, to)) => {
                            prop_assert_ne!(was, now, "planned key {} did not move", key);
                            prop_assert_eq!((from, to), (was, now));
                        }
                        None => prop_assert_eq!(was, now, "unplanned key {} moved", key),
                    }
                }
                let n = before.len().max(ring.len());
                let bound = 2 * keys.len().div_ceil(n);
                prop_assert!(
                    plan.len() <= bound,
                    "{} keys moved across {} shards (bound {})",
                    plan.len(), n, bound
                );
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
