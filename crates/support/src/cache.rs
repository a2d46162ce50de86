//! One bounded, sharded memo table — the cache policy every cache in
//! the workspace shares (the daemon's query and `check` result caches,
//! the interned-quotient cache).
//!
//! The policy has four parts, and this module is their only
//! implementation:
//!
//! * **Striped shards.** A key carries a 64-bit structural hash
//!   ([`ShardKey::shard_hash`]); `hash % shards` picks the stripe, a
//!   `Mutex`-guarded map. Repeat lookups of one key serialize through
//!   one stripe while distinct keys proceed concurrently. A stripe's
//!   lock is held for the lookup or store itself — and, for
//!   [`ShardedCache::get_or_insert_with`], for the compute it wraps.
//! * **Stored-operand equality.** A value stores the operands it was
//!   computed for, and every lookup passes an equality predicate over
//!   the stored value, so a 64-bit hash collision is counted as a
//!   collision and answered as absent — never with a wrong value.
//! * **Cap-and-clear.** `cap` bounds the total entry count: each stripe
//!   holds at most `cap / shards` entries and is *cleared* wholesale
//!   (not evicted entry by entry) when an insert would exceed that.
//!   A zero per-stripe cap stores nothing, so a cap below the stripe
//!   count turns the cache off.
//! * **Counters.** Every counting lookup records exactly one of hit,
//!   miss, or collision; stores record clears. [`CacheStats`] reports
//!   them per stripe and rolled up.
//!
//! Mutex poisoning is absorbed: a cache is semantically transparent,
//! so a table a panicking thread abandoned is still a valid memo table.

use std::collections::HashMap;
use std::hash::Hash;
use std::iter::Sum;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The workspace's stripe count. Selection is `hash % SHARDS`, so
/// repeat lookups of one key serialize through one stripe while
/// distinct keys proceed concurrently.
pub const SHARDS: usize = 8;

/// A cache key that carries the 64-bit structural hash picking its
/// stripe.
pub trait ShardKey: Eq + Hash {
    /// The hash the stripe is chosen by (`shard_hash() % shards`).
    fn shard_hash(&self) -> u64;
}

impl ShardKey for u64 {
    fn shard_hash(&self) -> u64 {
        *self
    }
}

/// How a cache has been used: monotone counts plus the `entries`
/// gauge. Every counting lookup is exactly one of `hits`, `misses`,
/// or `collisions`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a stored value.
    pub hits: u64,
    /// Lookups that found no value under their key.
    pub misses: u64,
    /// Values currently stored.
    pub entries: u64,
    /// Times a stripe hit its cap and was cleared wholesale.
    pub clears: u64,
    /// Lookups whose key held a value for *different* operands; the
    /// caller recomputes, so a collision costs time but never
    /// correctness.
    pub collisions: u64,
}

/// The roll-up: every counter summed.
impl Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| CacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            entries: a.entries + b.entries,
            clears: a.clears + b.clears,
            collisions: a.collisions + b.collisions,
        })
    }
}

/// What a counting lookup found.
enum Lookup<V> {
    Hit(V),
    Miss,
    Collision,
}

/// One stripe: a bounded map plus its counters, guarded by one lock.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, V>,
    stats: CacheStats,
}

impl<K: ShardKey, V: Clone> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn lookup(&mut self, key: &K, same: impl FnOnce(&V) -> bool) -> Lookup<V> {
        match self.map.get(key) {
            Some(value) if same(value) => {
                self.stats.hits += 1;
                Lookup::Hit(value.clone())
            }
            Some(_) => {
                self.stats.collisions += 1;
                Lookup::Collision
            }
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    fn insert(&mut self, key: K, value: V, cap: usize) {
        if cap == 0 {
            return;
        }
        if !self.map.contains_key(&key) && self.map.len() >= cap {
            self.map.clear();
            self.stats.clears += 1;
        }
        self.map.insert(key, value);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len() as u64,
            ..self.stats
        }
    }
}

/// The bounded, sharded memo table. All methods take `&self`.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Per-stripe entry cap: the construction cap split evenly.
    shard_cap: usize,
}

impl<K: ShardKey, V: Clone> ShardedCache<K, V> {
    /// An empty cache holding at most `cap` values across `shards`
    /// stripes (at least one).
    #[must_use]
    pub fn new(cap: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_cap: cap / shards,
        }
    }

    /// The stripe responsible for `key`, locked.
    fn shard(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        let index = (key.shard_hash() % self.shards.len() as u64) as usize;
        self.shards[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The value stored under `key` if `same` accepts it as computed
    /// for the probe's operands. Counts a hit, a miss (nothing
    /// stored), or a collision (`same` rejected the stored value).
    pub fn get(&self, key: &K, same: impl FnOnce(&V) -> bool) -> Option<V> {
        match self.shard(key).lookup(key, same) {
            Lookup::Hit(value) => Some(value),
            Lookup::Miss | Lookup::Collision => None,
        }
    }

    /// [`ShardedCache::get`], storing `make()`'s value on a miss. The
    /// stripe stays locked across `make`, so concurrent callers for one
    /// key compute it once and the hit/miss split does not depend on
    /// scheduling; `make` must not touch this cache. `None` on a
    /// collision: the first occupant stays, and the caller computes
    /// its own value uncached.
    pub fn get_or_insert_with(
        &self,
        key: K,
        same: impl FnOnce(&V) -> bool,
        make: impl FnOnce() -> V,
    ) -> Option<V> {
        let mut shard = self.shard(&key);
        match shard.lookup(&key, same) {
            Lookup::Hit(value) => Some(value),
            Lookup::Collision => None,
            Lookup::Miss => {
                let value = make();
                shard.insert(key, value.clone(), self.shard_cap);
                Some(value)
            }
        }
    }

    /// [`ShardedCache::get`] without touching the counters.
    #[must_use]
    pub fn peek(&self, key: &K, same: impl FnOnce(&V) -> bool) -> Option<V> {
        self.shard(key)
            .map
            .get(key)
            .filter(|value| same(value))
            .cloned()
    }

    /// Stores `value` under `key`, replacing any previous occupant. A
    /// new key arriving at a full stripe clears the stripe first.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).insert(key, value, self.shard_cap);
    }

    /// Drops the value under `key` if `same` accepts it; returns
    /// whether one was dropped.
    pub fn remove(&self, key: &K, same: impl FnOnce(&V) -> bool) -> bool {
        let mut shard = self.shard(key);
        if shard.map.get(key).is_some_and(same) {
            shard.map.remove(key);
            true
        } else {
            false
        }
    }

    /// The counters rolled up across every stripe.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.shard_stats().into_iter().sum()
    }

    /// Per-stripe counters, in stripe order, so a workload thrashing
    /// one stripe is visible without a profiler.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(PoisonError::into_inner).stats())
            .collect()
    }

    /// Empties every stripe and zeroes the counters.
    pub fn reset(&self) {
        for shard in &self.shards {
            *shard.lock().unwrap_or_else(PoisonError::into_inner) = Shard::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values remember their operand, as every real cache's do.
    fn cache(cap: usize, shards: usize) -> ShardedCache<u64, (u64, &'static str)> {
        ShardedCache::new(cap, shards)
    }

    fn same(operand: u64) -> impl Fn(&(u64, &'static str)) -> bool {
        move |stored| stored.0 == operand
    }

    #[test]
    fn miss_then_store_then_hit() {
        let c = cache(8, 2);
        assert_eq!(c.get(&3, same(3)), None);
        c.insert(3, (3, "three"));
        assert_eq!(c.get(&3, same(3)), Some((3, "three")));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn a_collision_is_counted_once_and_never_served() {
        let c = cache(8, 1);
        // Operand 9 stored under key 3: a planted 64-bit collision.
        c.insert(3, (9, "nine"));
        assert_eq!(c.get(&3, same(3)), None);
        assert_eq!(
            c.get_or_insert_with(3, same(3), || (3, "three")),
            None,
            "a collision keeps the first occupant"
        );
        assert_eq!(c.peek(&3, same(9)), Some((9, "nine")));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.collisions), (0, 0, 2));
    }

    #[test]
    fn get_or_insert_with_computes_once() {
        let c = cache(8, 2);
        let mut computed = 0;
        for _ in 0..3 {
            let value = c.get_or_insert_with(5, same(5), || {
                computed += 1;
                (5, "five")
            });
            assert_eq!(value, Some((5, "five")));
        }
        assert_eq!(computed, 1);
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn cap_and_clear_bounds_the_map() {
        let c = cache(2, 1);
        for key in 0..3 {
            c.insert(key, (key, "v"));
        }
        let stats = c.stats();
        assert_eq!((stats.clears, stats.entries), (1, 1));
        // The third insert cleared the first two: only it survives.
        assert!(c.peek(&2, same(2)).is_some());
        assert!(c.peek(&0, same(0)).is_none());
        // Replacing a resident key never clears.
        c.insert(2, (2, "w"));
        assert_eq!(c.stats().clears, 1);
    }

    #[test]
    fn cap_below_the_stripe_count_never_serves_a_hit() {
        // cap 1 over 8 stripes: each stripe's cap is zero, so the cache
        // is off — not "one entry per stripe".
        let c = cache(1, 8);
        for _ in 0..4 {
            c.insert(7, (7, "seven"));
            assert_eq!(c.get(&7, same(7)), None);
            assert_eq!(
                c.get_or_insert_with(7, same(7), || (7, "seven")),
                Some((7, "seven"))
            );
        }
        let stats = c.stats();
        assert_eq!((stats.hits, stats.entries, stats.clears), (0, 0, 0));
    }

    #[test]
    fn remove_and_peek_do_not_count() {
        let c = cache(8, 2);
        c.insert(4, (4, "four"));
        assert!(!c.remove(&4, same(5)), "a different operand is not removed");
        assert!(c.peek(&4, same(4)).is_some());
        assert!(c.remove(&4, same(4)));
        assert!(c.peek(&4, same(4)).is_none());
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn rollup_sums_the_per_shard_split() {
        let c = cache(64, 8);
        for key in 0..16u64 {
            assert!(c.get(&key, same(key)).is_none());
            c.insert(key, (key, "v"));
            assert!(c.get(&key, same(key)).is_some());
        }
        let per_shard = c.shard_stats();
        assert_eq!(per_shard.len(), 8);
        assert!(per_shard.iter().all(|s| s.entries == 2), "{per_shard:?}");
        let rollup = c.stats();
        assert_eq!(per_shard.into_iter().sum::<CacheStats>(), rollup);
        assert_eq!((rollup.hits, rollup.misses, rollup.entries), (16, 16, 16));
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_probes_and_stores_stay_consistent() {
        let c = cache(256, 8);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = &c;
                scope.spawn(move || {
                    for round in 0..50u64 {
                        let key = (t + round) % 8;
                        let value = c.get_or_insert_with(key, same(key), || (key, "v"));
                        assert_eq!(value, Some((key, "v")));
                    }
                });
            }
        });
        let stats = c.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert_eq!((stats.misses, stats.entries), (8, 8));
    }

    #[test]
    fn a_poisoned_stripe_is_still_served() {
        let c = cache(8, 1);
        c.insert(1, (1, "one"));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_insert_with(2, same(2), || panic!("compute failed"));
        }));
        assert_eq!(c.get(&1, same(1)), Some((1, "one")));
    }
}
