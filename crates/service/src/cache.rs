//! Memoization of query results, keyed by `(verb, structural_hash)`.
//!
//! A typed layer over [`sl_support::ShardedCache`], which owns the
//! policy every cache in the workspace shares: a bounded map that is
//! *cleared* (not evicted entry-by-entry) when it would exceed its cap
//! — O(1) worst-case bookkeeping, bounded memory on unbounded corpora —
//! and a stored-operand equality check that turns 64-bit hash
//! collisions into cache misses instead of wrong answers.
//!
//! Since the daemon serves connections concurrently, the map is
//! **sharded into striped locks** keyed by the left operand's
//! structural hash: every session shares one result pool (a cold query
//! computed for one client is a warm hit for every other), while
//! probes for distinct automata proceed on distinct stripes without
//! contending. All methods take `&self`; a shard's lock is held only
//! for the probe or store itself, never across a compute.
//!
//! Only successful results are cached: a query that failed on a small
//! budget must be recomputed when the client retries with a larger
//! one, and fault-injected failures must not poison later sessions.
//! Hits are served without consulting the request budget — a cached
//! answer costs nothing, which is the point of the cache.

use crate::json::Json;
use sl_buchi::Buchi;
use sl_support::{CacheStats, ShardKey, ShardedCache, SHARDS};
use std::sync::Arc;

/// Cache-key verb tags. Only pure query verbs are cacheable: `define`
/// and `decompose` mutate the registry, `monitor-step` is stateful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// `classify` (unary).
    Classify,
    /// `include` (binary, ordered).
    Include,
    /// `equivalent` (binary, ordered — the separator's direction
    /// depends on operand order, so no normalization).
    Equivalent,
    /// `universal` (unary).
    Universal,
}

/// The full cache key: verb tag plus the operands' structural hashes
/// (0 for an absent right operand). Shared with the engine's in-flight
/// compute deduplication, which tracks pending computes by this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct QueryKey {
    kind: QueryKind,
    left: u64,
    right: u64,
}

impl ShardKey for QueryKey {
    fn shard_hash(&self) -> u64 {
        self.left
    }
}

#[derive(Debug, Clone)]
struct Entry {
    left: Arc<Buchi>,
    right: Option<Arc<Buchi>>,
    result: Json,
}

/// The bounded, sharded query-result cache.
#[derive(Debug)]
pub struct QueryCache {
    entries: ShardedCache<QueryKey, Entry>,
}

impl QueryCache {
    /// An empty cache holding at most `cap` results across
    /// [`SHARDS`] stripes; a `cap` below the stripe count
    /// stores nothing.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        QueryCache {
            entries: ShardedCache::new(cap, SHARDS),
        }
    }

    pub(crate) fn key(kind: QueryKind, left: &Buchi, right: Option<&Buchi>) -> QueryKey {
        QueryKey {
            kind,
            left: left.structural_hash(),
            right: right.map_or(0, Buchi::structural_hash),
        }
    }

    /// Looks up a result, verifying the stored operands are *equal* to
    /// the probe's (a hash collision is counted and answered as
    /// absent).
    pub fn probe(
        &self,
        kind: QueryKind,
        left: &Arc<Buchi>,
        right: Option<&Arc<Buchi>>,
    ) -> Option<Json> {
        let key = Self::key(kind, left, right.map(Arc::as_ref));
        self.entries
            .get(&key, |entry| {
                entry.left == *left && entry.right.as_ref() == right
            })
            .map(|entry| entry.result)
    }

    /// Stores a computed result (cap-and-clear per stripe).
    pub fn store(
        &self,
        kind: QueryKind,
        left: Arc<Buchi>,
        right: Option<Arc<Buchi>>,
        result: Json,
    ) {
        let key = Self::key(kind, &left, right.as_deref());
        self.entries.insert(
            key,
            Entry {
                left,
                right,
                result,
            },
        );
    }

    /// The counters rolled up across every stripe.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Per-stripe counters, in shard order — `stats` surfaces these.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.entries.shard_stats()
    }

    /// Empties the cache and zeroes the counters (bench isolation).
    pub fn reset(&self) {
        self.entries.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_omega::Alphabet;

    fn random(seed: u64) -> Arc<Buchi> {
        Arc::new(sl_buchi::random_buchi(
            &Alphabet::ab(),
            seed,
            sl_buchi::RandomConfig::default(),
        ))
    }

    #[test]
    fn probe_miss_store_hit() {
        let cache = QueryCache::new(8);
        let u = Arc::new(Buchi::universal(Alphabet::ab()));
        assert!(cache.probe(QueryKind::Universal, &u, None).is_none());
        cache.store(QueryKind::Universal, Arc::clone(&u), None, Json::Bool(true));
        assert_eq!(
            cache.probe(QueryKind::Universal, &u, None),
            Some(Json::Bool(true))
        );
        // Same operand under a different verb tag is a distinct key.
        assert!(cache.probe(QueryKind::Classify, &u, None).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
    }

    #[test]
    fn operands_are_compared_not_just_hashed() {
        let cache = QueryCache::new(64);
        let (a, b) = (random(1), random(2));
        cache.store(
            QueryKind::Include,
            Arc::clone(&a),
            Some(Arc::clone(&b)),
            Json::Int(1),
        );
        assert!(cache.probe(QueryKind::Include, &a, Some(&b)).is_some());
        // An equal operand behind a different Arc still hits.
        let a_copy = Arc::new(a.as_ref().clone());
        assert!(cache.probe(QueryKind::Include, &a_copy, Some(&b)).is_some());
        // A missing right operand never matches a stored binary entry.
        assert!(cache.probe(QueryKind::Include, &a, None).is_none());
    }

    #[test]
    fn a_cap_1_cache_never_serves_a_hit() {
        // The session oracle's "cache off" leg replays with cap 1: with
        // 8 stripes that must mean nothing is stored, not one entry per
        // stripe.
        let cache = QueryCache::new(1);
        let u = Arc::new(Buchi::universal(Alphabet::ab()));
        for _ in 0..4 {
            assert!(cache.probe(QueryKind::Universal, &u, None).is_none());
            cache.store(QueryKind::Universal, Arc::clone(&u), None, Json::Bool(true));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 4, 0));
    }

    #[test]
    fn rollup_sums_per_shard_counters() {
        let cache = QueryCache::new(64);
        for seed in 0..16 {
            let b = random(seed);
            assert!(cache.probe(QueryKind::Classify, &b, None).is_none());
            cache.store(
                QueryKind::Classify,
                Arc::clone(&b),
                None,
                Json::Int(seed as i64),
            );
            assert!(cache.probe(QueryKind::Classify, &b, None).is_some());
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), SHARDS);
        assert_eq!(per_shard.iter().copied().sum::<CacheStats>(), cache.stats());
        // 16 distinct random automata should not all pile onto one
        // stripe — the hash actually spreads.
        assert!(
            per_shard.iter().filter(|s| s.entries > 0).count() > 1,
            "{per_shard:?}"
        );
    }
}
