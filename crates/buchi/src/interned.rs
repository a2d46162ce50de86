//! Interned automaton nodes with incremental simulation maintenance —
//! the quotient-first core behind the on-the-fly antichain engine.
//!
//! Every inclusion/equivalence/universality query starts by quotienting
//! its operands by direct simulation ([`crate::reduce`]), and before
//! this module existed that quotient was recomputed from scratch on
//! every query — the dominant cost at 10^4–10^5 states, and pure waste
//! in a daemon whose registry changes only on `define`/`redefine`. The
//! fix has three parts:
//!
//! * **Interned nodes** — a node pins the raw automaton, its reachable
//!   part, its greatest-fixpoint simulation rows, and the resulting
//!   quotient, found by structural key ([`Buchi::structural_hash`] + an
//!   equality collision check), so repeat queries are an 8-byte hash
//!   probe instead of an `O(n²)` refinement.
//! * **Incremental maintenance** — [`QuotientCache::advance`] interns a
//!   *successor version* of an automaton (the `redefine` path) by
//!   recomputing simulation only where the edit can matter. States are
//!   partitioned per SCC of the new automaton into *clean* (index,
//!   acceptance, and transition rows identical to the old version, and
//!   every successor SCC clean — i.e. the whole reachable cone is the
//!   same sub-automaton) and *dirty*. Clean × clean pairs are seeded
//!   with the old fixpoint's verdicts; every pair involving a dirty
//!   state restarts from the optimistic acceptance-consistent top. The
//!   standard refinement then runs — and because any start between the
//!   greatest fixpoint and top converges to exactly that fixpoint (the
//!   loop never drops a true pair, and its stable point is a
//!   post-fixpoint), the incremental quotient is **bit-identical** to a
//!   from-scratch one; `tests/interned_core.rs` holds that bar over
//!   seeded 50+-mutation histories.
//! * **[`QuotientCache`]** — the nodes live in a
//!   [`sl_support::ShardedCache`] (hash-selected stripe, cap-and-clear,
//!   poison absorption) as `Arc<InternedNode>`, so a hit clones an
//!   `Arc`; fault drills invalidate nodes at site
//!   `"buchi.quotient_cache"`. One process-wide instance
//!   ([`shared_quotient_cache`]) serves callers without a cache of
//!   their own; the `sld` daemon owns a private instance so its
//!   `stats` counters are a deterministic function of the session.
//!
//! The quotient pipeline here trims unreachable states *first* and
//! computes simulation over the reachable part only — on the
//! garbage-padded inputs of the scaling bench (`e16_scale`) that turns
//! an `O(n²)` preprocessing bill into `O(core²)`.

use crate::automaton::Buchi;
use crate::graph::{tarjan, Graph};
use crate::reduce::{initial_rows, quotient_from_rows, refine_rows, successor_sets};
use sl_lattice::Bitset;
use sl_support::fault::{self, FaultPlan};
use sl_support::{CacheStats, ShardedCache, SHARDS};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Test-only engine sabotage, used by the conformance fuzzer to prove
/// the incremental-vs-scratch differential oracle catches a real
/// invalidation bug. Not part of the public API; never enabled outside
/// dedicated drill tests.
#[doc(hidden)]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, Ordering};

    static BREAK_DIRTY_TRACKING: AtomicBool = AtomicBool::new(false);

    /// When enabled, [`super::QuotientCache::advance`] marks an SCC
    /// dirty only when one of its *own* states changed, skipping the
    /// propagation from dirty successor SCCs. A state whose cone
    /// changed downstream then keeps stale simulation verdicts as its
    /// seed; stale `false` bits below the true fixpoint can never be
    /// re-added by the (removal-only) refinement, so the incremental
    /// quotient drifts from the from-scratch one — exactly the
    /// disagreement `slfuzz --sabotage dirty-scc-invalidation` must
    /// detect and shrink.
    pub fn set_break_dirty_tracking(on: bool) {
        BREAK_DIRTY_TRACKING.store(on, Ordering::Relaxed);
    }

    /// Whether the drill flag is currently set.
    #[must_use]
    pub fn dirty_tracking_broken() -> bool {
        BREAK_DIRTY_TRACKING.load(Ordering::Relaxed)
    }
}

/// Entry cap for a quotient cache (split evenly across its shards);
/// past it a shard is cleared rather than grown. Nodes carry
/// `O(reachable²)` bits of simulation rows, so the cap is small: 8
/// nodes per shard.
const QUOTIENT_CACHE_CAP: usize = 64;

/// The fault-injection site at which a firing drill drops a memoized
/// node and forces a behavior-preserving recomputation.
pub const QUOTIENT_FAULT_SITE: &str = "buchi.quotient_cache";

/// Counters describing how a [`QuotientCache`] has been used: the
/// uniform cache counters plus the quotient domain's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotientCacheStats {
    /// Hits, misses, resident nodes, cap clears, and hash collisions
    /// (a collision recomputes uncached, costing time but never
    /// correctness). A hit is a lookup or an advance whose automaton
    /// was already interned; a miss computed and interned it.
    pub cache: CacheStats,
    /// Nodes dropped by fault injection (site
    /// [`QUOTIENT_FAULT_SITE`]) — each one forced a
    /// behavior-preserving recomputation.
    pub invalidations: u64,
    /// Incremental [`QuotientCache::advance`] calls (the
    /// `define`/`redefine` path).
    pub advances: u64,
    /// SCCs whose simulation verdicts an advance had to recompute.
    pub dirty_sccs: u64,
    /// SCCs whose verdicts an advance carried over from the previous
    /// version unchanged.
    pub clean_sccs: u64,
}

/// What one [`QuotientCache::advance`] did: how much of the new
/// automaton's SCC condensation was re-derived vs. carried over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceReport {
    /// SCCs re-derived (locally edited, index-shifted, or downstream of
    /// an edit).
    pub dirty_sccs: usize,
    /// SCCs whose simulation verdicts were reused from the old version.
    pub clean_sccs: usize,
}

/// One interned automaton version: the raw automaton (the equality
/// check behind the hash key), its reachable part, the greatest-
/// fixpoint simulation rows over that part, and the quotient.
#[derive(Debug)]
pub struct InternedNode {
    automaton: Buchi,
    trimmed: Arc<Buchi>,
    rows: Arc<Vec<Bitset>>,
    quotient: Arc<Buchi>,
}

impl InternedNode {
    /// The simulation quotient of the interned automaton.
    #[must_use]
    pub fn quotient(&self) -> Arc<Buchi> {
        Arc::clone(&self.quotient)
    }

    /// The greatest-fixpoint simulation rows over the reachable part
    /// (`rows[q] = { r | q ≤ r }`), exposed so differential tests can
    /// compare incremental and from-scratch fixpoints bit for bit.
    #[must_use]
    pub fn rows(&self) -> Arc<Vec<Bitset>> {
        Arc::clone(&self.rows)
    }
}

/// The quotient pipeline: trim to the reachable part, compute the
/// simulation fixpoint there, quotient. With `old` (the previous
/// version's node, same alphabet) the fixpoint is seeded from `old`'s
/// rows on provably unchanged SCCs; without it this is the from-scratch
/// computation every cached or incremental path must agree with bit
/// for bit — `reduce ∘ trim` with the fixpoint rows exposed.
fn build_node(b: &Buchi, old: Option<&InternedNode>) -> (InternedNode, AdvanceReport) {
    let trimmed = b.trim_unreachable();
    let succ = successor_sets(&trimmed);
    let mut rows = initial_rows(&trimmed);
    let report = match old {
        Some(o) if o.trimmed.alphabet() == trimmed.alphabet() => {
            seed_rows(&o.trimmed, &o.rows, &trimmed, &mut rows)
        }
        _ => AdvanceReport::default(),
    };
    refine_rows(&succ, &mut rows);
    let quotient = quotient_from_rows(&trimmed, &rows);
    let node = InternedNode {
        automaton: b.clone(),
        trimmed: Arc::new(trimmed),
        rows: Arc::new(rows),
        quotient: Arc::new(quotient),
    };
    (node, report)
}

/// The trim-first simulation quotient of `b`, computed from scratch
/// with no cache involved — the differential reference for
/// [`QuotientCache::quotient`] and [`QuotientCache::advance`].
#[must_use]
pub fn scratch_quotient(b: &Buchi) -> Buchi {
    build_node(b, None).0.quotient.as_ref().clone()
}

/// Seeds `rows` (arriving as `initial_rows(new_t)`) with the old
/// fixpoint's verdicts on clean × clean pairs. See the module docs for
/// the clean/dirty definition and the convergence argument.
fn seed_rows(
    old_t: &Buchi,
    old_rows: &[Bitset],
    new_t: &Buchi,
    rows: &mut [Bitset],
) -> AdvanceReport {
    let n_new = new_t.num_states();
    let n_old = old_t.num_states();
    // A state is locally unchanged when its index, acceptance bit, and
    // every per-symbol successor row survived the edit verbatim.
    let mut local_same = vec![false; n_new];
    for (q, same) in local_same.iter_mut().enumerate().take(n_new.min(n_old)) {
        *same = new_t.is_accepting(q) == old_t.is_accepting(q)
            && new_t
                .alphabet()
                .symbols()
                .all(|s| new_t.successors(q, s) == old_t.successors(q, s));
    }
    let graph = Graph {
        n: n_new,
        succ: Box::new(|q| Cow::Borrowed(new_t.all_successors(q))),
    };
    let scc = tarjan(&graph);
    let mut dirty = vec![false; scc.count];
    for q in 0..n_new {
        if !local_same[q] {
            dirty[scc.component[q]] = true;
        }
    }
    // Dirtiness propagates backward from successors: tarjan numbers
    // components in reverse topological order, so every successor SCC
    // has a smaller id and one ascending pass settles the partition.
    if !sabotage::dirty_tracking_broken() {
        let members = scc.members();
        for c in 0..scc.count {
            if dirty[c] {
                continue;
            }
            'scan: for &q in &members[c] {
                for &r in new_t.all_successors(q) {
                    if dirty[scc.component[r]] {
                        dirty[c] = true;
                        break 'scan;
                    }
                }
            }
        }
    }
    let dirty_sccs = dirty.iter().filter(|&&d| d).count();
    // A clean state's reachable cone is bit-identical to the old
    // version's, and a simulation verdict depends only on the two
    // cones — so on clean × clean pairs the old fixpoint bit *is* the
    // new fixpoint bit. Keep the optimistic top everywhere else.
    let clean_states: Vec<usize> = (0..n_new)
        .filter(|&q| !dirty[scc.component[q]])
        .collect();
    for &q in &clean_states {
        for &r in &clean_states {
            if !old_rows[q].contains(r) {
                rows[q].remove(r);
            }
        }
    }
    AdvanceReport {
        dirty_sccs,
        clean_sccs: scc.count - dirty_sccs,
    }
}

/// A concurrency-safe quotient cache: interned nodes in a
/// [`ShardedCache`] keyed by structural hash, with an automaton
/// equality check behind every hit. The `sld` daemon owns one instance
/// per service — so its `stats` counters are a deterministic function
/// of the session — and callers without a cache of their own share the
/// process-wide [`shared_quotient_cache`].
#[derive(Debug)]
pub struct QuotientCache {
    nodes: ShardedCache<u64, Arc<InternedNode>>,
    plan: FaultPlan,
    /// Lookup ordinal for the fault drill (advanced only while the
    /// plan is enabled).
    lookups: AtomicU64,
    invalidations: AtomicU64,
    advances: AtomicU64,
    dirty_sccs: AtomicU64,
    clean_sccs: AtomicU64,
}

impl Default for QuotientCache {
    fn default() -> Self {
        Self::new()
    }
}

impl QuotientCache {
    /// A cache with the default shard count and node cap, under the
    /// process-wide fault plan.
    #[must_use]
    pub fn new() -> Self {
        Self::with_fault(*fault::global())
    }

    /// [`QuotientCache::new`] with the fault drill pinned to an
    /// explicit plan; the `sld` daemon passes its `ServiceConfig`
    /// plan through so transcript-pinning tests stay byte-identical
    /// under the environment drill.
    #[must_use]
    pub fn with_fault(plan: FaultPlan) -> Self {
        QuotientCache {
            nodes: ShardedCache::new(QUOTIENT_CACHE_CAP, SHARDS),
            plan,
            lookups: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            advances: AtomicU64::new(0),
            dirty_sccs: AtomicU64::new(0),
            clean_sccs: AtomicU64::new(0),
        }
    }

    /// The interned node for `b`, if present (hash probe + equality
    /// check; never counts toward the stats).
    #[must_use]
    pub fn node(&self, b: &Buchi) -> Option<Arc<InternedNode>> {
        self.nodes
            .peek(&b.structural_hash(), |node| node.automaton == *b)
    }

    /// The simulation quotient of `b` (over its reachable part),
    /// computed at most once per distinct automaton across all threads
    /// sharing this cache. A hit clones an `Arc`, never an automaton.
    ///
    /// Under a fault drill (the plan pinned at construction, defaulting
    /// to the process-wide one; site [`QUOTIENT_FAULT_SITE`]), a firing
    /// lookup drops the interned node and recomputes — a
    /// behavior-preserving degradation observable via
    /// [`QuotientCacheStats::invalidations`].
    pub fn quotient(&self, b: &Buchi) -> Arc<Buchi> {
        let key = b.structural_hash();
        let same = |node: &Arc<InternedNode>| node.automaton == *b;
        if self.plan.is_enabled() {
            let lookup = self.lookups.fetch_add(1, Ordering::Relaxed);
            if self.plan.should_fault(QUOTIENT_FAULT_SITE, lookup) && self.nodes.remove(&key, same)
            {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        match self
            .nodes
            .get_or_insert_with(key, same, || Arc::new(build_node(b, None).0))
        {
            Some(node) => Arc::clone(&node.quotient),
            // Hash collision with a distinct automaton: the first
            // occupant stays (deterministic); recompute uncached.
            None => build_node(b, None).0.quotient,
        }
    }

    /// Interns `new` as the successor version of `old` (the
    /// `define`/`redefine` path), seeding its simulation fixpoint from
    /// `old`'s interned node where their SCCs are provably unchanged.
    /// Falls back to a full computation when `old` is not interned or
    /// the alphabets differ; when `new` is already interned (a redefine
    /// toggled back) it is a pure hit, and on a hash collision the
    /// first occupant stays, as in [`QuotientCache::quotient`]. An
    /// interned result is bit-identical to a from-scratch quotient of
    /// `new` in every case. The old node's stripe is released before
    /// the new one is taken, so no two stripes are ever held at once.
    pub fn advance(&self, old: &Buchi, new: &Buchi) -> AdvanceReport {
        self.advances.fetch_add(1, Ordering::Relaxed);
        let old_node = self.node(old);
        let mut report = AdvanceReport::default();
        self.nodes.get_or_insert_with(
            new.structural_hash(),
            |node| node.automaton == *new,
            || {
                let (node, seeded) = build_node(new, old_node.as_deref());
                report = seeded;
                Arc::new(node)
            },
        );
        self.dirty_sccs
            .fetch_add(report.dirty_sccs as u64, Ordering::Relaxed);
        self.clean_sccs
            .fetch_add(report.clean_sccs as u64, Ordering::Relaxed);
        report
    }

    /// The cache counters rolled up across shards, plus the quotient
    /// domain's counters.
    #[must_use]
    pub fn stats(&self) -> QuotientCacheStats {
        QuotientCacheStats {
            cache: self.nodes.stats(),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            advances: self.advances.load(Ordering::Relaxed),
            dirty_sccs: self.dirty_sccs.load(Ordering::Relaxed),
            clean_sccs: self.clean_sccs.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide quotient cache, for inclusion queries whose caller
/// owns no [`QuotientCache`] (the classifiers, the decomposition
/// checks, the experiment binaries).
pub fn shared_quotient_cache() -> &'static QuotientCache {
    static SHARED: OnceLock<QuotientCache> = OnceLock::new();
    SHARED.get_or_init(QuotientCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::random::{random_buchi, RandomConfig};
    use crate::reduce::reduce;
    use sl_omega::Alphabet;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn pool_automaton(seed: u64) -> Buchi {
        random_buchi(
            &sigma(),
            seed,
            RandomConfig {
                states: 6,
                density_percent: 55,
                accepting_percent: 40,
            },
        )
    }

    #[test]
    fn scratch_quotient_matches_reduce_on_trimmed_input() {
        for seed in 0..20u64 {
            let b = pool_automaton(seed);
            let trimmed = b.trim_unreachable();
            assert_eq!(
                scratch_quotient(&b),
                reduce(&trimmed),
                "seed {seed}: the cached pipeline is reduce ∘ trim"
            );
        }
    }

    #[test]
    fn interned_lookup_hits_on_repeat_and_counts_misses_once() {
        let cache = QuotientCache::with_fault(FaultPlan::disabled());
        let b = pool_automaton(3);
        let first = cache.quotient(&b);
        let second = cache.quotient(&b);
        assert!(
            Arc::ptr_eq(&first, &second),
            "a hit clones the interned Arc"
        );
        let stats = cache.stats().cache;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn hash_collisions_recompute_uncached() {
        let cache = QuotientCache::with_fault(FaultPlan::disabled());
        let planted = pool_automaton(1);
        let queried = pool_automaton(2);
        assert_ne!(planted, queried);
        // Plant the wrong automaton under the queried key, simulating a
        // 64-bit structural-hash collision.
        let node = build_node(&planted, None).0;
        cache
            .nodes
            .insert(queried.structural_hash(), Arc::new(node));
        let out = cache.quotient(&queried);
        assert_eq!(*out, scratch_quotient(&queried));
        let stats = cache.stats().cache;
        assert_eq!((stats.collisions, stats.hits, stats.misses), (1, 0, 0));
        assert!(cache.node(&queried).is_none(), "the first occupant stays");
    }

    #[test]
    fn pinned_fault_plan_governs_invalidations() {
        let b = pool_automaton(3);
        // An always-firing pinned plan drills the invalidation path:
        // each repeat lookup drops the node and recomputes, but the
        // answers stay bit-identical (behavior-preserving degradation).
        let drilled = QuotientCache::with_fault(FaultPlan::new(7, 1.0));
        let first = drilled.quotient(&b);
        let second = drilled.quotient(&b);
        assert_eq!(first, second);
        assert!(drilled.stats().invalidations >= 1, "{:?}", drilled.stats());
        // A pinned-disabled plan never invalidates, regardless of the
        // process environment — what keeps the sld golden transcripts
        // byte-identical under the verify.sh fault drill.
        let quiet = QuotientCache::with_fault(FaultPlan::disabled());
        quiet.quotient(&b);
        quiet.quotient(&b);
        let stats = quiet.stats();
        assert_eq!(
            (stats.invalidations, stats.cache.hits, stats.cache.misses),
            (0, 1, 1)
        );
    }

    #[test]
    fn cap_and_clear_bounds_the_cache() {
        let cache = QuotientCache::new();
        for seed in 0..200u64 {
            cache.quotient(&pool_automaton(seed));
        }
        let stats = cache.stats().cache;
        assert!(stats.entries <= QUOTIENT_CACHE_CAP as u64, "{stats:?}");
        assert!(stats.clears > 0, "{stats:?}");
    }

    #[test]
    fn advance_is_bit_identical_to_scratch() {
        let s = sigma();
        let a_sym = s.symbol("a").unwrap();
        for seed in 0..20u64 {
            let old = pool_automaton(seed);
            // Edit: add a fresh accepting state reachable from the
            // initial state — downstream SCCs stay clean, upstream ones
            // go dirty.
            let mut builder = BuchiBuilder::new(s.clone());
            for q in 0..old.num_states() {
                builder.add_state(old.is_accepting(q));
            }
            let extra = builder.add_state(true);
            for q in 0..old.num_states() {
                for sym in s.symbols() {
                    for &t in old.successors(q, sym) {
                        builder.add_transition(q, sym, t);
                    }
                }
            }
            builder.add_transition(old.initial(), a_sym, extra);
            builder.add_transition(extra, a_sym, extra);
            let new = builder.build(old.initial());

            let cache = QuotientCache::new();
            cache.quotient(&old);
            let report = cache.advance(&old, &new);
            let incremental = cache.node(&new).expect("advance interned the new version");
            assert_eq!(
                *incremental.quotient(),
                scratch_quotient(&new),
                "seed {seed}: incremental quotient differs from scratch"
            );
            assert_eq!(
                *incremental.rows(),
                *build_node(&new, None).0.rows,
                "seed {seed}: incremental fixpoint rows differ from scratch"
            );
            assert_eq!(
                report.dirty_sccs + report.clean_sccs > 0,
                true,
                "seed {seed}: a seeded advance reports its SCC partition"
            );
        }
    }

    #[test]
    fn advance_without_interned_old_still_lands_on_scratch() {
        let old = pool_automaton(7);
        let new = pool_automaton(8);
        let cache = QuotientCache::new();
        let report = cache.advance(&old, &new);
        assert_eq!(report, AdvanceReport::default());
        assert_eq!(
            *cache.node(&new).expect("interned").quotient(),
            scratch_quotient(&new)
        );
    }

    #[test]
    fn sharded_cache_is_semantically_transparent() {
        let cache = QuotientCache::new();
        let b = pool_automaton(11);
        let first = cache.quotient(&b);
        let second = cache.quotient(&b);
        assert_eq!(first, second);
        assert_eq!(*first, scratch_quotient(&b));
        let stats = cache.stats().cache;
        assert!(stats.hits + stats.misses >= 2);
    }

    #[test]
    fn broken_dirty_tracking_can_drift_from_scratch() {
        // The sabotage drill must be able to produce a divergence the
        // conform oracle can catch. The fixture flips a *clean-pair*
        // verdict via a downstream edit: `p -a-> t`, `r -a-> u`, with
        // `t` non-accepting and `u` accepting, so `r ≤ p` is false in
        // the old version (`u ≤ t` fails on acceptance) and true once
        // the edit makes `t` accepting. With propagation skipped, `p`
        // and `r` look clean, the stale false bit for `(r, p)` is
        // seeded, and the (removal-only) refinement can never restore
        // it. (Not every edit diverges under the drill — this is one
        // that does.)
        let s = sigma();
        let a_sym = s.symbol("a").unwrap();
        let b_sym = s.symbol("b").unwrap();
        let build = |accepting_t: bool| {
            let mut builder = BuchiBuilder::new(s.clone());
            let q0 = builder.add_state(false);
            let p = builder.add_state(false);
            let r = builder.add_state(false);
            let t = builder.add_state(accepting_t);
            let u = builder.add_state(true);
            builder.add_transition(q0, a_sym, p);
            builder.add_transition(q0, b_sym, r);
            builder.add_transition(p, a_sym, t);
            builder.add_transition(r, a_sym, u);
            builder.add_transition(t, a_sym, t);
            builder.add_transition(u, a_sym, u);
            builder.build(q0)
        };
        let old = build(false);
        let new = build(true);
        let cache = QuotientCache::new();
        cache.quotient(&old);
        sabotage::set_break_dirty_tracking(true);
        let drilled = {
            cache.advance(&old, &new);
            cache.node(&new).expect("interned").rows()
        };
        sabotage::set_break_dirty_tracking(false);
        assert_ne!(
            *drilled,
            *build_node(&new, None).0.rows,
            "the drill must produce stale fixpoint rows on this fixture"
        );
    }
}
