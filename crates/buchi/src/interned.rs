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
//! * **[`InternedGraph`]** — an arena of interned automaton nodes with
//!   cheap node-by-structural-key lookup
//!   ([`Buchi::structural_hash`] + an equality collision check). A node
//!   pins the raw automaton, its reachable part, its greatest-fixpoint
//!   simulation rows, and the resulting quotient, so repeat queries are
//!   an 8-byte hash probe instead of an `O(n²)` refinement.
//! * **Incremental maintenance** — [`InternedGraph::advance`] interns a
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
//! * **[`QuotientCache`]** — striped `Mutex` shards of [`InternedGraph`]
//!   (hash-selected stripe, cap-and-clear, poison absorption,
//!   fault-drill invalidation at site `"buchi.quotient_cache"`). One
//!   process-wide instance ([`shared_quotient_cache`]) serves callers
//!   without a cache of their own; the `sld` daemon
//!   owns a private instance so its `stats` counters are a
//!   deterministic function of the session.
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
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Test-only engine sabotage, used by the conformance fuzzer to prove
/// the incremental-vs-scratch differential oracle catches a real
/// invalidation bug. Not part of the public API; never enabled outside
/// dedicated drill tests.
#[doc(hidden)]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, Ordering};

    static BREAK_DIRTY_TRACKING: AtomicBool = AtomicBool::new(false);

    /// When enabled, [`super::InternedGraph::advance`] marks an SCC
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

/// Global entry cap for the shared quotient cache; past it a shard is
/// cleared rather than grown. Nodes carry `O(reachable²)` bits of
/// simulation rows, so the cap is tighter than the complement cache's.
const QUOTIENT_CACHE_CAP: usize = 64;

/// Stripe count for [`QuotientCache`]. Selection is
/// `structural_hash % shards`, so repeat queries for one automaton
/// serialize through one stripe while distinct automata proceed
/// concurrently.
const QUOTIENT_CACHE_SHARDS: usize = 8;

/// The fault-injection site at which a firing drill drops a memoized
/// node and forces a behavior-preserving recomputation.
pub const QUOTIENT_FAULT_SITE: &str = "buchi.quotient_cache";

/// Counters describing how an [`InternedGraph`] (or a whole
/// [`QuotientCache`], summed over shards) has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotientCacheStats {
    /// Lookups answered from an interned node.
    pub hits: usize,
    /// Lookups that computed a quotient from scratch and interned it.
    /// Disjoint from `collisions`: every lookup is exactly one of hit,
    /// miss, or collision.
    pub misses: usize,
    /// Nodes currently interned.
    pub entries: usize,
    /// Nodes dropped by fault injection (site
    /// [`QUOTIENT_FAULT_SITE`]) — each one forced a
    /// behavior-preserving recomputation.
    pub invalidations: usize,
    /// Lookups whose 64-bit structural hash matched an interned node
    /// for a *different* automaton; the quotient was recomputed
    /// uncached, so a collision costs time but never correctness.
    pub collisions: usize,
    /// Incremental [`InternedGraph::advance`] calls (the
    /// `define`/`redefine` path).
    pub advances: usize,
    /// SCCs whose simulation verdicts an advance had to recompute.
    pub dirty_sccs: usize,
    /// SCCs whose verdicts an advance carried over from the previous
    /// version unchanged.
    pub clean_sccs: usize,
}

/// What one [`InternedGraph::advance`] did: how much of the new
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
#[derive(Debug, Clone)]
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

/// The from-scratch quotient pipeline: trim to the reachable part,
/// compute the simulation fixpoint there, quotient. This is the
/// function every cached or incremental path must agree with bit for
/// bit; it is `reduce ∘ trim` with the fixpoint rows exposed.
fn compute_node(b: &Buchi) -> InternedNode {
    let trimmed = b.trim_unreachable();
    let succ = successor_sets(&trimmed);
    let mut rows = initial_rows(&trimmed);
    refine_rows(&succ, &mut rows);
    let quotient = quotient_from_rows(&trimmed, &rows);
    InternedNode {
        automaton: b.clone(),
        trimmed: Arc::new(trimmed),
        rows: Arc::new(rows),
        quotient: Arc::new(quotient),
    }
}

/// The trim-first simulation quotient of `b`, computed from scratch
/// with no cache involved — the differential reference for
/// [`InternedGraph::quotient`] and [`InternedGraph::advance`].
#[must_use]
pub fn scratch_quotient(b: &Buchi) -> Buchi {
    compute_node(b).quotient.as_ref().clone()
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

/// An arena of interned automaton versions with structural-key lookup
/// and incremental quotient maintenance. Single-threaded; the sharded
/// [`QuotientCache`] wraps it for concurrent use.
#[derive(Debug)]
pub struct InternedGraph {
    arena: Vec<InternedNode>,
    index: HashMap<u64, usize>,
    cap: usize,
    plan: FaultPlan,
    hits: usize,
    misses: usize,
    invalidations: usize,
    collisions: usize,
    advances: usize,
    dirty_sccs: usize,
    clean_sccs: usize,
    lookups: u64,
}

impl Default for InternedGraph {
    fn default() -> Self {
        Self::with_cap(QUOTIENT_CACHE_CAP)
    }
}

impl InternedGraph {
    /// An empty arena with the default node cap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena clearing itself past `cap` interned nodes,
    /// under the process-wide fault plan.
    #[must_use]
    pub fn with_cap(cap: usize) -> Self {
        Self::with_cap_and_fault(cap, *fault::global())
    }

    /// [`InternedGraph::with_cap`] with the fault drill pinned to an
    /// explicit plan — owners that pin their own plan (the `sld`
    /// daemon's golden-transcript tests) stay byte-deterministic even
    /// when the process runs under the environment drill.
    #[must_use]
    pub fn with_cap_and_fault(cap: usize, plan: FaultPlan) -> Self {
        InternedGraph {
            arena: Vec::new(),
            index: HashMap::new(),
            cap: cap.max(1),
            plan,
            hits: 0,
            misses: 0,
            invalidations: 0,
            collisions: 0,
            advances: 0,
            dirty_sccs: 0,
            clean_sccs: 0,
            lookups: 0,
        }
    }

    /// The interned node for `b`, if present (hash probe + equality
    /// check; never counts toward the hit/miss stats).
    #[must_use]
    pub fn node(&self, b: &Buchi) -> Option<&InternedNode> {
        let slot = *self.index.get(&b.structural_hash())?;
        let node = &self.arena[slot];
        (node.automaton == *b).then_some(node)
    }

    fn intern(&mut self, key: u64, node: InternedNode) -> usize {
        if let Some(&slot) = self.index.get(&key) {
            // Re-intern under an occupied key (advance over a stale
            // occupant): replace in place, arena slot count unchanged.
            self.arena[slot] = node;
            return slot;
        }
        if self.index.len() >= self.cap {
            self.arena.clear();
            self.index.clear();
        }
        self.arena.push(node);
        let slot = self.arena.len() - 1;
        self.index.insert(key, slot);
        slot
    }

    /// The simulation quotient of `b` (over its reachable part),
    /// computed at most once per distinct automaton.
    ///
    /// Under a fault drill (the plan pinned at construction, defaulting
    /// to the process-wide one; site [`QUOTIENT_FAULT_SITE`]), a firing
    /// lookup drops the interned node and recomputes — a
    /// behavior-preserving degradation observable via
    /// [`QuotientCacheStats::invalidations`].
    pub fn quotient(&mut self, b: &Buchi) -> Arc<Buchi> {
        let lookup = self.lookups;
        self.lookups += 1;
        let key = b.structural_hash();
        if self.plan.should_fault(QUOTIENT_FAULT_SITE, lookup)
            && self
                .index
                .get(&key)
                .is_some_and(|&slot| self.arena[slot].automaton == *b)
        {
            self.index.remove(&key);
            self.invalidations += 1;
        }
        if let Some(&slot) = self.index.get(&key) {
            if self.arena[slot].automaton == *b {
                self.hits += 1;
                return Arc::clone(&self.arena[slot].quotient);
            }
            // Hash collision with a distinct automaton: keep the first
            // occupant (deterministic) and recompute uncached.
            self.collisions += 1;
            return Arc::new(scratch_quotient(b));
        }
        self.misses += 1;
        let node = compute_node(b);
        let quotient = Arc::clone(&node.quotient);
        self.intern(key, node);
        quotient
    }

    /// Interns `new` as the successor version of `old` (the
    /// `define`/`redefine` path), seeding its simulation fixpoint from
    /// `old`'s interned node where their SCCs are provably unchanged.
    /// Falls back to a full computation when `old` was never interned,
    /// the alphabets differ, or `new` is already interned (then a pure
    /// hit). The resulting node is bit-identical to a from-scratch
    /// [`InternedGraph::quotient`] of `new` in every case.
    pub fn advance(&mut self, old: &Buchi, new: &Buchi) -> AdvanceReport {
        let old_node = self.node(old).cloned();
        self.advance_from(old_node.as_ref(), new)
    }

    /// [`InternedGraph::advance`] with the old node supplied by the
    /// caller — the cross-shard form [`QuotientCache::advance`] needs.
    pub fn advance_from(&mut self, old: Option<&InternedNode>, new: &Buchi) -> AdvanceReport {
        self.advances += 1;
        let key = new.structural_hash();
        if let Some(&slot) = self.index.get(&key) {
            if self.arena[slot].automaton == *new {
                // The target version is already interned (e.g. a
                // redefine toggled back): nothing to recompute.
                self.hits += 1;
                return AdvanceReport::default();
            }
        }
        let trimmed = new.trim_unreachable();
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
        self.misses += 1;
        self.dirty_sccs += report.dirty_sccs;
        self.clean_sccs += report.clean_sccs;
        self.intern(
            key,
            InternedNode {
                automaton: new.clone(),
                trimmed: Arc::new(trimmed),
                rows: Arc::new(rows),
                quotient: Arc::new(quotient),
            },
        );
        report
    }

    /// Usage counters.
    #[must_use]
    pub fn stats(&self) -> QuotientCacheStats {
        QuotientCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.index.len(),
            invalidations: self.invalidations,
            collisions: self.collisions,
            advances: self.advances,
            dirty_sccs: self.dirty_sccs,
            clean_sccs: self.clean_sccs,
        }
    }
}

/// A concurrency-safe quotient cache: striped `Mutex`-guarded
/// [`InternedGraph`] shards selected by structural hash. The `sld`
/// daemon owns one instance per service — so its `stats` counters are
/// a deterministic function of the session — and callers without a
/// cache of their own share the process-wide [`shared_quotient_cache`].
#[derive(Debug)]
pub struct QuotientCache {
    shards: Vec<Mutex<InternedGraph>>,
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
        let per_shard = (QUOTIENT_CACHE_CAP / QUOTIENT_CACHE_SHARDS).max(1);
        QuotientCache {
            shards: (0..QUOTIENT_CACHE_SHARDS)
                .map(|_| Mutex::new(InternedGraph::with_cap_and_fault(per_shard, plan)))
                .collect(),
        }
    }

    /// The shard responsible for `key`, locked. Mutex poisoning is
    /// absorbed: the cache is semantically transparent, so state
    /// abandoned by a panicking thread is still a valid memo table.
    fn shard(&self, key: u64) -> MutexGuard<'_, InternedGraph> {
        let index = (key % self.shards.len() as u64) as usize;
        self.shards[index]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The simulation quotient of `b`, computed at most once per
    /// distinct automaton across all threads sharing this cache.
    #[must_use]
    pub fn quotient(&self, b: &Buchi) -> Arc<Buchi> {
        self.shard(b.structural_hash()).quotient(b)
    }

    /// Interns `new` as the successor version of `old`, seeding from
    /// `old`'s node when it is interned (see
    /// [`InternedGraph::advance`]). The old shard is released before
    /// the new shard is taken, so no two stripes are ever held at once.
    pub fn advance(&self, old: &Buchi, new: &Buchi) -> AdvanceReport {
        let old_node = self.shard(old.structural_hash()).node(old).cloned();
        self.shard(new.structural_hash())
            .advance_from(old_node.as_ref(), new)
    }

    /// Summed counters across shards (`entries` is the total resident).
    #[must_use]
    pub fn stats(&self) -> QuotientCacheStats {
        let mut total = QuotientCacheStats::default();
        for shard in &self.shards {
            let stats = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.entries += stats.entries;
            total.invalidations += stats.invalidations;
            total.collisions += stats.collisions;
            total.advances += stats.advances;
            total.dirty_sccs += stats.dirty_sccs;
            total.clean_sccs += stats.clean_sccs;
        }
        total
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
        let mut graph = InternedGraph::new();
        let b = pool_automaton(3);
        let first = graph.quotient(&b);
        let second = graph.quotient(&b);
        assert_eq!(first, second);
        let stats = graph.stats();
        assert_eq!(stats.misses, 1 + stats.invalidations);
        assert_eq!(stats.hits, 1 - stats.invalidations.min(1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn hash_collisions_recompute_uncached() {
        let mut graph = InternedGraph::new();
        let planted = pool_automaton(1);
        let queried = pool_automaton(2);
        assert_ne!(planted, queried);
        // Plant the wrong automaton under the queried key, simulating a
        // 64-bit structural-hash collision.
        let mut node = compute_node(&planted);
        node.automaton = node.automaton.clone();
        let key = queried.structural_hash();
        graph.intern(key, node);
        let out = graph.quotient(&queried);
        assert_eq!(*out, scratch_quotient(&queried));
        let stats = graph.stats();
        assert_eq!(stats.collisions, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn pinned_fault_plan_governs_invalidations() {
        let b = pool_automaton(3);
        // An always-firing pinned plan drills the invalidation path:
        // each repeat lookup drops the node and recomputes, but the
        // answers stay bit-identical (behavior-preserving degradation).
        let mut drilled = InternedGraph::with_cap_and_fault(8, FaultPlan::new(7, 1.0));
        let first = drilled.quotient(&b);
        let second = drilled.quotient(&b);
        assert_eq!(first, second);
        assert!(drilled.stats().invalidations >= 1, "{:?}", drilled.stats());
        // A pinned-disabled plan never invalidates, regardless of the
        // process environment — what keeps the sld golden transcripts
        // byte-identical under the verify.sh fault drill.
        let mut quiet = InternedGraph::with_cap_and_fault(8, FaultPlan::disabled());
        quiet.quotient(&b);
        quiet.quotient(&b);
        let stats = quiet.stats();
        assert_eq!((stats.invalidations, stats.hits, stats.misses), (0, 1, 1));
    }

    #[test]
    fn cap_and_clear_bounds_the_arena() {
        let mut graph = InternedGraph::with_cap(4);
        for seed in 0..20u64 {
            graph.quotient(&pool_automaton(seed));
        }
        assert!(graph.stats().entries <= 4);
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

            let mut graph = InternedGraph::new();
            graph.quotient(&old);
            let report = graph.advance(&old, &new);
            let incremental = graph.node(&new).expect("advance interned the new version");
            assert_eq!(
                *incremental.quotient(),
                scratch_quotient(&new),
                "seed {seed}: incremental quotient differs from scratch"
            );
            assert_eq!(
                *incremental.rows(),
                *compute_node(&new).rows,
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
        let mut graph = InternedGraph::new();
        let report = graph.advance(&old, &new);
        assert_eq!(report, AdvanceReport::default());
        assert_eq!(
            *graph.node(&new).expect("interned").quotient(),
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
        let stats = cache.stats();
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
        let mut graph = InternedGraph::new();
        graph.quotient(&old);
        sabotage::set_break_dirty_tracking(true);
        let drilled = {
            graph.advance(&old, &new);
            graph.node(&new).expect("interned").rows()
        };
        sabotage::set_break_dirty_tracking(false);
        assert_ne!(
            *drilled,
            *compute_node(&new).rows,
            "the drill must produce stale fixpoint rows on this fixture"
        );
    }
}
